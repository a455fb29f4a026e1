"""Spans around the program's layer entry points, recorded from outside.

``Tracer.install`` replaces each entry point with a wrapper that records
a span (name, start, end, parent, note) and puts the original back on
``uninstall``. A function is wrapped in the namespace its caller looks
it up in (``kgmas.runtime.check_world_consistency``, not
``kgmas.protocol.check_world_consistency``), a method on its class.
``LayerStats`` folds each traced cycle's spans into per-layer sums and
keeps the spans of the first few cycles in memory to write out at the end.

Ticks are spans too: ``runtime.tick`` runs from ``run_task`` entry to the
first ``on_tick`` callback and then from one callback to the next; what
``run_task`` does after the last callback is ``runtime.task_tail``. A
span's self time is its duration minus the time its children cover; the
tick's own self time is the residual, the part no wrapped entry point covers.

``LayerStats.check`` refuses a traced run whose figures would mislead: an
entry point the run never reached (its metrics would read 0, like a gain),
or tick spans that disagree with the intervals ``on_tick`` measured.

Transport self time includes the subscriber and responder callbacks a
hub runs synchronously, except for the spans they open themselves
(``connection.translate``, ``store.replace``).
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, NOTE = range(5)

TICK = "runtime.tick"
TAIL = "runtime.task_tail"
CYCLE = "bench.cycle"
# Every span is attributed to the nearest enclosing span with one of these names.
SCOPES = frozenset({TICK, TAIL, "bench.setup", "bench.close", "bench.render"})
KEPT_CYCLES = 5

# Reached exactly once in every tick by ``run_task``'s loop.
EVERY_TICK = ("runtime.iterate", "protocol.consistency")
# Reached in every cycle; the per-layer metrics are computed from these.
EVERY_CYCLE = (
    "turtle.parse", "turtle.serialize", "store.replace", "protocol.load_protocol",
    "rami.validate", "rami.extract", "agents.generate", "agents.instantiate",
    "agents.shutdown", "runtime.setup", "acl.send", "acl.receive", "world.step",
    "world.apply", "agents.kg_activate", "agents.asset_activate",
    "connection.dispatch", "connection.observe",
)
TRANSPORTS = ("transports.publish", "transports.request")
# Tick spans and ``on_tick`` intervals are read from the same clock a few
# instructions apart; a larger gap means the spans do not scope the ticks.
TICK_GAP_LIMIT = 0.01


def _replace_note(tracer):
    """Whether a ``replace`` call changed the facts it names.

    Compared against the last facts ``replace`` wrote for the same
    subject and predicate in the same cycle; a key seen for the first
    time counts as empty before. In the benchmark's data graph no other
    writer touches these subjects, so this equals a change of the graph.
    """
    def note(args, kwargs, result):
        store, graph_id, subject, facts = args[:4]
        changed = False
        for predicate, objects in facts.items():
            key = (id(store), str(graph_id), subject, predicate)
            new = frozenset(objects)
            if tracer.shadow.get(key, frozenset()) != new:
                changed = True
            tracer.shadow[key] = new
        return changed
    return note


def _count(args, kwargs, result):
    return len(result)


def _truthy(args, kwargs, result):
    return bool(result)


def _is_message(args, kwargs, result):
    return result is not None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.shadow: dict = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])

    def close(self, note=None) -> None:
        span = self.spans[self._stack.pop()]
        span[END] = time.perf_counter_ns()
        span[NOTE] = note

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def next_tick(self) -> None:
        """Called from ``on_tick``: end the running tick, start the next."""
        self.close()
        self.open(TICK)

    def _wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][END] = clock()
                stack.pop()
            if note is not None:
                spans[index][NOTE] = note(args, kwargs, result)
            return result
        return traced

    def _wrap_run_task(self, fn):
        """``run_task`` opens the first tick; what follows the last tick is the tail."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open("runtime.run_task")
            self.open(TICK)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[self._stack[-1]][NAME] = TAIL
                self.close()
                self.close()
        return traced

    # -- patching ----------------------------------------------------------

    def _targets(self, kg):
        store, agents, runtime = kg.store, kg.agents, kg.runtime
        connection, world, transports, acl = (kg.connection, kg.world,
                                              kg.transports, kg.acl)
        Store, Scenario = store.NamedGraphStore, runtime.Scenario
        return [
            (store, "parse_turtle", "turtle.parse", _count),
            (store, "serialize_turtle", "turtle.serialize", None),
            (Store, "load_turtle", "store.load_turtle", None),
            (Store, "dump_turtle", "store.dump_turtle", None),
            (Store, "replace", "store.replace", _replace_note(self)),
            (Store, "atomic_update", "store.atomic_update", None),
            (agents, "validate_setup", "rami.validate", None),
            (agents, "list_assets", "rami.list_assets", None),
            (agents, "extract_blueprint", "rami.extract", None),
            (runtime, "generate_agents", "agents.generate", None),
            (runtime, "instantiate", "agents.instantiate", None),
            (runtime, "shutdown", "agents.shutdown", None),
            (runtime, "load_protocol", "protocol.load_protocol", None),
            (runtime, "check_world_consistency", "protocol.consistency", None),
            (Scenario, "__init__", "runtime.setup", None),
            (Scenario, "iterate", "runtime.iterate", None),
            (Scenario, "close", "runtime.close", None),
            (agents.KgAgent, "activate", "agents.kg_activate", None),
            (agents.GenericAgent, "activate", "agents.asset_activate", None),
            (acl.Bus, "send", "acl.send", None),
            (acl.Bus, "try_receive", "acl.receive", _is_message),
            (connection.ConnectionComponent, "dispatch", "connection.dispatch", None),
            (connection.ConnectionComponent, "observe", "connection.observe", None),
            (connection.AgentChannel, "send_command", "connection.send_command", None),
            (connection.AgentChannel, "latest_observation",
             "connection.latest_observation", None),
            (connection, "translate", "connection.translate", None),
            (world.WarehouseWorld, "step", "world.step", None),
            (world.WarehouseWorld, "apply", "world.apply", _truthy),
            (transports.Adapter, "publish", "transports.publish", None),
            (transports.Adapter, "request", "transports.request", None),
        ]

    def install(self, kg) -> None:
        """Wrap every entry point; ``kg`` holds the program's modules by name."""
        self.shadow.clear()
        targets = self._targets(kg)
        targets.append((kg.runtime.Scenario, "run_task", None, None))
        for owner, attr, name, note in targets:
            original = vars(owner).get(attr)
            if original is None:
                label = f"{getattr(owner, '__name__', owner)}.{attr}"
                if label not in self.missing:
                    self.missing.append(label)
                continue
            wrapper = (self._wrap_run_task(original) if name is None
                       else self._wrap(name, original, note))
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start an empty list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


# -- analysis ---------------------------------------------------------------


def self_times(spans) -> list[int]:
    covered = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


class LayerStats:
    """Per-layer totals folded in one traced cycle at a time.

    Only the spans of the first ``KEPT_CYCLES`` cycles stay in memory, for
    ``write``; everything else is reduced to sums as it arrives.
    """

    def __init__(self):
        self.kept: list[list[list]] = []
        # (scope, name) -> [calls, self ns, duration ns, sum of notes]
        self.stats = defaultdict(lambda: [0, 0, 0, 0])
        self.cycles: list[dict] = []    # per cycle: name -> [duration ns, self ns]
        self.data_triples: list[int] = []

    def add(self, spans: list[list]) -> None:
        """Fold in the spans of one cycle, rooted at a ``bench.cycle`` span."""
        if len(self.kept) < KEPT_CYCLES:
            self.kept.append(spans)
        own = self_times(spans)
        scope = [None] * len(spans)
        per_name = defaultdict(lambda: [0, 0])
        # Parents are recorded before their children, so one pass finds scopes.
        for i, span in enumerate(spans):
            name, parent = span[NAME], span[PARENT]
            if name in SCOPES:
                scope[i] = name
            elif parent >= 0:
                scope[i] = scope[parent]
            duration = span[END] - span[START]
            entry = self.stats[(scope[i], name)]
            entry[0] += 1
            entry[1] += own[i]
            entry[2] += duration
            if span[NOTE] is not None:
                entry[3] += int(span[NOTE])
            per_name[name][0] += duration
            per_name[name][1] += own[i]
            if name == CYCLE:
                self.data_triples.append(span[NOTE])
        self.cycles.append(dict(per_name))

    def write(self, path) -> None:
        """One tab-separated line per kept span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("cycle\tindex\tparent\tname\tstart_ns\tend_ns\tnote\n")
            for cycle, spans in enumerate(self.kept):
                for index, (name, start, end, parent, note) in enumerate(spans):
                    handle.write(f"{cycle}\t{index}\t{parent}\t{name}\t{start}\t"
                                 f"{end}\t{'' if note is None else note}\n")

    def check(self, tick_intervals_s: list[float]) -> list[str]:
        """Problems that make the per-layer figures untrustworthy.

        ``tick_intervals_s`` are the ``on_tick`` intervals of the traced
        cycles, in the order they were measured.
        """
        problems = []
        for cycle, reached in enumerate(self.cycles, start=1):
            unreached = [n for n in EVERY_CYCLE if n not in reached]
            if not any(n in reached for n in TRANSPORTS):
                unreached.append("/".join(TRANSPORTS))
            if unreached:
                problems.append(f"traced cycle {cycle} never reached "
                                f"{', '.join(unreached)}")
                break
        ticks, tick_ns = self.stats[(TICK, TICK)][0], self.stats[(TICK, TICK)][2]
        for name in EVERY_TICK:
            calls = self._in(name)[0]
            if calls != ticks:
                problems.append(f"{name} ran {calls} times in {ticks} traced ticks")
        if not ticks or ticks != len(tick_intervals_s):
            problems.append(f"{ticks} tick spans for {len(tick_intervals_s)} "
                            "on_tick callbacks")
        else:
            measured_ns = sum(tick_intervals_s) * 1e9
            gap = abs(tick_ns - measured_ns) / measured_ns
            if gap > TICK_GAP_LIMIT:
                problems.append(f"tick spans differ from on_tick intervals by "
                                f"{gap:.2%} of tick time")
        return problems

    def _in(self, name, scopes=(TICK,)):
        """Calls, self ns and note sum of ``name`` within the given scopes."""
        entries = [self.stats[(s, name)] for s in scopes if (s, name) in self.stats]
        return (sum(e[0] for e in entries), sum(e[1] for e in entries),
                sum(e[3] for e in entries))

    def metrics(self) -> tuple[dict, dict]:
        """Per-layer metrics as name -> (value, unit), and a breakdown by span."""
        stats = self.stats
        ticks = stats[(TICK, TICK)][0]
        tick_ns = stats[(TICK, TICK)][2]
        tasks = len(self.cycles)

        def per_tick_us(*names):
            return sum(self._in(n)[1] for n in names) / ticks / 1e3

        def share(name):
            calls, _, notes = self._in(name)
            return notes / calls if calls else 0.0

        def cycle_ms(name, column=0):
            return statistics.median(c.get(name, (0, 0))[column]
                                     for c in self.cycles) / 1e6

        parse = [e for (s, n), e in stats.items() if n == "turtle.parse"]
        parsed = sum(e[3] for e in parse)
        send_calls, send_ns, _ = self._in("acl.send", (TICK, TAIL))
        metrics = {
            "turtle.parse_ms": (cycle_ms("turtle.parse"), "ms"),
            "turtle.parse_us_per_triple": (
                sum(e[2] for e in parse) / parsed / 1e3 if parsed else 0.0, "us"),
            "turtle.serialize_ms": (cycle_ms("turtle.serialize"), "ms"),
            "store.replace_self_ms_per_tick": (per_tick_us("store.replace") / 1e3, "ms"),
            "store.replace_calls_per_tick": (self._in("store.replace")[0] / ticks,
                                             "count"),
            "store.replace_changed_share": (share("store.replace"), "share"),
            "store.data_triples": (statistics.median(self.data_triples), "count"),
            "protocol.consistency_self_ms_per_tick": (
                per_tick_us("protocol.consistency") / 1e3, "ms"),
            "protocol.load_protocol_ms": (cycle_ms("protocol.load_protocol"), "ms"),
            "rami.validate_ms": (cycle_ms("rami.validate"), "ms"),
            "rami.extract_ms": (cycle_ms("rami.extract"), "ms"),
            "agents.generate_self_ms": (cycle_ms("agents.generate", 1), "ms"),
            "agents.instantiate_self_ms": (cycle_ms("agents.instantiate", 1), "ms"),
            "runtime.setup_self_ms": (cycle_ms("runtime.setup", 1), "ms"),
            "agents.shutdown_self_ms": (cycle_ms("agents.shutdown", 1), "ms"),
            "agents.kg_activate_self_us_per_tick": (per_tick_us("agents.kg_activate"),
                                                    "us"),
            "connection.dispatch_self_us_per_tick": (
                per_tick_us("connection.dispatch"), "us"),
            "connection.observe_self_us_per_tick": (per_tick_us("connection.observe"),
                                                    "us"),
            "world.step_self_us_per_tick": (per_tick_us("world.step"), "us"),
            "world.apply_accepted_share": (share("world.apply"), "share"),
            "agents.asset_activate_self_us_per_tick": (
                per_tick_us("agents.asset_activate"), "us"),
            "runtime.iterate_self_us_per_tick": (per_tick_us("runtime.iterate"), "us"),
            "runtime.tick_residual_us_per_tick": (per_tick_us(TICK), "us"),
            "transports.calls_per_tick": (
                sum(self._in(n)[0] for n in TRANSPORTS) / ticks, "count"),
            "transports.self_us_per_tick": (per_tick_us(*TRANSPORTS), "us"),
            "acl.receive_hit_share": (share("acl.receive"), "share"),
            "acl.send_calls_per_task": (send_calls / tasks, "count"),
            "acl.send_self_us_per_task": (send_ns / tasks / 1e3, "us"),
        }
        breakdown = {
            "ticks": ticks,
            "cycles": tasks,
            "tick_residual_share": stats[(TICK, TICK)][1] / tick_ns,
            "tick_self_us_per_tick": {
                name: round(e[1] / ticks / 1e3, 3)
                for (s, name), e in sorted(stats.items(), key=str) if s == TICK},
            "setup_self_ms_per_cycle": {
                name: round(e[1] / tasks / 1e6, 4)
                for (s, name), e in sorted(stats.items(), key=str)
                if s == "bench.setup"},
        }
        return metrics, breakdown
