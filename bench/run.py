"""kgmas benchmark: one operator driving ``Scenario.run_task`` in a closed loop.

    python3 bench/run.py --workload fixture --seed 1 --seconds 20 --trace 0

A cycle is what ``kgmas run`` does: build the scenario, run
``move_pallet`` from P1 to P2, close it and render ``trace.log`` and
``data.ttl``. Cycles run back to back, single-threaded, for ``--seconds``;
every task goes through the correctness gate.

With ``--trace 0`` the last line carries the end-to-end metrics, taken
with no instrumentation and scaled to a reference host pace (``pace.py``);
the report also holds them unscaled. With ``--trace 1`` cycles alternate between
untraced and traced, and the last line carries per-layer metrics from
the traced ones (spans are written to ``bench/out/``). Earlier lines hold
a report with sample counts, input digests and the environment.

Exit codes: 0 when every task passed the gate, 1 when one did not (or
the gate's self-test or the tracer's checks failed), 2 when the program
cannot be loaded.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import gate
import inputs as workload_inputs
import pace
from pace import Pace
from tracer import CYCLE, LayerStats, Tracer

ROOT = workload_inputs.ROOT
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("fixture", "big_graph", "fleet")
MODULES = ("acl", "agents", "cli", "connection", "protocol", "rami", "runtime",
           "store", "transports", "turtle", "vocab", "world")


class ProgramMissing(Exception):
    pass


def load_program() -> SimpleNamespace:
    """Import ``kgmas`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "kgmas" / "__init__.py").is_file():
        raise ProgramMissing(f"no kgmas package under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"kgmas.{name}") for name in MODULES}
    package = sys.modules["kgmas"]
    if Path(package.__file__).resolve().parent != (SRC / "kgmas").resolve():
        raise ProgramMissing(f"kgmas imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**modules)


# -- one cycle ----------------------------------------------------------------


@dataclass
class Sample:
    setup_s: float
    task_s: float
    cycle_s: float
    ticks: list
    data_triples: int
    # The same times scaled to the reference pace (``pace.py``), when paced.
    paced: "Sample | None" = None


def build(kg, inp):
    store = kg.store.NamedGraphStore()
    store.load_turtle(kg.vocab.SETUP_GRAPH, inp.setup_text)
    if inp.inventory_text:
        store.load_turtle(kg.vocab.DATA_GRAPH, inp.inventory_text)
    world = kg.world.WarehouseWorld.from_fixture(json.loads(inp.world_text))
    return kg.runtime.Scenario(store, world, transport_overrides=inp.overrides)


def run_cycle(kg, inp, tracer: Tracer | None = None,
              pacer: Pace | None = None) -> tuple[Sample, gate.Outcome]:
    """One cycle; with a ``pacer``, also probe the host's pace around every interval.

    Probes run outside the timed intervals: after set-up, at a tick
    boundary once ``pace.EVERY_S`` has passed since the last probe (the
    pause is left out of the task time) and after the render. The last
    probe of the previous cycle serves as the one before this set-up.
    """
    span = tracer.span if tracer else (lambda name: nullcontext())
    clock = time.perf_counter
    probes: list[float] = []
    marks: list[int] = []   # per tick: index of the last probe before it ended
    paused = 0.0

    def probe():
        if pacer:
            probes.append(pacer.probe())

    # Untimed: every cycle starts from a heap with no garbage left by the
    # last one, as a fresh ``kgmas run`` does, so collections fall at the
    # same points in every cycle.
    gc.collect()
    ticks = []
    if pacer:
        probes.append(pacer.last())
    if tracer:
        tracer.open(CYCLE)
    t0 = clock()
    with span("bench.setup"):
        scenario = build(kg, inp)
    t1 = clock()
    probe()

    def on_tick(_scenario):
        nonlocal last, probed, paused
        now = clock()
        ticks.append(now - last)
        marks.append(len(probes) - 1)
        if tracer:
            tracer.next_tick()
        if pacer and now - probed >= pace.EVERY_S:
            probe()
            probed = clock()
            paused += probed - now
            now = probed
        last = now

    entry = last = probed = clock()
    result = scenario.run_task(workload_inputs.TASK, workload_inputs.TASK_PARAMS,
                               on_tick=on_tick)
    t2 = clock()
    with span("bench.close"):
        scenario.close()
    with span("bench.render"):
        trace_text = kg.acl.format_trace(result.trace)
        data_text = scenario.store.dump_turtle(kg.vocab.DATA_GRAPH)
        consistency_text = "".join(f"{tick}\t{count}\n" for tick, count
                                   in enumerate(result.violations_per_tick, start=1))
    t3 = clock()
    probe()
    data_triples = len(scenario.store.triples(kg.vocab.DATA_GRAPH))
    if tracer:
        tracer.close(data_triples)
    outcome = gate.outcome_of(scenario, result, workload_inputs.PALLET,
                              trace_text, data_text, consistency_text)
    setup_s, task_s, tail_s, finish_s = t1 - t0, t2 - entry - paused, t2 - last, t3 - t2
    sample = Sample(setup_s, task_s, setup_s + task_s + finish_s, ticks, data_triples)
    if pacer:
        def paced(raw, mark):
            return raw * pace.scale(probes[mark], probes[mark + 1])
        paced_ticks = [paced(t, m) for t, m in zip(ticks, marks)]
        paced_setup = paced(setup_s, 0)
        paced_task = sum(paced_ticks) + paced(tail_s, len(probes) - 2)
        paced_cycle = paced_setup + paced_task + paced(finish_s, len(probes) - 2)
        sample.paced = Sample(paced_setup, paced_task, paced_cycle, paced_ticks,
                              data_triples)
    return sample, outcome


# -- expectations and checks ----------------------------------------------------


def expected_for(kg, inp) -> gate.Expected:
    """Reference outcome: the shipped golden artifacts plus the workload's extras."""
    store = kg.store.NamedGraphStore()
    store.load_turtle(kg.vocab.SETUP_GRAPH, inp.setup_text)
    protocol = kg.protocol.load_protocol(store, kg.vocab.SETUP_GRAPH,
                                         workload_inputs.TASK)
    data = set(kg.turtle.parse_turtle(workload_inputs.golden("data.ttl")))
    if inp.expected_extra_data:
        data |= set(kg.turtle.parse_turtle(inp.expected_extra_data))
    return gate.Expected(
        status=kg.protocol.COMPLETED,
        skeleton=tuple(kg.protocol.derive_trace_skeleton(protocol)),
        pallet_position=workload_inputs.TARGET,
        trace_text=workload_inputs.golden("trace.log"),
        data_text=kg.turtle.serialize_turtle(data),
    )


def check_cli(kg) -> list[str]:
    """``kgmas run`` on the shipped fixture must reproduce the golden artifacts."""
    out = OUT / "cli-run"
    fixtures = workload_inputs.FIXTURES
    with redirect_stdout(io.StringIO()):
        code = kg.cli.main(["run", "--setup", str(fixtures / "fig3_setup.ttl"),
                            "--world", str(fixtures / "warehouse_world.json"),
                            "--task", workload_inputs.TASK,
                            *[arg for k, v in workload_inputs.TASK_PARAMS.items()
                              for arg in ("--param", f"{k}={v}")],
                            "--out", str(out)])
    problems = [] if code == 0 else [f"kgmas run exited {code}"]
    for name in ("trace.log", "data.ttl", "consistency.txt"):
        path = out / name
        if not path.is_file() or path.read_text(encoding="utf-8") != \
                workload_inputs.golden(name):
            problems.append(f"kgmas run: {name} differs from bench/golden/{name}")
    return problems


def describe_inputs(kg, inp) -> list[dict]:
    documents = [("setup", inp.setup_text), ("world", inp.world_text)]
    if inp.inventory_text:
        documents.append(("inventory", inp.inventory_text))
    out = []
    for name, text in documents:
        triples = None if name == "world" else len(set(kg.turtle.parse_turtle(text)))
        out.append({"name": name, "triples": triples,
                    "sha256": workload_inputs.sha256(text)})
    return out


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree.

    Asked only when the checkout has its own ``.git``, so that git does not
    look for a repository in the directories above it.
    """
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(**run) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "kgmas").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "clock": "time.perf_counter",
        **run,
    }


# -- statistics -----------------------------------------------------------------


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated linearly between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(samples: list[Sample], failed: int, attempted: int) -> dict:
    ticks = [t for s in samples for t in s.ticks]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(s.setup_s for s in samples), "s", len(samples)),
        "task_ms_p50": (statistics.median(s.task_s for s in samples) * 1e3, "ms",
                        len(samples)),
        "tick_ms_p50": (percentile(ticks, 50) * 1e3, "ms", len(ticks)),
        "tick_ms_p90": (percentile(ticks, 90) * 1e3, "ms", len(ticks)),
        "tick_ms_p95": (percentile(ticks, 95) * 1e3, "ms", len(ticks)),
        "tasks_per_s": (len(samples) / sum(s.cycle_s for s in samples), "1/s",
                        len(samples)),
        "task_fail_share": (failed / attempted, "share", attempted),
        "peak_rss_mb": (rss_kib / 1024, "MB", 1),
    }


# -- main -------------------------------------------------------------------------


def declared_metrics() -> dict[str, dict[str, str]]:
    """Section -> metric name -> unit, as ``BENCHMARK.json`` at the root lists them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        doc = json.load(handle)
    return {section: {m["name"]: m["unit"] for m in doc[section]}
            for section in ("end_to_end", "per_layer")}


def select(measured: dict, declared: dict[str, str]) -> dict:
    """The declared metrics, checked against the units they were measured in."""
    out = {}
    for name, unit in declared.items():
        value, measured_unit = measured[name][:2]
        if measured_unit != unit:
            raise ValueError(f"{name}: measured in {measured_unit}, declared {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        kg = load_program()
        inp = workload_inputs.make_inputs(args.workload, args.seed)
        declared = declared_metrics()
    except (ProgramMissing, ImportError, OSError) as exc:
        print(f"error: cannot load the program or its fixtures: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    expected = expected_for(kg, inp)
    problems = check_cli(kg)

    attempted = failed = 0
    failures: list[str] = []

    def judge(outcome: gate.Outcome) -> None:
        nonlocal attempted, failed
        attempted += 1
        reasons = gate.check(outcome, expected)
        if reasons:
            failed += 1
            if len(failures) < 10:
                failures.append(f"task {attempted}: {'; '.join(reasons)}")

    _, outcome = run_cycle(kg, inp)
    judge(outcome)
    problems += gate.self_test(outcome, expected)

    tracer = Tracer() if args.trace else None
    # Untraced runs report paced times; traced runs, raw ones (see pace.py).
    pacer = None if tracer else Pace()
    layer_stats = LayerStats()
    plain: list[Sample] = []
    traced: list[Sample] = []
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline or not plain
           or (tracer is not None and not traced)):
        if tracer is not None and len(traced) < len(plain):
            tracer.install(kg)
            try:
                sample, outcome = run_cycle(kg, inp, tracer)
            finally:
                tracer.uninstall()
            layer_stats.add(tracer.take())
            traced.append(sample)
        else:
            sample, outcome = run_cycle(kg, inp, pacer=pacer)
            plain.append(sample)
        judge(outcome)

    raw = end_to_end(plain, failed, attempted)
    e2e = end_to_end([s.paced for s in plain], failed, attempted) if pacer else raw
    report = {
        "environment": environment(workload=args.workload, seed=args.seed,
                                   seconds=args.seconds, trace=args.trace),
        "inputs": describe_inputs(kg, inp),
        "gate": {"attempted": attempted, "failed": failed, "failures": failures,
                 "problems": problems},
        "end_to_end": {name: {"value": v, "unit": u, "samples": n}
                       for name, (v, u, n) in e2e.items()},
    }
    if pacer:
        report["end_to_end_raw"] = {name: {"value": v, "unit": u, "samples": n}
                                    for name, (v, u, n) in raw.items()}
        report["pace"] = pacer.summary()
    if tracer is None:
        metrics = select(e2e, declared["end_to_end"])
    else:
        spans_path = OUT / f"spans-{args.workload}.tsv"
        layer_stats.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        trace_problems = [f"tracer: {label} not found" for label in tracer.missing]
        trace_problems += layer_stats.check([t for s in traced for t in s.ticks])
        problems += trace_problems
        metrics = {}
        if not trace_problems:
            layers, breakdown = layer_stats.metrics()
            plain_task = statistics.median(s.task_s for s in plain)
            traced_task = statistics.median(s.task_s for s in traced)
            layers["trace.overhead_share"] = (traced_task / plain_task - 1, "share")
            report["per_layer"] = {name: {"value": v, "unit": u}
                                   for name, (v, u) in layers.items()}
            report["breakdown"] = breakdown
            metrics = select(layers, declared["per_layer"])

    correct = failed == 0 and not problems
    print(json.dumps(report, indent=1, ensure_ascii=False))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
