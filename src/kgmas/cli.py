"""Command line entry points.

Subcommands: ``validate`` a setup graph, ``generate`` agent specs from it,
``run`` a task in a simulated warehouse, ``dump`` a graph in canonical
form, ``trace`` pretty-print a recorded message log, ``check`` a data
graph for physical consistency.

Exit codes: 0 on success, 1 when the domain says no (validation issues,
failed task, consistency violations), 2 when an input cannot be read at
all or is not UTF-8 (the message names the file).  Diagnostics go to
stderr, controlled by ``KGMAS_LOG`` (quiet, info or debug; default
quiet).  Results go to stdout.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .acl import format_trace
from .agents import emit_specs, generate_agents
from .errors import (GenerationError, KgmasError, ProtocolError, TurtleParseError,
                     ValidationError, WorldError, read_text)
from .protocol import COMPLETED, check_world_consistency
from .rami import validate_setup
from .runtime import DEFAULT_DEADLINE_MS, Scenario, load_protocols
from .store import NamedGraphStore
from .vocab import DATA_GRAPH, SETUP_GRAPH

log = logging.getLogger("kgmas.cli")

_LOG_LEVELS = {
    "quiet": logging.CRITICAL + 10,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _configure_logging() -> None:
    level = os.environ.get("KGMAS_LOG", "quiet").strip().lower()
    logging.basicConfig(
        stream=sys.stderr,
        level=_LOG_LEVELS.get(level, _LOG_LEVELS["quiet"]),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _load_graph(path: str, graph_id) -> NamedGraphStore:
    store = NamedGraphStore()
    store.load_turtle(graph_id, read_text(path))
    return store


def _parse_pairs(pairs, what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValidationError(f"{what} must look like key=value, got {pair!r}")
        out[key] = value
    return out


# -- subcommands ------------------------------------------------------------


def cmd_validate(args) -> int:
    """Check the asset descriptions, then every protocol ``run`` can load."""
    store = _load_graph(args.setup, SETUP_GRAPH)
    lines = [f"{issue.rule}\t{issue.subject}\t{issue.message}"
             for issue in validate_setup(store, SETUP_GRAPH).issues]
    lines += [f"protocol\t{task}\t{loaded}"
              for task, loaded in load_protocols(store, SETUP_GRAPH).items()
              if isinstance(loaded, ProtocolError)]
    if not lines:
        print(f"setup ok ({len(store.triples(SETUP_GRAPH))} triples)")
        return 0
    print("\n".join(lines))
    return 1


def cmd_generate(args) -> int:
    store = _load_graph(args.setup, SETUP_GRAPH)
    try:
        blueprints = generate_agents(store, SETUP_GRAPH)
    except GenerationError as exc:
        print(str(exc), file=sys.stderr)
        for issue in exc.violations:
            print(f"{issue.rule}\t{issue.subject}\t{issue.message}",
                  file=sys.stderr)
        return 1
    for blueprint in blueprints:
        role = blueprint.coordination_role.local_name
        print(f"{blueprint.agent_id}\t{blueprint.asset_id.value}\t{role}")
    if args.emit:
        for path in emit_specs(blueprints, args.emit):
            log.info("wrote %s", path)
    return 0


def cmd_run(args) -> int:
    params = _parse_pairs(args.param, "--param")
    overrides = _parse_pairs(args.transport_override, "--transport-override")
    scenario = Scenario.from_files(
        args.setup, args.world,
        transport_overrides=overrides,
        deadline_ms=args.deadline_ms,
    )
    result = scenario.run_task(args.task, params)
    scenario.close()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        consistency = "".join(f"{tick}\t{count}\n" for tick, count
                              in enumerate(result.violations_per_tick, start=1))
        for name, text in (("trace.log", format_trace(result.trace)),
                           ("data.ttl", scenario.store.dump_turtle(DATA_GRAPH)),
                           ("consistency.txt", consistency)):
            with open(os.path.join(args.out, name), "w", encoding="utf-8") as handle:
                handle.write(text)
    if result.status == COMPLETED:
        print(f"task {result.task.task_id} completed after {result.ticks} ticks")
        return 0
    print(f"task {result.task.task_id} {result.status} at step "
          f"{result.stalled_step} after {result.ticks} ticks")
    return 1


def cmd_dump(args) -> int:
    store = _load_graph(args.setup, SETUP_GRAPH)
    sys.stdout.write(store.dump_turtle(SETUP_GRAPH))
    return 0


def cmd_trace(args) -> int:
    last_seq = 0
    for number, line in enumerate(read_text(args.tracefile).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise ValidationError(
                f"trace line {number}: expected 6 tab-separated fields")
        seq_text, performative, sender, receiver, conversation, content = parts
        try:
            seq = int(seq_text)
        except ValueError:
            raise ValidationError(f"trace line {number}: bad sequence number")
        if seq <= last_seq:
            raise ValidationError(
                f"trace line {number}: sequence numbers must increase")
        last_seq = seq
        print(f"{seq:>4}  {performative:<8} {sender} -> {receiver}  "
              f"[{conversation}]  {content}")
    return 0


def cmd_check(args) -> int:
    store = _load_graph(args.data, DATA_GRAPH)
    violations = check_world_consistency(store, DATA_GRAPH)
    for violation in violations:
        print(f"{violation.rule}\t{violation.first}\t{violation.second}\t"
              f"at {violation.position}")
    if violations:
        return 1
    print("no violations")
    return 0


# -- wiring -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgmas",
        description="Knowledge-graph coordinated warehouse agents.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the asset descriptions in a setup graph")
    p.add_argument("--setup", required=True, help="setup graph (turtle)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("generate", help="derive agent specs from a setup graph")
    p.add_argument("--setup", required=True)
    p.add_argument("--emit", metavar="DIR", help="write one JSON spec per agent")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="run one task in a simulated warehouse")
    p.add_argument("--setup", required=True)
    p.add_argument("--world", required=True, help="world fixture (JSON)")
    p.add_argument("--task", required=True)
    p.add_argument("--param", action="append", metavar="K=V",
                   help="task parameter, repeatable")
    p.add_argument("--deadline-ms", type=int, default=DEFAULT_DEADLINE_MS,
                   help="per-step progress deadline in logical ms")
    p.add_argument("--out", metavar="DIR",
                   help="write trace.log, data.ttl and consistency.txt here")
    p.add_argument("--transport-override", action="append",
                   metavar="ASSET=SCHEME",
                   help="force one agent onto another transport, repeatable")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("dump", help="print a turtle graph in canonical form")
    p.add_argument("--setup", required=True, help="graph file to normalize")
    p.set_defaults(func=cmd_dump)

    p = sub.add_parser("trace", help="pretty-print a recorded trace log")
    p.add_argument("tracefile")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("check", help="check a data graph for consistency")
    p.add_argument("data", help="data graph dump (turtle)")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TurtleParseError, WorldError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KgmasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
