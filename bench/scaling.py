"""Scaling report: how tick time and set-up time grow with input size.

    python3 bench/scaling.py --seed 1 > bench/results/scaling.json

Two sweeps, not gated workloads:

* ``tick_ms_p50`` against extra data-graph triples (0, 1k, 5k, 20k), using
  the ``big_graph`` inventory generator;
* ``setup_s`` against the number of assets (2 to 200), using the
  ``fleet`` generator on top of the fixture's two assets.

Every task still goes through the correctness gate; the script exits 1
if one fails and 2 if the program cannot be loaded. Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import gate
import inputs as workload_inputs
import run

EXTRA_TRIPLES = (0, 1000, 5000, 20000)
ASSETS = (2, 10, 50, 100, 200)
FIXTURE_ASSETS = 2
MIN_SECONDS = 3.0   # least time spent on each point


def measure(kg, inp, min_cycles: int) -> dict:
    expected = run.expected_for(kg, inp)
    samples, failures = [], 0
    started = time.perf_counter()
    while len(samples) < min_cycles or time.perf_counter() - started < MIN_SECONDS:
        sample, outcome = run.run_cycle(kg, inp)
        failures += bool(gate.check(outcome, expected))
        samples.append(sample)
    ticks = [t for s in samples for t in s.ticks]
    return {
        "cycles": len(samples),
        "failed": failures,
        "setup_s": statistics.median(s.setup_s for s in samples),
        "task_ms_p50": statistics.median(s.task_s for s in samples) * 1e3,
        "tick_ms_p50": run.percentile(ticks, 50) * 1e3,
        "data_triples": samples[-1].data_triples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        kg = run.load_program()
    except (run.ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2

    run.run_cycle(kg, workload_inputs.make_inputs("fixture", args.seed))  # warm-up
    by_triples = []
    for extra in EXTRA_TRIPLES:
        inp = workload_inputs.make_inputs("big_graph", args.seed, inventory=extra)
        point = measure(kg, inp, 2)
        by_triples.append({"extra_triples": extra, **point})
        print(f"extra_triples={extra}: tick_ms_p50={point['tick_ms_p50']:.3f}",
              file=sys.stderr)
    by_assets = []
    for assets in ASSETS:
        inp = workload_inputs.make_inputs("fleet", args.seed,
                                          fleet=assets - FIXTURE_ASSETS)
        point = measure(kg, inp, 3)
        by_assets.append({"assets": assets, **point})
        print(f"assets={assets}: setup_s={point['setup_s']:.4f}", file=sys.stderr)

    report = {
        "environment": run.environment(seed=args.seed, min_seconds=MIN_SECONDS),
        "tick_ms_p50_by_extra_triples": by_triples,
        "setup_s_by_assets": by_assets,
    }
    print(json.dumps(report, indent=1))
    failed = sum(p["failed"] for p in by_triples + by_assets)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
