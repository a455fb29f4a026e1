"""The benchmark tracer's contract with the program.

``bench/tracer.py`` wraps the program's layer entry points by name. A
renamed or deleted entry point makes every traced benchmark run exit 1,
so one traced fixture cycle here must reach every name the tracer needs.
No timing is asserted.
"""

from __future__ import annotations

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_one_traced_cycle_reaches_every_wrapped_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    run, inputs, tracer_module = (importlib.import_module(name)
                                  for name in ("run", "inputs", "tracer"))
    kg = run.load_program()
    tracer = tracer_module.Tracer()
    tracer.install(kg)
    try:
        run.run_cycle(kg, inputs.make_inputs("fixture", 1), tracer=tracer)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    spans = tracer.take()
    reached = {span[tracer_module.NAME] for span in spans}
    assert [name for name in tracer_module.EVERY_CYCLE if name not in reached] == []
    assert reached & set(tracer_module.TRANSPORTS)

    def ancestors(index):
        while (index := spans[index][tracer_module.PARENT]) >= 0:
            yield spans[index][tracer_module.NAME]

    # Protocols load while the scenario is built, never inside a tick.
    loads = [list(ancestors(i)) for i, span in enumerate(spans)
             if span[tracer_module.NAME] == "protocol.load_protocol"]
    assert loads and all("bench.setup" in chain and tracer_module.TICK not in chain
                         for chain in loads)
