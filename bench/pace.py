"""Host pace: a fixed probe that tells how fast the host runs Python right now.

The benchmark runs on shared virtual CPUs whose speed changes by up to 2x,
in spells that last from seconds to minutes. Every process on the host
slows down and speeds up together, so plain wall-clock times from runs a
few minutes apart differ by more than any useful bound.

``Pace.probe`` times a small, fixed piece of interpreter work that does not
touch the program: a walk over a prebuilt object tree, tuple-keyed lookups
in a prebuilt dict and set, and string tests, the kinds of work ``kgmas``
spends its time on. The benchmark probes after each set-up,
every ``EVERY_S`` during a task (at a tick boundary, outside the timed
intervals) and after each render; a cycle's last probe is also the one
before the next cycle's set-up. A timed interval is then scaled by
``REFERENCE_S`` divided by the mean of the two probes around it:

    paced = raw * REFERENCE_S / mean(probe before, probe after)

A paced time reads as the time the interval would take on a host where the
probe takes ``REFERENCE_S``. The probe is independent of the program, so a
change that makes the program faster makes its paced times smaller by the
same share.

The probe creates no objects that outlive it and only a handful at all, so
running it inside a task moves no garbage collection into or out of the
program's timed code.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 1e-3
EVERY_S = 0.02
ROUNDS = 2   # passes over the prebuilt data per probe: about 1 ms in all

_PREDICATES = ("atPosition", "hasLabel", "onRack", "quantity", "hasRealm")


class _Node:
    __slots__ = ("name", "value", "kids")

    def __init__(self, name: str, value: int):
        self.name = name
        self.value = value
        self.kids = []


class Pace:
    """Runs the probe and keeps every time it measured."""

    def __init__(self):
        self.samples: list[float] = []
        nodes = [_Node("root", 0)]
        for i in range(600):
            node = _Node(f"kgmas:Node{i:04d}", (i * 7) % 13)
            nodes[i // 3].kids.append(node)
            nodes.append(node)
        self._root = nodes[0]
        self._triples = [(f"kgmas:Item{i:05d}", _PREDICATES[i % 5], f"v{i % 331}")
                         for i in range(1500)]
        self._set = frozenset(self._triples[::2])
        self._index = {(s, p): o for s, p, o in self._triples[::3]}
        for _ in range(3):
            self._work()

    def _work(self) -> int:
        total = 0
        for _ in range(ROUNDS):
            stack = [self._root]
            while stack:
                node = stack.pop()
                total += node.value
                if node.name.endswith("7"):
                    total += 1
                stack.extend(node.kids)
            for triple in self._triples:
                if triple in self._set:
                    total += 1
                if (triple[0], triple[1]) in self._index and triple[1] == "onRack":
                    total += 2
        return total

    def probe(self) -> float:
        """Time one run of the probe, in seconds, and keep it."""
        clock = time.perf_counter
        start = clock()
        self._work()
        elapsed = clock() - start
        self.samples.append(elapsed)
        return elapsed

    def last(self) -> float:
        """The latest probe time, probing first if there is none yet."""
        return self.samples[-1] if self.samples else self.probe()

    def summary(self) -> dict:
        values = self.samples
        return {"probes": len(values), "reference_ms": REFERENCE_S * 1e3,
                "median_ms": statistics.median(values) * 1e3,
                "min_ms": min(values) * 1e3, "max_ms": max(values) * 1e3}


def scale(before: float, after: float) -> float:
    """Factor that turns a raw interval between two probes into a paced one."""
    return REFERENCE_S * 2 / (before + after)
