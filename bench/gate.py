"""Correctness gate applied to every task the benchmark runs.

A task passes when it completed, its message skeleton equals the one
derived mechanically from the protocol, no tick saw a co-location
violation, the pallet rests on the target station held by nobody, and
the rendered artifacts equal the expected bytes. ``self_test`` feeds the
gate tampered outcomes and checks that each one is refused.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Outcome:
    """What one task left behind, reduced to what the gate judges."""

    status: str
    skeleton: tuple
    violations: tuple
    pallet_position: str | None
    pallet_holders: tuple
    trace_text: str
    data_text: str
    consistency_text: str


@dataclass(frozen=True)
class Expected:
    status: str
    skeleton: tuple
    pallet_position: str
    trace_text: str
    data_text: str


def outcome_of(scenario, result, pallet: str, trace_text: str,
               data_text: str, consistency_text: str) -> Outcome:
    world = scenario.world
    return Outcome(
        status=result.status,
        skeleton=tuple(result.skeleton()),
        violations=tuple(result.violations_per_tick),
        pallet_position=world.pallet_positions().get(pallet),
        pallet_holders=tuple(sorted(device_id for device_id, device
                                    in world.devices.items()
                                    if getattr(device, "holding", None) == pallet)),
        trace_text=trace_text,
        data_text=data_text,
        consistency_text=consistency_text,
    )


def check(outcome: Outcome, expected: Expected) -> list[str]:
    """Reasons the outcome fails the gate; empty when it passes."""
    reasons = []
    if outcome.status != expected.status:
        reasons.append(f"status {outcome.status!r}, expected {expected.status!r}")
    if outcome.skeleton != expected.skeleton:
        reasons.append("message skeleton differs from derive_trace_skeleton")
    if not outcome.violations:
        reasons.append("no ticks recorded")
    bad_ticks = sum(1 for count in outcome.violations if count)
    if bad_ticks:
        reasons.append(f"co-location violations on {bad_ticks} ticks")
    consistency = "".join(f"{tick}\t{count}\n" for tick, count
                          in enumerate(outcome.violations, start=1))
    if outcome.consistency_text != consistency:
        reasons.append("consistency.txt does not match the violation counts")
    if outcome.pallet_position != expected.pallet_position:
        reasons.append(f"pallet at {outcome.pallet_position!r}, "
                       f"expected {expected.pallet_position!r}")
    if outcome.pallet_holders:
        reasons.append(f"pallet still held by {', '.join(outcome.pallet_holders)}")
    if outcome.trace_text != expected.trace_text:
        reasons.append("trace.log differs from the expected bytes")
    if outcome.data_text != expected.data_text:
        reasons.append("data.ttl differs from the expected bytes")
    return reasons


def _tampered(outcome: Outcome) -> dict[str, Outcome]:
    lines = outcome.trace_text.splitlines(keepends=True)
    swapped = lines[:-2] + [lines[-1], lines[-2]]
    violations = outcome.violations[:-1] + (1,)
    replace = dataclasses.replace
    return {
        "trace lines swapped": replace(outcome, trace_text="".join(swapped)),
        "trace byte changed": replace(
            outcome, trace_text=outcome.trace_text.replace("P2", "P3", 1)),
        "pallet on the source station": replace(outcome, pallet_position="P1"),
        "pallet still gripped": replace(outcome, pallet_holders=("roboticarm",)),
        "violation on the last tick": replace(
            outcome, violations=violations,
            consistency_text="".join(f"{t}\t{c}\n" for t, c
                                     in enumerate(violations, start=1))),
        "task failed": replace(outcome, status="failed"),
        "skeleton truncated": replace(outcome, skeleton=outcome.skeleton[:-1]),
        "data line dropped": replace(
            outcome, data_text="".join(outcome.data_text.splitlines(True)[:-1])),
    }


def self_test(outcome: Outcome, expected: Expected) -> list[str]:
    """Problems with the gate itself: a good outcome refused or a bad one let through."""
    problems = []
    if check(outcome, expected):
        problems.append("gate refuses the reference outcome")
    for what, bad in _tampered(outcome).items():
        if not check(bad, expected):
            problems.append(f"gate accepts a tampered outcome ({what})")
    return problems
