"""Simulated warehouse: grid, stations, pallets and device simulators.

The world is a discrete-time simulation. Commands are validated on
``apply`` and queued per device; the queue is the one record of what a
device still has to do. ``step`` advances the head of every queue by one
tick and returns one observation per device, both in device id order.
An arm's grip waits at the head of its queue while no pallet lies in its
reach, and a command that fails when it runs drops the rest of its
device's queue. The world alone says what a device is doing: whether a
command runs, which pallets an arm can reach, and what failed, reported
on the tick of the failure only. Mechanics contain no randomness, so a
fixed command script always produces the same observation stream.

A robot moves one cell per tick; arm joints move at most 0.1 rad per
tick per joint. One rule, ``_target``, decides which pallet a grip takes
and which cell a release fills, both for ``apply`` and when the command
runs: a robot acts on its own cell, an arm on a cell in its reach. A
pallet is always in exactly one place: on a cell, or held by the one
device whose ``holding`` names it, and no two pallets share a cell.
One reader, ``cell``, turns every written position the world takes in
(fixture cells, command cells, task parameters) into an on-grid
``(x, y)``; ``position_literal`` is its inverse. Construction also
rejects two pallets on one cell and arm joints beyond the limits.

After construction, device and pallet state change only through ``apply``
and ``_progress``. A queued command runs on the next tick, so ``_progress``
alone marks each device whose observation may change: the device it moves
(a waiting grip moves nothing), every arm whose reach holds a cell a grip
empties or a release fills, and, one tick more, a device whose command
failed. Payloads are read-only, and ``step`` hands an unmarked device its
last one again, so an unchanged device is neither rebuilt nor re-read;
``pallets_moved`` says whether a pallet moved.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import WorldError, read_text

JOINT_STEP = 0.1
JOINT_LIMIT = 1.57
HEADINGS = {(1, 0): "E", (-1, 0): "W", (0, 1): "N", (0, -1): "S"}

KIND_MOBILE_ROBOT = "mobile_robot"
KIND_ROBOTIC_ARM = "robotic_arm"

_CELL_LITERAL = re.compile(r"cell:(-?[0-9]+),(-?[0-9]+)")

_VERBS = {
    KIND_MOBILE_ROBOT: {"goto_cell", "grip", "release"},
    KIND_ROBOTIC_ARM: {"set_joints", "grip", "release"},
}


def _joints_ok(joints) -> bool:
    """Four numbers, each within the joint limit; a bool is no number."""
    return (isinstance(joints, (tuple, list)) and len(joints) == 4
            and all(type(j) in (int, float) and abs(j) <= JOINT_LIMIT
                    for j in joints))


@dataclass
class NativeCommand:
    """A device-level instruction: verb plus argument map."""

    verb: str
    args: dict = field(default_factory=dict)


class Observation(NamedTuple):
    """What one device reports after a tick; the payload is read-only."""

    device_id: str
    tick: int
    payload: dict


@dataclass
class MobileRobotSim:
    device_id: str
    cell: tuple[int, int]
    heading: str = "E"
    holding: str | None = None

    kind = KIND_MOBILE_ROBOT


@dataclass
class RoboticArmSim:
    device_id: str
    base: tuple[int, int]
    reach: frozenset[tuple[int, int]]
    joints: list[float] = field(default_factory=lambda: [0.0, 0.0, 0.0, 0.0])
    holding: str | None = None

    kind = KIND_ROBOTIC_ARM

    @property
    def cell(self) -> tuple[int, int]:
        return self.base

    @property
    def gripper(self) -> str:
        return "closed" if self.holding is not None else "open"


class WarehouseWorld:
    """Grid world with stations, pallets and commandable devices."""

    def __init__(self, width: int, height: int, stations: dict, pallets: dict,
                 devices: list):
        if width < 1 or height < 1:
            raise WorldError("grid must be at least 1x1")
        self.width = width
        self.height = height
        self.stations: dict[str, tuple[int, int]] = {}
        self.tick = 0
        by_cell: dict[tuple[int, int], str] = {}
        for label, cell in stations.items():
            cell = self.cell(cell, f"station {label}")
            if cell in by_cell:
                raise WorldError(f"stations {by_cell[cell]} and {label} share a cell")
            by_cell[cell] = label
            self.stations[label] = cell
        self._station_by_cell = by_cell
        # The pallets lying on the grid, by cell; a held pallet is only in
        # its holder's ``holding``.
        self._pallet_by_cell: dict[tuple[int, int], str] = {}
        for pallet_id, where in pallets.items():
            cell = self.cell(where, f"pallet {pallet_id}")
            if cell in self._pallet_by_cell:
                raise WorldError(f"pallets {self._pallet_by_cell[cell]} and "
                                 f"{pallet_id} share a cell")
            self._pallet_by_cell[cell] = pallet_id
        self.devices: dict[str, object] = {}
        for device in sorted(devices, key=lambda d: d.device_id):
            what = f"device {device.device_id}"
            if device.device_id in self.devices:
                raise WorldError(f"duplicate device id {device.device_id}")
            if device.kind == KIND_MOBILE_ROBOT:
                device.cell = self.cell(device.cell, what)
            else:
                device.base = self.cell(device.base, what)
                device.reach = frozenset(self.cell(cell, what) for cell in device.reach)
                if not _joints_ok(device.joints):
                    raise WorldError(f"arm {device.device_id} needs 4 joints "
                                     f"within +-{JOINT_LIMIT} rad")
            self.devices[device.device_id] = device
        self._queues: dict[str, deque] = {d: deque() for d in self.devices}
        self._marked = set(self.devices)  # may differ from their last payload
        self._payloads: dict[str, dict] = {}
        self.pallets_moved = False

    # -- fixture loading --------------------------------------------------

    @classmethod
    def from_fixture(cls, doc: dict) -> "WarehouseWorld":
        try:
            grid = doc["grid"]
            devices = []
            for device_id, spec in doc.get("devices", {}).items():
                kind = spec["kind"]
                if kind == KIND_MOBILE_ROBOT:
                    devices.append(MobileRobotSim(device_id, spec["start"]))
                elif kind == KIND_ROBOTIC_ARM:
                    devices.append(RoboticArmSim(device_id, spec["base"], spec["reach"],
                                                 list(spec.get("joints", [0, 0, 0, 0]))))
                else:
                    raise WorldError(f"unknown device kind {kind!r}")
            return cls(grid["width"], grid["height"], doc.get("stations", {}),
                       doc.get("pallets", {}), devices)
        except (KeyError, TypeError, ValueError) as exc:
            raise WorldError(f"bad world fixture: {exc}") from exc

    @classmethod
    def from_file(cls, path: str) -> "WarehouseWorld":
        try:
            doc = json.loads(read_text(path))
        except json.JSONDecodeError as exc:
            raise WorldError(f"world fixture is not valid JSON: {exc}") from exc
        return cls.from_fixture(doc)

    # -- positions --------------------------------------------------------

    def cell(self, value, what: str = "a command") -> tuple[int, int]:
        """Read a written position: a station label, a ``cell:x,y`` literal
        or an [x, y] pair of integers, as an on-grid ``(x, y)``; ``what``
        names the position's owner when it is refused."""
        written = value
        if isinstance(value, str):
            if value in self.stations:
                return self.stations[value]
            match = _CELL_LITERAL.fullmatch(value)
            if match is None:
                raise WorldError(f"{what} needs a station or cell:x,y, got {value!r}")
            value = (int(match[1]), int(match[2]))
        elif not isinstance(value, (tuple, list)):
            raise WorldError(f"cannot interpret {value!r} as a cell")
        if len(value) != 2 or not all(type(v) is int for v in value):
            raise WorldError(f"{what} needs an integer [x, y] cell, got {value!r}")
        x, y = value
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise WorldError(f"{what} needs a cell on the {self.width}x{self.height} "
                             f"grid, got {written!r}")
        return (x, y)

    def position_literal(self, cell: tuple[int, int]) -> str:
        """Station label if the cell hosts one, else ``cell:x,y``."""
        label = self._station_by_cell.get(tuple(cell))
        return label if label is not None else f"cell:{cell[0]},{cell[1]}"

    def pallet_positions(self) -> dict[str, str]:
        """Pallet id to position literal; held pallets ride their holder."""
        cells = {pallet_id: cell for cell, pallet_id in self._pallet_by_cell.items()}
        for device in self.devices.values():
            if device.holding is not None:
                cells[device.holding] = device.cell
        return {pallet_id: self.position_literal(cell)
                for pallet_id, cell in sorted(cells.items())}

    def device_busy(self, device_id: str) -> bool:
        return bool(self._queues[device_id])

    def pallets_in_reach(self, device_id: str) -> dict[str, list[int]]:
        """Pallets lying on a cell an arm can reach, by id."""
        reach, found = self.devices[device_id].reach, {}
        for cell, pallet_id in self._pallet_by_cell.items():
            if cell in reach:
                found[pallet_id] = list(cell)
        return found if len(found) < 2 else dict(sorted(found.items()))

    # -- commands ---------------------------------------------------------

    def apply(self, device_id: str, command: NativeCommand) -> bool:
        """Validate and queue a command. Returns False when rejected.

        Structural checks (verb/argument shape, ``cell``) always run.
        A grip or release must also find its target (``_target``) at once
        when the device queue is empty; queued behind other commands it is
        judged at execution time instead.
        """
        if device_id not in self.devices:
            raise WorldError(f"unknown device {device_id!r}")
        device = self.devices[device_id]
        verb, args = command.verb, command.args
        if verb not in _VERBS[device.kind]:
            return False
        if verb == "set_joints":
            if not _joints_ok(args.get("joints")):
                return False
        elif verb == "goto_cell" or args.get("cell") is not None:
            try:
                command = NativeCommand(verb, {**args, "cell": self.cell(args.get("cell"))})
            except WorldError:
                return False
        if (verb in ("grip", "release") and not self._queues[device_id]
                and self._target(device, command) is None):
            return False
        self._queues[device_id].append(command)
        return True

    def _target(self, device, command: NativeCommand) -> tuple[int, int] | None:
        """The cell a grip takes its pallet from or a release fills; None
        when the command cannot run now. An arm's release needs a cell, and
        its grip without one takes from the first occupied cell in sorted
        reach."""
        cell = command.args.get("cell")
        if device.kind == KIND_MOBILE_ROBOT:
            cells = [device.cell] if cell in (None, device.cell) else []
        elif cell is not None:
            cells = [cell] if cell in device.reach else []
        else:
            cells = sorted(device.reach) if command.verb == "grip" else []
        if command.verb == "grip":
            if device.holding is not None:
                return None
            return next((c for c in cells if c in self._pallet_by_cell), None)
        if device.holding is None:
            return None
        return next((c for c in cells if c not in self._pallet_by_cell), None)

    # -- time -------------------------------------------------------------

    def step(self) -> list[Observation]:
        """Advance one tick: progress every device queue, then observe every
        device, so each observation sees all of the tick's moves. An unmarked
        device's observation carries its last payload, the same dict."""
        self.tick += 1
        self.pallets_moved = False
        queues, failed = self._queues, {}
        for device_id, device in self.devices.items():
            if queues[device_id]:
                verb = self._progress(device, queues[device_id])
                if verb is not None:
                    failed[device_id] = verb
        marked, self._marked = self._marked, set(failed)
        payloads, observations = self._payloads, []
        for device_id in self.devices:
            if device_id in marked:
                observation = self.observe(device_id, failed.get(device_id))
                payloads[device_id] = observation.payload
            else:
                observation = Observation(device_id, self.tick, payloads[device_id])
            observations.append(observation)
        return observations

    def _progress(self, device, queue: deque) -> str | None:
        """Advance a device's head command; returns the verb that failed, if any."""
        command = queue[0]
        verb = command.verb
        if (verb == "grip" and device.kind == KIND_ROBOTIC_ARM
                and device.reach.isdisjoint(self._pallet_by_cell)):
            return  # an arm grips once a pallet lies in its reach
        self._marked.add(device.device_id)
        if verb == "goto_cell":
            target = command.args["cell"]
            if device.cell == target:
                queue.popleft()
                return
            x, y = device.cell
            dx = 0 if x == target[0] else (1 if target[0] > x else -1)
            dy = 0
            if dx == 0:
                dy = 1 if target[1] > y else -1
            device.cell = (x + dx, y + dy)
            device.heading = HEADINGS.get((dx, dy), device.heading)
            self.pallets_moved |= device.holding is not None
            if device.cell == target:
                queue.popleft()
        elif verb == "set_joints":
            targets = command.args["joints"]
            done = True
            for i, target in enumerate(targets):
                delta = target - device.joints[i]
                if abs(delta) > JOINT_STEP:
                    device.joints[i] += JOINT_STEP if delta > 0 else -JOINT_STEP
                    done = False
                else:
                    device.joints[i] = float(target)
            if done:
                queue.popleft()
        else:
            queue.popleft()
            target = self._target(device, command)
            if target is None:
                queue.clear()  # the commands behind a failed one are dropped
                return verb
            if verb == "grip":
                device.holding = self._pallet_by_cell.pop(target)
            else:
                self._pallet_by_cell[target] = device.holding
                device.holding = None
            self.pallets_moved = True
            self._marked.update(d.device_id for d in self.devices.values()
                                if target in getattr(d, "reach", ()))

    def observe(self, device_id: str, failed: str | None = None) -> Observation:
        """What a device reports now; ``failed`` names a verb that failed this tick."""
        device = self.devices[device_id]
        payload = {
            "kind": device.kind,
            "busy": self.device_busy(device_id),
            "holding": device.holding,
            "failed": failed,
        }
        if device.kind == KIND_MOBILE_ROBOT:
            payload["cell"] = list(device.cell)
            payload["heading"] = device.heading
        else:
            payload["joints"] = [round(j, 6) for j in device.joints]
            payload["gripper"] = device.gripper
            payload["pallets_in_reach"] = self.pallets_in_reach(device_id)
        return Observation(device_id, self.tick, payload)
