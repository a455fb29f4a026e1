"""Simulated warehouse: grid, stations, pallets and device simulators.

The world is a discrete-time simulation. Commands are validated on
``apply`` and queued per device; ``step`` advances every queue by one
tick and returns one observation per device, both in device id order.
The world alone says what a device is doing: whether a command runs,
which pallets an arm can reach, and what failed, reported on the tick of
the failure only. Mechanics contain no randomness, so a fixed command
script always produces the same observation stream.

A robot moves one cell per tick; arm joints move at most 0.1 rad per
tick per joint. One rule, ``_target``, decides which pallet a grip takes
and which cell a release fills, both for ``apply`` and when the command
runs: a robot acts on its own cell, an arm on a cell in its reach. A
pallet is always in exactly one place: on a cell, or held by the one
device whose ``holding`` names it, and no two pallets share a cell.
Construction rejects a cell that is not a pair of integers, two pallets
on one cell, a device off the grid and arm joints beyond the limits.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from .errors import WorldError

JOINT_STEP = 0.1
JOINT_LIMIT = 1.57
HEADINGS = {(1, 0): "E", (-1, 0): "W", (0, 1): "N", (0, -1): "S"}

KIND_MOBILE_ROBOT = "mobile_robot"
KIND_ROBOTIC_ARM = "robotic_arm"

_VERBS = {
    KIND_MOBILE_ROBOT: {"goto_cell", "grip", "release"},
    KIND_ROBOTIC_ARM: {"set_joints", "grip", "release"},
}


def _joints_ok(joints) -> bool:
    """Four numbers, each within the joint limit."""
    return (isinstance(joints, (tuple, list)) and len(joints) == 4
            and all(isinstance(j, (int, float)) and abs(j) <= JOINT_LIMIT
                    for j in joints))


@dataclass
class NativeCommand:
    """A device-level instruction: verb plus argument map."""

    verb: str
    args: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Observation:
    """What one device reports after a tick."""

    device_id: str
    tick: int
    payload: dict


@dataclass
class MobileRobotSim:
    device_id: str
    x: int
    y: int
    heading: str = "E"
    holding: str | None = None

    kind = KIND_MOBILE_ROBOT

    @property
    def cell(self) -> tuple[int, int]:
        return (self.x, self.y)


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


def integer_cell(value, what: str) -> tuple[int, int]:
    """An [x, y] pair of integers, as a tuple."""
    cell = tuple(value)
    if len(cell) != 2 or not all(type(v) is int for v in cell):
        raise WorldError(f"{what} needs an integer [x, y] cell, got {value!r}")
    return cell


class WarehouseWorld:
    """Grid world with stations, pallets and commandable devices."""

    def __init__(self, width: int, height: int, stations: dict[str, tuple[int, int]],
                 pallets: dict[str, tuple[int, int]], devices: list):
        if width < 1 or height < 1:
            raise WorldError("grid must be at least 1x1")
        self.width = width
        self.height = height
        self.stations = dict(stations)
        self.tick = 0
        by_cell: dict[tuple[int, int], str] = {}
        for label, cell in self.stations.items():
            cell = integer_cell(cell, f"station {label}")
            if not self.in_grid(cell):
                raise WorldError(f"station {label} outside the grid")
            if cell in by_cell:
                raise WorldError(f"stations {by_cell[cell]} and {label} share a cell")
            by_cell[cell] = label
            self.stations[label] = cell
        self._station_by_cell = by_cell
        # The pallets lying on the grid, by cell; a held pallet is only in
        # its holder's ``holding``.
        self._pallet_by_cell: dict[tuple[int, int], str] = {}
        for pallet_id, cell in pallets.items():
            cell = integer_cell(cell, f"pallet {pallet_id}")
            if not self.in_grid(cell):
                raise WorldError(f"pallet {pallet_id} outside the grid")
            if cell in self._pallet_by_cell:
                raise WorldError(f"pallets {self._pallet_by_cell[cell]} and "
                                 f"{pallet_id} share a cell")
            self._pallet_by_cell[cell] = pallet_id
        self.devices: dict[str, object] = {}
        for device in sorted(devices, key=lambda d: d.device_id):
            if device.device_id in self.devices:
                raise WorldError(f"duplicate device id {device.device_id}")
            cells = [integer_cell(cell, f"device {device.device_id}")
                     for cell in (device.cell, *getattr(device, "reach", ()))]
            if not all(self.in_grid(cell) for cell in cells):
                raise WorldError(f"device {device.device_id} outside the grid")
            if device.kind == KIND_ROBOTIC_ARM and not _joints_ok(device.joints):
                raise WorldError(f"arm {device.device_id} needs 4 joints "
                                 f"within +-{JOINT_LIMIT} rad")
            self.devices[device.device_id] = device
        self._queues: dict[str, deque] = {d: deque() for d in self.devices}

    # -- fixture loading --------------------------------------------------

    @classmethod
    def from_fixture(cls, doc: dict) -> "WarehouseWorld":
        try:
            grid = doc["grid"]
            stations = {label: tuple(cell)
                        for label, cell in doc.get("stations", {}).items()}
            pallets = {}
            for pallet_id, where in doc.get("pallets", {}).items():
                if isinstance(where, str):
                    if where not in stations:
                        raise WorldError(f"pallet {pallet_id} at unknown "
                                         f"station {where!r}")
                    pallets[pallet_id] = stations[where]
                else:
                    pallets[pallet_id] = tuple(where)
            devices = []
            for device_id, spec in doc.get("devices", {}).items():
                kind = spec["kind"]
                if kind == KIND_MOBILE_ROBOT:
                    x, y = spec["start"]
                    devices.append(MobileRobotSim(device_id, x, y))
                elif kind == KIND_ROBOTIC_ARM:
                    reach = frozenset(tuple(c) for c in spec["reach"])
                    arm = RoboticArmSim(device_id, tuple(spec["base"]), reach,
                                        list(spec.get("joints", [0, 0, 0, 0])))
                    devices.append(arm)
                else:
                    raise WorldError(f"unknown device kind {kind!r}")
            return cls(grid["width"], grid["height"], stations, pallets, devices)
        except (KeyError, TypeError, ValueError) as exc:
            raise WorldError(f"bad world fixture: {exc}") from exc

    @classmethod
    def from_file(cls, path: str) -> "WarehouseWorld":
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise WorldError(f"world fixture is not valid JSON: {exc}") from exc
        return cls.from_fixture(doc)

    # -- geometry helpers -------------------------------------------------

    def in_grid(self, cell: tuple[int, int]) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def _grid_cell(self, value) -> bool:
        """A command's cell argument: an integer [x, y] pair on the grid."""
        try:
            return isinstance(value, (tuple, list)) and self.in_grid(
                integer_cell(value, "a command"))
        except WorldError:
            return False

    def position_literal(self, cell: tuple[int, int]) -> str:
        """Station label if the cell hosts one, else ``cell:x,y``."""
        label = self._station_by_cell.get(tuple(cell))
        return label if label is not None else f"cell:{cell[0]},{cell[1]}"

    def parse_position(self, text: str) -> tuple[int, int]:
        if text in self.stations:
            return self.stations[text]
        if text.startswith("cell:"):
            try:
                x, y = (int(p) for p in text[5:].split(","))
            except ValueError as exc:
                raise WorldError(f"bad position literal {text!r}") from exc
            return (x, y)
        raise WorldError(f"bad position literal {text!r}")

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
        reach = self.devices[device_id].reach
        found = {pallet_id: list(cell) for cell, pallet_id in self._pallet_by_cell.items()
                 if cell in reach}
        return dict(sorted(found.items()))

    # -- commands ---------------------------------------------------------

    def apply(self, device_id: str, command: NativeCommand) -> bool:
        """Validate and queue a command. Returns False when rejected.

        Structural checks (verb/argument shape, grid bounds) always run.
        A grip or release must also find its target (``_target``) at once
        when the device queue is empty; queued behind other commands it is
        judged at execution time instead.
        """
        if device_id not in self.devices:
            raise WorldError(f"unknown device {device_id!r}")
        device = self.devices[device_id]
        if command.verb not in _VERBS[device.kind]:
            return False
        args = command.args
        if command.verb == "goto_cell":
            if not self._grid_cell(args.get("cell")):
                return False
        elif command.verb == "set_joints":
            if not _joints_ok(args.get("joints")):
                return False
        else:
            cell = args.get("cell")
            if cell is not None and not self._grid_cell(cell):
                return False
            if not self._queues[device_id] and self._target(device, command) is None:
                return False
        self._queues[device_id].append(command)
        return True

    def _target(self, device, command: NativeCommand) -> tuple[int, int] | None:
        """The cell a grip takes its pallet from or a release fills; None
        when the command cannot run now. An arm's release needs a cell, and
        its grip without one takes from the first occupied cell in sorted
        reach."""
        cell = command.args.get("cell")
        cell = tuple(cell) if cell is not None else None
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
        """Advance one tick: progress every device queue, then observe."""
        self.tick += 1
        failed = {device_id: self._progress(device, self._queues[device_id])
                  for device_id, device in self.devices.items()
                  if self._queues[device_id]}
        return [self.observe(device_id, failed.get(device_id))
                for device_id in self.devices]

    def _progress(self, device, queue: deque) -> str | None:
        """Advance a device's head command; returns the verb that failed, if any."""
        command = queue[0]
        verb = command.verb
        if verb == "goto_cell":
            target = tuple(command.args["cell"])
            if device.cell == target:
                queue.popleft()
                return
            dx = 0 if device.x == target[0] else (1 if target[0] > device.x else -1)
            dy = 0
            if dx == 0:
                dy = 1 if target[1] > device.y else -1
            device.x += dx
            device.y += dy
            device.heading = HEADINGS.get((dx, dy), device.heading)
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
                return verb
            if verb == "grip":
                device.holding = self._pallet_by_cell.pop(target)
            else:
                self._pallet_by_cell[target] = device.holding
                device.holding = None

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
            payload["cell"] = [device.x, device.y]
            payload["heading"] = device.heading
        else:
            payload["joints"] = [round(j, 6) for j in device.joints]
            payload["gripper"] = device.gripper
            payload["pallets_in_reach"] = self.pallets_in_reach(device_id)
        return Observation(device_id, self.tick, payload)
