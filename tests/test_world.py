"""Warehouse simulation mechanics."""

from __future__ import annotations

import json
import random

import pytest

from helpers import fixture_path
from kgmas.connection import translate
from kgmas.errors import ValidationError, WorldError
from kgmas.world import (
    KIND_MOBILE_ROBOT,
    KIND_ROBOTIC_ARM,
    MobileRobotSim,
    NativeCommand,
    RoboticArmSim,
    WarehouseWorld,
)


def make_world(*, pallets=None, devices=None, stations=None, width=5, height=5):
    return WarehouseWorld(width, height, stations or {}, pallets or {},
                          devices or [])


def robot(x=0, y=0):
    return MobileRobotSim("bot", (x, y))


def arm(base=(3, 2), reach=((3, 2), (2, 2))):
    return RoboticArmSim("arm", tuple(base), frozenset(tuple(c) for c in reach))


def cmd(verb, **args):
    return NativeCommand(verb, args)


def test_robot_fetch_golden_trace():
    """Hand-walked tick trace for a goto/grip/goto/release script."""
    world = make_world(stations={"S1": (1, 1)}, pallets={"P": (1, 1)},
                      devices=[robot()])
    for command in (cmd("goto_cell", cell=(1, 1)), cmd("grip"),
                    cmd("goto_cell", cell=(3, 2)), cmd("release")):
        assert world.apply("bot", command)

    seen = []
    for _ in range(7):
        (obs,) = world.step()
        seen.append((tuple(obs.payload["cell"]), obs.payload["holding"],
                     obs.payload["busy"], obs.payload["heading"]))
    assert seen == [
        ((1, 0), None, True, "E"),
        ((1, 1), None, True, "N"),
        ((1, 1), "P", True, "N"),
        ((2, 1), "P", True, "E"),
        ((3, 1), "P", True, "E"),
        ((3, 2), "P", True, "N"),
        ((3, 2), None, False, "N"),
    ]
    assert world.pallet_positions() == {"P": "cell:3,2"}
    assert world.tick == 7


def test_held_pallet_rides_along():
    world = make_world(pallets={"P": (0, 0)}, devices=[robot()])
    assert world.apply("bot", cmd("grip"))
    assert world.apply("bot", cmd("goto_cell", cell=(2, 0)))
    world.step()
    world.step()
    assert world.pallet_positions() == {"P": "cell:1,0"}


def test_arm_pick_golden_trace():
    world = make_world(pallets={"P": (3, 2)}, devices=[arm()])
    assert world.apply("arm", cmd("set_joints", joints=[0.2, 0.0, 0.0, 0.0]))
    assert world.apply("arm", cmd("grip", cell=(3, 2)))
    assert world.apply("arm", cmd("release", cell=(2, 2)))

    seen = []
    for _ in range(4):
        (obs,) = world.step()
        seen.append((obs.payload["joints"][0], obs.payload["gripper"],
                     obs.payload["holding"], obs.payload["busy"]))
    assert seen == [
        (0.1, "open", None, True),
        (0.2, "open", None, True),
        (0.2, "closed", "P", True),
        (0.2, "open", None, False),
    ]
    assert world.pallet_positions() == {"P": "cell:2,2"}


def test_arm_observation_lists_reachable_pallets():
    world = make_world(pallets={"P": (3, 2), "Q": (0, 0)}, devices=[arm()])
    (obs,) = world.step()
    assert obs.payload["pallets_in_reach"] == {"P": [3, 2]}
    assert world.pallets_in_reach("arm") == {"P": [3, 2]}
    assert world.apply("arm", cmd("grip", cell=(3, 2)))
    world.step()
    assert world.pallets_in_reach("arm") == {}


def test_arm_observation_lists_pallets_in_id_order():
    world = make_world(pallets={"Q": (3, 2), "P": (2, 2)}, devices=[arm()])
    (obs,) = world.step()
    assert list(obs.payload["pallets_in_reach"].items()) == [("P", [2, 2]), ("Q", [3, 2])]


def test_step_advances_every_queue_before_it_observes_any_device():
    """The arm's id sorts first, yet on the tick the robot releases a pallet
    into the arm's reach the arm's observation already lists it."""
    world = make_world(pallets={"P": (2, 2)}, devices=[robot(2, 2), arm()])
    assert list(world.devices) == ["arm", "bot"]
    assert world.apply("bot", cmd("grip"))
    assert world.apply("bot", cmd("release"))
    arm_obs, bot_obs = world.step()
    assert bot_obs.payload["holding"] == "P"
    assert arm_obs.payload["pallets_in_reach"] == {}
    arm_obs, bot_obs = world.step()
    assert bot_obs.payload["holding"] is None
    assert arm_obs.payload["pallets_in_reach"] == {"P": [2, 2]}


def test_goto_current_cell_finishes_without_moving():
    world = make_world(devices=[robot(2, 2)])
    assert world.apply("bot", cmd("goto_cell", cell=(2, 2)))
    (obs,) = world.step()
    assert obs.payload["cell"] == [2, 2]
    assert not obs.payload["busy"]


@pytest.mark.parametrize("verb,args", [
    ("set_joints", {"joints": [0, 0, 0, 0]}),      # wrong kind
    ("goto_cell", {"cell": (9, 0)}),               # outside the grid
    ("goto_cell", {"cell": (1,)}),
    ("grip", {"cell": (9, 9)}),
    ("fly", {}),
    ("goto_cell", {"cell": [1.5, 0]}),             # off the integer grid
    ("goto_cell", {"cell": [True, 0]}),            # a bool is no cell coordinate
    ("grip", {"cell": (0.0, 0)}),                  # equal to the robot's cell, not one
])
def test_robot_rejects_malformed_commands(verb, args):
    world = make_world(pallets={"P": (0, 0)}, devices=[robot()])
    assert world.apply("bot", NativeCommand(verb, args)) is False
    assert not world.device_busy("bot")


@pytest.mark.parametrize("verb,args", [
    ("goto_cell", {"cell": (1, 1)}),               # wrong kind
    ("set_joints", {"joints": [1.8, 0, 0, 0]}),    # beyond the joint limit
    ("set_joints", {"joints": [0, 0, 0]}),
    ("set_joints", {"joints": "zero"}),
    ("set_joints", {"joints": [True, 0, 0, 0]}),   # a bool is no joint angle
])
def test_arm_rejects_malformed_commands(verb, args):
    world = make_world(devices=[arm()])
    assert world.apply("arm", NativeCommand(verb, args)) is False


def test_idle_grip_without_pallet_rejected_up_front():
    world = make_world(devices=[robot(2, 2)])
    assert world.apply("bot", cmd("grip")) is False
    assert world.apply("bot", cmd("release")) is False  # holding nothing


def test_queued_grip_judged_at_execution_time():
    """A grip queued behind other commands is validated when it runs."""
    world = make_world(pallets={"P": (1, 0)}, devices=[robot()])
    assert world.apply("bot", cmd("goto_cell", cell=(1, 0)))
    assert world.apply("bot", cmd("grip"))
    world.step()
    (obs,) = world.step()
    assert obs.payload["holding"] == "P"
    assert obs.payload["failed"] is None


def test_failed_grip_flagged_for_one_execution():
    world = make_world(devices=[robot()])
    assert world.apply("bot", cmd("goto_cell", cell=(0, 1)))
    assert world.apply("bot", cmd("grip"))  # nothing there once it arrives
    world.step()
    (obs,) = world.step()
    assert obs.payload["failed"] == "grip"
    assert obs.payload["holding"] is None
    # the failure shows on its own tick only, not on the idle tick after it
    (obs,) = world.step()
    assert (obs.payload["busy"], obs.payload["failed"]) == (False, None)
    # the flag stays clear when the device executes again
    assert world.apply("bot", cmd("goto_cell", cell=(0, 0)))
    (obs,) = world.step()
    assert obs.payload["failed"] is None


def test_a_failed_command_drops_the_rest_of_its_queue():
    """A robot whose grip finds nothing does not go on to its next goto."""
    world = make_world(devices=[robot()])
    for command in (cmd("goto_cell", cell=(0, 1)), cmd("grip"),
                    cmd("goto_cell", cell=(2, 1))):
        assert world.apply("bot", command)
    world.step()
    (obs,) = world.step()
    assert (obs.payload["failed"], obs.payload["busy"]) == ("grip", False)
    for _ in range(3):
        (obs,) = world.step()
        assert (obs.payload["cell"], obs.payload["busy"]) == ([0, 1], False)


def test_an_arm_grip_waits_until_a_pallet_lies_in_reach():
    """An arm's grip queued with nothing in reach stays at the head of its
    queue, the arm busy and nothing failed, until a robot sets a pallet
    down in its reach; the arm steps first, so it grips on the next tick."""
    world = make_world(pallets={"P": (1, 2)}, devices=[arm(), robot(0, 2)])
    assert world.apply("arm", cmd("set_joints", joints=[0.1, 0.0, 0.0, 0.0]))
    assert world.apply("arm", cmd("grip"))
    for command in (cmd("goto_cell", cell=(1, 2)), cmd("grip"),
                    cmd("goto_cell", cell=(2, 2)), cmd("release")):
        assert world.apply("bot", command)
    seen = []
    for _ in range(5):
        arm_obs, bot_obs = world.step()
        seen.append((arm_obs.payload["busy"], arm_obs.payload["failed"],
                     arm_obs.payload["holding"], bot_obs.payload["holding"]))
    assert seen == [
        (True, None, None, None),
        (True, None, None, "P"),
        (True, None, None, "P"),
        (True, None, None, None),  # the robot sets P down on (2, 2)
        (False, None, "P", None),
    ]


def test_robot_grips_and_releases_only_on_its_own_cell():
    """A grip or release naming another cell is refused, not carried out there."""
    world = make_world(pallets={"P": (0, 0), "Q": (4, 4)}, devices=[robot()])
    assert world.apply("bot", cmd("grip", cell=[4, 4])) is False
    assert world.apply("bot", cmd("grip"))
    world.step()
    assert world.apply("bot", cmd("release", cell=[4, 4])) is False
    assert world.apply("bot", cmd("release", cell=[1, 0])) is False
    (obs,) = world.step()
    assert obs.payload["holding"] == "P"
    assert world.pallet_positions() == {"P": "cell:0,0", "Q": "cell:4,4"}
    # queued behind a move, the same release fails when it runs
    assert world.apply("bot", cmd("goto_cell", cell=(1, 0)))
    assert world.apply("bot", cmd("release", cell=[4, 4]))
    world.step()
    (obs,) = world.step()
    assert (obs.payload["failed"], obs.payload["holding"]) == ("release", "P")
    assert world.pallet_positions() == {"P": "cell:1,0", "Q": "cell:4,4"}
    # naming the cell it stands on is the same as naming none
    assert world.apply("bot", cmd("release", cell=[1, 0]))
    world.step()
    assert world.pallet_positions() == {"P": "cell:1,0", "Q": "cell:4,4"}
    assert world.devices["bot"].holding is None


def test_devices_step_and_report_in_id_order():
    world = make_world(pallets={"P": (3, 2)},
                      devices=[MobileRobotSim("zed", (0, 0)), robot(3, 2), arm()])
    assert list(world.devices) == ["arm", "bot", "zed"]
    assert [o.device_id for o in world.step()] == ["arm", "bot", "zed"]


def test_racing_grips_leave_exactly_one_holder():
    """Two devices grip the same pallet in one tick; one wins, one fails."""
    world = make_world(pallets={"P": (3, 2)},
                      devices=[robot(3, 2), arm()])
    assert world.apply("bot", cmd("grip"))
    assert world.apply("arm", cmd("grip", cell=(3, 2)))
    by_id = {o.device_id: o.payload for o in world.step()}
    # devices execute in id order, so the arm reaches the pallet first
    assert by_id["arm"]["holding"] == "P"
    assert by_id["bot"]["holding"] is None
    assert by_id["bot"]["failed"] == "grip"
    assert world.pallet_positions() == {"P": "cell:3,2"}


def test_unknown_device_raises():
    world = make_world(devices=[robot()])
    with pytest.raises(WorldError):
        world.apply("ghost", cmd("grip"))


def test_same_script_same_observations():
    def run():
        world = WarehouseWorld.from_file(fixture_path("warehouse_world.json"))
        world.apply("turtlebot", cmd("goto_cell", cell=(1, 1)))
        world.apply("turtlebot", cmd("grip"))
        world.apply("turtlebot", cmd("goto_cell", cell=(3, 2)))
        world.apply("turtlebot", cmd("release"))
        stream = []
        for _ in range(12):
            stream.extend((o.device_id, o.tick, o.payload) for o in world.step())
        return stream

    assert run() == run()


def test_pallet_conservation_under_random_commands():
    """No command sequence may duplicate or lose a pallet."""
    rng = random.Random(7)
    world = make_world(pallets={"P1": (0, 0), "P2": (1, 1), "P3": (4, 4)},
                      devices=[robot(), arm(base=(1, 1),
                                            reach=((1, 1), (0, 1), (2, 1)))])
    pool = [cmd("grip"), cmd("release"), cmd("goto_cell", cell=(1, 1)),
            cmd("goto_cell", cell=(0, 0)), cmd("goto_cell", cell=(0, 1)),
            cmd("grip", cell=(1, 1)), cmd("release", cell=(0, 1)),
            cmd("set_joints", joints=[0.3, -0.3, 0.1, 0.0])]
    for _ in range(150):
        target = rng.choice(("bot", "arm"))
        choice = rng.choice(pool)
        world.apply(target, NativeCommand(choice.verb, dict(choice.args)))
        holders = {d.holding: d for d in world.devices.values() if d.holding}
        world.step()
        positions = world.pallet_positions()
        assert sorted(positions) == ["P1", "P2", "P3"]
        held = [d.holding for d in world.devices.values() if d.holding]
        assert len(held) == len(set(held))
        for device in world.devices.values():
            assert world.cell(device.cell) == device.cell
        lying = [positions[p] for p in positions if p not in held]
        assert len(lying) == len(set(lying))
        for pallet_id, holder in holders.items():
            if pallet_id not in held:
                cell = world.cell(positions[pallet_id])
                assert cell in getattr(holder, "reach", {holder.cell})


# -- sensing by exception ---------------------------------------------------


def observe_every_device(world):
    """A tick that rebuilds every device's payload: progress every queue,
    then ``observe`` each device with the verb that failed this tick."""
    world.tick += 1
    failed = {}
    for device_id, device in world.devices.items():
        if world._queues[device_id]:
            failed[device_id] = world._progress(device, world._queues[device_id])
    return [world.observe(device_id, failed.get(device_id)) for device_id in world.devices]


def random_world(rng: random.Random) -> WarehouseWorld:
    """Two to four devices on a 4x4 grid: robots, and arms whose reaches overlap."""
    cells = [(x, y) for x in range(4) for y in range(4)]
    devices = [MobileRobotSim(f"bot{n}", rng.choice(cells))
               for n in range(rng.randint(1, 2))]
    devices += [RoboticArmSim(f"arm{n}", base, frozenset(rng.sample(cells, 4)))
                for n, base in enumerate(rng.sample(cells, rng.randint(1, 2)))]
    pallets = {f"P{n}": cell for n, cell in enumerate(rng.sample(cells, rng.randint(1, 4)))}
    return make_world(pallets=pallets, devices=devices, width=4, height=4)


def random_command(rng: random.Random, world: WarehouseWorld, device_id: str):
    device = world.devices[device_id]
    cell = rng.choice(sorted(getattr(device, "reach", ())) or [None])
    if device.kind == KIND_MOBILE_ROBOT:
        return rng.choice([cmd("goto_cell", cell=(rng.randrange(4), rng.randrange(4))),
                           cmd("grip"), cmd("release")])
    return rng.choice([cmd("set_joints", joints=[rng.choice((0.0, 0.2, -0.3))] * 4),
                       cmd("grip"), cmd("grip", cell=cell), cmd("release", cell=cell)])


def test_step_matches_observing_every_device_every_tick():
    """On random worlds and command scripts, every tick's ``step`` equals a
    tick that observes every device afresh, ``pallets_moved`` is set on each
    tick the pallet positions change, and an unchanged device is handed its
    last payload again. The scripts leave devices idle, make arms wait to
    grip, fail grips and releases (dropping the commands queued behind
    them) and release pallets into another arm's reach."""
    seen = dict.fromkeys(("reused", "idle", "grip_wait", "failed_grip", "failed_release",
                          "dropped", "into_other_reach"), 0)
    for seed in range(40):
        rng = random.Random(seed)
        world, reference = (random_world(random.Random(seed)) for _ in range(2))
        last = {}
        for _ in range(60):
            for device_id in world.devices:
                if rng.random() < 0.2:
                    command = random_command(rng, world, device_id)
                    assert world.apply(device_id, command) == reference.apply(device_id, command)
            queues = {d: list(q) for d, q in reference._queues.items()}
            lying = set(reference._pallet_by_cell)
            holders = {d.device_id: d.holding for d in reference.devices.values()}
            positions = reference.pallet_positions()
            observations = world.step()
            expected = observe_every_device(reference)
            assert observations == expected, f"seed {seed}, tick {world.tick}"
            assert world.pallets_moved or reference.pallet_positions() == positions
            for observation in observations:
                device_id, payload = observation.device_id, observation.payload
                seen["reused"] += payload is last.get(device_id)
                last[device_id] = payload
                queue, device = queues[device_id], reference.devices[device_id]
                seen["idle"] += not queue
                seen["grip_wait"] += bool(queue and queue[0].verb == "grip"
                                          and device.kind == KIND_ROBOTIC_ARM
                                          and device.reach.isdisjoint(lying))
                if payload["failed"] is not None:
                    seen[f"failed_{payload['failed']}"] += 1
                    seen["dropped"] += len(queue) > 1
                filled = set(reference._pallet_by_cell) - lying
                released = holders[device_id] is not None and device.holding is None
                seen["into_other_reach"] += released and any(
                    other is not device and filled & getattr(other, "reach", set())
                    for other in reference.devices.values())
    assert min(seen.values()) > 0, seen


def test_a_waiting_grip_hands_the_arm_its_last_payload_again():
    """Nothing changes while an arm waits to grip, so nothing is rebuilt."""
    world = make_world(devices=[arm()])
    assert world.apply("arm", cmd("grip", cell=(3, 2))) is False
    assert world.apply("arm", cmd("set_joints", joints=[0.1, 0.0, 0.0, 0.0]))
    assert world.apply("arm", cmd("grip"))
    (first,) = world.step()
    for tick in (2, 3):
        (obs,) = world.step()
        assert obs.tick == tick and obs.payload is first.payload
    assert (first.payload["busy"], first.payload["joints"][0]) == (True, 0.1)


def test_an_idle_arm_whose_pallet_is_taken_first_waits_and_says_so():
    """Both arms accept a grip on the one pallet; the first in id order takes
    it, so the other's grip waits and the arm reports busy on that tick.
    Queueing marks nothing: the grip that emptied a cell in its reach did."""
    world = make_world(pallets={"P": (2, 2)},
                      devices=[arm(), RoboticArmSim("arm2", (1, 2), frozenset({(2, 2)}))])
    first = {obs.device_id: obs.payload for obs in world.step()}
    assert world.apply("arm", cmd("grip", cell=(2, 2)))
    assert world.apply("arm2", cmd("grip"))
    by_id = {obs.device_id: obs.payload for obs in world.step()}
    assert (by_id["arm"]["holding"], by_id["arm2"]["busy"]) == ("P", True)
    assert by_id["arm2"] is not first["arm2"] and by_id["arm2"]["pallets_in_reach"] == {}


# -- fixture loading --------------------------------------------------------


def fixture_doc() -> dict:
    with open(fixture_path("warehouse_world.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_fixture_round_trip():
    world = WarehouseWorld.from_file(fixture_path("warehouse_world.json"))
    assert world.width == 6 and world.height == 4
    assert world.pallet_positions() == {"Pallet1": "P1"}
    assert sorted(world.devices) == ["roboticarm", "turtlebot"]
    assert world.position_literal((4, 2)) == "P2"
    assert world.cell("cell:3,2") == (3, 2)
    assert world.cell("P1") == (1, 1)
    assert world.cell([4, 2]) == (4, 2)


def test_every_fixture_cell_takes_the_three_written_forms():
    """Stations, pallets, a robot's start and an arm's base and reach are
    each read like a task cell: a station label, cell:x,y or [x, y]."""
    doc = fixture_doc()
    doc["stations"]["P3"] = "cell:0,3"
    doc["pallets"] = {"Pallet1": "P1", "Pallet2": [2, 2]}
    doc["devices"]["turtlebot"]["start"] = "P3"
    doc["devices"]["roboticarm"].update({"base": "P2",
                                         "reach": ["cell:3,2", "P2", [5, 2]]})
    world = WarehouseWorld.from_fixture(doc)
    assert world.stations["P3"] == (0, 3)
    assert world.pallet_positions() == {"Pallet1": "P1", "Pallet2": "cell:2,2"}
    assert world.devices["turtlebot"].cell == (0, 3)
    arm = world.devices["roboticarm"]
    assert arm.base == (4, 2) and arm.reach == {(3, 2), (4, 2), (5, 2)}


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("grid"),
    lambda d: d["grid"].update({"height": 0}),
    lambda d: d["devices"]["turtlebot"].update({"start": "Nowhere"}),
    lambda d: d["pallets"].update({"X": "Nowhere"}),
    lambda d: d["devices"]["turtlebot"].update({"kind": "drone"}),
    lambda d: d["stations"].update({"P3": [99, 0]}),
    lambda d: d["stations"].update({"P3": [1, 1]}),
    lambda d: d["devices"]["turtlebot"].update({"start": [9, 9]}),
    lambda d: d["devices"]["roboticarm"].update({"base": [6, 2]}),
    lambda d: d["devices"]["roboticarm"]["reach"].append([0, 4]),
    lambda d: d["devices"]["roboticarm"].update({"joints": [0, 0, 0]}),
    lambda d: d["devices"]["roboticarm"].update({"joints": [0, 0, 0, "x"]}),
    lambda d: d["devices"]["roboticarm"].update({"joints": [0, 0, 0, 1.6]}),
    lambda d: d["devices"]["roboticarm"].update({"joints": [True, False, 0, 0]}),
])
def test_bad_fixture_documents_raise(mutate):
    doc = fixture_doc()
    mutate(doc)
    with pytest.raises(WorldError):
        WarehouseWorld.from_fixture(doc)


def test_a_device_id_used_twice_is_refused():
    with pytest.raises(WorldError, match="^duplicate device id bot$"):
        make_world(devices=[robot(), robot(1, 1)])


@pytest.mark.parametrize("what, mutate", [
    ("station P1", lambda d: d["stations"].update({"P1": [1.5, 1]})),
    ("pallet Pallet1", lambda d: d["pallets"].update({"Pallet1": [1.5, 1]})),
    ("device turtlebot",
     lambda d: d["devices"]["turtlebot"].update({"start": [0.5, 0]})),
    ("device roboticarm",
     lambda d: d["devices"]["roboticarm"].update({"base": [4, 2.0]})),
    ("device roboticarm",  # a bool is an int to Python, not to a fixture
     lambda d: d["devices"]["roboticarm"]["reach"].append([3, True])),
], ids=["station", "pallet", "robot_start", "arm_base", "reach_cell"])
def test_non_integer_cells_raise(what, mutate):
    """A cell off the integer grid would load and then never be reached."""
    doc = fixture_doc()
    mutate(doc)
    with pytest.raises(WorldError, match=f"{what} needs an integer"):
        WarehouseWorld.from_fixture(doc)


@pytest.mark.parametrize("where", ["P1", [1, 1]], ids=["station", "cell"])
def test_two_pallets_on_one_cell_raise(where):
    doc = fixture_doc()
    doc["pallets"]["Pallet0"] = where
    with pytest.raises(WorldError, match="pallets Pallet1 and Pallet0 share a cell"):
        WarehouseWorld.from_fixture(doc)


def test_bad_position_literal_raises():
    world = make_world(devices=[robot()])
    for text in ("cell:1", "cell:a,b", "NoSuchStation", "cell:5,0", "cell:-1,0",
                 # digits are ASCII, with no sign, space or underscore
                 "cell: 3,2", "cell:+3,2", "cell:3_0,1", "cell:\u0661,\u0661"):
        with pytest.raises(WorldError):
            world.cell(text)


# -- capability translation -------------------------------------------------


@pytest.mark.parametrize("capability, params, kind, expected", [
    ("MotionControl", {"to": "P2"}, KIND_MOBILE_ROBOT, [cmd("goto_cell", cell=[4, 2])]),
    ("MotionControl", {"to": [2, 3]}, KIND_MOBILE_ROBOT, [cmd("goto_cell", cell=[2, 3])]),
    ("GripperControl", {"op": "release", "to": "P2"}, KIND_ROBOTIC_ARM, [cmd("release")]),
])
def test_translate_short_forms(world, capability, params, kind, expected):
    assert translate(capability, params, kind, world) == expected


@pytest.mark.parametrize("capability, params, kind, message", [
    ("MotionControl", {"from": "P1"}, KIND_MOBILE_ROBOT, "MotionControl needs a destination"),
    ("GripperControl", {"from": "P1"}, KIND_ROBOTIC_ARM, "GripperControl needs a target"),
    ("MotionControl", {"to": "P2"}, KIND_ROBOTIC_ARM, "MotionControl requires a mobile robot"),
    ("GripperControl", {"to": "P2"}, KIND_MOBILE_ROBOT, "GripperControl requires a robotic arm"),
    ("Welding", {"to": "P2"}, KIND_MOBILE_ROBOT, "unknown capability 'Welding'"),
])
def test_translate_refusals(world, capability, params, kind, message):
    with pytest.raises(ValidationError) as refusal:
        translate(capability, params, kind, world)
    assert str(refusal.value) == message


@pytest.mark.parametrize("capability, params, kind, message", [
    ("MotionControl", {"to": 7}, KIND_MOBILE_ROBOT, "cannot interpret 7 as a cell"),
    ("MotionControl", {"from": "P1", "to": "cell:6,0"}, KIND_MOBILE_ROBOT,
     "a command needs a cell on the 6x4 grid, got 'cell:6,0'"),
    ("GripperControl", {"to": [0, 4]}, KIND_ROBOTIC_ARM,
     "a command needs a cell on the 6x4 grid, got [0, 4]"),
    ("GripperControl", {"to": "Dock"}, KIND_ROBOTIC_ARM,
     "a command needs a station or cell:x,y, got 'Dock'"),
])
def test_translate_reads_every_cell_through_the_world(world, capability, params,
                                                      kind, message):
    """A cell the world cannot read is refused when the invocation arrives."""
    with pytest.raises(WorldError) as refusal:
        translate(capability, params, kind, world)
    assert str(refusal.value) == message
