"""Workload inputs: the shipped fixture plus seeded generators.

Every workload runs the fixture task (move the pallet from P1 to P2), so
the message trace is the same in all of them; what changes is how much
else the system carries while it does so:

* ``fixture``   the shipped setup and world, nothing added;
* ``big_graph`` a seeded inventory document of positions, labels and
  racks loaded into the data graph before the scenario is built;
* ``fleet``     seeded extra asset descriptions appended to the setup,
  with the two task assets moved onto ``rest+http``.

The generated triples never touch the fixture's entities: inventory
subjects carry no ``hasRealm`` (so the co-location check stays at zero
violations) and extra assets bind no role of the task's protocol.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

PREFIXES = ("@prefix kgmas: <http://kgmas.example/vocab#> .\n"
            "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n")

TASK = "move_pallet"
TASK_PARAMS = {"from": "P1", "to": "P2"}
PALLET, TARGET = "Pallet1", "P2"

INVENTORY_TRIPLES = 5000
FLEET_ASSETS = 100
FLEET_OVERRIDES = {"turtlebot": "rest+http", "roboticarm": "rest+http"}

SCHEMES = ("ros+ws", "rest+http", "mqtt")
ASSET_KINDS = ("Mobile_Robot", "Robotic_Arm", "Conveyor", "Camera", "Agv")
_WORDS = ("crate", "bin", "tote", "spare", "motor", "belt", "sensor",
          "bolt", "panel", "cable", "fragile", "heavy", "cold", "returned")
# Labels exercise the literal escapes the Turtle subset supports.
_ODD_LABELS = ('quote " inside', "back\\slash", "tab\there", "new\nline",
               "unicode é世界", "# not a comment", "trailing dot .")


@dataclass
class WorkloadInputs:
    """Everything one workload feeds the system, plus what it expects back."""

    setup_text: str
    world_text: str
    inventory_text: str = ""
    overrides: dict = field(default_factory=dict)
    # Turtle for data-graph triples the workload adds beyond the fixture's.
    expected_extra_data: str = ""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _position(rng: random.Random) -> str:
    # Grid of the shipped world is 6x4; station cells read as their labels.
    x, y = rng.randrange(6), rng.randrange(4)
    return {(1, 1): "P1", (4, 2): "P2"}.get((x, y), f"cell:{x},{y}")


def _label(rng: random.Random) -> str:
    if rng.random() < 0.05:
        return rng.choice(_ODD_LABELS)
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 3)))


def inventory_document(seed: int, count: int) -> str:
    """Exactly ``count`` distinct data-graph triples about stock items.

    Racks have a position and a label; items have a position, a label,
    a rack and a quantity. Nothing here carries a realm.
    """
    rng = random.Random(seed)
    racks = max(1, count // 100)
    statements = []
    for r in range(racks):
        rack = f"kgmas:Rack{r:04d}"
        statements.append(f'{rack} kgmas:atPosition "{_position(rng)}" .')
        statements.append(f'{rack} kgmas:hasLabel "aisle {rng.randrange(20)}" .')
    item = 0
    while len(statements) < count:
        subject = f"kgmas:Item{item:06d}"
        label = (_label(rng).replace("\\", "\\\\").replace('"', '\\"')
                 .replace("\n", "\\n").replace("\t", "\\t"))
        for statement in (
                f'{subject} kgmas:atPosition "{_position(rng)}" .',
                f'{subject} kgmas:hasLabel "{label}" .',
                f"{subject} kgmas:onRack kgmas:Rack{rng.randrange(racks):04d} .",
                f'{subject} kgmas:quantity "{rng.randint(1, 500)}"^^xsd:integer .'):
            if len(statements) < count:
                statements.append(statement)
        item += 1
    return PREFIXES + "\n".join(statements) + "\n"


def fleet_asset_block(rng: random.Random, name: str, scheme: str,
                      realm: str) -> list[str]:
    """Turtle statements for one valid asset that binds no task role."""
    lines = [
        f"kgmas:{name} kgmas:hasAssetKind kgmas:{rng.choice(ASSET_KINDS)} .",
        f"kgmas:{name} kgmas:hasRealm kgmas:{realm} .",
        f'kgmas:{name} kgmas:hasProtocol "{scheme}" .',
        f'kgmas:{name} kgmas:hasEndpoint '
        f'"fleet{rng.randrange(8)}:{9100 + rng.randrange(100)}" .',
        f"kgmas:{name} kgmas:hasCoordinationRole kgmas:{name}Role .",
        f"kgmas:WarehouseSystem kgmas:aggregates kgmas:{name} .",
    ]
    for c in range(rng.randint(1, 3)):
        channel = f"{name}Channel{c}"
        direction = rng.choice(("publishesOn", "subscribesTo"))
        lines.append(f"kgmas:{name} kgmas:{direction} kgmas:{channel} .")
        lines.append(f'kgmas:{channel} kgmas:hasTopic "/{name.lower()}/t{c}" .')
        lines.append(f"kgmas:{channel} kgmas:hasMessageKind kgmas:Msg{c} .")
    for c in range(rng.randint(1, 2)):
        lines.append(f"kgmas:{name} kgmas:hasCapability kgmas:{name}Cap{c} .")
    return lines


def fleet_document(seed: int, count: int) -> tuple[str, str]:
    """``count`` extra assets covering every scheme.

    Returns the setup statements and, as Turtle, the data-graph facts the
    run leaves behind for them: their realm and a stopped status.
    """
    rng = random.Random(seed)
    schemes = [SCHEMES[i % len(SCHEMES)] for i in range(count)]
    rng.shuffle(schemes)
    setup, data = [], []
    for i, scheme in enumerate(schemes):
        name = f"Fleet{i:03d}"
        realm = rng.choice(("physical", "digital"))
        setup.extend(fleet_asset_block(rng, name, scheme, realm))
        data.append(f"kgmas:{name} kgmas:hasRealm kgmas:{realm} .")
        data.append(f'kgmas:{name} kgmas:hasStatus "stopped" .')
    return "\n".join(setup) + "\n", PREFIXES + "\n".join(data) + "\n"


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def make_inputs(workload: str, seed: int, *, inventory: int = INVENTORY_TRIPLES,
                fleet: int = FLEET_ASSETS) -> WorkloadInputs:
    """Build a workload's inputs; the same seed gives the same inputs."""
    setup = _read(FIXTURES / "fig3_setup.ttl")
    world = _read(FIXTURES / "warehouse_world.json")
    inputs = WorkloadInputs(setup, world)
    if workload == "big_graph":
        inputs.inventory_text = inventory_document(seed, inventory) if inventory else ""
        inputs.expected_extra_data = inputs.inventory_text
    elif workload == "fleet":
        extra, data = fleet_document(seed, fleet)
        inputs.setup_text = setup + "\n# -- seeded fleet --\n\n" + extra
        inputs.overrides = dict(FLEET_OVERRIDES)
        inputs.expected_extra_data = data
    elif workload != "fixture":
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


def golden(name: str) -> str:
    return _read(GOLDEN / name)
