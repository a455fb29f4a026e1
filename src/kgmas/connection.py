"""Couples an agent to its simulated device over a transport.

The connection component owns the device-facing side of an asset's channels.
It accepts abstract capability invocations, translates them into native
command sequences, hands each sequence to the world in the tick it arrives,
and publishes the resulting observations back on the asset's outbound
channels.  It keeps the id of the invocation in flight, the outcome it echoes
and one record, the last state it reported; the world's queue holds what the
device still has to do, and the adapter says whether the channel is closed.
It reports by exception: an observation is published only on a tick whose
state differs from that record, stamped with that tick, so ``tick`` is the
tick the state was first reported.  It writes the device's full state into
the data graph when it opens and from then on is the only writer of its
asset's state predicates, rewriting only those whose values changed since
the last report. Handed the very payload it digested last, which the world
reuses for an unchanged device, it returns at once. An arriving invocation
clears that memo, and the outcome and the invocation in flight change only
then, on dispatch in the same tick, or inside ``observe``.
"""

from __future__ import annotations

import json

from .acl import canonical_json
from .errors import TransportError, ValidationError, WorldError
from .rami import AgentBlueprint
from .store import NamedGraphStore
from .terms import Literal
from .transports import Adapter
from .vocab import (
    AT_POSITION,
    HAS_GRIPPER_STATE,
    HAS_JOINT_STATES,
    HAS_STATUS,
    HOLDS,
    STATUS_BUSY,
    STATUS_IDLE,
    kgmas,
)
from .world import (
    KIND_MOBILE_ROBOT,
    KIND_ROBOTIC_ARM,
    NativeCommand,
    Observation,
    WarehouseWorld,
)

CAP_MOTION = "MotionControl"
CAP_GRIPPER = "GripperControl"

# Fixed joint postures used when a pick or place is requested abstractly.
PICK_POSTURE = [0.3, 0.2, -0.2, 0.1]
PLACE_POSTURE = [-0.3, 0.1, 0.2, 0.0]

# The mirrored state fields: payload key, predicate, objects of a value.
_FACTS = (
    ("busy", HAS_STATUS, lambda v, w: [Literal(STATUS_BUSY if v else STATUS_IDLE)]),
    ("cell", AT_POSITION, lambda v, w: [Literal(w.position_literal(v))]),
    ("holding", HOLDS, lambda v, w: [kgmas(v)] if v else []),
    ("joints", HAS_JOINT_STATES, lambda v, w: [Literal(",".join(f"{j:g}" for j in v))]),
    ("gripper", HAS_GRIPPER_STATE, lambda v, w: [Literal(v)]),
)


def translate(capability: str, params: dict, device_kind: str,
              world: WarehouseWorld) -> list[NativeCommand]:
    """Expand an abstract capability call into native device commands.

    MotionControl maps onto mobile-robot navigation; with both endpoints
    given it becomes a full fetch-and-carry sequence.  GripperControl maps
    onto the arm's pick-and-place posture cycle. ``world.cell`` reads every
    cell, so one off the grid is refused when the invocation arrives.
    """
    if capability == CAP_MOTION:
        if device_kind != KIND_MOBILE_ROBOT:
            raise ValidationError(f"{capability} requires a mobile robot")
        if "from" in params and "to" in params:
            src = world.cell(params["from"])
            dst = world.cell(params["to"])
            return [
                NativeCommand("goto_cell", {"cell": list(src)}),
                NativeCommand("grip", {}),
                NativeCommand("goto_cell", {"cell": list(dst)}),
                NativeCommand("release", {}),
            ]
        if "to" in params:
            dst = world.cell(params["to"])
            return [NativeCommand("goto_cell", {"cell": list(dst)})]
        raise ValidationError(f"{capability} needs a destination")
    if capability == CAP_GRIPPER:
        if device_kind != KIND_ROBOTIC_ARM:
            raise ValidationError(f"{capability} requires a robotic arm")
        if params.get("op") == "release":
            return [NativeCommand("release", {})]
        if "to" in params:
            dst = world.cell(params["to"])
            return [
                NativeCommand("set_joints", {"joints": PICK_POSTURE}),
                NativeCommand("grip", {}),
                NativeCommand("set_joints", {"joints": PLACE_POSTURE}),
                NativeCommand("release", {"cell": list(dst)}),
            ]
        raise ValidationError(f"{capability} needs a target")
    raise ValidationError(f"unknown capability {capability!r}")


class ConnectionComponent:
    """Device-side endpoint of an asset's channels.

    One instance serves one asset, whose id is also its device's id in the
    world.  Commands arrive as JSON payloads of the shape
    ``{"op": "invoke", "capability": ..., "params": ..., "id": N}``;
    progress is reported through observation payloads carrying ``done_id``
    or ``failed_id`` markers that echo the invocation id.
    """

    def __init__(self, blueprint: AgentBlueprint, adapter: Adapter,
                 world: WarehouseWorld, store: NamedGraphStore, data_graph: str):
        self.asset_id = blueprint.agent_id
        self.blueprint = blueprint
        self.adapter = adapter
        self.world = world
        self.store = store
        self.data_graph = data_graph
        self._command_id: int | None = None  # the invocation in flight
        self._arrived: list[NativeCommand] = []  # its commands, until dispatch
        self._outcome: dict = {"done_id": None, "failed_id": None}
        self._digested: dict | None = None  # the payload observe read last
        self._obs_topics = blueprint.observation_topics
        for topic in blueprint.command_topics:
            self.adapter.subscribe(topic, self._on_command_text)
        # Mirrored in full but never published: the first tick always reports.
        self._reported: dict = {}
        self._mirror(world.observe(self.asset_id).payload)

    # -- command lifecycle -------------------------------------------------

    def _on_command_text(self, text: str) -> None:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return
        if not isinstance(payload, dict) or payload.get("op") != "invoke":
            return
        command_id = payload.get("id")
        capability = str(payload.get("capability", ""))
        params = payload.get("params") or {}
        if type(command_id) is not int or not isinstance(params, dict):
            return
        self._digested = None
        if self._command_id is not None:
            # Refuse the newcomer without disturbing the invocation in flight.
            self._outcome.update(failed_id=command_id, error="device busy")
            return
        kind = self.world.devices[self.asset_id].kind
        try:
            natives = translate(capability, params, kind, self.world)
        except (ValidationError, WorldError) as exc:
            self._outcome.update(failed_id=command_id, error=str(exc))
            return
        self._outcome = {"done_id": None, "failed_id": None}
        self._command_id, self._arrived = command_id, natives

    def _fail(self, error: str) -> None:
        self._outcome.update(failed_id=self._command_id, error=error)
        self._command_id = None

    def dispatch(self) -> None:
        """Hand the commands of an invocation that arrived to the world, in order."""
        natives, self._arrived = self._arrived, []
        for command in natives:
            if not self.world.apply(self.asset_id, command):
                # translate's commands pass the world's shape checks, so this
                # guards the world's API only; a grip or release that cannot
                # run fails when it runs.
                self._fail(f"{command.verb} rejected")
                return

    def observe(self, observation: Observation) -> None:
        """Digest a world observation; publish and mirror it if it changed."""
        if self.adapter.closed or observation.payload is self._digested:
            return
        payload = dict(observation.payload)
        if self._command_id is not None and not payload["busy"]:
            if payload["failed"] is not None:
                self._fail(f"{payload['failed']} failed")
            else:
                self._outcome["done_id"] = self._command_id
                self._command_id = None
        payload["device"] = observation.device_id
        payload.update(self._outcome)
        self._digested = observation.payload
        if payload == self._reported:
            return
        text = canonical_json({**payload, "tick": observation.tick})
        for topic in self._obs_topics:
            self.adapter.publish(topic, text)
        self._mirror(payload)

    # -- graph mirroring ---------------------------------------------------

    def _mirror(self, state: dict) -> None:
        """Write the state predicates whose values differ from the record,
        then make ``state`` the record."""
        last = self._reported
        facts = {predicate: objects(state[key], self.world)
                 for key, predicate, objects in _FACTS
                 if key in state and (key not in last or state[key] != last[key])}
        if facts:
            self.store.replace(self.data_graph, self.blueprint.asset_id, facts)
        self._reported = state

    def close(self) -> None:
        self.adapter.close()


class AgentChannel:
    """Agent-side view of the same channels: send commands, read sensors."""

    def __init__(self, blueprint: AgentBlueprint, adapter: Adapter):
        self.adapter = adapter
        self._command_topics = blueprint.command_topics
        self._cached: dict | None = None
        for topic in blueprint.observation_topics:
            self.adapter.subscribe(topic, self._on_observation_text)

    def _on_observation_text(self, text: str) -> None:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return
        if isinstance(payload, dict):
            self._cached = payload

    def send_command(self, payload: dict) -> None:
        if self.adapter.closed or not self._command_topics:
            raise TransportError("no command channel")
        self.adapter.publish(self._command_topics[0], canonical_json(payload))

    def latest_observation(self) -> dict | None:
        return None if self.adapter.closed else self._cached

    def close(self) -> None:
        self.adapter.close()
