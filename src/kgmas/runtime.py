"""Single-threaded scenario driver.

Everything that moves, moves here, in a fixed order: mediator first, then
the asset agents with work, by id, then device dispatch, one world tick, and
the fan-out and mirroring of each device state that changed; the scenario is
the only writer of pallet ``atPosition``, and rewrites it only on a tick in
which the world says a pallet moved.  An asset agent has
work while its inbox holds mail or one of its device commands is in flight.
That is tested when the walk reaches the agent, so mail sent earlier in the
same tick still wakes it; an agent without work, whose turn would do
nothing, is skipped.  Time is the tick counter; nothing reads a wall clock,
so two runs of the same scenario produce byte-identical traces and dumps.

The setup graph is fixed for a scenario's life: its protocols load once, at
set-up.  A task's conversation ends when its run returns.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

from .acl import AclMessage, Bus, Performative
from .agents import (OPERATOR_ID, AgentHandle, KgAgent, generate_agents, instantiate,
                     shutdown)
from .errors import ProtocolError, ValidationError, read_text
from .protocol import (FAILED, ProtocolDefinition, TaskState, check_world_consistency,
                       load_protocol)
from .store import NamedGraphStore
from .terms import Literal
from .transports import Endpoint, TransportRegistry, default_registry
from .vocab import AT_POSITION, DATA_GRAPH, FOR_TASK, SETUP_GRAPH, kgmas
from .world import WarehouseWorld

log = logging.getLogger("kgmas.runtime")

TICK_MS = 100
DEFAULT_DEADLINE_MS = 2000


def load_protocols(store: NamedGraphStore,
                   graph_id) -> dict[str, ProtocolDefinition | ProtocolError]:
    """Every protocol the graph names, by task name, loaded once; a
    protocol that does not load is kept as its error."""
    names = {t.object.lexical for _, entry in store.rows(graph_id, FOR_TASK)
             for t in entry if isinstance(t.object, Literal)}
    protocols = {}
    for name in sorted(names):
        try:
            protocols[name] = load_protocol(store, graph_id, name)
        except ProtocolError as exc:
            protocols[name] = exc
    return protocols


@dataclass
class RunResult:
    status: str
    stalled_step: int | None
    ticks: int
    conversation_id: str
    trace: list[tuple[int, AclMessage]]
    violations_per_tick: list[int]
    task: TaskState

    def skeleton(self) -> list[tuple[str, str, str]]:
        """The trace reduced to (performative, sender, receiver)."""
        return [(message.performative.value, message.sender, message.receiver)
                for _, message in self.trace]


class Scenario:
    """A wired-up system: store, world, bus, mediator and asset agents."""

    def __init__(self, store: NamedGraphStore, world: WarehouseWorld, *,
                 registry: TransportRegistry | None = None,
                 transport_overrides: dict[str, str] | None = None,
                 instantiate_only=None,
                 deadline_ms: int = DEFAULT_DEADLINE_MS):
        self.store = store
        self.world = world
        self.registry = registry or default_registry()
        self.deadline_ms = deadline_ms
        self.bus = Bus()
        self.bus.register(OPERATOR_ID)
        self.kg = KgAgent(self.bus, store, DATA_GRAPH,
                          clock=lambda: self.world.tick)
        blueprints = generate_agents(store, SETUP_GRAPH,
                                     known_schemes=self.registry.schemes())
        self.protocols = load_protocols(store, SETUP_GRAPH)
        known_ids = {blueprint.agent_id for blueprint in blueprints}
        overrides = dict(transport_overrides or {})
        for asset_id, scheme in overrides.items():
            if asset_id not in known_ids:
                raise ValidationError(
                    f"transport override names unknown asset {asset_id!r}; "
                    f"known: {', '.join(sorted(known_ids))}")
            if scheme not in self.registry.schemes():
                raise ValidationError(
                    f"transport override uses unknown scheme {scheme!r}")
        # Blueprints come sorted by agent id, so handles are walked in id order.
        self.handles: dict[str, AgentHandle] = {}
        for blueprint in blueprints:
            agent_id = blueprint.agent_id
            if instantiate_only is not None and agent_id not in instantiate_only:
                continue
            if agent_id in overrides:
                blueprint = replace(blueprint, binding=Endpoint(
                    overrides[agent_id], blueprint.binding.address))
            self.handles[agent_id] = instantiate(
                blueprint, bus=self.bus, store=store, data_graph=DATA_GRAPH,
                world=world, registry=self.registry)
        self._agents = [handle.agent for handle in self.handles.values()]
        self._connections = [handle.connection for handle in self.handles.values()
                             if handle.connection is not None]
        self._published: dict[str, str] = {}
        self._publish_pallets()

    @classmethod
    def from_files(cls, setup_path, world_path, **kwargs) -> "Scenario":
        store = NamedGraphStore()
        store.load_turtle(SETUP_GRAPH, read_text(setup_path))
        return cls(store, WarehouseWorld.from_file(world_path), **kwargs)

    # -- per-tick machinery ------------------------------------------------

    def _publish_pallets(self) -> None:
        positions = self.world.pallet_positions()
        for pallet_id, position in positions.items():
            if self._published.get(pallet_id) != position:
                self.store.replace(DATA_GRAPH, kgmas(pallet_id), {
                    AT_POSITION: [Literal(position)],
                })
        self._published = positions

    def iterate(self) -> None:
        """One full cycle: think, act, move, sense."""
        self.kg.activate()
        waiting = self.bus.waiting
        for agent in self._agents:
            if agent.agent_id in waiting or agent.performing is not None:
                agent.activate()
        for connection in self._connections:
            connection.dispatch()
        observations = self.world.step()
        for observation in observations:
            handle = self.handles.get(observation.device_id)
            if handle is not None and handle.connection is not None:
                handle.connection.observe(observation)
        if self.world.pallets_moved:
            self._publish_pallets()

    # -- task runs ---------------------------------------------------------

    def run_task(self, task_name: str, params: dict | None = None, *,
                 on_tick=None) -> RunResult:
        """Drive one task from operator request to a final status.

        The mediator fails the task when its step cursor makes no progress
        for a whole deadline window or the run hits the tick cap. The loop
        keeps going after the final status until the bus drains, so trailing
        confirmations still make the trace; mail to the operator is logged
        and dropped after each tick.
        """
        protocol = self.protocols.get(task_name)
        if not isinstance(protocol, ProtocolDefinition):
            # A fresh error: raising the stored one would grow its traceback every run.
            raise ProtocolError(str(protocol or "no protocol matches the requested task"))
        task = self.kg.create_task(protocol, params or {})
        conversation = task.conversation_id
        initiator = protocol.agent_for(protocol.initiator_role)
        self.bus.send(AclMessage(Performative.REQUEST, OPERATOR_ID, initiator,
                                 task.template_bindings, conversation))
        deadline_ticks = max(0, int(self.deadline_ms) // TICK_MS)
        start_tick = self.world.tick
        cap = (deadline_ticks + 1) * (len(protocol.steps) + 2) + 100
        violations: list[int] = []
        marker = (task.index, task.status)
        last_progress = self.world.tick
        while not task.finished or not self.bus.idle():
            if self.world.tick - start_tick >= cap:
                self.kg.fail(task)
                log.info("run of %s hit the tick cap", task.task_id)
                break
            self.iterate()
            violations.append(
                len(check_world_consistency(self.store, DATA_GRAPH)))
            if on_tick is not None:
                on_tick(self)
            while OPERATOR_ID in self.bus.waiting:
                log.info("operator got %s", self.bus.receive(OPERATOR_ID))
            current = (task.index, task.status)
            if current != marker:
                marker = current
                last_progress = self.world.tick
            if task.finished:
                continue
            if self.world.tick - last_progress >= deadline_ticks:
                self.kg.fail(task)
        for agent in (self.kg, *self._agents):
            agent.end_conversation(conversation)
        return RunResult(
            status=task.status,
            stalled_step=task.index if task.status == FAILED else None,
            ticks=self.world.tick - start_tick,
            conversation_id=conversation,
            trace=self.bus.conversation_log(conversation),
            violations_per_tick=violations,
            task=task,
        )

    def close(self) -> None:
        """Stop all agents and free their transports; safe to repeat."""
        for handle in self.handles.values():
            shutdown(handle, bus=self.bus, store=self.store, data_graph=DATA_GRAPH)
        self.bus.unregister(self.kg.agent_id)
        self.bus.unregister(OPERATOR_ID)

    def __enter__(self) -> "Scenario":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
