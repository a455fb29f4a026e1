"""Coordination protocols stored in the knowledge graph.

A protocol is a task name, a set of roles (each requiring one
capability) and an ordered list of steps. Step kinds:

* ``query_next``: the role asks the mediator what to do; asking
  consumes the step. A role asks when the task starts (the initiating
  role), after its report is confirmed, and after its own query, so a
  query sits at one of those moments or among the queries after the
  last report, which the task does not wait for.
* ``send_request``: a role that holds the task request (the initiating
  role, or one an earlier request targeted) forwards it to another
  role; consumed when that role consults the mediator about it
* ``perform_action``: the role exercises its capability on its device
* ``report_event``: the second half of the perform step right in front
  of it, owned by the same role: the event the role reports when the
  action is done. Recording it consumes the pair.

The functions here hold the coordination semantics. A ``TaskState`` is
the one record of a task: its protocol, its parameters and its step
cursor. Each mediator rule takes the task alone, answers one message and
moves the cursor as that message requires: ``next_action`` and
``handle_request`` answer queries, ``record_event`` accepts a report, and
``next_push`` hands out a current step nobody has asked for. Only a rule
that completes the task moves the cursor past the last step. No rule
writes the store: the mediator agent wraps these rules with messaging and
alone mirrors a task, records its events and fails it. Consistency
checking lives here too.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field

from . import vocab
from .errors import EventRejectedError, ProtocolError
from .store import NamedGraphStore, objects_of
from .terms import Iri, Literal
from .vocab import agent_id_of, kgmas

SEND_REQUEST = "send_request"
PERFORM_ACTION = "perform_action"
REPORT_EVENT = "report_event"
QUERY_NEXT = "query_next"

_KIND_BY_IRI = {
    vocab.KIND_SEND_REQUEST: SEND_REQUEST,
    vocab.KIND_PERFORM_ACTION: PERFORM_ACTION,
    vocab.KIND_REPORT_EVENT: REPORT_EVENT,
    vocab.KIND_QUERY_NEXT: QUERY_NEXT,
}

PENDING = "pending"
IN_PROGRESS = "in_progress"
COMPLETED = "completed"
FAILED = "failed"


@dataclass(frozen=True)
class ProtocolStep:
    index: int
    role: Iri
    kind: str
    target_role: Iri | None = None
    template: object = None


@dataclass(frozen=True)
class ProtocolDefinition:
    protocol_id: Iri
    task_name: str
    steps: tuple[ProtocolStep, ...]
    roles: dict[Iri, Iri]        # role -> required capability
    role_assets: dict[Iri, Iri]  # role -> asset bound in the setup graph

    def agent_for(self, role: Iri) -> str:
        return agent_id_of(self.role_assets[role])

    def role_of_agent(self, agent_id: str) -> Iri | None:
        for role, asset in self.role_assets.items():
            if agent_id_of(asset) == agent_id:
                return role
        return None

    @property
    def initiator_role(self) -> Iri:
        return self.steps[0].role


@dataclass
class TaskState:
    """One task instance: the protocol it runs and its progress through it.

    ``index`` is the step cursor. Every rule leaves a finished task alone,
    so a failed task's cursor names the step it stalled at.
    """

    task_id: str
    protocol: ProtocolDefinition
    params: dict[str, str]
    index: int = 1
    status: str = PENDING
    instructed: set[int] = field(default_factory=set)  # steps handed out

    @property
    def task_name(self) -> str:
        return self.protocol.task_name

    @property
    def iri(self) -> Iri:
        return kgmas(self.task_id)

    @property
    def conversation_id(self) -> str:
        return f"conv-{self.task_id}"

    @property
    def finished(self) -> bool:
        return self.status == COMPLETED or self.status == FAILED

    @property
    def template_bindings(self) -> dict[str, str]:
        return {"task": self.task_name, **self.params}


def event_name_of(step: ProtocolStep) -> str:
    if isinstance(step.template, dict) and isinstance(step.template.get("event"), str):
        return step.template["event"]
    raise ProtocolError(f"step {step.index} has no event name in its template")


_PLACEHOLDER = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


def substitute(template, bindings: dict[str, str]):
    """Fill ``{name}`` placeholders in every string of a JSON value.

    Unknown names are left as written so partially bound templates stay
    recognizable instead of failing.
    """
    if isinstance(template, str):
        return _PLACEHOLDER.sub(
            lambda m: str(bindings.get(m.group(1), m.group(0))), template)
    if isinstance(template, list):
        return [substitute(item, bindings) for item in template]
    if isinstance(template, dict):
        return {key: substitute(value, bindings) for key, value in template.items()}
    return template


# -- loading ---------------------------------------------------------------


def _int_of(value, what: str) -> int:
    if isinstance(value, Literal):
        try:
            return int(value.lexical)
        except ValueError:
            pass
    raise ProtocolError(f"{what} must be an integer literal")


def load_protocol(store: NamedGraphStore, graph_id, task_name: str) -> ProtocolDefinition:
    """Read one protocol out of the setup graph and validate it.

    Checks: contiguous 1-based step indexes, step roles declared on the
    protocol, request targets declared and other than the requesting
    role, performs and reports in adjacent pairs of one role (perform
    first), a step other than a query after the last request, requests
    only from roles that hold the task request, queries only where their
    role asks (see the module docstring), exactly one target role on a
    request and none on another step, every role bound to exactly one
    asset that really has the role's required capability. The protocol
    node and each role, asset and step node are read once. Past the node
    reads and the index check, a protocol with several faults is refused
    by the first failing group, in this order: each step's role, target
    and pairing rules; the last request; who may forward or ask; target
    roles; and within a group, by its first failing step.
    """
    candidates = [(c, [t.object.lexical for t in entry if isinstance(t.object, Literal)])
                  for c, entry in store.rows(graph_id, vocab.FOR_TASK)]
    candidates = [(c, tasks) for c, tasks in candidates if task_name in tasks]
    if not candidates:
        raise ProtocolError("no protocol matches the requested task")
    if len(candidates) > 1:
        names = ", ".join(c.value for c, _ in candidates)
        raise ProtocolError(f"ambiguous protocol selection: {names}")
    protocol, tasks = candidates[0]
    if len(tasks) != 1:
        raise ProtocolError(f"{protocol.value}: expected one task name")

    bound: dict[str, list[Iri]] = {}  # role iri text -> assets
    for asset, entry in store.rows(graph_id, vocab.HAS_COORDINATION_ROLE):
        for t in entry:
            if isinstance(t.object, Iri):
                bound.setdefault(t.object.value, []).append(asset)
    roles: dict[Iri, Iri] = {}
    role_assets: dict[Iri, Iri] = {}
    described = store.about(graph_id, protocol)
    for role in objects_of(described, vocab.BINDS_ROLE):
        if not isinstance(role, Iri):
            raise ProtocolError(f"{protocol.value}: role must be an iri")
        capabilities = objects_of(store.about(graph_id, role), vocab.REQUIRES_CAPABILITY)
        capabilities = [c for c in capabilities if isinstance(c, Iri)]
        if len(capabilities) != 1:
            raise ProtocolError(
                f"{role.value}: expected one required capability, "
                f"found {len(capabilities)}")
        roles[role] = capabilities[0]
        assets = bound.get(role.value, [])
        if len(assets) != 1:
            raise ProtocolError(
                f"{role.value}: bound to {len(assets)} assets, expected one")
        asset = assets[0]
        if capabilities[0] not in objects_of(store.about(graph_id, asset),
                                             vocab.HAS_CAPABILITY):
            raise ProtocolError(
                f"{asset.value}: lacks capability {capabilities[0].value} "
                f"required by {role.value}")
        role_assets[role] = asset

    steps = []
    target_counts: dict[int, int] = {}  # step index -> target roles named
    for node in objects_of(described, vocab.HAS_STEP):
        if not isinstance(node, Iri):
            raise ProtocolError(f"{protocol.value}: step must be an iri")
        facts = store.about(graph_id, node)
        idx = objects_of(facts, vocab.STEP_INDEX)
        if len(idx) != 1:
            raise ProtocolError(f"{node.value}: expected one step index")
        step_index = _int_of(idx[0], f"{node.value} index")
        step_roles = objects_of(facts, vocab.STEP_ROLE)
        if len(step_roles) != 1 or not isinstance(step_roles[0], Iri):
            raise ProtocolError(f"{node.value}: expected one step role")
        kinds = objects_of(facts, vocab.ACTION_KIND)
        if len(kinds) != 1 or kinds[0] not in _KIND_BY_IRI:
            raise ProtocolError(f"{node.value}: unknown action kind")
        targets = objects_of(facts, vocab.TARGET_ROLE)
        target = targets[0] if targets else None
        target_counts[step_index] = len(targets)
        template = None
        templates = objects_of(facts, vocab.CONTENT_TEMPLATE)
        if templates:
            if len(templates) != 1 or not isinstance(templates[0], Literal):
                raise ProtocolError(f"{node.value}: expected one content template")
            try:
                template = json.loads(templates[0].lexical)
            except json.JSONDecodeError as exc:
                raise ProtocolError(
                    f"{node.value}: content template is not valid JSON: "
                    f"{exc}") from exc
        steps.append(ProtocolStep(step_index, step_roles[0], _KIND_BY_IRI[kinds[0]],
                                  target, template))

    steps.sort(key=lambda s: s.index)
    if not steps:
        raise ProtocolError(f"{protocol.value}: protocol has no steps")
    for expected, step in enumerate(steps, start=1):
        if step.index != expected:
            raise ProtocolError(
                f"{protocol.value}: step indexes not contiguous, "
                f"missing index {expected}")
    for step in steps:
        if step.role not in roles:
            raise ProtocolError(
                f"step {step.index}: role {step.role.value} is not bound "
                f"by the protocol")
        if step.kind == SEND_REQUEST:
            if step.target_role is None or step.target_role not in roles:
                raise ProtocolError(
                    f"step {step.index}: request target role missing or unbound")
            if step.target_role == step.role:
                raise ProtocolError(
                    f"step {step.index}: a request must target another role")
        behind = [(s.kind, s.role) for s in steps[step.index:step.index + 1]]
        if step.kind == PERFORM_ACTION and behind != [(REPORT_EVENT, step.role)]:
            raise ProtocolError(f"step {step.index}: a perform step must be followed "
                                f"directly by a report step of the same role")
        if step.kind == REPORT_EVENT:
            event_name_of(step)
            ahead = steps[step.index - 2] if step.index > 1 else None
            if ahead is None or (ahead.kind, ahead.role) != (PERFORM_ACTION, step.role):
                raise ProtocolError(f"step {step.index}: a report step must directly "
                                    f"follow a perform step of the same role")
    acting = [s for s in steps if s.kind != QUERY_NEXT]
    if acting and acting[-1].kind == SEND_REQUEST:  # nothing would ever answer it
        raise ProtocolError(f"step {acting[-1].index}: a request must be followed by "
                            f"a step other than a query")
    initiator = steps[0].role
    holders = {initiator}  # roles that hold the task request, so can forward it
    last_report = max((s.index for s in steps if s.kind == REPORT_EVENT),
                      default=len(steps) + 1)
    opening = True  # still in the initiating role's opening queries
    for step in steps:
        ahead = steps[step.index - 2] if step.index > 1 else None
        opening = opening and (step.kind, step.role) == (QUERY_NEXT, initiator)
        if step.kind == SEND_REQUEST:
            if step.role not in holders:
                raise ProtocolError(f"step {step.index}: a request must come from the "
                                    f"initiating role or a role an earlier request "
                                    f"targeted")
            holders.add(step.target_role)
        elif step.kind == QUERY_NEXT and not (  # a role asks at no other moment
                opening or step.index > last_report
                or (ahead is not None and ahead.role == step.role
                    and ahead.kind in (REPORT_EVENT, QUERY_NEXT))):
            raise ProtocolError(f"step {step.index}: a query step must open the protocol "
                                f"for the initiating role, directly follow a report or "
                                f"query of its own role, or come after the last report")
    for step in steps:
        if step.kind != SEND_REQUEST and step.target_role is not None:
            raise ProtocolError(f"step {step.index}: only a request step names "
                                f"a target role")
        if target_counts[step.index] > 1:
            raise ProtocolError(f"step {step.index}: expected one target role")

    return ProtocolDefinition(protocol, tasks[0], tuple(steps), roles, role_assets)


# -- mediator rules --------------------------------------------------------


def _instruction_for(task: TaskState, step: ProtocolStep) -> dict:
    """The instruction that hands a step to its owner; the step counts as instructed."""
    task.instructed.add(step.index)
    protocol = task.protocol
    if step.kind == SEND_REQUEST:
        return {"action": "send_request",
                "to": protocol.agent_for(step.target_role),
                "task": task.task_name}
    params = substitute(step.template, task.template_bindings) \
        if isinstance(step.template, dict) else dict(task.params)
    return {"action": "perform",
            "capability": protocol.roles[step.role].local_name,
            "params": params,
            "report": event_name_of(protocol.steps[step.index])}


def next_action(task: TaskState, role: Iri) -> dict:
    """Answer a role asking what to do now.

    Query steps owned by the asker at the cursor are the act of asking
    itself: they are consumed, and the answer comes from the step behind
    them. Passing the last step completes the task. Out of turn yields
    ``wait``; a finished task yields ``done``.
    """
    if task.finished:
        return {"action": "done"}
    steps = task.protocol.steps
    while (task.index <= len(steps) and steps[task.index - 1].kind == QUERY_NEXT
           and steps[task.index - 1].role == role):
        task.index += 1
        task.status = IN_PROGRESS
    if task.index > len(steps):
        task.status = COMPLETED
        return {"action": "done"}
    step = steps[task.index - 1]
    if step.role != role:
        return {"action": "wait"}
    return _instruction_for(task, step)


def handle_request(task: TaskState, role: Iri, content) -> dict:
    """Answer a role asking how to treat a peer's task request.

    A request naming a different task is refused, and a finished task
    yields ``done``. Otherwise the request step aimed at the role is
    consumed if it is current, and the role is instructed with its next
    perform step. A request is never the last step other than a query, so
    consuming one leaves the cursor on a step.
    """
    if not isinstance(content, dict) or content.get("task") != task.task_name:
        return {"action": "refuse", "reason": "task_mismatch"}
    if task.finished:
        return {"action": "done"}
    steps = task.protocol.steps
    current = steps[task.index - 1]
    if current.kind == SEND_REQUEST and current.target_role == role:
        task.index += 1
        task.status = IN_PROGRESS
    for step in steps[task.index - 1:]:
        if step.kind == PERFORM_ACTION and step.role == role:
            return _instruction_for(task, step)
    return {"action": "wait"}


def next_push(task: TaskState) -> tuple[str, dict] | None:
    """Agent and instruction for a current request or perform step nobody has yet."""
    if task.finished:
        return None
    step = task.protocol.steps[task.index - 1]
    if step.kind not in (SEND_REQUEST, PERFORM_ACTION) or step.index in task.instructed:
        return None
    return task.protocol.agent_for(step.role), _instruction_for(task, step)


def record_event(task: TaskState, role: Iri, event_name: str) -> int:
    """Accept a reported event and advance the task past its pair.

    The event must be the report paired right behind the current perform
    step, sent by that step's role. Anything else (stale duplicates
    included) is rejected without touching the task. Once only query
    steps remain the task completes immediately; the trailing queries are
    answered ``done`` when they arrive. Returns the report step's index.
    """
    if task.finished:
        raise EventRejectedError(f"task is {task.status}")
    steps = task.protocol.steps
    i = task.index
    current = steps[i - 1]
    if (current.kind != PERFORM_ACTION or current.role != role
            or event_name_of(steps[i]) != event_name):
        raise EventRejectedError(
            f"event {event_name!r} from this role does not match step {i}")

    task.index = i + 2
    task.status = IN_PROGRESS
    if all(step.kind == QUERY_NEXT for step in steps[task.index - 1:]):
        task.index = len(steps) + 1
        task.status = COMPLETED
    return i + 1


# -- world consistency -----------------------------------------------------


@dataclass(frozen=True)
class ConsistencyViolation:
    rule: str
    first: str
    second: str
    position: str


_REALM_BY_TEXT = {iri.value: name for iri, name in vocab.REALMS.items()}
_COLOCATION_RULES = {
    frozenset({"physical"}): "physical_colocation",
    frozenset({"physical", "digital"}): "physical_digital_colocation",
}


def check_world_consistency(store: NamedGraphStore, graph_id) -> list[ConsistencyViolation]:
    """Find co-location conflicts among realm-tagged entities.

    Two physical entities on one position cannot both be real, and a
    physical entity sharing a position with a digital one means the
    mirror has drifted. Digital twins may overlap freely. Entities are
    subjects carrying both a realm and a position in the data graph.
    """
    by_position: dict[str, list[tuple[str, str]]] = {}
    for entity, realms, positions in store.rows(graph_id, vocab.HAS_REALM, vocab.AT_POSITION):
        realm = None  # the last known realm in term order
        for _, _, obj in realms:
            if isinstance(obj, Iri):
                realm = _REALM_BY_TEXT.get(obj.value, realm)
        for _, _, obj in positions:
            if realm and isinstance(obj, Literal):
                by_position.setdefault(obj.lexical, []).append((entity.value, realm))

    violations = []
    for position in sorted(by_position):
        for (first, first_realm), (second, second_realm) in itertools.combinations(
                sorted(by_position[position]), 2):
            rule = _COLOCATION_RULES.get(frozenset((first_realm, second_realm)))
            if rule is not None:
                violations.append(ConsistencyViolation(rule, first, second, position))
    return violations


# -- mechanical trace derivation ------------------------------------------


@dataclass
class _Derivation:
    protocol: ProtocolDefinition
    messages: list = field(default_factory=list)
    cursor: int = 1
    instructed: set = field(default_factory=set)
    performing: dict = field(default_factory=dict)  # agent -> step index

    def emit(self, performative: str, sender: str, receiver: str):
        self.messages.append((performative, sender, receiver))


def derive_trace_skeleton(protocol: ProtocolDefinition) -> list[tuple[str, str, str]]:
    """Expected (performative, sender, receiver) sequence for one task run.

    Replays the coordination rules over the step list alone: agents act
    only when instructed, ask again after each confirmed report, a
    current step nobody has asked for is pushed after every answer, and
    performs finish in step order. No world or transport is involved,
    which is what makes this usable as an independent check against a
    recorded trace.
    """
    d = _Derivation(protocol)
    mediator = vocab.KG_AGENT_ID
    steps = protocol.steps
    n = len(steps)

    def agent(role: Iri) -> str:
        return protocol.agent_for(role)

    def answer_query(asking_agent: str, role: Iri):
        while (d.cursor <= n and steps[d.cursor - 1].kind == QUERY_NEXT
               and steps[d.cursor - 1].role == role):
            d.cursor += 1
        if d.cursor > n:
            d.emit("inform", mediator, asking_agent)  # done
            return
        step = steps[d.cursor - 1]
        if step.role != role:
            d.emit("inform", mediator, asking_agent)  # wait
            push_scan()
            return
        d.instructed.add(step.index)
        d.emit("inform", mediator, asking_agent)      # instruction
        execute(asking_agent, step)

    def push_scan():
        if d.cursor > n:
            return
        step = steps[d.cursor - 1]
        if step.index in d.instructed or step.kind not in (SEND_REQUEST,
                                                           PERFORM_ACTION):
            return
        d.instructed.add(step.index)
        executor = agent(step.role)
        d.emit("inform", mediator, executor)          # pushed instruction
        execute(executor, step)

    def execute(executor: str, step: ProtocolStep):
        if step.kind == SEND_REQUEST:
            target = agent(step.target_role)
            d.emit("request", executor, target)       # peer task request
            d.emit("request", target, mediator)       # handle_request query
            d.cursor += 1                             # request observed
            for later in steps[d.cursor - 1:]:
                if later.kind == PERFORM_ACTION and later.role == step.target_role:
                    d.instructed.add(later.index)
                    d.performing[target] = later.index
                    break
            d.emit("inform", mediator, target)        # perform instruction
            push_scan()
        elif step.kind == PERFORM_ACTION:
            d.performing[executor] = step.index

    initiator = agent(protocol.initiator_role)
    d.emit("request", vocab.OPERATOR_ID, initiator)
    d.emit("request", initiator, mediator)
    answer_query(initiator, protocol.initiator_role)

    while d.performing:
        ready = [(index, executor) for executor, index in d.performing.items()
                 if index == d.cursor]
        if not ready:
            break  # a perform is queued behind someone else's turn
        index, executor = ready[0]
        del d.performing[executor]
        role = steps[index - 1].role
        d.emit("inform", executor, mediator)          # completion event
        d.cursor = index + 2                          # perform + report pair
        if all(step.kind == QUERY_NEXT for step in steps[d.cursor - 1:]):
            d.cursor = n + 1
        d.emit("confirm", mediator, executor)
        push_scan()
        d.emit("request", executor, mediator)         # what next?
        answer_query(executor, role)

    return d.messages
