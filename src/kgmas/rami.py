"""Layered asset descriptions read from the setup graph.

An asset is described along five concerns: what it is (kind and realm),
how to reach it (connection scheme and endpoint), what data flows it
has (channels), what it can do (capabilities) and which system entity
aggregates it. One reader walks an asset's layers, reading the entries
``NamedGraphStore.about`` returns in place, and yields what it read and
every issue in it. Validation only checks, adding the checks that span
the graph to that reader's issues; extraction alone builds the blueprint
agent generation consumes, and refuses an asset with any issue.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import vocab
from .errors import BlueprintError, UnknownAssetError
from .store import NamedGraphStore
from .terms import Iri, Literal
from .transports import Endpoint, default_registry
from .turtle import render_term

_DIRECTIONS = (("publishes", vocab.PUBLISHES_ON), ("subscribes", vocab.SUBSCRIBES_TO))


@dataclass(frozen=True)
class Channel:
    """One data flow of an asset, from the asset's own perspective."""

    topic: str
    direction: str  # "publishes" or "subscribes"
    message_kind: Iri


@dataclass(frozen=True)
class AgentBlueprint:
    """Everything needed to build an agent for one asset."""

    asset_id: Iri
    asset_kind: Iri
    realm: str
    binding: Endpoint
    channels: tuple[Channel, ...]
    capabilities: tuple[Iri, ...]
    coordination_role: Iri

    @functools.cached_property
    def agent_id(self) -> str:
        return vocab.agent_id_of(self.asset_id)

    @property
    def command_topics(self) -> list[str]:
        """Topics the asset takes commands on."""
        return [c.topic for c in self.channels if c.direction == "subscribes"]

    @property
    def observation_topics(self) -> list[str]:
        """Topics the asset publishes its observations on."""
        return [c.topic for c in self.channels if c.direction == "publishes"]


@dataclass(frozen=True)
class ValidationIssue:
    rule: str
    subject: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[ValidationIssue, ...]


def list_assets(store: NamedGraphStore, graph_id) -> list[Iri]:
    """Asset iris in the graph, sorted; an asset is anything with a kind."""
    return [row[0] for row in store.rows(graph_id, vocab.HAS_ASSET_KIND)]


def _lexicals(entry) -> tuple[str, ...]:
    """The lexical forms of an entry's literals."""
    if len(entry) == 1:  # the usual fact
        obj = entry[0].object
        return (obj.lexical,) if type(obj) is Literal else ()
    return tuple([t.object.lexical for t in entry if type(t.object) is Literal])


def _read_asset(about, asset: Iri):
    """Walk the five layers of one asset description, once.

    ``about`` reads one node's facts; the asset and each of its channel
    nodes are read once. Returns what was read (``None`` when any layer is
    incomplete), the connection schemes named, unchecked, and every issue
    found, in layer order; raises ``UnknownAssetError`` when the asset has
    no kind. Only triples about the asset itself (and its channel nodes)
    are consulted, so descriptions of other assets cannot leak in.
    """
    facts = about(asset)
    kinds = facts.get(vocab.HAS_ASSET_KIND.value, ())
    if not kinds:
        raise UnknownAssetError(f"no asset description for {asset.value}")
    issues: list[ValidationIssue] = []

    def issue(rule: str, subject: Iri, message: str):
        issues.append(ValidationIssue(rule, subject.value, message))

    if len(kinds) != 1:
        issue("asset-kind", asset, f"expected one asset kind, found {len(kinds)}")
    elif type(kinds[0].object) is not Iri:
        issue("asset-kind", asset, "asset kind must be an iri")
    realms = facts.get(vocab.HAS_REALM.value, ())
    if len(realms) != 1:
        issue("realm", asset, f"expected one realm, found {len(realms)}")
    elif realms[0].object not in vocab.REALMS:
        issue("realm", asset, f"realm must be physical or digital, "
                              f"found {render_term(realms[0].object)}")
    protocols = _lexicals(facts.get(vocab.HAS_PROTOCOL.value, ()))
    endpoints = _lexicals(facts.get(vocab.HAS_ENDPOINT.value, ()))
    if not protocols or not endpoints:
        issue("binding", asset, "asset needs a connection scheme and endpoint")
    elif len(protocols) > 1 or len(endpoints) > 1:
        issue("binding", asset, f"expected one connection scheme and one endpoint, "
                                f"found {len(protocols)} and {len(endpoints)}")
    elif not protocols[0] or not endpoints[0]:
        issue("binding", asset, "connection scheme and endpoint must be non-empty")
    channels = []
    seen: set[str] = set()
    for direction, predicate in _DIRECTIONS:
        for fact in facts.get(predicate.value, ()):
            node = fact.object
            if type(node) is not Iri:
                issue("channel", asset, "channel must be a node, not a literal")
                continue
            channel = about(node)
            topics = _lexicals(channel.get(vocab.HAS_TOPIC.value, ()))
            message_kinds = channel.get(vocab.HAS_MESSAGE_KIND.value, ())
            if len(topics) != 1 or not topics[0]:
                issue("channel", node, "channel needs exactly one topic")
                continue
            if len(message_kinds) != 1 or type(message_kinds[0].object) is not Iri:
                issue("channel", node, "channel needs exactly one message kind")
            else:
                channels.append((direction, topics[0], message_kinds[0].object))
            # one channel per topic: a transport binds a topic once per asset
            if topics[0] in seen:
                issue("channel", asset, f"more than one channel on topic {topics[0]!r}")
            seen.add(topics[0])
    capabilities = facts.get(vocab.HAS_CAPABILITY.value, ())
    if not capabilities:
        issue("capability", asset, "asset declares no capability")
    elif type(capabilities[-1].object) is not Iri:  # iris sort first
        issue("capability", asset, "capability must be an iri")
    roles = facts.get(vocab.HAS_COORDINATION_ROLE.value, ())
    if len(roles) != 1:
        issue("role", asset, f"expected one coordination role, found {len(roles)}")
    elif type(roles[0].object) is not Iri:
        issue("role", asset, "coordination role must be an iri")
    if issues:
        return None, protocols, issues
    return (kinds[0].object, realms[0].object, protocols[0], endpoints[0], channels,
            capabilities, roles[0].object), protocols, issues


def validate_setup(store: NamedGraphStore, graph_id,
                   known_schemes=None) -> ValidationReport:
    """Check every asset description; collects all violations.

    Accepts exactly the setups agent generation can build, agent ids
    included. An empty graph is vacuously valid. Violations come back in
    a deterministic order regardless of triple insertion order.
    """
    schemes = frozenset(known_schemes if known_schemes is not None
                        else default_registry().schemes())
    about = functools.partial(store.about, graph_id)
    assets = list_assets(store, graph_id)
    asset_set = set(assets)
    issues: list[ValidationIssue] = []
    owners: dict[str, Iri] = {}

    def issue(rule: str, subject: Iri, message: str):
        issues.append(ValidationIssue(rule, subject.value, message))

    for asset in assets:
        _, protocols, found = _read_asset(about, asset)
        issues.extend(found)
        for scheme in protocols:
            if scheme and scheme not in schemes:
                issue("binding", asset, f"unrecognized connection scheme {scheme!r}")
        agent_id = vocab.agent_id_of(asset)
        if agent_id in vocab.RESERVED_AGENT_IDS:
            issue("agent-id", asset, f"asset maps to reserved agent id {agent_id!r}")
        elif agent_id in owners:
            issue("agent-id", asset, f"assets {owners[agent_id].value} and "
                                     f"{asset.value} both map to agent id {agent_id!r}")
        owners.setdefault(agent_id, asset)

    # channels hanging off things that are not assets
    for _, predicate in _DIRECTIONS:
        for subject, _ in store.rows(graph_id, predicate):
            if subject not in asset_set:
                issue("channel-owner", subject,
                      "channel declared on something that is not an asset")

    # system aggregation: every asset in exactly one system
    memberships: dict[Iri, list[Iri]] = {}
    for system, aggregated in store.rows(graph_id, vocab.AGGREGATES):
        for member in [t.object for t in aggregated]:
            if not isinstance(member, Iri) or member not in asset_set:
                issue("system", system, "aggregated member is not a described asset")
            else:
                memberships.setdefault(member, []).append(system)
    for asset in assets:
        count = len(memberships.get(asset, []))
        if count != 1:
            issue("system", asset,
                  f"asset must belong to exactly one system, found {count}")

    ordered = tuple(sorted(issues, key=lambda i: (i.rule, i.subject, i.message)))
    return ValidationReport(ok=not ordered, issues=ordered)


_LAYERS = {"asset-kind": "asset", "realm": "asset", "binding": "communication",
           "channel": "information", "capability": "functional",
           "role": "coordination"}


def extract_blueprint(store: NamedGraphStore, graph_id, asset_id: Iri) -> AgentBlueprint:
    """Join the layers describing one asset.

    Raises ``UnknownAssetError`` for an undescribed iri and
    ``BlueprintError`` naming the layer of the first issue found.
    """
    read, _, issues = _read_asset(functools.partial(store.about, graph_id), asset_id)
    if issues:
        first = issues[0]
        raise BlueprintError(f"{asset_id.value}: {_LAYERS[first.rule]} layer "
                             f"incomplete ({first.rule}): {first.message}")
    kind, realm, scheme, endpoint, channels, capabilities, role = read
    # an asset read whole has one channel per topic: these sort by (direction, topic)
    return AgentBlueprint(asset_id, kind, vocab.REALMS[realm], Endpoint(scheme, endpoint),
                          tuple([Channel(topic, direction, message_kind)
                                 for direction, topic, message_kind in sorted(channels)]),
                          tuple([fact.object for fact in capabilities]), role)
