"""Layered asset descriptions read from the setup graph.

An asset is described along five concerns: what it is (kind and realm),
how to reach it (connection scheme and endpoint), what data flows it
has (channels), what it can do (capabilities) and which system entity
aggregates it. Validation checks the whole graph and reports every
violation; blueprint extraction joins the layers for one asset into the
flat structure agent generation consumes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import vocab
from .errors import BlueprintError, UnknownAssetError
from .store import NamedGraphStore
from .terms import Iri, Literal
from .transports import default_registry

_DIRECTIONS = (("publishes", vocab.PUBLISHES_ON), ("subscribes", vocab.SUBSCRIBES_TO))


@dataclass(frozen=True)
class Channel:
    """One data flow of an asset, from the asset's own perspective."""

    topic: str
    direction: str  # "publishes" or "subscribes"
    message_kind: Iri


@dataclass(frozen=True)
class CommunicationBinding:
    scheme: str
    endpoint: str


@dataclass(frozen=True)
class AgentBlueprint:
    """Everything needed to build an agent for one asset."""

    asset_id: Iri
    asset_kind: Iri
    realm: str
    binding: CommunicationBinding
    channels: tuple[Channel, ...]
    capabilities: tuple[Iri, ...]
    coordination_role: Iri

    @property
    def agent_id(self) -> str:
        return vocab.agent_id_of(self.asset_id)


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
    return store.subjects(graph_id, vocab.HAS_ASSET_KIND)


def _literals(objects, subject: Iri, predicate: Iri) -> list[str]:
    return [o.lexical for o in objects(subject, predicate)
            if isinstance(o, Literal)]


def validate_setup(store: NamedGraphStore, graph_id,
                   known_schemes=None) -> ValidationReport:
    """Check every asset description; collects all violations.

    An empty graph is vacuously valid. Violations come back in a
    deterministic order regardless of triple insertion order.
    """
    schemes = frozenset(known_schemes if known_schemes is not None
                        else default_registry().schemes())
    objects = functools.partial(store.objects, graph_id)
    assets = store.subjects(graph_id, vocab.HAS_ASSET_KIND)
    asset_set = set(assets)
    issues: list[ValidationIssue] = []

    def issue(rule: str, subject: Iri, message: str):
        issues.append(ValidationIssue(rule, subject.value, message))

    for asset in assets:
        kinds = objects(asset, vocab.HAS_ASSET_KIND)
        if len(kinds) != 1:
            issue("asset-kind", asset, f"expected one asset kind, found {len(kinds)}")
        realms = objects(asset, vocab.HAS_REALM)
        if len(realms) != 1:
            issue("realm", asset, f"expected one realm, found {len(realms)}")
        elif realms[0] not in vocab.REALMS:
            issue("realm", asset, f"realm must be physical or digital, "
                                  f"found {realms[0]}")
        protocols = _literals(objects, asset, vocab.HAS_PROTOCOL)
        endpoints = _literals(objects, asset, vocab.HAS_ENDPOINT)
        if not protocols or not endpoints:
            issue("binding", asset, "asset needs a connection scheme and endpoint")
        for scheme in protocols:
            if scheme not in schemes:
                issue("binding", asset, f"unrecognized connection scheme {scheme!r}")
        seen: set[tuple[str, str]] = set()
        for direction, predicate in _DIRECTIONS:
            for node in objects(asset, predicate):
                if not isinstance(node, Iri):
                    issue("channel", asset, "channel must be a node, not a literal")
                    continue
                topics = _literals(objects, node, vocab.HAS_TOPIC)
                kinds_ = objects(node, vocab.HAS_MESSAGE_KIND)
                if len(topics) != 1 or not topics[0]:
                    issue("channel", node, "channel needs exactly one topic")
                    continue
                if len(kinds_) != 1 or not isinstance(kinds_[0], Iri):
                    issue("channel", node, "channel needs exactly one message kind")
                if (topics[0], direction) in seen:
                    issue("channel", asset,
                          f"duplicate {direction} channel for topic {topics[0]!r}")
                seen.add((topics[0], direction))
        if not objects(asset, vocab.HAS_CAPABILITY):
            issue("capability", asset, "asset declares no capability")
        roles = objects(asset, vocab.HAS_COORDINATION_ROLE)
        if len(roles) != 1:
            issue("role", asset, f"expected one coordination role, found {len(roles)}")

    # channels hanging off things that are not assets
    for _, predicate in _DIRECTIONS:
        for subject in store.subjects(graph_id, predicate):
            if subject not in asset_set:
                issue("channel-owner", subject,
                      "channel declared on something that is not an asset")

    # system aggregation: every asset in exactly one system
    memberships: dict[Iri, list[Iri]] = {}
    for system in store.subjects(graph_id, vocab.AGGREGATES):
        for member in objects(system, vocab.AGGREGATES):
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


def extract_blueprint(store: NamedGraphStore, graph_id, asset_id: Iri) -> AgentBlueprint:
    """Join the layers describing one asset.

    Raises ``UnknownAssetError`` for an undescribed iri and
    ``BlueprintError`` naming the first incomplete layer. Only triples
    about the asset itself (and its channel nodes) are consulted, so
    descriptions of other assets cannot leak in.
    """
    objects = functools.partial(store.objects, graph_id)
    kinds = objects(asset_id, vocab.HAS_ASSET_KIND)
    if not kinds:
        raise UnknownAssetError(f"no asset description for {asset_id.value}")

    realms = objects(asset_id, vocab.HAS_REALM)
    if len(realms) != 1 or realms[0] not in vocab.REALMS:
        raise BlueprintError(f"{asset_id.value}: asset layer incomplete (realm)")

    protocols = _literals(objects, asset_id, vocab.HAS_PROTOCOL)
    endpoints = _literals(objects, asset_id, vocab.HAS_ENDPOINT)
    if not protocols or not endpoints:
        raise BlueprintError(
            f"{asset_id.value}: communication layer incomplete (binding)")
    binding = CommunicationBinding(scheme=protocols[0], endpoint=endpoints[0])

    channels = []
    for direction, predicate in _DIRECTIONS:
        for node in objects(asset_id, predicate):
            if not isinstance(node, Iri):
                raise BlueprintError(
                    f"{asset_id.value}: information layer incomplete (channel)")
            topics = _literals(objects, node, vocab.HAS_TOPIC)
            message_kinds = [k for k in objects(node, vocab.HAS_MESSAGE_KIND)
                             if isinstance(k, Iri)]
            if len(topics) != 1 or len(message_kinds) != 1:
                raise BlueprintError(
                    f"{asset_id.value}: information layer incomplete "
                    f"(channel {node.value})")
            channels.append(Channel(topics[0], direction, message_kinds[0]))
    channels.sort(key=lambda c: (c.direction, c.topic))

    capabilities = tuple(c for c in objects(asset_id, vocab.HAS_CAPABILITY)
                         if isinstance(c, Iri))
    if not capabilities:
        raise BlueprintError(
            f"{asset_id.value}: functional layer incomplete (capability)")

    roles = objects(asset_id, vocab.HAS_COORDINATION_ROLE)
    if len(roles) != 1 or not isinstance(roles[0], Iri):
        raise BlueprintError(
            f"{asset_id.value}: coordination role missing or ambiguous")

    return AgentBlueprint(
        asset_id=asset_id,
        asset_kind=kinds[0],
        realm=vocab.REALMS[realms[0]],
        binding=binding,
        channels=tuple(channels),
        capabilities=capabilities,
        coordination_role=roles[0],
    )
