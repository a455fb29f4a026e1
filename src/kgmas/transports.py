"""Pluggable in-process transports for asset connectivity.

Every hub offers the same surface, ``publish(topic, text)``,
``subscribe(topic, handler)`` and ``unsubscribe(topic, handler)``; what
differs per kind stays inside the hub. Three kinds are built in, named
by the connection scheme an asset declares:

* ``ros+ws``: plain topic fan-out, no retention
* ``mqtt``: topic fan-out plus last-value retention (depth 1),
  delivered to late subscribers at subscribe time
* ``rest+http``: one responder per path, bound by ``subscribe``;
  ``publish`` is always a fire-and-forget request to that responder,
  dropped when the path has none. ``request`` also waits for the reply.

Hubs are keyed by (scheme, endpoint address), so an agent and the
connection component of its device meet on the same hub by sharing an
endpoint. Payloads are canonical JSON text; the transport never
inspects them. The registry is open: new schemes map onto one of the
existing kinds.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass

from .errors import (DuplicateSchemeError, NoResponderError, TransportError,
                     UnknownSchemeError, ValidationError)


class TransportKind(enum.Enum):
    TOPIC_PUBSUB = "topic_pubsub"
    REQUEST_RESPONSE = "request_response"
    BROKER_PUBSUB = "broker_pubsub"


@dataclass(frozen=True)
class Endpoint:
    """Where an asset is reachable: scheme plus opaque address."""

    scheme: str
    address: str

    def __post_init__(self):
        if not self.scheme or not self.address:
            raise ValidationError("endpoint scheme and address must be non-empty")


def _check_payload(payload):
    if not isinstance(payload, str):
        raise ValidationError("transport payloads must be text")


class _PubSubHub:
    """Fan-out hub. Delivery is synchronous and serial per hub."""

    retains = False

    def __init__(self):
        self._lock = threading.RLock()
        self._subscribers: dict[str, list] = {}
        self._retained: dict[str, str] = {}

    def publish(self, topic: str, payload: str):
        _check_payload(payload)
        with self._lock:
            if self.retains:
                self._retained[topic] = payload
            handlers = list(self._subscribers.get(topic, ()))
            for handler in handlers:
                handler(payload)

    def subscribe(self, topic: str, handler):
        with self._lock:
            self._subscribers.setdefault(topic, []).append(handler)
            if self.retains and topic in self._retained:
                handler(self._retained[topic])

    def unsubscribe(self, topic: str, handler):
        with self._lock:
            handlers = self._subscribers.get(topic, [])
            if handler in handlers:
                handlers.remove(handler)

    def request(self, path: str, payload: str) -> str:
        raise TransportError("publish/subscribe transports do not take requests")


class _BrokerHub(_PubSubHub):
    retains = True


class _RequestResponseHub:
    """Request/response hub with exactly one responder per path.

    ``subscribe`` binds a path's responder and ``publish`` is a request
    whose reply nobody reads.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._responders: dict[str, object] = {}

    def _responder(self, path: str, payload: str):
        _check_payload(payload)
        with self._lock:
            return self._responders.get(path)

    def publish(self, topic: str, payload: str):
        responder = self._responder(topic, payload)
        if responder is not None:  # nobody listening is not an error
            responder(payload)

    def subscribe(self, topic: str, handler):
        with self._lock:
            if topic in self._responders:
                raise TransportError(f"path {topic!r} already has a responder")
            self._responders[topic] = handler

    def unsubscribe(self, topic: str, handler):
        with self._lock:
            if self._responders.get(topic) is handler:
                del self._responders[topic]

    def request(self, path: str, payload: str) -> str:
        responder = self._responder(path, payload)
        if responder is None:
            raise NoResponderError(f"no responder registered at {path!r}")
        reply = responder(payload)
        _check_payload(reply)
        return reply


_HUB_CLASSES = {
    TransportKind.TOPIC_PUBSUB: _PubSubHub,
    TransportKind.BROKER_PUBSUB: _BrokerHub,
    TransportKind.REQUEST_RESPONSE: _RequestResponseHub,
}


class Adapter:
    """An asset's handle on one hub.

    Tracks its own subscriptions so ``close`` can detach them without
    touching other users of the hub. ``closed`` tells the adapter's
    owners whether the channel is still open.
    """

    def __init__(self, endpoint: Endpoint, hub):
        self.endpoint = endpoint
        self._hub = hub
        self._subscriptions: list[tuple[str, object]] = []
        self.closed = False

    def _check_open(self):
        if self.closed:
            raise TransportError("adapter is closed")

    def publish(self, topic: str, payload: str):
        self._check_open()
        self._hub.publish(topic, payload)

    def subscribe(self, topic: str, handler):
        self._check_open()
        self._hub.subscribe(topic, handler)
        self._subscriptions.append((topic, handler))

    def request(self, path: str, payload: str) -> str:
        self._check_open()
        return self._hub.request(path, payload)

    def close(self):
        if self.closed:
            return
        for topic, handler in self._subscriptions:
            self._hub.unsubscribe(topic, handler)
        self._subscriptions.clear()
        self.closed = True


class TransportRegistry:
    """Maps connection schemes to transport kinds and caches live hubs."""

    def __init__(self):
        self._lock = threading.Lock()
        self._schemes: dict[str, TransportKind] = {}
        self._hubs: dict[tuple[str, str], object] = {}

    def register(self, scheme: str, kind: TransportKind):
        if not scheme:
            raise ValidationError("scheme must be non-empty")
        if not isinstance(kind, TransportKind):
            raise ValidationError("kind must be a TransportKind")
        with self._lock:
            if scheme in self._schemes:
                raise DuplicateSchemeError(f"scheme {scheme!r} already registered")
            self._schemes[scheme] = kind

    def schemes(self) -> list[str]:
        with self._lock:
            return sorted(self._schemes)

    def kind_of(self, scheme: str) -> TransportKind:
        with self._lock:
            if scheme not in self._schemes:
                raise UnknownSchemeError(f"unknown scheme {scheme!r}")
            return self._schemes[scheme]

    def resolve(self, endpoint: Endpoint) -> Adapter:
        """Connect to the hub for an endpoint, creating it on first use."""
        kind = self.kind_of(endpoint.scheme)
        key = (endpoint.scheme, endpoint.address)
        with self._lock:
            hub = self._hubs.get(key)
            if hub is None:
                hub = _HUB_CLASSES[kind]()
                self._hubs[key] = hub
        return Adapter(endpoint, hub)


def default_registry() -> TransportRegistry:
    registry = TransportRegistry()
    registry.register("ros+ws", TransportKind.TOPIC_PUBSUB)
    registry.register("rest+http", TransportKind.REQUEST_RESPONSE)
    registry.register("mqtt", TransportKind.BROKER_PUBSUB)
    return registry
