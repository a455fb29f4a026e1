"""Pluggable in-process transports for asset connectivity.

One hub serves every transport kind through one surface,
``publish(topic, text)``, ``subscribe(topic, handler)`` and
``unsubscribe(topic, handler)``: ``publish`` hands the text to each of
the topic's handlers in turn. The hub's kind, named by the connection
scheme an asset declares, sets two rules and nothing else:

* retention: an ``mqtt`` hub keeps each topic's last payload (depth 1)
  and delivers it to a late subscriber at subscribe time; ``ros+ws``
  and ``rest+http`` hubs keep nothing
* one responder per path: a ``rest+http`` hub refuses a second handler
  on a path and alone answers ``request`` with that handler's reply;
  a ``publish`` there is a request whose reply nobody reads, dropped
  when the path has no responder

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


class _Hub:
    """A topic -> handlers map under one lock; its kind sets the rules.

    Delivery is synchronous and serial per hub. Handlers run while the
    re-entrant lock is held, so a handler may publish on its own hub or
    close its own adapter.
    """

    def __init__(self, kind: TransportKind):
        self.kind = kind
        self._lock = threading.RLock()
        self._handlers: dict[str, list] = {}
        self._retained: dict[str, str] = {}

    def publish(self, topic: str, payload: str):
        _check_payload(payload)
        with self._lock:
            if self.kind is TransportKind.BROKER_PUBSUB:
                self._retained[topic] = payload
            for handler in list(self._handlers.get(topic, ())):
                handler(payload)

    def subscribe(self, topic: str, handler):
        with self._lock:
            handlers = self._handlers.setdefault(topic, [])
            if handlers and self.kind is TransportKind.REQUEST_RESPONSE:
                raise TransportError(f"path {topic!r} already has a responder")
            handlers.append(handler)
            if topic in self._retained:
                handler(self._retained[topic])

    def unsubscribe(self, topic: str, handler):
        with self._lock:
            handlers = self._handlers.get(topic, [])
            if handler in handlers:
                handlers.remove(handler)

    def request(self, path: str, payload: str) -> str:
        if self.kind is not TransportKind.REQUEST_RESPONSE:
            raise TransportError("publish/subscribe transports do not take requests")
        _check_payload(payload)
        with self._lock:
            responders = self._handlers.get(path)
            if not responders:
                raise NoResponderError(f"no responder registered at {path!r}")
            reply = responders[0](payload)
        _check_payload(reply)
        return reply


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
        self._hubs: dict[tuple[str, str], _Hub] = {}

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
                hub = _Hub(kind)
                self._hubs[key] = hub
        return Adapter(endpoint, hub)


def default_registry() -> TransportRegistry:
    registry = TransportRegistry()
    registry.register("ros+ws", TransportKind.TOPIC_PUBSUB)
    registry.register("rest+http", TransportKind.REQUEST_RESPONSE)
    registry.register("mqtt", TransportKind.BROKER_PUBSUB)
    return registry
