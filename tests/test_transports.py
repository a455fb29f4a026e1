"""Transport kinds: delivery semantics, hub sharing, registry extension."""

from __future__ import annotations

import threading

import pytest

from kgmas.errors import (
    DuplicateSchemeError,
    NoResponderError,
    TransportError,
    UnknownSchemeError,
    ValidationError,
)
from kgmas.transports import Endpoint, TransportKind, default_registry


def adapter(registry, scheme, address="broker:1"):
    return registry.resolve(Endpoint(scheme, address))


def test_default_schemes():
    registry = default_registry()
    assert registry.schemes() == ["mqtt", "rest+http", "ros+ws"]
    assert registry.kind_of("ros+ws") is TransportKind.TOPIC_PUBSUB
    assert registry.kind_of("mqtt") is TransportKind.BROKER_PUBSUB
    assert registry.kind_of("rest+http") is TransportKind.REQUEST_RESPONSE


def test_topic_pubsub_fan_out_no_retention():
    registry = default_registry()
    a, b, late = (adapter(registry, "ros+ws") for _ in range(3))
    got_b, got_late = [], []
    b.subscribe("/t", got_b.append)
    a.publish("/t", "one")
    late.subscribe("/t", got_late.append)
    a.publish("/t", "two")
    assert got_b == ["one", "two"]
    assert got_late == ["two"]  # nothing retained for late joiners


def test_broker_pubsub_retains_last_message():
    registry = default_registry()
    a = adapter(registry, "mqtt")
    a.publish("/t", "old")
    a.publish("/t", "new")
    late = adapter(registry, "mqtt")
    got = []
    late.subscribe("/t", got.append)
    assert got == ["new"]
    a.publish("/t", "newer")
    assert got == ["new", "newer"]


@pytest.mark.parametrize("scheme", ["ros+ws", "mqtt"])
def test_pubsub_request_not_supported(scheme):
    registry = default_registry()
    a = adapter(registry, scheme)
    with pytest.raises(TransportError) as refusal:
        a.request("/t", "x")
    # the kind refuses, not an empty path (NoResponderError is a TransportError)
    assert str(refusal.value) == "publish/subscribe transports do not take requests"


def test_request_response_basics():
    registry = default_registry()
    server = adapter(registry, "rest+http")
    client = adapter(registry, "rest+http")
    server.subscribe("/cmd", lambda text: text.upper())
    assert client.request("/cmd", "go") == "GO"
    with pytest.raises(NoResponderError):
        client.request("/other", "go")
    with pytest.raises(TransportError):
        client.subscribe("/cmd", lambda text: text)  # path already taken
    server.subscribe("/silent", lambda text: None)
    with pytest.raises(ValidationError):
        client.request("/silent", "go")  # replies must be text
    with pytest.raises(ValidationError):
        client.request("/cmd", b"go")  # and so must requests


def test_request_response_publish_is_fire_and_forget():
    registry = default_registry()
    client = adapter(registry, "rest+http")
    client.publish("/obs", "{}")  # no responder: silently dropped
    seen = []
    adapter(registry, "rest+http").subscribe(
        "/obs", lambda text: seen.append(text) or "ignored reply")
    client.publish("/obs", "data")
    assert seen == ["data"]
    with pytest.raises(ValidationError):
        client.publish("/obs", None)


@pytest.mark.parametrize("other", [("ros+ws", "h2:9090"), ("mqtt", "h1:9090")],
                         ids=["other_address", "other_scheme"])
def test_hubs_keyed_by_scheme_and_address(other):
    registry = default_registry()
    a = adapter(registry, "ros+ws", "h1:9090")
    b = adapter(registry, *other)
    got = []
    b.subscribe("/t", got.append)
    a.publish("/t", "x")
    assert got == []  # different scheme or address, different hub


def test_close_detaches_subscriptions_and_responders():
    registry = default_registry()
    a = adapter(registry, "ros+ws")
    b = adapter(registry, "ros+ws")
    got = []
    b.subscribe("/t", got.append)
    b.close()
    a.publish("/t", "x")
    assert got == []
    with pytest.raises(TransportError):
        b.publish("/t", "x")  # a closed adapter refuses further use
    server = adapter(registry, "rest+http")
    server.subscribe("/p", lambda text: "ok")
    server.close()
    client = adapter(registry, "rest+http")
    with pytest.raises(NoResponderError):
        client.request("/p", "x")
    # the path is free again
    client.subscribe("/p", lambda text: "ok2")
    assert adapter(registry, "rest+http").request("/p", "x") == "ok2"


@pytest.mark.parametrize("scheme", ["ros+ws", "mqtt", "rest+http"])
def test_handlers_may_publish_and_close_during_delivery(scheme):
    """Handlers and responders run under their hub's lock, so it must be
    re-entrant: one publishes on its own hub, another closes its own
    adapter, and the script runs in a thread so a deadlock fails instead
    of hanging."""
    registry = default_registry()
    source, echo, quitter, sink = (adapter(registry, scheme) for _ in range(4))
    log = []

    def on_echo(text):
        log.append(("echo", text))
        echo.publish("/out", text)
        return "ok"

    def on_quit(text):
        log.append(("quit", text))
        quitter.close()
        return "ok"

    def script():
        echo.subscribe("/echo", on_echo)
        quitter.subscribe("/quit", on_quit)
        sink.subscribe("/out", lambda text: log.append(("out", text)) or "ok")
        for topic, payload in [("/echo", "a"), ("/quit", "b"),
                               ("/echo", "c"), ("/quit", "d")]:
            source.publish(topic, payload)

    worker = threading.Thread(target=script, daemon=True)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive(), "delivery deadlocked on the hub's lock"
    assert log == [("echo", "a"), ("out", "a"), ("quit", "b"),
                   ("echo", "c"), ("out", "c")]  # "d": quitter is closed
    assert quitter.closed


@pytest.mark.parametrize("build, message", [
    (lambda: Endpoint("", "x:1"), "endpoint scheme and address must be non-empty"),
    (lambda: Endpoint("mqtt", ""), "endpoint scheme and address must be non-empty"),
    (lambda: default_registry().register("", TransportKind.TOPIC_PUBSUB),
     "scheme must be non-empty"),
    (lambda: default_registry().register("coap", "broker_pubsub"),
     "kind must be a TransportKind"),
], ids=["empty_scheme", "empty_address", "register_empty", "register_kind_text"])
def test_endpoint_and_registry_refusals_are_pinned(build, message):
    with pytest.raises(ValidationError) as refusal:
        build()
    assert str(refusal.value) == message


def test_registry_extension_with_new_scheme():
    registry = default_registry()
    registry.register("coap", TransportKind.BROKER_PUBSUB)
    assert "coap" in registry.schemes()
    a = adapter(registry, "coap")
    a.publish("/t", "retained")
    got = []
    adapter(registry, "coap").subscribe("/t", got.append)
    assert got == ["retained"]
    with pytest.raises(DuplicateSchemeError):
        registry.register("coap", TransportKind.TOPIC_PUBSUB)
    with pytest.raises(UnknownSchemeError):
        registry.resolve(Endpoint("xmpp", "x:1"))


def test_same_payload_stream_across_kinds():
    """One publisher/subscriber script, same delivered sequence on every kind."""
    registry = default_registry()
    payloads = [f"p{i}" for i in range(6)]
    results = {}
    for scheme in ("ros+ws", "mqtt", "rest+http"):
        src = adapter(registry, scheme, f"eq-{scheme}:1")
        got = []
        adapter(registry, scheme, f"eq-{scheme}:1").subscribe("/t", got.append)
        for payload in payloads:
            src.publish("/t", payload)
        results[scheme] = got
    assert results["ros+ws"] == results["mqtt"] == results["rest+http"] == payloads
