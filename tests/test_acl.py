"""Message model, canonical serialization, and the in-process bus."""

from __future__ import annotations

import json
import random
import threading
import time

import pytest

from kgmas.acl import (
    AclMessage,
    Bus,
    Performative,
    canonical_json,
    deserialize_message,
    format_trace,
    serialize_message,
    trace_line,
)
from kgmas.errors import (
    DuplicateAgentError,
    MalformedMessageError,
    MissingFieldError,
    UnknownPerformativeError,
    UnknownReceiverError,
    ValidationError,
)

# the two wire payloads every integration must carry unchanged
TASK_REQUEST_CONTENT = {"task": "move_pallet", "from": "P1", "to": "P2"}
EVENT_CONTENT = {"event": "pallet_placed"}


def msg(**overrides) -> AclMessage:
    base = dict(performative=Performative.REQUEST, sender="a1", receiver="a2",
                content=TASK_REQUEST_CONTENT, conversation_id="conv-1",
                reply_with=None, in_reply_to=None)
    base.update(overrides)
    return AclMessage(**base)


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [2, {"d": 3, "c": 4}]}) == \
        '{"a":[2,{"c":4,"d":3}],"b":1}'
    assert canonical_json({"x": "é"}) == '{"x":"é"}'


_TEXT = 'aZ é€😀\x00\x1f\n\t"\\/\u2028'
_LEAVES = (lambda rng: "".join(rng.choice(_TEXT) for _ in range(rng.randrange(6))),
           lambda rng: rng.uniform(-1e6, 1e6),
           lambda rng: rng.choice((0.1, 1e-300, 1e300, -0.0)),
           lambda rng: rng.randrange(-10**30, 10**30),
           lambda rng: rng.choice((True, False, None)))


def _random_json(rng, depth=0):
    """A seeded nested value mixing every JSON leaf kind."""
    if depth > 2 or rng.random() < 0.3:
        return rng.choice(_LEAVES)(rng)
    if rng.random() < 0.5:
        return [_random_json(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {_LEAVES[0](rng): _random_json(rng, depth + 1) for _ in range(rng.randrange(4))}


def test_canonical_json_matches_json_dumps_and_is_thread_safe():
    rng = random.Random(41)
    values = [_random_json(rng) for _ in range(300)]
    expected = [json.dumps(v, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
                for v in values]
    assert [canonical_json(v) for v in values] == expected
    results = [None] * 4
    barrier = threading.Barrier(4)

    def encode_all(slot):
        barrier.wait()
        results[slot] = [canonical_json(v) for v in values]

    threads = [threading.Thread(target=encode_all, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == [expected] * 4


def test_round_trip_pinned_contents():
    for content in (TASK_REQUEST_CONTENT, EVENT_CONTENT):
        message = msg(content=content)
        again = deserialize_message(serialize_message(message))
        assert again == message
        assert again.content == content


def test_round_trip_random_messages():
    rng = random.Random(31)
    performatives = list(Performative)
    for _ in range(200):
        message = msg(
            performative=rng.choice(performatives),
            sender=f"agent{rng.randrange(5)}",
            receiver=f"peer{rng.randrange(5)}",
            content={"n": rng.randrange(100), "s": "x" * rng.randrange(4),
                     "nested": {"list": [1, None, True]}},
            conversation_id=f"conv-{rng.randrange(9)}",
            reply_with=None if rng.random() < 0.5 else f"r{rng.randrange(99)}",
            in_reply_to=None if rng.random() < 0.5 else f"q{rng.randrange(99)}",
        )
        assert deserialize_message(serialize_message(message)) == message


def test_sender_receiver_must_differ():
    with pytest.raises(ValidationError):
        msg(receiver="a1")


@pytest.mark.parametrize("overrides, message", [
    ({"performative": "request"}, "performative outside the closed set"),
    ({"sender": ""}, "sender must be a non-empty string"),
    ({"receiver": 7}, "receiver must be a non-empty string"),
    ({"conversation_id": None}, "conversation_id must be a non-empty string"),
    ({"content": {"a": [{1: "x"}]}}, "content: object keys must be strings"),
], ids=["performative", "empty_sender", "receiver_not_text", "no_conversation",
        "non_string_key"])
def test_message_refusals_are_pinned(overrides, message):
    with pytest.raises(ValidationError) as refusal:
        msg(**overrides)
    assert str(refusal.value) == message


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "serialized message must be a JSON object"),
    ('"request"', "serialized message must be a JSON object"),
    (serialize_message(msg()).replace('"receiver":"a2"', '"receiver":"a1"'),
     "sender and receiver must differ"),
], ids=["list", "string", "self_addressed"])
def test_deserialize_refusals_are_pinned(text, message):
    with pytest.raises(MalformedMessageError) as refusal:
        deserialize_message(text)
    assert str(refusal.value) == message


def test_deserialize_missing_field():
    payload = json.loads(serialize_message(msg()))
    del payload["sender"]
    with pytest.raises(MissingFieldError):
        deserialize_message(json.dumps(payload))


def test_deserialize_unknown_performative():
    payload = json.loads(serialize_message(msg()))
    payload["performative"] = "propose"
    with pytest.raises(UnknownPerformativeError):
        deserialize_message(json.dumps(payload))


def test_deserialize_malformed_text():
    with pytest.raises(MalformedMessageError):
        deserialize_message("{not json")


def test_trace_line_fields():
    line = trace_line(7, msg(content=EVENT_CONTENT))
    seq, perf, sender, receiver, conv, content = line.split("\t")
    assert (seq, perf, sender, receiver, conv) == \
        ("7", "request", "a1", "a2", "conv-1")
    assert json.loads(content) == EVENT_CONTENT
    assert content == '{"event":"pallet_placed"}'


# -- bus --------------------------------------------------------------------


def make_bus(*agents: str) -> Bus:
    bus = Bus()
    for agent in agents:
        bus.register(agent)
    return bus


def test_bus_fifo_per_receiver():
    bus = make_bus("a1", "a2")
    for i in range(5):
        bus.send(msg(content={"i": i}))
    got = [bus.try_receive("a2").content["i"] for _ in range(5)]
    assert got == [0, 1, 2, 3, 4]
    assert bus.try_receive("a2") is None


def test_bus_receive_blocks_until_a_message_or_the_timeout():
    """A blocking receive returns a message another thread sends while it
    waits, and None once the timeout passes on an empty inbox."""
    bus = make_bus("a1", "a2")
    sender = threading.Timer(0.05, lambda: bus.send(msg(content={"i": 1})))
    sender.start()
    try:
        assert bus.receive("a2", timeout=10).content == {"i": 1}
    finally:
        sender.join(timeout=10)
    assert not sender.is_alive()
    started = time.monotonic()
    assert bus.receive("a2", timeout=0.05) is None
    assert time.monotonic() - started >= 0.04


def test_bus_unknown_receiver_and_sender():
    bus = make_bus("a1")
    with pytest.raises(UnknownReceiverError):
        bus.send(msg())
    bus.register("a2")
    with pytest.raises(UnknownReceiverError):
        bus.send(msg(sender="ghost", receiver="a1"))


def test_bus_duplicate_registration():
    bus = make_bus("a1")
    with pytest.raises(DuplicateAgentError):
        bus.register("a1")


@pytest.mark.parametrize("call, message", [
    (lambda bus: bus.register(""), "agent id must be a non-empty string"),
    (lambda bus: bus.register(None), "agent id must be a non-empty string"),
    (lambda bus: bus.send(serialize_message(msg())), "can only send AclMessage values"),
], ids=["register_empty", "register_none", "send_text"])
def test_bus_refusals_are_pinned(call, message):
    bus = make_bus("a1", "a2")
    with pytest.raises(ValidationError) as refusal:
        call(bus)
    assert str(refusal.value) == message
    assert bus.idle()


def test_bus_reply_threading_rules():
    bus = make_bus("a1", "a2")
    bus.send(msg(reply_with="q1"))
    bus.send(msg(sender="a2", receiver="a1", in_reply_to="q1"))
    with pytest.raises(ValidationError):
        bus.send(msg(reply_with="q1"))  # reused in same conversation
    with pytest.raises(ValidationError):
        bus.send(msg(in_reply_to="never-asked"))
    # other conversations have their own id space
    bus.send(msg(conversation_id="conv-2", reply_with="q1"))


def test_bus_log_matches_delivery():
    bus = make_bus("a1", "a2", "a3")
    bus.send(msg())
    bus.send(msg(sender="a3", receiver="a2"))
    bus.send(msg(sender="a2", receiver="a3", conversation_id="conv-9"))
    first, ninth = bus.conversation_log("conv-1"), bus.conversation_log("conv-9")
    assert [seq for seq, _ in first + ninth] == [1, 2, 3]
    assert len(ninth) == 1
    text = format_trace(first + ninth)
    assert len(text.splitlines()) == 3


def test_reading_a_conversation_log_ends_the_conversation():
    """The log is handed over once; the conversation's reply ids go with it,
    so a later message opens it afresh, and other conversations keep theirs."""
    bus = make_bus("a1", "a2")
    bus.send(msg(reply_with="q1"))
    bus.send(msg(conversation_id="conv-2", reply_with="q1"))
    assert [m.reply_with for _, m in bus.conversation_log("conv-1")] == ["q1"]
    assert bus.conversation_log("conv-1") == []
    with pytest.raises(ValidationError):
        bus.send(msg(sender="a2", receiver="a1", in_reply_to="q1"))
    assert bus.send(msg(reply_with="q1")) == 3  # the id is free again
    assert bus.send(msg(sender="a2", receiver="a1", conversation_id="conv-2",
                        in_reply_to="q1")) == 4
    assert [seq for seq, _ in bus.conversation_log("conv-1")] == [3]


def test_conversation_log_reads_no_other_conversation():
    """Looking up one conversation touches none of the others' messages."""
    state = {"armed": False, "reads": 0}

    class CountingMessage(AclMessage):
        def __getattribute__(self, name):
            if name == "conversation_id" and state["armed"]:
                state["reads"] += 1
            return super().__getattribute__(name)

    bus = make_bus("a1", "a2")
    for k in range(50):
        bus.send(CountingMessage(Performative.INFORM, "a1", "a2", {}, f"conv-{k}"))
    state["armed"] = True
    assert bus.conversation_log("conv-other") == []
    assert state["reads"] == 0


@pytest.mark.parametrize("seed", range(6))
def test_conversation_logs_hold_every_send_once(seed):
    """Random sends with reply ids over a few conversations, whose logs are
    read, and so ended, at random moments: each log holds exactly the
    conversation's sends since it was last read, all logs together number
    the sends 1..N, and a send is refused exactly when it reuses a
    ``reply_with`` or answers none of its conversation's since the last read."""
    rng = random.Random(seed)
    agents = ["a0", "a1", "a2", "a3"]
    bus = make_bus(*agents)
    conversations = [f"conv-{k}" for k in range(rng.randint(1, 5))]
    reply_ids = {conversation: set() for conversation in conversations}
    unread = {conversation: [] for conversation in conversations}
    read = []
    sent = 0
    for _ in range(150):
        sender, receiver = rng.sample(agents, 2)
        conversation = rng.choice(conversations)
        reply_with, in_reply_to = (rng.choice((None, f"r{rng.randrange(6)}"))
                                   for _ in range(2))
        message = AclMessage(Performative.INFORM, sender, receiver, {"n": sent},
                             conversation, reply_with, in_reply_to)
        known = reply_ids[conversation]
        unmatched = in_reply_to is not None and in_reply_to not in known
        if reply_with in known or unmatched:
            with pytest.raises(ValidationError):
                bus.send(message)
        else:
            sent += 1
            assert bus.send(message) == sent
            unread[conversation].append((sent, message))
            if reply_with is not None:
                known.add(reply_with)
        if rng.random() < 0.1:
            ended = rng.choice(conversations + ["conv-none"])
            log = bus.conversation_log(ended)
            assert log == unread.pop(ended, [])
            read += log
            unread.setdefault(ended, [])
            reply_ids[ended] = set()
    for conversation in conversations:
        log = bus.conversation_log(conversation)
        assert log == unread[conversation]
        read += log
    assert sorted(seq for seq, _ in read) == list(range(1, sent + 1))


def test_bus_unregister_reports_undelivered():
    bus = make_bus("a1", "a2")
    bus.send(msg())
    bus.send(msg(content={"x": 1}))
    assert bus.unregister("a2") == 2
    assert bus.unregister("a2") == 0


def test_bus_idle():
    bus = make_bus("a1", "a2")
    assert bus.idle()
    bus.send(msg())
    assert not bus.idle()
    bus.try_receive("a2")
    assert bus.idle()


@pytest.mark.parametrize("seed", range(8))
def test_bus_waiting_names_exactly_the_inboxes_with_mail(seed):
    """After every operation, ``waiting`` holds the ids whose inbox holds
    mail, and ``idle`` says that no inbox does."""
    rng = random.Random(seed)
    ids = [f"a{k}" for k in range(5)]
    bus, inboxes = Bus(), {}
    for _ in range(400):
        op = rng.choice(("register", "send", "send", "try_receive", "receive",
                         "unregister"))
        agent_id = rng.choice(ids)
        if op == "register":
            if agent_id in inboxes:
                with pytest.raises(DuplicateAgentError):
                    bus.register(agent_id)
            else:
                bus.register(agent_id)
                inboxes[agent_id] = []
        elif op == "send":
            sender = rng.choice([i for i in ids if i != agent_id])
            message = AclMessage(Performative.INFORM, sender, agent_id, {},
                                 "conv-1")
            if agent_id in inboxes and sender in inboxes:
                bus.send(message)
                inboxes[agent_id].append(message)
            else:
                with pytest.raises(UnknownReceiverError):
                    bus.send(message)
        elif op == "unregister":
            assert bus.unregister(agent_id) == len(inboxes.pop(agent_id, ()))
        elif agent_id not in inboxes:
            with pytest.raises(UnknownReceiverError):
                bus.try_receive(agent_id)
        else:
            expected = inboxes[agent_id].pop(0) if inboxes[agent_id] else None
            got = (bus.try_receive(agent_id) if op == "try_receive"
                   else bus.receive(agent_id, timeout=0.0))
            assert got is expected
        with_mail = {i for i, inbox in inboxes.items() if inbox}
        assert bus.waiting == with_mail
        assert bus.idle() == (not with_mail)


def test_bus_threaded_exactly_once_and_sender_fifo():
    """Four producers, one consumer, nothing lost or reordered per sender."""
    bus = make_bus("sink", "p0", "p1", "p2", "p3")
    per_sender = 50

    def produce(name: str):
        for i in range(per_sender):
            bus.send(AclMessage(Performative.INFORM, name, "sink",
                                {"n": i}, "conv-t"))

    threads = [threading.Thread(target=produce, args=(f"p{k}",))
               for k in range(4)]
    for thread in threads:
        thread.start()
    received = []
    while len(received) < 4 * per_sender:
        message = bus.receive("sink", timeout=5.0)
        assert message is not None, "timed out waiting for messages"
        received.append(message)
    for thread in threads:
        thread.join()
    assert bus.try_receive("sink") is None
    assert bus.idle() and not bus.waiting
    for k in range(4):
        sequence = [m.content["n"] for m in received if m.sender == f"p{k}"]
        assert sequence == list(range(per_sender))
