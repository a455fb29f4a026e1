"""Agent communication language: message model, wire format and bus.

Messages carry a performative from a closed set plus a structured JSON
content value. The bus is an in-process post office with one FIFO inbox
per registered agent, exactly-once delivery and a log per conversation,
the FIPA unit of one task, numbered in global send order. A
conversation's log doubles as its task's run trace; reading it ends the
conversation.
"""

from __future__ import annotations

import enum
import json
import threading
from collections import deque
from dataclasses import dataclass

from .errors import (DuplicateAgentError, MalformedMessageError,
                     MissingFieldError, UnknownPerformativeError,
                     UnknownReceiverError, ValidationError)


class Performative(enum.Enum):
    REQUEST = "request"
    INFORM = "inform"
    CONFIRM = "confirm"
    REFUSE = "refuse"
    FAILURE = "failure"


# Canonical text form: sorted keys, no whitespace, UTF-8 kept raw.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                  ensure_ascii=False).encode


def _check_json_value(value, where: str):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return
    if isinstance(value, list):
        for item in value:
            _check_json_value(item, where)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise ValidationError(f"{where}: object keys must be strings")
            _check_json_value(item, where)
        return
    raise ValidationError(f"{where}: {type(value).__name__} is not a JSON value")


@dataclass(frozen=True)
class AclMessage:
    """One speech act between two distinct agents."""

    performative: Performative
    sender: str
    receiver: str
    content: object
    conversation_id: str
    reply_with: str | None = None
    in_reply_to: str | None = None

    def __post_init__(self):
        if not isinstance(self.performative, Performative):
            raise ValidationError("performative outside the closed set")
        for name in ("sender", "receiver", "conversation_id"):
            value = getattr(self, name)
            if not value or not isinstance(value, str):
                raise ValidationError(f"{name} must be a non-empty string")
        if self.sender == self.receiver:
            raise ValidationError("sender and receiver must differ")
        _check_json_value(self.content, "content")


_REQUIRED = ("performative", "sender", "receiver", "content", "conversation_id")


def serialize_message(message: AclMessage) -> str:
    payload = {
        "performative": message.performative.value,
        "sender": message.sender,
        "receiver": message.receiver,
        "content": message.content,
        "conversation_id": message.conversation_id,
    }
    if message.reply_with is not None:
        payload["reply_with"] = message.reply_with
    if message.in_reply_to is not None:
        payload["in_reply_to"] = message.in_reply_to
    return canonical_json(payload)


def deserialize_message(text: str) -> AclMessage:
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, TypeError) as exc:
        raise MalformedMessageError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise MalformedMessageError("serialized message must be a JSON object")
    for name in _REQUIRED:
        if name not in payload:
            raise MissingFieldError(f"missing field {name!r}")
    try:
        performative = Performative(payload["performative"])
    except ValueError:
        raise UnknownPerformativeError(
            f"unknown performative {payload['performative']!r}") from None
    try:
        return AclMessage(
            performative=performative,
            sender=payload["sender"],
            receiver=payload["receiver"],
            content=payload["content"],
            conversation_id=payload["conversation_id"],
            reply_with=payload.get("reply_with"),
            in_reply_to=payload.get("in_reply_to"),
        )
    except ValidationError as exc:
        raise MalformedMessageError(str(exc)) from exc


def trace_line(seq: int, message: AclMessage) -> str:
    """Tab-separated log line; content in canonical JSON."""
    return "\t".join((str(seq), message.performative.value, message.sender,
                      message.receiver, message.conversation_id,
                      canonical_json(message.content)))


def format_trace(log) -> str:
    """Render a delivery log (pairs of sequence number and message)."""
    return "".join(trace_line(seq, msg) + "\n" for seq, msg in log)


class Bus:
    """In-process message bus with per-agent FIFO inboxes.

    Send validates, logs and enqueues under one lock, so the sequence
    order, the logs and inbox order always agree. Each conversation has
    one record: its ``(seq, message)`` entries in send order and its
    ``reply_with`` ids. The same lock keeps ``waiting``, the set of ids
    whose inbox holds mail, which callers only read. Receivers can block
    with a timeout; ``None`` signals expiry.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._inboxes: dict[str, deque] = {}
        self.waiting: set[str] = set()
        self._seq = 0
        self._conversations: dict[str, tuple[list, set[str]]] = {}

    def register(self, agent_id: str):
        if not agent_id or not isinstance(agent_id, str):
            raise ValidationError("agent id must be a non-empty string")
        with self._lock:
            if agent_id in self._inboxes:
                raise DuplicateAgentError(f"agent {agent_id!r} already registered")
            self._inboxes[agent_id] = deque()

    def unregister(self, agent_id: str) -> int:
        """Drop an inbox; returns the number of undelivered messages."""
        with self._lock:
            self.waiting.discard(agent_id)
            return len(self._inboxes.pop(agent_id, ()))

    def send(self, message: AclMessage) -> int:
        """Deliver to the receiver's inbox; returns the sequence number."""
        if not isinstance(message, AclMessage):
            raise ValidationError("can only send AclMessage values")
        with self._lock:
            if message.receiver not in self._inboxes:
                raise UnknownReceiverError(
                    f"no inbox for receiver {message.receiver!r}")
            if message.sender not in self._inboxes:
                raise UnknownReceiverError(
                    f"sender {message.sender!r} is not registered")
            record = self._conversations.get(message.conversation_id) or ([], set())
            entries, known = record
            if message.in_reply_to is not None and message.in_reply_to not in known:
                raise ValidationError(
                    f"in_reply_to {message.in_reply_to!r} does not match any "
                    f"earlier reply_with in conversation "
                    f"{message.conversation_id!r}")
            if message.reply_with is not None:
                if message.reply_with in known:
                    raise ValidationError(
                        f"reply_with {message.reply_with!r} reused in "
                        f"conversation {message.conversation_id!r}")
                known.add(message.reply_with)
            self._conversations[message.conversation_id] = record
            self._seq += 1
            entries.append((self._seq, message))
            self._inboxes[message.receiver].append(message)
            self.waiting.add(message.receiver)
            self._ready.notify_all()
            return self._seq

    def receive(self, agent_id: str, timeout: float | None = None) -> AclMessage | None:
        """Pop the oldest message for an agent, blocking up to timeout."""
        with self._lock:
            inbox = self._inboxes.get(agent_id)
            if inbox is None:
                raise UnknownReceiverError(f"no inbox for {agent_id!r}")
            if not inbox and timeout is not None and timeout > 0:
                self._ready.wait_for(lambda: bool(inbox), timeout)
            if not inbox:
                return None
            message = inbox.popleft()
            if not inbox:
                self.waiting.discard(agent_id)
            return message

    def try_receive(self, agent_id: str) -> AclMessage | None:
        return self.receive(agent_id, timeout=None)

    def idle(self) -> bool:
        """True when every inbox has been drained."""
        with self._lock:
            return not self.waiting

    def conversation_log(self, conversation_id: str) -> list[tuple[int, AclMessage]]:
        """End a conversation: hand over its log and forget its record. A
        later message opens it afresh, so it cannot reply to an earlier one."""
        with self._lock:
            record = self._conversations.pop(conversation_id, None)
            return record[0] if record else []
