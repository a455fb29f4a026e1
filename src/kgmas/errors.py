"""Exception hierarchy shared across the package, and the one reader of
input files, which names a file that is not UTF-8."""

from __future__ import annotations


class KgmasError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(KgmasError):
    """A value violates a structural constraint (malformed term, bad field)."""


class TurtleParseError(KgmasError):
    """Raised when a Turtle document cannot be parsed.

    Carries the 1-based line and column of the offending token so load
    failures can be reported precisely and the store left untouched.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class AclError(KgmasError):
    """Base class for message-layer errors."""


class MissingFieldError(AclError):
    """A serialized message lacks a required field."""


class UnknownPerformativeError(AclError):
    """A serialized message names a performative outside the closed set."""


class MalformedMessageError(AclError):
    """A serialized message is not valid JSON or not an object."""


class UnknownReceiverError(AclError):
    """Send was attempted to an agent id with no registered inbox."""


class DuplicateAgentError(KgmasError):
    """An agent id was registered twice on the same bus."""


class TransportError(KgmasError):
    """Base class for transport-layer errors."""


class UnknownSchemeError(TransportError):
    """No transport kind is registered for the requested scheme."""


class DuplicateSchemeError(TransportError):
    """A transport kind was registered twice for one scheme."""


class NoResponderError(TransportError):
    """A request/response path has no registered responder."""


class UnknownAssetError(KgmasError):
    """The setup graph has no asset description for the given iri."""


class BlueprintError(KgmasError):
    """An asset description is too incomplete to build an agent from."""


class GenerationError(KgmasError):
    """Agent generation was refused because the setup graph is invalid."""

    def __init__(self, message: str, violations: list | None = None):
        super().__init__(message)
        self.violations = violations or []


class ProtocolError(KgmasError):
    """A protocol definition is malformed or references unknown entities."""


class EventRejectedError(KgmasError):
    """A reported event does not match the task's current step."""


class WorldError(KgmasError):
    """A world fixture or command is invalid."""


def read_text(path) -> str:
    """A file's text; a file that is not UTF-8 is named in the error."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {exc}") from None
