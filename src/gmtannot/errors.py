"""Exception hierarchy shared by all gmtannot modules."""

from __future__ import annotations


class GmtError(Exception):
    """Base class for every error raised by this package; ``line`` and ``column`` place it in its input, if known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}: {message}" if column is None else f"{message} (line {line}, column {column})"
        super().__init__(message)


class GmtParseError(GmtError):
    """GMT XML could not be read: malformed XML or a grammar violation."""


class GmtSerializeError(GmtError):
    """Refusal to serialize a document that fails structural validation."""


class AgParseError(GmtError):
    """Annotation-graph XML could not be read."""


class BridgeError(GmtError):
    """An annotation graph or layer document cannot be converted."""

    def __init__(self, message: str, code: str = "BRIDGE_ERROR", line: int | None = None):
        self.code = code
        super().__init__(message, line)


class AnchorError(GmtError):
    """Anchoring context (landmark table, token index) could not be built."""


class UnresolvedTargetError(GmtError):
    """A pointer names a token, landmark or node that does not exist."""

    code = "UNRESOLVED_TARGET"

    def __init__(self, target: str, message: str | None = None):
        self.target = target
        super().__init__(message or f"unresolved target '{target}'")


class InvertedSpanError(GmtError):
    """A resolved span would end before it starts."""

    code = "INVERTED_SPAN"


class TokenIndexError(GmtError):
    """A token index file is malformed."""


class RegistryError(GmtError):
    """A data category registry file is malformed or a lookup failed."""


class MergeError(GmtError):
    """Input documents cannot be merged."""
