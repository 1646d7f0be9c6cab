"""Exception hierarchy shared by all augrank modules.

The CLI maps these onto exit codes: usage errors exit 1, data errors
(parse/conflict/lookup/validation) exit 2, transport errors exit 3.
`count_and_ids` is how errors and warnings name a list of ids.
"""

from __future__ import annotations

from collections.abc import Sequence


def count_and_ids(ids: Sequence[str]) -> str:
    """How a message names a list of ids: the count, then the first five
    in parentheses, with ", ..." when there are more."""
    shown = ", ".join(ids[:5]) + (", ..." if len(ids) > 5 else "")
    return f"{len(ids)} ({shown})"


class ToolkitError(Exception):
    """Base class for all augrank errors."""


class _LineError(ToolkitError):
    """An error that may name the input line it was found at: given
    `line_no`, the message reads `line N: <message>`."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ParseError(_LineError):
    """A line or record in an input file could not be parsed."""


class ConflictError(_LineError):
    """Duplicate keys where duplicates are forbidden (qrels, run docids, ids)."""


class UnknownIdError(ToolkitError):
    """A referenced query or passage id does not resolve."""


class ValidationError(ToolkitError):
    """An invariant or precondition was violated."""


class TransportError(ToolkitError):
    """A remote scorer request failed (connection, timeout, non-200 status).

    Carries the indices of the inputs in the failed batch so the caller can
    tell which scores are missing. They index the inputs of the
    `score_batch` call, which in the pipeline are the whole run's.
    """

    def __init__(self, message: str, failed_indices: Sequence[int] = ()):
        super().__init__(message)
        self.failed_indices = tuple(failed_indices)


class ProtocolError(ToolkitError):
    """A remote scorer replied with a malformed or out-of-contract payload."""
