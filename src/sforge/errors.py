"""Error taxonomy.

Three classes of failure, matching the process exit codes of the CLI:
verification failures (including violated operation contracts) exit 1,
unparseable input exits 2, and requests beyond the supported problem
sizes exit 3.
"""

from __future__ import annotations

from typing import Any


class SforgeError(Exception):
    """Base error. ``exit_code`` drives the CLI process exit status."""

    exit_code = 1

    def __init__(self, message: str, **details: Any):
        super().__init__(message)
        self.message = message
        self.details = details

    # its own: an error is no record, and it prints each detail's repr
    def as_report(self) -> dict:
        rep = {"error": type(self).__name__, "message": self.message}
        if self.details:
            rep["details"] = {k: repr(v) for k, v in sorted(self.details.items())}
        return rep


class VerificationError(SforgeError):
    """An asserted invariant failed; carries a witness where one exists."""

    exit_code = 1


class PreconditionError(VerificationError):
    """Input violates the stated contract of an operation."""

    exit_code = 1


class ParseError(SforgeError):
    """Malformed file or parameter input."""

    exit_code = 2


class CapacityError(SforgeError):
    """Request exceeds the supported exact-computation range."""

    exit_code = 3
