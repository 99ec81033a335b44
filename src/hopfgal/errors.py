"""Exception types shared across the package.

Exit-code mapping used by the CLI: InputError -> 2, ConsistencyError -> 3,
a failed certificate (no exception, reported in the output) -> 1.
"""


class HopfgalError(Exception):
    """Base class for all package errors."""


class InputError(HopfgalError, ValueError):
    """Malformed or inconsistent user input (shapes, schemas, references).

    culprit, when given, is the parsed object whose content is at fault.
    """

    def __init__(self, message: str, culprit=None):
        super().__init__(message)
        self.culprit = culprit


class ConsistencyError(HopfgalError, RuntimeError):
    """An internal cross-check failed; this signals a bug, not bad input."""
