"""Exception types raised by permroot.

Every precondition violation surfaces as one of these; the library never
aborts the process on bad input.
"""


class PermrootError(Exception):
    """Base class for all permroot errors."""


class CycleNotationError(PermrootError, ValueError):
    """Malformed cycle-notation text."""


class InvalidPermutationError(PermrootError, ValueError):
    """Structurally invalid permutation or enrichment (overlapping cycles,
    color on a regular cycle, color out of range, ...)."""


class DomainError(PermrootError, ValueError):
    """An operation was called outside its stated domain (modulus condition,
    non-regular input, incompatible ground set, bad parameters, ...)."""


class EnumerationBoundError(DomainError):
    """Exhaustive enumeration was requested beyond the configured bound."""


class SequenceLookupError(PermrootError, RuntimeError):
    """An OEIS b-file could not be fetched or parsed."""


def check_modulus(value, name: str) -> None:
    """Raise DomainError unless ``value`` is an integer >= 2."""
    if not isinstance(value, int) or value < 2:
        raise DomainError(f"{name} must be an integer >= 2, got {value!r}")


def check_size(n) -> None:
    """Raise DomainError unless ``n`` is an integer >= 0."""
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"n must be a nonnegative integer, got {n!r}")
