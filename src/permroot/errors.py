"""Exception types raised by permroot, and its integer and type validators.

Every precondition violation surfaces as one of these; the library never
aborts the process on bad input.  Integer parameters (degrees, moduli,
sizes, lengths, exponents, elements) are checked by ``check_int``, which
refuses ``bool`` and every non-``int`` with a ``DomainError``; object
parameters (permutations, cycle types, family specs) by ``check_type``.
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


def check_int(value, name: str, low: int | None = None, high: int | None = None) -> None:
    """Raise DomainError unless ``value`` is an int, not a bool, with
    low <= value (when low is given) and value <= high (when high is given;
    then low must be given too)."""
    if (
        # an exact int, the common case, passes the type test in one comparison
        (value.__class__ is not int and (isinstance(value, bool) or not isinstance(value, int)))
        or (low is not None and value < low)
        or (high is not None and value > high)
    ):
        if high is not None:
            raise DomainError(f"{name} must lie in {low}..{high}, got {value!r}")
        bound = "" if low is None else f" >= {low}"
        raise DomainError(f"{name} must be an integer{bound}, got {value!r}")


def check_type(value, cls: type, name: str) -> None:
    """Raise DomainError unless ``value`` is an instance of ``cls``."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise DomainError(f"{name} must be {article} {cls.__name__}, got {value!r}")
