"""Permutation families over [n] and their exhaustive enumeration.

Enumeration is deliberately brute force (filter all of S_n); it is the
independent oracle that every counting formula and bijection is checked
against.  Streams are yielded in lexicographic order of one-line notation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError, EnumerationBoundError, check_modulus
from .permutation import CycleType, EnrichedPermutation, Permutation

DEFAULT_ENUMERATION_BOUND = 10

REGULAR = "reg"                # all cycle lengths not divisible by r
CYCLE = "cyc"                  # all cycle lengths divisible by r
NEARLY_REGULAR = "nreg"        # only the min-containing cycle is singular
FIRST_CYCLE = "q"              # min-containing cycle has length k, rest regular
ODD_WITH_FIRST = "a"           # all cycles odd, 1 in a cycle of length 2k-1
EVEN_FIRST = "p"               # 1 in an even cycle of length 2k, rest odd
UNIFORM_MULTIPLES = "cyc-qr"   # lengths multiples of q, each length count a multiple of r
SINGULAR_TYPE = "s-rho-q"      # q-singular part has cycle type rho
WITH_ROOT = "roots"            # permutations having an r-th root
ALL = "all"

_TAGS = {
    REGULAR, CYCLE, NEARLY_REGULAR, FIRST_CYCLE, ODD_WITH_FIRST, EVEN_FIRST,
    UNIFORM_MULTIPLES, SINGULAR_TYPE, WITH_ROOT, ALL,
}


@dataclass(frozen=True)
class FamilySpec:
    """A named family of permutations of [n] with its parameters."""

    tag: str
    n: int
    r: int | None = None
    q: int | None = None
    k: int | None = None
    rho: CycleType | None = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise DomainError(f"unknown family tag {self.tag!r}")
        if not isinstance(self.n, int) or self.n < 0:
            raise DomainError(f"n must be a nonnegative integer, got {self.n!r}")
        if self.tag in (REGULAR, CYCLE, NEARLY_REGULAR, FIRST_CYCLE, WITH_ROOT):
            check_modulus(self.r, "r")
        if self.tag in (UNIFORM_MULTIPLES, SINGULAR_TYPE):
            check_modulus(self.q, "q")
        if self.tag == UNIFORM_MULTIPLES:
            check_modulus(self.r, "r")
        if self.tag in (FIRST_CYCLE, ODD_WITH_FIRST, EVEN_FIRST):
            if not isinstance(self.k, int) or self.k < 1:
                raise DomainError(f"k must be a positive integer, got {self.k!r}")
            if self.tag == FIRST_CYCLE and self.k > self.n:
                raise DomainError(f"k={self.k} exceeds n={self.n}")
        if self.tag == SINGULAR_TYPE:
            if self.rho is None:
                raise DomainError("singular-type family needs a cycle type rho")
            if self.rho.total > self.n:
                raise DomainError(f"|rho|={self.rho.total} exceeds n={self.n}")
            if any(ln % self.q != 0 for ln in self.rho.lengths()):
                raise DomainError("rho contains a length not divisible by q")

    # constructors, one per family
    @classmethod
    def regular(cls, r: int, n: int) -> "FamilySpec":
        return cls(REGULAR, n, r=r)

    @classmethod
    def cycle(cls, r: int, n: int) -> "FamilySpec":
        return cls(CYCLE, n, r=r)

    @classmethod
    def nearly_regular(cls, r: int, n: int) -> "FamilySpec":
        return cls(NEARLY_REGULAR, n, r=r)

    @classmethod
    def first_cycle(cls, r: int, k: int, n: int) -> "FamilySpec":
        return cls(FIRST_CYCLE, n, r=r, k=k)

    @classmethod
    def odd_with_first(cls, n: int, k: int) -> "FamilySpec":
        return cls(ODD_WITH_FIRST, n, k=k)

    @classmethod
    def even_first(cls, n: int, k: int) -> "FamilySpec":
        return cls(EVEN_FIRST, n, k=k)

    @classmethod
    def uniform_multiples(cls, q: int, r: int, n: int) -> "FamilySpec":
        return cls(UNIFORM_MULTIPLES, n, q=q, r=r)

    @classmethod
    def singular_type(cls, rho: CycleType, q: int, n: int) -> "FamilySpec":
        return cls(SINGULAR_TYPE, n, q=q, rho=rho)

    @classmethod
    def with_root(cls, r: int, n: int) -> "FamilySpec":
        return cls(WITH_ROOT, n, r=r)

    @classmethod
    def everything(cls, n: int) -> "FamilySpec":
        return cls(ALL, n)


# -- predicates on whole permutations (any ground set) ----------------------

def is_regular(p: Permutation, r: int) -> bool:
    check_modulus(r, "r")
    return all(len(c) % r != 0 for c in p.cycles)


def is_cycle_permutation(p: Permutation, r: int) -> bool:
    check_modulus(r, "r")
    return all(len(c) % r == 0 for c in p.cycles)


def is_nearly_regular(p: Permutation, r: int) -> bool:
    """Every cycle regular except the one containing the ground-set minimum,
    which is singular.  False for the empty permutation."""
    check_modulus(r, "r")
    if not p.cycles:
        return False
    first, rest = p.cycles[0], p.cycles[1:]
    return len(first) % r == 0 and all(len(c) % r != 0 for c in rest)


def is_enriched_cycle_permutation(e: EnrichedPermutation) -> bool:
    return all(len(c) % e.r == 0 for c in e.base.cycles)


def _matches(lengths: tuple[int, ...], first_len: int, spec: FamilySpec) -> bool:
    """Membership test given cycle lengths (canonical order; first cycle is
    the one containing the minimum, length 0 meaning empty)."""
    tag = spec.tag
    if tag == ALL:
        return True
    if tag == REGULAR:
        return all(ln % spec.r != 0 for ln in lengths)
    if tag == CYCLE:
        return all(ln % spec.r == 0 for ln in lengths)
    if tag == NEARLY_REGULAR:
        return (
            first_len > 0
            and first_len % spec.r == 0
            and all(ln % spec.r != 0 for ln in lengths[1:])
        )
    if tag == FIRST_CYCLE:
        return first_len == spec.k and all(ln % spec.r != 0 for ln in lengths[1:])
    if tag == ODD_WITH_FIRST:
        return first_len == 2 * spec.k - 1 and all(ln % 2 == 1 for ln in lengths)
    if tag == EVEN_FIRST:
        return first_len == 2 * spec.k and all(ln % 2 == 1 for ln in lengths[1:])
    if tag == UNIFORM_MULTIPLES:
        if any(ln % spec.q != 0 for ln in lengths):
            return False
        counts: dict[int, int] = {}
        for ln in lengths:
            counts[ln] = counts.get(ln, 0) + 1
        return all(ct % spec.r == 0 for ct in counts.values())
    if tag == SINGULAR_TYPE:
        singular = tuple(sorted(ln for ln in lengths if ln % spec.q == 0))
        return singular == spec.rho.expand()
    if tag == WITH_ROOT:
        from .roots import type_has_root

        return type_has_root(tuple(sorted(lengths)), spec.r)
    raise DomainError(f"unknown family tag {tag!r}")


def classify(p: Permutation, spec: FamilySpec) -> bool:
    """True iff ``p`` (a permutation of [spec.n]) belongs to the family."""
    if p.ground_set() != frozenset(range(1, spec.n + 1)):
        raise DomainError(f"ground set is not [{spec.n}]")
    lengths = p.cycle_lengths()
    first_len = lengths[0] if lengths else 0
    return _matches(lengths, first_len, spec)


# -- enumeration -------------------------------------------------------------

def _cycles_of_one_line(img: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Cycles of the permutation i -> img[i-1] of [n], canonical by construction."""
    n = len(img)
    seen = bytearray(n + 1)
    out = []
    for s in range(1, n + 1):
        if seen[s]:
            continue
        seen[s] = 1
        t = img[s - 1]
        if t == s:
            out.append((s,))
            continue
        cyc = [s]
        while t != s:
            seen[t] = 1
            cyc.append(t)
            t = img[t - 1]
        out.append(tuple(cyc))
    return tuple(out)


def enumerate_family(
    spec: FamilySpec, bound: int = DEFAULT_ENUMERATION_BOUND
) -> Iterator[Permutation]:
    """Yield each member of the family exactly once, in lexicographic order
    of one-line notation.  Refuses n beyond ``bound``."""
    if spec.n > bound:
        raise EnumerationBoundError(f"n={spec.n} exceeds the enumeration bound {bound}")
    if spec.n == 0:
        if _matches((), 0, spec):
            yield Permutation()
        return
    for img in itertools.permutations(range(1, spec.n + 1)):
        cycles = _cycles_of_one_line(img)
        lengths = tuple(len(c) for c in cycles)
        if _matches(lengths, lengths[0], spec):
            yield Permutation._from_canonical(cycles)


def enumerate_regular_on(
    elements, r: int, bound: int = DEFAULT_ENUMERATION_BOUND
) -> Iterator[Permutation]:
    """r-regular permutations of an arbitrary ground set, by order-preserving
    relabeling of the enumeration over [n]."""
    elems = sorted(set(elements))
    relabel = {i + 1: e for i, e in enumerate(elems)}
    for p in enumerate_family(FamilySpec.regular(r, len(elems)), bound):
        yield p.relabel(relabel) if elems != list(range(1, len(elems) + 1)) else p


def _colorings(base: Permutation, r: int) -> Iterator[EnrichedPermutation]:
    slots = [i for i, c in enumerate(base.cycles) if len(c) % r == 0]
    template: list[int | None] = [None] * len(base.cycles)
    for combo in itertools.product(range(1, r), repeat=len(slots)):
        seq = list(template)
        for i, col in zip(slots, combo):
            seq[i] = col
        yield EnrichedPermutation(base, r, tuple(seq))


def enumerate_enriched_cycles(
    r: int, n: int, bound: int = DEFAULT_ENUMERATION_BOUND
) -> Iterator[EnrichedPermutation]:
    """All enriched r-cycle permutations of [n]: base stream times colorings."""
    for base in enumerate_family(FamilySpec.cycle(r, n), bound):
        yield from _colorings(base, r)


def enumerate_enriched_nearly_regular(
    r: int, n: int, bound: int = DEFAULT_ENUMERATION_BOUND
) -> Iterator[EnrichedPermutation]:
    for base in enumerate_family(FamilySpec.nearly_regular(r, n), bound):
        yield from _colorings(base, r)
