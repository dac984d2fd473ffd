"""Permutation families over [n] and their exhaustive enumeration.

Each family is declared once, as one entry of ``_FAMILIES``: the parameters
it needs and a membership test on its canonical cycle lengths, read by
``FamilySpec`` validation, ``classify`` and ``enumerate_family``.
Enumeration is deliberately brute force (filter all of S_n); it is the
independent oracle that every counting formula and bijection is checked
against.  Streams are yielded in lexicographic order of one-line notation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from . import roots
from .errors import DomainError, EnumerationBoundError, check_modulus
from .permutation import CycleType, EnrichedPermutation, Permutation

DEFAULT_ENUMERATION_BOUND = 10


@dataclass(frozen=True)
class FamilySpec:
    """A named family of permutations of [n] with its parameters; the tag
    picks the family's entry in ``_FAMILIES``."""

    tag: str
    n: int
    r: int | None = None
    q: int | None = None
    k: int | None = None
    rho: CycleType | None = None

    def __post_init__(self):
        if self.tag not in _FAMILIES:
            raise DomainError(f"unknown family tag {self.tag!r}")
        if not isinstance(self.n, int) or self.n < 0:
            raise DomainError(f"n must be a nonnegative integer, got {self.n!r}")
        params, _ = _FAMILIES[self.tag]
        for name in params:  # in the order listed: cyc-qr checks q before r
            if name in ("r", "q"):
                check_modulus(getattr(self, name), name)
        if "k" in params:
            if not isinstance(self.k, int) or self.k < 1:
                raise DomainError(f"k must be a positive integer, got {self.k!r}")
            if self.k > self.n:
                raise DomainError(f"k={self.k} exceeds n={self.n}")
        if "rho" in params:
            if self.rho is None:
                raise DomainError("singular-type family needs a cycle type rho")
            if self.rho.total > self.n:
                raise DomainError(f"|rho|={self.rho.total} exceeds n={self.n}")
            if any(ln % self.q != 0 for ln in self.rho.lengths()):
                raise DomainError("rho contains a length not divisible by q")

    @classmethod
    def regular(cls, r: int, n: int) -> "FamilySpec":
        return cls("reg", n, r=r)

    @classmethod
    def cycle(cls, r: int, n: int) -> "FamilySpec":
        return cls("cyc", n, r=r)

    @classmethod
    def nearly_regular(cls, r: int, n: int) -> "FamilySpec":
        return cls("nreg", n, r=r)

    @classmethod
    def first_cycle(cls, r: int, k: int, n: int) -> "FamilySpec":
        return cls("q", n, r=r, k=k)

    @classmethod
    def odd_with_first(cls, n: int, k: int) -> "FamilySpec":
        """A_{n,2k-1} = Q_{2,2k-1}(n): every cycle odd, 1 in a (2k-1)-cycle."""
        return cls._first_cycle_r2(n, k, 2 * k - 1)

    @classmethod
    def even_first(cls, n: int, k: int) -> "FamilySpec":
        """P_{n,2k} = Q_{2,2k}(n): 1 in a 2k-cycle, every other cycle odd."""
        return cls._first_cycle_r2(n, k, 2 * k)

    @classmethod
    def _first_cycle_r2(cls, n: int, k: int, length: int) -> "FamilySpec":
        if not isinstance(k, int) or k < 1:
            raise DomainError(f"k must be a positive integer, got {k!r}")
        if isinstance(n, int) and 0 <= n < length:
            raise DomainError(f"need n >= {length} for a first cycle of length {length}")
        return cls.first_cycle(2, length, n)

    @classmethod
    def uniform_multiples(cls, q: int, r: int, n: int) -> "FamilySpec":
        return cls("cyc-qr", n, q=q, r=r)

    @classmethod
    def singular_type(cls, rho: CycleType, q: int, n: int) -> "FamilySpec":
        return cls("s-rho-q", n, q=q, rho=rho)

    @classmethod
    def with_root(cls, r: int, n: int) -> "FamilySpec":
        return cls("roots", n, r=r)

    @classmethod
    def everything(cls, n: int) -> "FamilySpec":
        return cls("all", n)


# tag -> (the parameters the family needs, its membership test on the canonical
# cycle lengths ls of a permutation and the spec s; ls[0] is the cycle of 1)
_FAMILIES = {
    "reg": (("r",), lambda ls, s: all(ln % s.r for ln in ls)),  # no length divisible by r
    "cyc": (("r",), lambda ls, s: not any(ln % s.r for ln in ls)),  # all lengths divisible by r
    # only the cycle of 1 is singular
    "nreg": (
        ("r",), lambda ls, s: ls[:1] != () and ls[0] % s.r == 0 and all(ln % s.r for ln in ls[1:])
    ),
    # the cycle of 1 has length k, every other cycle is regular
    "q": (("r", "k"), lambda ls, s: ls[:1] == (s.k,) and all(ln % s.r for ln in ls[1:])),
    # lengths multiples of q, each length occurring a multiple of r times
    "cyc-qr": (
        ("q", "r"), lambda ls, s: all(ln % s.q == 0 and ls.count(ln) % s.r == 0 for ln in ls)
    ),
    # the q-singular cycles have cycle type rho
    "s-rho-q": (
        ("q", "rho"),
        lambda ls, s: tuple(sorted(ln for ln in ls if ln % s.q == 0)) == s.rho.expand(),
    ),
    # has an r-th root (type_has_root is looked up in roots on each call)
    "roots": (("r",), lambda ls, s: roots.type_has_root(tuple(sorted(ls)), s.r)),
    "all": ((), lambda ls, s: True),
}


# -- predicates on whole permutations (any ground set) ----------------------

def is_regular(p: Permutation, r: int) -> bool:
    check_modulus(r, "r")
    return all(len(c) % r != 0 for c in p.cycles)


def is_nearly_regular(p: Permutation, r: int) -> bool:
    """Every cycle regular except the one containing the ground-set minimum,
    which is singular.  False for the empty permutation."""
    check_modulus(r, "r")
    lengths = p.cycle_lengths()
    return lengths[:1] != () and lengths[0] % r == 0 and all(ln % r for ln in lengths[1:])


def classify(p: Permutation, spec: FamilySpec) -> bool:
    """True iff ``p`` (a permutation of [spec.n]) belongs to the family."""
    if p.ground_set() != frozenset(range(1, spec.n + 1)):
        raise DomainError(f"ground set is not [{spec.n}]")
    _, member = _FAMILIES[spec.tag]
    return member(p.cycle_lengths(), spec)


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
    _, member = _FAMILIES[spec.tag]
    for img in itertools.permutations(range(1, spec.n + 1)):
        cycles = _cycles_of_one_line(img)
        if member(tuple(map(len, cycles)), spec):
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
    singular = [len(c) % r == 0 for c in base.cycles]
    for combo in itertools.product(range(1, r), repeat=sum(singular)):
        colors = iter(combo)
        yield EnrichedPermutation(base, r, tuple(next(colors) if s else None for s in singular))


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
