"""Permutation families over [n] and their exhaustive enumeration.

Each family is declared once, as one entry of ``_FAMILIES``: the parameters
it needs and a membership test on its canonical cycle lengths, read by
``FamilySpec`` validation, ``classify`` and ``enumerate_family``.  A
membership test may depend only on the length of the cycle of 1 and the
multiset of all cycle lengths.

Enumeration is deliberately brute force: it filters all of S_n, in
lexicographic order of one-line notation, and is the independent oracle that
every counting formula and bijection is checked against.  It classifies S_n
one prefix at a time rather than one permutation at a time: the ways to fill
the last ``_TAIL`` positions after a prefix are classified together, as one
chunk of key ids for the prefix's signature (its closed cycles and open
paths), joined from the chunks of the prefixes one longer (``_completions``)
and memoized per n and level, never with n! entries.  Every signature is the
chain of ``_reduce`` steps from the empty prefix's.  So the membership test
runs once per (first length, cycle type), and only members get cycles, from
the same walk of the images that ``Permutation.from_mapping`` runs
(``permutation._walk_cycles``).  Callers that read only counts or cycle
types take ``_member_keys`` instead, the same scan handing out each
member's key straight from the chunk.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterator

from . import roots
from .errors import DomainError, EnumerationBoundError, check_int, check_type
from .permutation import CycleType, EnrichedPermutation, Permutation, _walk_cycles

DEFAULT_ENUMERATION_BOUND = 10


class FamilySpec:
    """A named family of permutations of [n] with its parameters; the tag
    picks the family's entry in ``_FAMILIES``.  Immutable, and equal (with
    an equal hash) only to a FamilySpec with the same fields."""

    __slots__ = ("tag", "n", "r", "q", "k", "rho")

    def __init__(self, tag: str, n: int, r: int | None = None, q: int | None = None,
                 k: int | None = None, rho: CycleType | None = None):
        for name, value in zip(self.__slots__, (tag, n, r, q, k, rho)):
            object.__setattr__(self, name, value)
        if tag not in _FAMILIES:
            raise DomainError(f"unknown family tag {tag!r}")
        check_int(n, "n", 0)
        params, _ = _FAMILIES[tag]
        for name in params:  # in the order listed: cyc-qr checks q before r
            if name in ("r", "q"):
                check_int(getattr(self, name), name, 2)
        if "k" in params:
            check_int(k, "k")
            if k > n:
                raise DomainError(f"need n >= {k} for a first cycle of length {k}")
            check_int(k, "k", 1, n)
        if "rho" in params:
            if not isinstance(rho, CycleType):
                raise DomainError("singular-type family needs a cycle type rho")
            if rho.total > n:
                raise DomainError(f"|rho|={rho.total} exceeds n={n}")
            if any(ln % q != 0 for ln in rho.lengths()):
                raise DomainError("rho contains a length not divisible by q")

    def _fields(self) -> tuple:
        return self.tag, self.n, self.r, self.q, self.k, self.rho

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        pairs = zip(self.__slots__, self._fields())
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()

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
        return cls._first_cycle_r2(n, k, 1)

    @classmethod
    def even_first(cls, n: int, k: int) -> "FamilySpec":
        """P_{n,2k} = Q_{2,2k}(n): 1 in a 2k-cycle, every other cycle odd."""
        return cls._first_cycle_r2(n, k, 0)

    @classmethod
    def _first_cycle_r2(cls, n: int, k: int, odd: int) -> "FamilySpec":
        """Q_{2,2k-odd}(n), for odd in {0, 1}."""
        check_int(k, "k", 1)
        return cls.first_cycle(2, 2 * k - odd, n)

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


def _regular(ls, r: int) -> bool:
    """No length divisible by r."""
    return all(ln % r for ln in ls)


def _nearly_regular(ls, r: int) -> bool:
    """Only the first length is divisible by r; false for no lengths."""
    return ls[:1] != () and ls[0] % r == 0 and _regular(ls[1:], r)


# tag -> (the parameters the family needs, its membership test on the canonical
# cycle lengths ls of a permutation and the spec s; ls[0] is the cycle of 1).
# A test may read only ls[0] and the multiset of ls: enumerate_family calls it
# with ls[1:] sorted, not in cycle order.
_FAMILIES = {
    "reg": (("r",), lambda ls, s: _regular(ls, s.r)),
    "cyc": (("r",), lambda ls, s: not any(ln % s.r for ln in ls)),  # all lengths divisible by r
    "nreg": (("r",), lambda ls, s: _nearly_regular(ls, s.r)),
    # the cycle of 1 has length k, every other cycle is regular
    "q": (("r", "k"), lambda ls, s: ls[:1] == (s.k,) and _regular(ls[1:], s.r)),
    # lengths multiples of q, each length occurring a multiple of r times
    "cyc-qr": (
        ("q", "r"), lambda ls, s: all(ln % s.q == 0 and ls.count(ln) % s.r == 0 for ln in ls)
    ),
    # the q-singular cycles have cycle type rho
    "s-rho-q": (
        ("q", "rho"),
        lambda ls, s: tuple(sorted(ln for ln in ls if ln % s.q == 0)) == s.rho.expand(),
    ),
    # has an r-th root (type_has_root takes the lengths in any order and is
    # looked up in roots on each call)
    "roots": (("r",), lambda ls, s: roots.type_has_root(ls, s.r)),
    "all": ((), lambda ls, s: True),
}


# -- predicates on whole permutations (any ground set) ----------------------

def is_regular(p: Permutation, r: int) -> bool:
    check_type(p, Permutation, "p")
    check_int(r, "r", 2)
    return _regular(p.cycle_lengths(), r)


def is_nearly_regular(p: Permutation, r: int) -> bool:
    """Every cycle regular except the one containing the ground-set minimum,
    which is singular.  False for the empty permutation."""
    check_type(p, Permutation, "p")
    check_int(r, "r", 2)
    return _nearly_regular(p.cycle_lengths(), r)


def classify(p: Permutation, spec: FamilySpec) -> bool:
    """True iff ``p`` (a permutation of [spec.n]) belongs to the family."""
    check_type(p, Permutation, "p")
    check_type(spec, FamilySpec, "spec")
    if p.ground_set() != frozenset(range(1, spec.n + 1)):
        raise DomainError(f"ground set is not [{spec.n}]")
    _, member = _FAMILIES[spec.tag]
    return member(p.cycle_lengths(), spec)


# -- enumeration -------------------------------------------------------------

# enumerate_family fixes the first n - _TAIL positions of the one-line form (a
# prefix) and classifies all _TAIL! completions of a prefix at once: S_9 has
# 504 prefixes.  A new signature costs m reductions, not m! walks, so a long
# tail is cheap; on the verify-grid benchmark 6 beat 5, and 7 scans S_9 no
# faster from cold.
_TAIL = 6

# The largest n that enumerate_family scans, whatever its bound: a key id is
# one byte, and S_13 has 272 keys (S_12 has 195).  S_13 is 6.2e9 permutations.
# A scan of S_10, the default bound, leaves 11,419 chunks and 97 keys in the
# memo, about 3.1 MB; a scan of S_11 builds 32,052 chunks (11 MB) and S_12
# 88,301 (38 MB), which are dropped when the scan ends.
_MAX_N = 12

# n -> (memo, key -> key id).  memo[m] maps the signature of each prefix with
# m open positions met so far (see _reduce) to its chunk: the key ids of its
# m! completions in lexicographic order, so memo[0] maps each whole
# permutation's signature to its one key id.  Kept for the life of the
# process for n <= DEFAULT_ENUMERATION_BOUND, and for a larger n only until a
# scan of it ends or is closed; after a scan of S_9 it holds 67, 165, 424,
# 922, 1,292, 897 and 316 chunks for m = 0..6 and 67 keys, never n! entries.
_COMPLETIONS: dict[int, tuple[list[dict[bytes, bytes]], dict[tuple, int]]] = {}


def _reduce(sig: bytes, m: int, c: int) -> bytes:
    """The signature of the prefix one longer than one of signature ``sig``
    that sends the first open position to head c.  A signature contracts the
    partial map i -> prefix[i-1] of [n] to its m open paths, each from a head
    (a value nothing maps to yet; path i starts at the i-th smallest) to a
    tail (a position past the prefix), and its closed cycles.  It holds each
    path's tail index, each path's length, where 1 lies (its path's index, or
    m + the length of its closed cycle) and the sorted closed lengths.  A
    prefix's signature is the chain of reductions from the empty prefix's,
    ``bytes([*range(n), *[1] * n, 0])``: n paths, 1 on the first.

    The first open position is the tail of some path p: p == c closes p into
    a cycle, any other c joins p to path c, which then starts at p's head and
    ends at c's tail.  Every tail moves down one position, the paths after c
    move down one index, and so does 1's entry when it names one of them or a
    closed cycle (m + its length)."""
    tails = [t - 1 for t in sig[:m]]
    lengths = list(sig[m:2 * m])
    one = sig[2 * m]
    closed = list(sig[2 * m + 1:])
    p = tails.index(-1)
    if p == c:
        bisect.insort(closed, lengths[p])
        if one == p:
            one = m + lengths[p]
    else:
        tails[p] = tails[c]
        lengths[p] += lengths[c]
        if one == c:
            one = p
    del tails[c], lengths[c]
    if one > c:
        one -= 1
    return bytes([*tails, *lengths, one, *closed])


def _completions(
    sig: bytes, m: int, memo: list[dict[bytes, bytes]], key_ids: dict[tuple, int]
) -> bytes:
    """The key ids of the m! completions of a prefix with signature ``sig``,
    in lexicographic order, memoized in ``memo[m]``.  The completions that
    send the first open position to head c come c-th, as the completions of
    ``_reduce(sig, m, c)``; at m = 0 the chunk is the one key id of the
    permutation, adding its key to ``key_ids``.  A key is (length of the
    cycle of 1, the other lengths sorted), or () for n = 0."""
    chunk = memo[m].get(sig)
    if chunk is None:
        if m:
            chunk = b"".join([
                _completions(_reduce(sig, m, c), m - 1, memo, key_ids) for c in range(m)
            ])
        else:
            first, lengths = sig[0], list(sig[1:])
            key = ()
            if first:  # n >= 1: the cycle of 1 is one of the closed lengths
                lengths.remove(first)
                key = (first, *lengths)
            chunk = bytes((key_ids.setdefault(key, len(key_ids)),))
        memo[m][sig] = chunk
    return chunk


def _prefixes(prefix: tuple, heads: list[int], sig: bytes, m: int) -> Iterator[tuple]:
    """Each extension of ``prefix`` (unused values ``heads``, signature
    ``sig``) with m positions open, in lexicographic order, with its heads
    and signature: the first open position goes to each head c in turn."""
    if len(heads) == m:
        yield prefix, heads, sig
    else:
        for c, head in enumerate(heads):
            rest = heads[:c] + heads[c + 1:]
            yield from _prefixes(prefix + (head,), rest, _reduce(sig, len(heads), c), m)


def _scan(spec: FamilySpec, bound: int) -> Iterator[tuple]:
    """The scan under ``enumerate_family`` and ``_member_keys``: ``(prefix,
    heads, chunk, mask, keys)`` for each prefix with a member, in
    lexicographic order; ``mask`` marks the members among the chunk's
    completions, ``keys[i]`` is the key of key id i.

    Every prefix (the first n - m images, m = min(n, _TAIL)) is reached by
    a depth-first walk from the empty one (``_prefixes``), its signature the
    chain of reductions from the empty prefix's; the m! completions of each
    signature are classified once per process (see _completions; above the
    default bound, once per scan); the membership test then runs once per
    key."""
    check_type(spec, FamilySpec, "spec")
    check_int(bound, "bound", 0)
    if spec.n > bound:
        raise EnumerationBoundError(f"n={spec.n} exceeds the enumeration bound {bound}")
    if spec.n > _MAX_N:
        raise EnumerationBoundError(f"n={spec.n} exceeds {_MAX_N}, the largest n enumerated")
    _, member = _FAMILIES[spec.tag]
    n = spec.n
    m = min(n, _TAIL)
    memo, key_ids = _COMPLETIONS.setdefault(n, ([{} for _ in range(m + 1)], {}))
    verdicts = bytearray(256)  # key id -> 1 for a member
    keys: list[tuple] = []  # the first len(keys) key ids have their key and verdict
    root = bytes([*range(n), *[1] * n, 0])  # the empty prefix: n paths, 1 on the first
    try:
        # a prefix holds an unused 0 first, so prefix + tail maps i to its image
        for prefix, heads, sig in _prefixes((0,), list(range(1, n + 1)), root, m):
            chunk = _completions(sig, m, memo, key_ids)
            if len(keys) < len(key_ids):
                for key in itertools.islice(key_ids, len(keys), None):
                    verdicts[key_ids[key]] = 1 if member(key, spec) else 0
                    keys.append(key)
            mask = chunk.translate(verdicts)
            if 1 in mask:
                yield prefix, heads, chunk, mask, keys
    finally:
        if n > DEFAULT_ENUMERATION_BOUND:
            _COMPLETIONS.pop(n, None)


def enumerate_family(
    spec: FamilySpec, bound: int = DEFAULT_ENUMERATION_BOUND
) -> Iterator[Permutation]:
    """Yield each member of the family exactly once, in lexicographic order
    of one-line notation.  Refuses n beyond ``bound`` or beyond 12.  Only
    members get cycles, from one walk of their images (``_walk_cycles``)."""
    for prefix, heads, _, mask, _ in _scan(spec, bound):
        elements = range(1, len(prefix) + len(heads))  # the prefix holds 0 too
        for tail in itertools.compress(itertools.permutations(heads), mask):
            yield Permutation._from_canonical(_walk_cycles(elements, prefix + tail))


def _member_keys(spec: FamilySpec, bound: int = DEFAULT_ENUMERATION_BOUND) -> Iterator[tuple]:
    """The key (length of the cycle of 1, the other lengths sorted; () for
    n = 0) of each member of ``enumerate_family(spec, bound)``, in the same
    order, read from the chunks: no cycle walk and no ``Permutation``."""
    for _, _, chunk, mask, keys in _scan(spec, bound):
        yield from map(keys.__getitem__, itertools.compress(chunk, mask))


def enumerate_regular_on(elements, r: int) -> Iterator[Permutation]:
    """r-regular permutations of an arbitrary ground set, by order-preserving
    relabeling of the enumeration over [n].  The labels must be distinct
    positive integers."""
    elems = Permutation((e,) for e in elements).elements()
    for p in enumerate_family(FamilySpec.regular(r, len(elems))):
        yield p._relabel_increasing(elems)


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


def enumerate_enriched_nearly_regular(r: int, n: int) -> Iterator[EnrichedPermutation]:
    for base in enumerate_family(FamilySpec.nearly_regular(r, n)):
        yield from _colorings(base, r)
