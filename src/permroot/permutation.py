"""Permutations of finite sets of positive integers, in cycle notation.

A permutation is stored canonically: every cycle is written starting at its
smallest element and cycles are listed in increasing order of their minima.
The empty permutation (empty ground set) is a valid value.  Values are
immutable and safe to share across threads.

An enriched permutation additionally carries, for a fixed modulus ``r >= 2``,
a color in ``1..r-1`` on every cycle whose length is divisible by ``r``
(a *singular* cycle); cycles of non-divisible length (*regular* cycles) are
never colored.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain, repeat
from operator import itemgetter

from .errors import CycleNotationError, DomainError, InvalidPermutationError, check_int, check_type

Cycle = tuple[int, ...]

# one cycle and its optional color; re.split hands out gap, body, color triples
_CYCLE_RE = re.compile(r"\(([\d\s]*)\)(?:_(\d+))?")


def _canonical_cycles(cycles: Iterable[Iterable[int]]) -> list[Cycle]:
    """Validate disjointness and rotate each cycle to its minimum, keeping
    input order; sorting by first entries then gives the canonical order.

    The checks run on all entries at once; only when one fails does the
    per-element loop run, to name the first bad element in input order."""
    out = [tuple(raw) for raw in cycles]
    entries = list(chain.from_iterable(out))
    if not (
        all(out)
        and set(map(type, entries)) <= {int}
        and min(entries, default=1) >= 1
        and len(set(entries)) == len(entries)
    ):
        seen: set[int] = set()
        for cyc in out:
            if not cyc:
                raise InvalidPermutationError("empty cycle")
            for e in cyc:
                if not isinstance(e, int) or isinstance(e, bool) or e < 1:
                    raise InvalidPermutationError(
                        f"cycle entries must be positive integers, got {e!r}"
                    )
                if e in seen:
                    raise InvalidPermutationError(f"element {e} appears in more than one position")
                seen.add(e)
    return _rotated(out)


def _rotated(cycles: list[Cycle]) -> list[Cycle]:
    """Each cycle rotated to start at its minimum."""
    pivots = list(map(tuple.index, cycles, map(min, cycles)))
    return [c[i:] + c[:i] for c, i in zip(cycles, pivots)] if any(pivots) else cycles


def _bodies(cycles: Iterable[Cycle]) -> Iterable[str]:
    """The entries of each cycle, space-separated."""
    return map(" ".join, map(map, repeat(str), cycles))


class Permutation:
    """An immutable permutation of an arbitrary finite set of positive integers."""

    __slots__ = ("_cycles",)

    def __init__(self, cycles: Iterable[Iterable[int]] = ()):
        self._cycles = tuple(sorted(_canonical_cycles(cycles), key=itemgetter(0)))

    @classmethod
    def _from_canonical(cls, cycles: tuple[Cycle, ...]) -> "Permutation":
        # trusted constructor: cycles must already be canonical and disjoint
        p = object.__new__(cls)
        p._cycles = cycles
        return p

    @classmethod
    def identity(cls, elements: Iterable[int]) -> "Permutation":
        elems = list(elements)
        for e in elems:  # before set(), which would merge True into 1
            check_int(e, "ground-set element", 1)
        return cls._from_canonical(tuple((e,) for e in sorted(set(elems))))

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, int]) -> "Permutation":
        """Build from an element -> image mapping (must be a bijection of its key set)."""
        keys = set(mapping)
        if set(mapping.values()) != keys:
            raise InvalidPermutationError("mapping is not a bijection of its key set")
        return cls._from_canonical(_walk_cycles(sorted(keys), mapping))

    @classmethod
    def from_one_line(cls, elements: Iterable[int], images: Iterable[int]) -> "Permutation":
        """Build from the images of ``sorted(elements)`` in order."""
        elems = sorted(set(elements))
        imgs = list(images)
        if len(imgs) != len(elems):
            raise InvalidPermutationError("one-line image list has the wrong length")
        return cls.from_mapping(dict(zip(elems, imgs)))

    # -- structure ---------------------------------------------------------

    @property
    def cycles(self) -> tuple[Cycle, ...]:
        return self._cycles

    @property
    def size(self) -> int:
        return sum(map(len, self._cycles))

    def elements(self) -> tuple[int, ...]:
        """Ground set as a sorted tuple."""
        return tuple(sorted(e for c in self._cycles for e in c))

    def ground_set(self) -> frozenset[int]:
        return frozenset(e for c in self._cycles for e in c)

    def mapping(self) -> dict[int, int]:
        m: dict[int, int] = {}
        for c in self._cycles:
            n = len(c)
            for i, e in enumerate(c):
                m[e] = c[(i + 1) % n]
        return m

    def apply(self, x: int) -> int:
        for c in self._cycles:
            if x in c:
                return c[(c.index(x) + 1) % len(c)]
        raise DomainError(f"element {x} is not in the ground set")

    def one_line(self) -> tuple[int, ...]:
        m = self.mapping()
        return tuple(m[e] for e in self.elements())

    def cycle_lengths(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self._cycles)

    def cycle_containing(self, x: int) -> Cycle:
        for c in self._cycles:
            if x in c:
                return c
        raise DomainError(f"element {x} is not in the ground set")

    def cycle_type(self) -> "CycleType":
        return CycleType.of_lengths(self.cycle_lengths())

    # -- operations ---------------------------------------------------------

    def power(self, e: int) -> "Permutation":
        """The e-th compositional power, e >= 0; power(0) is the identity."""
        check_int(e, "exponent", 0)
        m: dict[int, int] = {}
        for c in self._cycles:
            n = len(c)
            for i, x in enumerate(c):
                m[x] = c[(i + e) % n]
        return Permutation._from_canonical(_walk_cycles(self.elements(), m))

    def compose(self, other: "Permutation") -> "Permutation":
        """(self . other)(x) = self(other(x)); both must share a ground set."""
        check_type(other, Permutation, "other")
        if self.ground_set() != other.ground_set():
            raise DomainError("compose requires equal ground sets")
        sm, om = self.mapping(), other.mapping()
        return Permutation._from_canonical(
            _walk_cycles(self.elements(), {x: sm[om[x]] for x in om})
        )

    def split_parts(self, q: int) -> tuple["Permutation", "Permutation"]:
        """Split into the q-regular part (cycle lengths not divisible by q)
        and the q-singular part (lengths divisible by q)."""
        check_int(q, "modulus", 2)
        regular = tuple(c for c in self._cycles if len(c) % q != 0)
        singular = tuple(c for c in self._cycles if len(c) % q == 0)
        return Permutation._from_canonical(regular), Permutation._from_canonical(singular)

    def relabel(self, mapping: Mapping[int, int]) -> "Permutation":
        """Rename every element through ``mapping`` (an injection on the ground set)."""
        return Permutation(tuple(mapping[e] for e in c) for c in self._cycles)

    def _relabel_increasing(self, labels: Sequence[int]) -> "Permutation":
        """Trusted ``relabel`` of a permutation of [n] by i -> labels[i - 1],
        for increasing positive ``labels``: an increasing relabeling keeps
        every cycle's minimum first and the order of the minima, so the
        canonical form carries over."""
        label = (0, *labels).__getitem__
        return Permutation._from_canonical(tuple(tuple(map(label, c)) for c in self._cycles))

    # -- protocol -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._cycles == other._cycles

    def __hash__(self) -> int:
        return hash(self._cycles)

    def __str__(self) -> str:
        return "(" + ") (".join(_bodies(self._cycles)) + ")" if self._cycles else ""

    def __repr__(self) -> str:
        return f"Permutation({str(self)!r})"

    def to_json_dict(self) -> dict:
        return {"cycles": [list(c) for c in self._cycles]}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Permutation":
        cycles = data.get("cycles", []) if isinstance(data, Mapping) else None
        if not isinstance(cycles, list) or not all(isinstance(c, list) for c in cycles):
            raise InvalidPermutationError("expected a JSON object with 'cycles' a list of lists")
        return cls(cycles)


def _walk_cycles(elements_sorted, mapping) -> tuple[Cycle, ...]:
    """Decompose a mapping into cycles; walking minima in increasing order
    yields the canonical form directly."""
    seen: set[int] = set()
    out: list[Cycle] = []
    for s in elements_sorted:
        if s in seen:
            continue
        cyc = [s]
        seen.add(s)
        t = mapping[s]
        while t != s:
            cyc.append(t)
            seen.add(t)
            t = mapping[t]
        out.append(tuple(cyc))
    return tuple(out)


class EnrichedPermutation:
    """A permutation with a color in ``1..r-1`` on each r-singular cycle."""

    __slots__ = ("_base", "_r", "_color_seq")

    def __init__(self, base: Permutation, r: int, colors: Sequence):
        """``colors`` is a sequence aligned with ``base.cycles``, None on
        regular cycles; ``from_json_dict`` reads the {index: color} form."""
        if not isinstance(r, int) or r < 2:
            raise InvalidPermutationError(f"enrichment modulus must be an integer >= 2, got {r!r}")
        check_type(base, Permutation, "base")
        cycles = base.cycles
        if not isinstance(colors, Sequence) or len(colors) != len(cycles):
            raise InvalidPermutationError("colors must be a sequence aligned with the cycles")
        for cyc, col in zip(cycles, colors):
            if len(cyc) % r == 0:
                if col is None:
                    raise InvalidPermutationError(
                        f"singular cycle {cyc} (length {len(cyc)}, r={r}) must carry a color"
                    )
                if not isinstance(col, int) or isinstance(col, bool) or not 1 <= col <= r - 1:
                    raise InvalidPermutationError(f"color {col!r} out of range 1..{r - 1}")
            elif col is not None:
                raise InvalidPermutationError(f"regular cycle {cyc} must not carry a color")
        self._base = base
        self._r = r
        self._color_seq = tuple(colors)

    @classmethod
    def _from_canonical(cls, base: Permutation, r: int, colors: tuple) -> "EnrichedPermutation":
        # trusted constructor: colors must already be valid for base and r
        e = object.__new__(cls)
        e._base, e._r, e._color_seq = base, r, colors
        return e

    @classmethod
    def from_plain(cls, base: Permutation) -> "EnrichedPermutation":
        """The r = 2 isomorphism: every 2-singular (even) cycle gets the only color, 1."""
        return cls(base, 2, tuple(1 if len(c) % 2 == 0 else None for c in base.cycles))

    @property
    def base(self) -> Permutation:
        return self._base

    @property
    def r(self) -> int:
        return self._r

    @property
    def color_seq(self) -> tuple:
        return self._color_seq

    def colors(self) -> dict[int, int]:
        return {i: c for i, c in enumerate(self._color_seq) if c is not None}

    def to_plain(self) -> Permutation:
        return self._base

    @property
    def size(self) -> int:
        return self._base.size

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EnrichedPermutation)
            and self._r == other._r
            and self._base == other._base
            and self._color_seq == other._color_seq
        )

    def __hash__(self) -> int:
        return hash((self._base, self._r, self._color_seq))

    def __str__(self) -> str:
        suffix = {c: "" if c is None else f"_{c}" for c in set(self._color_seq)}
        return " ".join(map("({}){}".format, _bodies(self._base.cycles),
                            map(suffix.__getitem__, self._color_seq)))

    def __repr__(self) -> str:
        return f"EnrichedPermutation({str(self)!r}, r={self._r})"

    def to_json_dict(self) -> dict:
        return {
            "cycles": [list(c) for c in self._base.cycles],
            "colors": {str(i): c for i, c in self.colors().items()},
            "r": self._r,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "EnrichedPermutation":
        base = Permutation.from_json_dict(data)
        colors = data.get("colors", {})
        keys = [str(i) for i in range(len(base.cycles))]
        if "r" not in data or not isinstance(colors, Mapping) or not set(colors) <= set(keys):
            raise InvalidPermutationError("expected 'r' and colors keyed by cycle index strings")
        return cls(base, data["r"], [colors.get(key) for key in keys])


class CycleType:
    """A multiset of cycle lengths, e.g. 1^1 2^2 4^2; the empty type is allowed."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs: Iterable[tuple[int, int]] = ()):
        merged: dict[int, int] = {}
        for length, count in pairs:
            check_int(length, "cycle length", 1)
            check_int(count, "multiplicity", 1)
            merged[length] = merged.get(length, 0) + count
        self._pairs = tuple(sorted(merged.items()))

    @classmethod
    def of_lengths(cls, lengths: Iterable[int]) -> "CycleType":
        counts: dict[int, int] = {}
        for length in lengths:
            counts[length] = counts.get(length, 0) + 1
        return cls(counts.items())

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return self._pairs

    @property
    def total(self) -> int:
        return sum(length * count for length, count in self._pairs)

    def count_of(self, length: int) -> int:
        for ln, ct in self._pairs:
            if ln == length:
                return ct
        return 0

    def lengths(self) -> tuple[int, ...]:
        return tuple(length for length, _ in self._pairs)

    def expand(self) -> tuple[int, ...]:
        """All lengths with multiplicity, sorted."""
        return tuple(ln for ln, ct in self._pairs for _ in range(ct))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CycleType) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __str__(self) -> str:
        return " ".join(f"{ln}^{ct}" for ln, ct in self._pairs)

    def __repr__(self) -> str:
        return f"CycleType({str(self)!r})" if self._pairs else "CycleType()"


def parse_cycle_type(text: str) -> CycleType:
    """Parse "1^2,4^2" or "1^2 4^2" (bare "4" means 4^1); "" is the empty type."""
    check_type(text, str, "text")
    text = text.strip()
    if not text:
        return CycleType()
    pairs = []
    for token in re.split(r"[,\s]+", text):
        m = re.fullmatch(r"(\d+)(?:\^(\d+))?", token)
        if m is None:
            raise CycleNotationError(f"bad cycle-type token {token!r}")
        try:
            pairs.append((int(m.group(1)), int(m.group(2) or 1)))
        except ValueError:
            raise _digit_limit_error("a cycle-type token") from None
    lengths = [ln for ln, _ in pairs]
    if len(set(lengths)) != len(lengths):
        raise CycleNotationError("cycle type lists a length twice")
    return CycleType(pairs)


def parse(text: str, r: int | None = None) -> Permutation | EnrichedPermutation:
    """Parse cycle notation; with ``r`` given the result is enriched and every
    r-singular cycle must carry a ``_color`` subscript.

    Grammar: cycles like "(1 2 4)" optionally subscripted "_2", separated by
    whitespace; the empty string is the empty permutation.  The checks run on
    the whole text at once; only when one fails does a walk name the first
    bad token in text order.
    """
    check_type(text, str, "text")
    parts = _CYCLE_RE.split(text)
    stray, colors = "".join(parts[::3]).strip(), parts[2::3]
    try:
        cycles = list(map(tuple, map(map, repeat(int), map(str.split, parts[1::3]))))
    except ValueError:  # only the digit limit: a body holds digits and spaces
        cycles = [()]  # fails the check below, whose walk names the entry
    del parts  # frees the body texts before the entry set is built: a lower peak
    entries = set(chain.from_iterable(cycles))
    if stray or not all(cycles) or 0 in entries:
        pos = 0
        for m in _CYCLE_RE.finditer(text):
            if not m[1].strip():  # a cycle without entries is stray text
                continue
            if text[pos:m.start()].strip():
                raise CycleNotationError(f"unexpected text {text[pos:m.start()]!r}")
            pos = m.end()
            try:
                cyc = tuple(map(int, m[1].split()))
            except ValueError:
                raise _digit_limit_error("a cycle entry") from None
            if 0 in cyc:  # \d gives entries >= 0
                raise CycleNotationError("cycle entries must be positive integers")
        raise CycleNotationError(f"unexpected trailing text {text[pos:]!r}")
    if r is None and any(colors):
        raise CycleNotationError("color subscripts require an enrichment modulus r")
    if len(entries) != sum(map(len, cycles)):
        _canonical_cycles(cycles)  # raises, naming the first repeated element
    rotated = _rotated(cycles)
    if r is None:
        return Permutation._from_canonical(tuple(sorted(rotated, key=itemgetter(0))))
    # the minima are distinct, so sorting the pairs carries each color with its cycle
    pairs = sorted(zip(rotated, colors))
    try:
        ordered_colors = tuple(None if col is None else int(col) for _, col in pairs)
    except ValueError:
        raise _digit_limit_error("a color") from None
    base = Permutation._from_canonical(tuple(map(itemgetter(0), pairs)))
    return EnrichedPermutation(base, r, ordered_colors)


def _digit_limit_error(what: str) -> CycleNotationError:
    """For a run of digits that ``int`` refuses: longer than Python's int/str
    conversion limit, which the library leaves as the process has it."""
    return CycleNotationError(
        f"{what} has more than {sys.get_int_max_str_digits()} digits, Python's "
        "int/str conversion limit (sys.set_int_max_str_digits)"
    )
