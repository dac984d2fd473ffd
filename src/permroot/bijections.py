"""Constructive bijections on cycle structures.

The maps here convert between r-regular permutations and enriched r-cycle
permutations through a chain of smaller bijections:

* ``extract_element`` / ``insert_element`` — remove one distinguished element
  from an r-regular permutation, or put it back as the last entry of the
  first cycle; by cycle lengths modulo r, one step may set off a chain of
  insertions and extractions further down.
* ``extend_regular`` — the size n -> n+1 bijection
  Reg_r(n) x [n+1] -> Reg_r(n+1) built on insertion.
* ``grow_first_cycle`` / ``shrink_first_cycle`` — lengthen or shorten the
  cycle containing the minimum by one element while keeping every other
  cycle r-regular.
* ``to_nearly_regular`` / ``from_nearly_regular`` — grow the first cycle to
  the next multiple of r and color it with the starting residue, which makes
  the step reversible.
* ``to_enriched_cycles`` / ``from_enriched_cycles`` — iterate the previous
  map, peeling one colored singular cycle per round, until the whole
  permutation consists of colored singular cycles.

"First cycle" always means the cycle containing the ground-set minimum,
which is the first cycle in canonical order.  Every map runs one loop over
a stack of cycles (first cycle on top), so none recurses.  All functions are
pure; all inputs are validated and violations raise ``DomainError``.

Each public map is its checks, one core on canonical cycle tuples
(``_extract``, ``_insert``, ``_grow_first``, ``_shrink_first``, ``_merge``)
and the construction of its result; verification calls the cores directly
on inputs that lie in the domain by construction.  Results are built with
the trusted constructors ``Permutation._from_canonical`` and
``EnrichedPermutation._from_canonical``: a core's cycles are canonical, and
the colors of ``to_nearly_regular`` and ``to_enriched_cycles`` are residues
in 1..r-1 on exactly the singular cycles, so nothing is checked twice.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import DomainError, InvalidPermutationError, check_int, check_type
from .families import _regular
from .permutation import Cycle, EnrichedPermutation, Permutation


class DeltaOutput(NamedTuple):
    """Result of extracting a distinguished element: the element and an
    r-regular permutation of the remaining ground set."""

    distinguished: int
    rest: Permutation


class ColoredFirstCycle(NamedTuple):
    """A singular cycle containing its ground-set minimum, with the color
    recording the residue the first cycle had before it was grown."""

    cycle: Cycle
    color: int


# -- the extract/insert loop --------------------------------------------------

def _chain(stack: list[Cycle], r: int, x: int | None = None) -> None:
    """Extract the last entry of the top cycle (x is None), or insert x on
    top, following the extract -> insert -> extract chain; the cycles it
    touches are set aside and pushed back at the end."""
    aside: list[Cycle] = []
    while True:
        if x is None:
            cycle = stack.pop()
            if len(cycle) == 1:
                break
            if len(cycle) % r != 1:
                stack.append(cycle[:-1])
                break
            aside.append(cycle[:-2])
            x = cycle[-2]
        elif not stack or x < stack[-1][0]:
            stack.append((x,))
            break
        else:
            cycle = stack.pop()
            if len(cycle) % r != r - 1:
                stack.append(cycle + (x,))
                break
            # append the entry that the next extraction takes, then x
            aside.append(cycle + (stack[-1][-1], x))
            x = None
    if aside:
        aside.reverse()
        stack += aside


def _grow(stack: list[Cycle], r: int, steps: int) -> None:
    """Append ``steps`` entries extracted from the rest to the top cycle."""
    first = stack.pop()
    for _ in range(steps):
        first += (stack[-1][-1],)
        _chain(stack, r)
    stack.append(first)


def _shrink(stack: list[Cycle], r: int, steps: int) -> None:
    """Undo ``_grow``: insert the top cycle's last ``steps`` entries below."""
    first = stack.pop()
    for x in first[:-steps - 1:-1]:
        _chain(stack, r, x)
    stack.append(first[:-steps])


def _run(cycles: tuple[Cycle, ...], step, r: int, arg) -> tuple[Cycle, ...]:
    """Run ``step(stack, r, arg)`` on a stack of ``cycles``."""
    stack = list(cycles)
    stack.reverse()
    step(stack, r, arg)
    stack.reverse()
    return tuple(stack)


# -- the map cores: canonical cycle tuples in and out, no checks -------------

def _extract(cycles: tuple[Cycle, ...], r: int) -> tuple[int, tuple[Cycle, ...]]:
    return cycles[0][-1], _run(cycles, _chain, r, None)


def _insert(x: int, cycles: tuple[Cycle, ...], r: int) -> tuple[Cycle, ...]:
    return _run(cycles, _chain, r, x)


def _grow_first(cycles: tuple[Cycle, ...], r: int) -> tuple[Cycle, ...]:
    return _run(cycles, _grow, r, 1)


def _shrink_first(cycles: tuple[Cycle, ...], r: int) -> tuple[Cycle, ...]:
    return _run(cycles, _shrink, r, 1)


def _merge(cycles: Sequence[Cycle], break_points: Sequence[int]) -> Cycle:
    """The first cycle from its minimum, then each later cycle opened at its
    break point, rotated to the minimum of the whole."""
    head = cycles[0]
    i = head.index(min(head))
    merged = head[i:] + head[:i]
    for cyc, bp in zip(cycles[1:], break_points):
        j = cyc.index(bp)
        merged += cyc[j:] + cyc[:j]
    i = merged.index(min(merged))
    return merged[i:] + merged[:i]


def _require_regular(sigma: Permutation, r: int) -> None:
    if not _regular(map(len, sigma.cycles), r):
        raise DomainError(f"{sigma} is not {r}-regular")


def extract_element(sigma: Permutation, r: int) -> DeltaOutput:
    """Split an r-regular permutation of S (|S| not a multiple of r) into a
    distinguished element x and an r-regular permutation of S minus x."""
    check_type(sigma, Permutation, "sigma")
    check_int(r, "r", 2)
    if sigma.size % r == 0:  # also rejects the empty permutation
        raise DomainError(f"ground-set size {sigma.size} is a multiple of r={r}")
    _require_regular(sigma, r)
    x, rest = _extract(sigma.cycles, r)
    return DeltaOutput(x, Permutation._from_canonical(rest))


def insert_element(x: int, pi: Permutation, r: int) -> Permutation:
    """Inverse of ``extract_element``: place x as the last entry of the first
    cycle of the result.  Requires |pi| + 1 not a multiple of r."""
    check_type(pi, Permutation, "pi")
    check_int(r, "r", 2)
    check_int(x, "distinguished element", 1)
    if x in pi.ground_set():
        raise DomainError(f"element {x} already occurs in {pi}")
    if (pi.size + 1) % r == 0:
        raise DomainError(f"resulting size {pi.size + 1} would be a multiple of r={r}")
    _require_regular(pi, r)
    return Permutation._from_canonical(_insert(x, pi.cycles, r))


def extend_regular(sigma: Permutation, j: int, r: int) -> Permutation:
    """The bijection Reg_r(n) x [n+1] -> Reg_r(n+1) (n+1 not a multiple of r):
    relabel [n+1] minus j order-preservingly onto [n], undone by insertion."""
    check_type(sigma, Permutation, "sigma")
    check_int(r, "r", 2)
    n = sigma.size
    if sigma.ground_set() != frozenset(range(1, n + 1)):
        raise DomainError(f"ground set is not [{n}]")
    if (n + 1) % r == 0:
        raise DomainError(f"n+1={n + 1} is a multiple of r={r}")
    check_int(j, "j", 1, n + 1)
    _require_regular(sigma, r)
    relabeled = sigma._relabel_increasing([e for e in range(1, n + 2) if e != j])
    return Permutation._from_canonical(_insert(j, relabeled.cycles, r))


# -- first-cycle growth -------------------------------------------------------

def grow_first_cycle(sigma: Permutation, r: int) -> Permutation:
    """Move one element from the r-regular remainder to the end of the cycle
    containing the minimum (first-cycle length k -> k+1).  Requires that
    n - k is not a multiple of r."""
    check_type(sigma, Permutation, "sigma")
    check_int(r, "r", 2)
    if not sigma.cycles:
        raise DomainError("cannot grow the empty permutation")
    k = len(sigma.cycles[0])
    if (sigma.size - k) % r == 0:
        raise DomainError(f"n-k={sigma.size - k} is a multiple of r={r}")
    if not _regular(map(len, sigma.cycles[1:]), r):
        raise DomainError("cycles beyond the first must be r-regular")
    return Permutation._from_canonical(_grow_first(sigma.cycles, r))


def shrink_first_cycle(pi: Permutation, r: int) -> Permutation:
    """Inverse of ``grow_first_cycle``: drop the last entry of the first
    cycle and re-insert it into the remainder."""
    check_type(pi, Permutation, "pi")
    check_int(r, "r", 2)
    if not pi.cycles:
        raise DomainError("cannot shrink the empty permutation")
    length = len(pi.cycles[0])
    if length < 2:
        raise DomainError("first cycle has no entry to remove")
    if (pi.size - length + 1) % r == 0:
        raise DomainError(f"n-k={pi.size - length + 1} is a multiple of r={r}")
    if not _regular(map(len, pi.cycles[1:]), r):
        raise DomainError("cycles beyond the first must be r-regular")
    return Permutation._from_canonical(_shrink_first(pi.cycles, r))


# -- regular <-> nearly regular <-> enriched cycle permutations ---------------

def to_nearly_regular(sigma: Permutation, r: int) -> EnrichedPermutation:
    """Grow the first cycle of an r-regular permutation of a set of size rn
    to length r(k+1) and color it with the residue i it started from."""
    check_type(sigma, Permutation, "sigma")
    check_int(r, "r", 2)
    if not sigma.cycles:
        raise DomainError("the empty permutation has no first cycle to grow")
    if sigma.size % r != 0:
        raise DomainError(f"ground-set size {sigma.size} is not a multiple of r={r}")
    _require_regular(sigma, r)
    color = len(sigma.cycles[0]) % r
    base = Permutation._from_canonical(_run(sigma.cycles, _grow, r, r - color))
    return EnrichedPermutation._from_canonical(base, r, (color,) + (None,) * (len(base.cycles) - 1))


def _require_nearly_regular(tau: EnrichedPermutation) -> int:
    check_type(tau, EnrichedPermutation, "tau")
    seq = tau.color_seq
    if not seq or seq[0] is None or any(c is not None for c in seq[1:]):
        raise DomainError(
            "expected a nearly regular enrichment: exactly the first cycle colored"
        )
    return seq[0]


def from_nearly_regular(tau: EnrichedPermutation) -> Permutation:
    """Inverse of ``to_nearly_regular``: shrink the colored first cycle back
    to its recorded residue."""
    color = _require_nearly_regular(tau)
    if tau.base.size % tau.r != 0:
        raise DomainError(f"ground-set size {tau.base.size} is not a multiple of r={tau.r}")
    cycles = _run(tau.base.cycles, _shrink, tau.r, tau.r - color)
    return Permutation._from_canonical(cycles)


def split_nearly_regular(tau: EnrichedPermutation) -> tuple[ColoredFirstCycle, Permutation]:
    """Split a nearly regular enrichment into its colored first cycle and the
    r-regular permutation of the remaining elements."""
    color = _require_nearly_regular(tau)
    cycles = tau.base.cycles
    return ColoredFirstCycle(cycles[0], color), Permutation._from_canonical(cycles[1:])


def to_enriched_cycles(sigma: Permutation, r: int) -> EnrichedPermutation:
    """Decompose an r-regular permutation of a set of size rn into colored
    singular cycles by repeatedly growing-and-peeling the first cycle.  The
    cycle containing the minimum has length r(k+1) when the input first
    cycle had length rk+i, and carries color i."""
    check_type(sigma, Permutation, "sigma")
    check_int(r, "r", 2)
    if sigma.size % r != 0:
        raise DomainError(f"ground-set size {sigma.size} is not a multiple of r={r}")
    _require_regular(sigma, r)
    stack = list(reversed(sigma.cycles))
    cycles, colors = [], []
    while stack:
        colors.append(len(stack[-1]) % r)
        _grow(stack, r, r - colors[-1])
        cycles.append(stack.pop())
    # peel order equals increasing-minima order, so this is already canonical
    base = Permutation._from_canonical(tuple(cycles))
    return EnrichedPermutation._from_canonical(base, r, tuple(colors))


def from_enriched_cycles(tau: EnrichedPermutation) -> Permutation:
    """Inverse of ``to_enriched_cycles``: rebuild innermost-first, shrinking
    each colored cycle back into the regular permutation recovered so far."""
    check_type(tau, EnrichedPermutation, "tau")
    if any(c is None for c in tau.color_seq):
        raise DomainError("every cycle must be singular and colored")
    r = tau.r
    stack: list[Cycle] = []
    for cyc, color in reversed(list(zip(tau.base.cycles, tau.color_seq))):
        stack.append(cyc)
        _shrink(stack, r, r - color)
    return Permutation._from_canonical(tuple(reversed(stack)))


# -- merging a class of equal-length cycles -----------------------------------

def merge_cycle_class(
    cycles: Sequence[Sequence[int]], break_points: Sequence[int]
) -> Cycle:
    """Merge disjoint equal-length cycles into one long cycle: the first cycle
    is written from its minimum and each later cycle is broken open at its
    break point and appended.  Distinct break-point vectors give distinct
    cycles."""
    cycs = [tuple(c) for c in cycles]
    if len(cycs) < 2:
        raise DomainError("need at least two cycles to merge")
    length = len(cycs[0])
    if length < 1 or any(len(c) != length for c in cycs):
        raise DomainError("cycles must all have the same positive length")
    flat = [e for c in cycs for e in c]
    for e in flat:
        check_int(e, "cycle entry", 1)
    if len(set(flat)) != len(flat):
        raise InvalidPermutationError("cycles are not disjoint")
    if len(break_points) != len(cycs) - 1:
        raise DomainError(
            f"expected {len(cycs) - 1} break points, got {len(break_points)}"
        )
    for cyc, bp in zip(cycs[1:], break_points):
        if bp not in cyc:
            raise DomainError(f"break point {bp} is not in cycle {cyc}")
    return _merge(cycs, break_points)
