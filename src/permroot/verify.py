"""Named, rerunnable verification suites.

Each property is declared once, with ``@prop``: its suite, its id and the
fields of its instance range, each with the flat bounds key that overrides
it.  Its check is a generator whose parameters are those fields: it yields
once per instance it checks, and ``report.run_property`` counts the yields.
A suite is the properties declared under its name, and running suites is
one map over those properties, one :class:`VerificationReport` per instance
range.  Reports are deterministic (same bounds, same bytes) apart from wall
time.
Counterexamples are serialized in cycle notation so they can be replayed
through the CLI.

A check may call the core a public bijection wraps (``bij._extract`` and
the like, on canonical cycle tuples) instead of the public map only when
its inputs are in the map's domain by construction and the laws it relies
on stay checked, by the property or by the unit tests that hold each public
map equal to its core and trigger each of its checks.

A round trip through a pure inverse proves the forward map injective, as two
members with one image cannot both map back: such a property keeps no image
set and compares its member count with the size of the codomain.  A property
that runs no inverse keeps its image set and compares the set's size.

Suites: perm-core, bijections, phi-bijection, roots, counting, inequalities,
monotonicity, tables, oeis.
"""

from __future__ import annotations

import itertools
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Generator

from . import bijections as bij
from . import counting as cnt
from . import oeis
from .errors import DomainError, check_int
from .families import (
    FamilySpec,
    _regular,
    enumerate_enriched_cycles,
    enumerate_enriched_nearly_regular,
    enumerate_family,
    enumerate_regular_on,
    is_nearly_regular,
    is_regular,
)
from .permutation import CycleType, Permutation, parse
from .report import VerificationReport, run_property
from .roots import (
    brute_force_root_table,
    find_root_bruteforce,
    has_root_general,
    has_root_prime_power,
    prime_power_decomposition,
    type_has_root,
)

__all__ = [
    "SUITES",
    "SUITE_PROPERTIES",
    "VerificationReport",
    "run_suite",
    "run_suites",
    "suite_ids",
]

PHI_PAIRS = ((2, 2), (2, 4), (2, 6), (2, 8), (3, 3), (3, 6), (3, 9), (4, 4), (4, 8))
# (q, r, m) triples shared by the two merge inequalities, which run at
# n = m·q·r.  Their bounds key, merge_grids, also overrides merge-distinctness,
# which reads its triples as (q, r, n): [[2, 2, 1], [2, 2, 4]] (as in the
# reduced bounds of tests/test_verify.py, whose pinned report relies on it)
# runs merge-distinctness at n = 1 and 4 and the inequalities at n = 4 and 16.
# A second key would change what an existing override runs.
MERGE_GRIDS = ((2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 4, 1), (3, 3, 1))

# Known values of p_r(n) for n = 1..12, frozen as reduced rationals.
REFERENCE_PROBABILITIES_PRIME = {
    2: ("1", "1/2", "1/2", "1/2", "1/2", "3/8", "3/8", "17/48", "17/48",
        "29/96", "29/96", "209/720"),
    3: ("1", "1", "2/3", "2/3", "2/3", "5/9", "5/9", "5/9", "1/2", "1/2",
        "1/2", "37/81"),
    5: ("1", "1", "1", "1", "4/5", "4/5", "4/5", "4/5", "4/5", "18/25",
        "18/25", "18/25"),
}
REFERENCE_PROBABILITIES_PRIME_POWER = {
    4: ("1", "1/2", "1/2", "3/8", "3/8", "5/16", "5/16", "53/192", "53/192",
        "95/384", "95/384", "29/128"),
    8: ("1", "1/2", "1/2", "3/8", "3/8", "5/16", "5/16", "35/128", "35/128",
        "63/256", "63/256", "231/1024"),
    9: ("1", "1", "2/3", "2/3", "2/3", "5/9", "5/9", "5/9", "40/81", "40/81",
        "40/81", "110/243"),
}


# -- shared scan helpers -------------------------------------------------------

def _q_family(r: int, k: int, n: int):
    """The stream of Q_{r,k}(n): first cycle of length k, all other cycles
    r-regular."""
    return enumerate_family(FamilySpec.first_cycle(r, k, n), bound=max(n, 10))


def _partitions(total: int):
    def rec(remaining, max_part, acc):
        if remaining == 0:
            yield tuple(acc)
            return
        for part in range(min(remaining, max_part), 0, -1):
            acc.append(part)
            yield from rec(remaining - part, part, acc)
            acc.pop()
    yield from rec(total, total, [])


def _types_with_total(total: int, q: int):
    """All cycle types with every length a multiple of q summing to total (a
    multiple of q): the partitions of total / q, each part scaled by q."""
    for parts in _partitions(total // q):
        yield CycleType.of_lengths(q * part for part in parts)


def _first_cycle_law(sigma: Permutation, tau, r: int) -> str | None:
    """The law ``to_enriched_cycles`` and ``to_nearly_regular`` both keep:
    a first cycle of length L maps to a colored first cycle of length
    L - L % r + r with color L % r.  A message when ``tau`` breaks it."""
    first_len = len(sigma.cycles[0])
    if len(tau.base.cycles[0]) != first_len - first_len % r + r:
        return f"length law broke on {sigma} (r={r})"
    if tau.color_seq[0] != first_len % r:
        return f"color law broke on {sigma} (r={r})"
    return None


def _enumerated_enriched_count(r: int, n: int) -> int:
    """|Cyc*_r(n)| by enumeration: r - 1 colorings per cycle."""
    return sum((r - 1) ** len(p.cycles) for p in enumerate_family(FamilySpec.cycle(r, n)))


def _representative(lengths) -> Permutation:
    cycles = []
    start = 1
    for ln in lengths:
        cycles.append(tuple(range(start, start + ln)))
        start += ln
    return Permutation(cycles)


# -- declaring properties ---------------------------------------------------------

@dataclass(frozen=True)
class Property:
    """One declared property of one suite.  ``ranges(bounds)`` is the list of
    instance ranges to report on under a flat bounds dict, one report each;
    ``check(**instance_range)`` is a generator over one range: it yields once
    per instance checked and returns the counterexample, or None when the
    property holds."""

    suite: str
    property_id: str
    check: Callable[..., Generator[None, None, str | None]]
    ranges: Callable[[dict], list[dict]]


_REGISTRY: list[Property] = []
_BOUNDS_KEYS = {"pairs", "r", "n"}  # _phi_ranges reads these; prop adds the rest


def _is_keyed(spec) -> bool:
    return isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], str)


def prop(suite: str, property_id: str, ranges=None, **fields):
    """Declare the decorated generator ``check`` as a property of ``suite``:
    it yields once per instance it checks and returns the counterexample
    text, or None when the property holds; the runner counts the yields.

    Each keyword is one field of the report's instance range, and ``check``
    takes the fields as its keyword arguments: a pair ``(key, default)``
    with a str ``key`` reads that flat bounds key and falls back to
    ``default``; any other value is fixed.  ``ranges``, when given, maps the
    flat bounds dict to the list of ranges instead, and the property reports
    once per range.  Suites and their order follow the order of
    declaration."""

    if ranges is None:
        def ranges(bounds):
            return [{name: bounds.get(*spec) if _is_keyed(spec) else spec
                     for name, spec in fields.items()}]

    def register(check):
        _REGISTRY.append(Property(suite, property_id, check, ranges))
        _BOUNDS_KEYS.update(spec[0] for spec in fields.values() if _is_keyed(spec))
        return check

    return register


# -- perm-core suite -----------------------------------------------------------

@prop("perm-core", "perm-core/format-parse-roundtrip", n_max=("roundtrip_n_max", 6))
def _format_parse_roundtrip(n_max):
    for n in range(n_max + 1):
        for p in enumerate_family(FamilySpec.everything(n)):
            yield
            text = str(p)
            if parse(text) != p or str(parse(text)) != text:
                return f"plain round trip broke on {text!r}"
    for r in (2, 3):
        for n in range(0, n_max + 1, r):
            streams = enumerate_enriched_cycles(r, n), enumerate_enriched_nearly_regular(r, n)
            for e in itertools.chain(*streams):
                yield
                if parse(str(e), r) != e:
                    return f"enriched round trip broke on {str(e)!r} (r={r})"


@prop(
    "perm-core", "perm-core/split-parts-recombine",
    n_max=("split_n_max", 7), q_values=("q_values", (2, 3)),
)
def _split_parts_recombine(n_max, q_values):
    for n in range(n_max + 1):
        for p in enumerate_family(FamilySpec.everything(n)):
            for q in q_values:
                yield
                regular, singular = p.split_parts(q)
                if set(regular.cycles) | set(singular.cycles) != set(p.cycles):
                    return f"split of {p} at q={q} lost cycles"
                if any(len(c) % q == 0 for c in regular.cycles):
                    return f"regular part of {p} at q={q} has a singular cycle"
                if any(len(c) % q != 0 for c in singular.cycles):
                    return f"singular part of {p} at q={q} has a regular cycle"


@prop(
    "perm-core", "perm-core/family-partitions",
    n_max=("partitions_n_max", 8), r_values=("r_values", (2, 3, 4)),
)
def _family_partitions(n_max, r_values):
    for r in r_values:
        for n in range(1, n_max + 1):
            buckets = {k: list(_q_family(r, k, n)) for k in range(1, n + 1)}
            reg = cnt.count_reg(r, n)
            nreg_scan = sum(
                1 for _ in enumerate_family(FamilySpec.nearly_regular(r, n))
            )
            for k, members in buckets.items():
                yield from itertools.repeat(None, len(members))  # one instance per member
                in_bucket_family = is_regular if k % r else is_nearly_regular
                bad = next((p for p in members if not in_bucket_family(p, r)), None)
                if bad is not None:
                    return f"bucket k={k} r={r} holds misclassified {bad}"
            regular_total = sum(len(buckets[k]) for k in buckets if k % r)
            nearly_total = sum(len(buckets[k]) for k in buckets if k % r == 0)
            if regular_total != reg:
                return f"r={r} n={n}: regular buckets total {regular_total} != |Reg|={reg}"
            if nearly_total != nreg_scan:
                return f"r={r} n={n}: singular buckets total {nearly_total} != |NReg|={nreg_scan}"


@prop(
    "perm-core", "perm-core/power-additivity",
    draws=("draws", 150), n_max=10, seed=("seed", 20250811),
)
def _power_additivity(draws, n_max, seed):
    rng = random.Random(seed)
    for _ in range(draws):
        n = rng.randint(0, n_max)
        elems = list(range(1, n + 1))
        images = elems[:]
        rng.shuffle(images)
        p = Permutation.from_one_line(elems, images)
        e1, e2 = rng.randint(0, 8), rng.randint(0, 8)
        yield
        if p.power(e1 + e2) != p.power(e1).compose(p.power(e2)):
            return f"power additivity broke on {p} with e1={e1} e2={e2}"


# -- bijections suite ----------------------------------------------------------

@prop(
    "bijections", "bijections/extract-insert-roundtrip",
    n_max=("n_max", 8), r_values=("r_values", (2, 3, 4)),
)
def _extract_insert_roundtrip(n_max, r_values):
    for r in r_values:
        for n in range(1, n_max + 1):
            if n % r == 0:
                continue
            domain = 0
            for domain, sigma in enumerate(enumerate_family(FamilySpec.regular(r, n)), 1):
                yield
                cycles = sigma.cycles
                x, rest = bij._extract(cycles, r)
                if not _regular(map(len, rest), r) or any(x in c for c in rest):
                    rest = Permutation._from_canonical(rest)
                    return f"extract({sigma}, r={r}) gave invalid ({x}, {rest})"
                if bij._insert(x, rest, r) != cycles:
                    return f"insert(extract({sigma})) != original (r={r})"
            if domain != n * cnt.count_reg(r, n - 1):
                return (
                    f"r={r} n={n}: extraction is not bijective "
                    f"({domain} outputs, |Reg|={domain})"
                )
    # arbitrary ground sets: subsets of [7] at r = 3
    r = 3
    for size in (1, 2, 4, 5, 7):
        for subset in itertools.combinations(range(1, 8), size):
            for sigma in enumerate_regular_on(subset, r):
                yield
                if bij._insert(*bij._extract(sigma.cycles, r), r) != sigma.cycles:
                    return f"subset round trip broke on {sigma} (r=3)"


@prop(
    "bijections", "bijections/grow-shrink-roundtrip",
    per_r=("per_r", ((2, 8), (3, 9), (4, 8))),
)
def _grow_shrink_roundtrip(per_r):
    for r, n_max in per_r:
        for n in range(1, n_max + 1):
            # the domain buckets only: the codomain size comes from the formula
            for k in range(1, n):
                if (n - k) % r == 0:
                    continue
                members = 0
                for members, sigma in enumerate(_q_family(r, k, n), 1):
                    yield
                    cycles = sigma.cycles
                    grown = bij._grow_first(cycles, r)
                    if len(grown[0]) != k + 1:
                        return f"grow({sigma}, r={r}) first cycle != {k + 1}"
                    if not _regular(map(len, grown[1:]), r):
                        return f"grow({sigma}, r={r}) left a singular cycle after the first"
                    if bij._shrink_first(grown, r) != cycles:
                        return f"shrink(grow({sigma})) != original (r={r})"
                expected = cnt.count_q_family(r, k + 1, n)
                if members != expected:
                    return (
                        f"r={r} n={n} k={k}: |Q_k|={members} but "
                        f"|Q_(k+1)|={expected}, image={members}"
                    )


@prop(
    "bijections", "bijections/nearly-regular-roundtrip",
    pairs=("nr_pairs", PHI_PAIRS), inverse_n_max=8,
)
def _nearly_regular_roundtrip(pairs, inverse_n_max):
    for r, rn in pairs:
        members = 0
        for members, sigma in enumerate(enumerate_family(FamilySpec.regular(r, rn)), 1):
            yield
            tau = bij.to_nearly_regular(sigma, r)
            if broken := _first_cycle_law(sigma, tau, r):
                return broken
            if not is_nearly_regular(tau.base, r):
                return f"{sigma} mapped outside nearly regular (r={r})"
            if bij.from_nearly_regular(tau) != sigma:
                return f"nearly-regular round trip broke on {sigma} (r={r})"
        expected = (r - 1) * cnt.count_nreg(r, rn)
        if members != expected:
            return f"r={r} rn={rn}: image size {members} != |NReg*|={expected}"
        # inverse round trip over the full enriched codomain at small sizes
        if rn <= inverse_n_max:
            for tau in enumerate_enriched_nearly_regular(r, rn):
                yield
                if bij.to_nearly_regular(bij.from_nearly_regular(tau), r) != tau:
                    return f"inverse round trip broke on {tau} (r={r})"


@prop(
    "bijections", "bijections/regular-extension-bijectivity",
    n_max=("psi_n_max", 7), r_values=("r_values", (2, 3, 4)),
)
def _regular_extension_bijectivity(n_max, r_values):
    for r in r_values:
        for n in range(0, n_max + 1):
            if (n + 1) % r == 0:
                continue
            outputs = set()
            for sigma in enumerate_family(FamilySpec.regular(r, n)):
                for j in range(1, n + 2):
                    yield
                    out = bij.extend_regular(sigma, j, r)
                    if not is_regular(out, r) or out.size != n + 1:
                        return f"psi({sigma}, {j}) invalid (r={r})"
                    outputs.add(out)
            expected = cnt.count_reg(r, n + 1)
            if len(outputs) != expected or expected != (n + 1) * cnt.count_reg(r, n):
                return (
                    f"r={r} n={n}: extension not bijective "
                    f"({len(outputs)} distinct, expected {expected})"
                )


@prop("bijections", "bijections/odd-even-refinement", n_max=("ap_n_max", 9))
def _odd_even_refinement(n_max):
    # A_{n,2k-1} = Q_{2,2k-1}(n) and P_{n,2k} = Q_{2,2k}(n): the r = 2 growth
    return (yield from _grow_shrink_roundtrip(per_r=((2, n_max),)))


@prop(
    "bijections", "bijections/merge-distinctness",
    grids=("merge_grids", ((2, 2, 4), (2, 2, 8), (3, 3, 9))),
)
def _merge_distinctness(grids):
    for q, r, n in grids:
        outputs = set()
        expected_total = 0
        for pi in enumerate_family(FamilySpec.uniform_multiples(q, r, n)):
            by_length: dict[int, list] = {}
            for cyc in pi.cycles:
                by_length.setdefault(len(cyc), []).append(cyc)
            class_lists = []
            ways = 1
            for length, cycs in sorted(by_length.items()):
                for i in range(0, len(cycs), r):
                    chunk = cycs[i : i + r]
                    class_lists.append(chunk)
                    ways *= length ** (r - 1)
            expected_total += ways
            break_choices = [
                list(itertools.product(*[cyc for cyc in chunk[1:]]))
                for chunk in class_lists
            ]
            elements = list(pi.elements())
            for combo in itertools.product(*break_choices):
                merged = tuple(sorted(map(bij._merge, class_lists, combo)))
                yield
                if any(len(c) % (q * r) for c in merged):
                    return f"merge of {pi} left {q * r}-regular cycle"
                if sorted(itertools.chain.from_iterable(merged)) != elements:
                    return f"merge of {pi} does not cover its ground set exactly"
                outputs.add(merged)
        if len(outputs) != expected_total:
            return (
                f"q={q} r={r} n={n}: {len(outputs)} distinct merges, "
                f"expected {expected_total}"
            )


# -- phi-bijection suite ---------------------------------------------------------

def _phi_ranges(bounds: dict) -> list[dict]:
    """One range per (r, rn) pair: ``pairs``, else the one pair given by
    ``r`` and ``n`` together, else PHI_PAIRS."""
    if "pairs" in bounds:
        pairs = bounds["pairs"]
    elif "r" in bounds or "n" in bounds:
        if "r" not in bounds or "n" not in bounds:
            raise DomainError("the phi-bijection override needs r and n together")
        check_int(bounds["r"], "r", 2)
        check_int(bounds["n"], "n", 1)
        pairs = [(bounds["r"], bounds["r"] * bounds["n"])]
    else:
        pairs = PHI_PAIRS
    for r, rn in pairs:
        check_int(r, "r", 2)
        check_int(rn, "rn", r)
        if rn % r:
            raise DomainError(f"rn={rn} is not a multiple of r={r}")
    return [{"r": r, "n": rn // r, "rn": rn} for r, rn in pairs]


@prop("phi-bijection", "bijections/enriched-decomposition-bijection", ranges=_phi_ranges)
def _enriched_decomposition_bijection(r, n, rn):
    expected = cnt.count_reg(r, rn)
    enriched_expected = cnt.count_enriched_cyc(r, rn)
    if expected != enriched_expected:
        return f"|Reg_{r}({rn})|={expected} != |Cyc*_{r}({rn})|={enriched_expected}"
    if rn <= 9:
        by_enum = _enumerated_enriched_count(r, rn)
        if by_enum != expected:
            return f"enumerated |Cyc*_{r}({rn})|={by_enum} != {expected}"
    members = 0
    for members, sigma in enumerate(enumerate_family(FamilySpec.regular(r, rn)), 1):
        yield
        tau = bij.to_enriched_cycles(sigma, r)
        if any(len(c) % r != 0 for c in tau.base.cycles):
            return f"image of {sigma} is not an enriched cycle permutation"
        if broken := _first_cycle_law(sigma, tau, r):
            return broken
        if bij.from_enriched_cycles(tau) != sigma:
            return f"round trip broke on {sigma} (r={r})"
    if members != expected:
        return f"{members} distinct images, expected {expected}"


# -- roots suite ------------------------------------------------------------------

@prop(
    "roots", "roots/criterion-vs-bruteforce",
    n_max=("n_max", 7), r_values=("r_values", tuple(range(2, 10))),
)
def _criterion_vs_bruteforce(n_max, r_values):
    for n in range(n_max + 1):
        # one walk of S_n for the cycle types (one shared tuple per type), in
        # the lexicographic order itertools.permutations also follows; then,
        # per r, one criterion verdict per type and one root table alive
        types: dict[tuple, tuple] = {}
        walk = []
        for p in enumerate_family(FamilySpec.everything(n)):
            lengths = tuple(sorted(p.cycle_lengths()))
            walk.append(types.setdefault(lengths, lengths))
        for r in r_values:
            verdicts = {lengths: type_has_root(lengths, r) for lengths in types}
            table = brute_force_root_table(n, r)
            images = itertools.permutations(range(1, n + 1))
            for img, lengths in zip(images, walk, strict=True):
                verdict = verdicts[lengths]
                yield
                if verdict != (img in table):
                    p = Permutation.from_one_line(range(1, n + 1), img)
                    return f"criterion {verdict} != brute force on {p} (r={r})"


@prop("roots", "roots/prime-power-consistency", n_max=10)
def _prime_power_consistency(n_max):
    powers = [
        (r, prime_power_decomposition(r))
        for r in range(2, 10)
        if prime_power_decomposition(r) is not None
    ]
    for n in range(n_max + 1):
        for lengths in _partitions(n):
            p = _representative(lengths)
            for r, (q, l) in powers:
                yield
                if has_root_general(p, r) != has_root_prime_power(p, q, l):
                    return f"criteria disagree on type {p.cycle_type()} (r={r})"


@prop(
    "roots", "roots/witness-soundness",
    n_max=("witness_n_max", 6), r_values=("witness_r_values", (2, 3, 4)),
)
def _witness_soundness(n_max, r_values):
    for n in range(n_max + 1):
        elems = tuple(range(1, n + 1))
        for r in r_values:
            for target, witness in brute_force_root_table(n, r).items():
                yield
                pi = Permutation.from_one_line(elems, witness)
                if pi.power(r).one_line() != target:
                    return f"witness {pi} does not power to {target} (r={r})"
    # the one-off search agrees with the table's least witness
    for r in (2, 3):
        table = brute_force_root_table(4, r)
        for sigma in enumerate_family(FamilySpec.everything(4)):
            found = find_root_bruteforce(sigma, r)
            yield
            expected = table.get(sigma.one_line())
            if (found.one_line() if found else None) != expected:
                return f"least witness mismatch on {sigma} (r={r})"


@prop("roots", "roots/regular-inclusion", n_max=("inclusion_n_max", 8))
def _regular_inclusion(n_max):
    for q in (2, 3):
        exponents = [l for l in (1, 2, 3) if q**l <= 9]
        for n in range(n_max + 1):
            for sigma in enumerate_family(FamilySpec.regular(q, n)):
                for l in exponents:
                    yield
                    if not has_root_prime_power(sigma, q, l):
                        return f"{sigma} is {q}-regular but fails the (q={q}, l={l}) criterion"


# -- counting suite ----------------------------------------------------------------

@prop(
    "counting", "counting/triple-agreement",
    enum_n_max=("enum_n_max", 8), formula_n_max=("formula_n_max", 60),
)
def _triple_agreement(enum_n_max, formula_n_max):
    for r in (2, 3, 4):
        for n in range(enum_n_max + 1):
            for counter in (cnt.count_reg, cnt.count_cyc):
                yield
                formula = counter(r, n)
                recurrence = counter(r, n, "recurrence")
                enumerated = counter(r, n, "enumerate")
                if not formula == recurrence == enumerated:
                    return (
                        f"{counter.__name__}(r={r}, n={n}): formula={formula} "
                        f"recurrence={recurrence} enumerate={enumerated}"
                    )
    for r in range(2, 10):
        for n in range(formula_n_max + 1):
            for counter in (cnt.count_reg, cnt.count_cyc):
                yield
                if counter(r, n) != counter(r, n, "recurrence"):
                    return f"{counter.__name__}(r={r}, n={n}) formula != recurrence"


@prop("counting", "counting/enriched-count-match", n_max=("enriched_n_max", 8))
def _enriched_count_match(n_max):
    for r in (2, 3, 4):
        for n in range(0, n_max + 1, r):
            yield
            dp = cnt.count_enriched_cyc(r, n)
            reg = cnt.count_reg(r, n)
            by_enum = _enumerated_enriched_count(r, n)
            if not dp == reg == by_enum:
                return f"r={r} n={n}: dp={dp} reg={reg} enumerated={by_enum}"
            if r == 2 and dp != cnt.count_cyc(2, n):
                return f"n={n}: enriched count != |Cyc_2({n})|"


@prop("counting", "counting/q-family-counts", n_max=("q_family_n_max", 8))
def _q_family_counts(n_max):
    for r in (2, 3, 4):
        for n in range(1, n_max + 1):
            for k in range(1, n + 1):
                yield
                formula = cnt.count_q_family(r, k, n)
                enumerated = sum(1 for _ in _q_family(r, k, n))
                if formula != enumerated:
                    return f"|Q_{r},{k}({n})| formula={formula} enumerated={enumerated}"
                if k < n and (n - k) % r != 0:
                    if formula != cnt.count_q_family(r, k + 1, n):
                        return (
                            f"|Q_{r},{k}({n})| != |Q_{r},{k + 1}({n})| despite n-k"
                            " not a multiple of r"
                        )


@prop(
    "counting", "counting/odd-even-family-counts",
    n_max=("ap_n_max", 9), formula_n_max=("ap_formula_n_max", 40),
)
def _odd_even_family_counts(n_max, formula_n_max):
    for n in range(2, n_max + 1):
        # A_{n,2k-1} = Q_{2,2k-1}(n) and P_{n,2k} = Q_{2,2k}(n)
        for k in range(1, n // 2 + 2):
            if 2 * k - 1 <= n:
                yield
                if cnt.count_AP(n, k, "odd") != sum(1 for _ in _q_family(2, 2 * k - 1, n)):
                    return f"|A_({n},{2 * k - 1})| mismatch"
            if 2 * k <= n:
                yield
                if cnt.count_AP(n, k, "even") != sum(1 for _ in _q_family(2, 2 * k, n)):
                    return f"|P_({n},{2 * k})| mismatch"
    # formula-level equalities between neighbours
    for big_n in range(2, formula_n_max + 1):
        for k in range(1, big_n // 2 + 1):
            yield
            if big_n % 2 == 0:
                if cnt.count_AP(big_n, k, "odd") != cnt.count_AP(big_n, k, "even"):
                    return f"|A_({big_n},{2 * k - 1})| != |P_({big_n},{2 * k})|"
            elif 2 * k + 1 <= big_n:
                if cnt.count_AP(big_n, k, "even") != cnt.count_AP(big_n, k + 1, "odd"):
                    return f"|P_({big_n},{2 * k})| != |A_({big_n},{2 * k + 1})|"


@prop(
    "counting", "counting/merged-type-counts", n_max=("merged_n_max", 8),
    grids=("merged_grids", ((2, 2), (2, 3), (3, 2), (2, 4))),
)
def _merged_type_counts(n_max, grids):
    for q, r in grids:
        for n in range(n_max + 1):
            yield
            dp = cnt.count_cyc_qr(q, r, n)
            enumerated = sum(
                1 for _ in enumerate_family(FamilySpec.uniform_multiples(q, r, n))
            )
            if dp != enumerated:
                return f"|Cyc_({q},{r})({n})| dp={dp} enumerated={enumerated}"
            if n % (q * r) != 0 and dp != 0:
                return f"|Cyc_({q},{r})({n})| should vanish, got {dp}"


@prop(
    "counting", "counting/singular-type-counts",
    n_max=("singular_n_max", 8), ratio_n_max=("ratio_n_max", 7),
)
def _singular_type_counts(n_max, ratio_n_max):
    for q in (2, 3):
        for n in range(n_max + 1):
            observed: dict[CycleType, int] = {}
            for p in enumerate_family(FamilySpec.everything(n)):
                _, singular = p.split_parts(q)
                rho = singular.cycle_type()
                observed[rho] = observed.get(rho, 0) + 1
            for total in range(0, n + 1, q):
                for rho in _types_with_total(total, q):
                    yield
                    formula = cnt.count_S_rho_q(rho, q, n)
                    if formula != observed.get(rho, 0):
                        return (
                            f"|S_(rho={rho or 'empty'},{q})({n})| formula={formula} "
                            f"enumerated={observed.get(rho, 0)}"
                        )
        for n in range(1, ratio_n_max + 1):
            if (n + 1) % q == 0:
                yield
                if n * cnt.count_reg(q, n) != cnt.count_reg(q, n + 1):
                    return f"n|Reg_{q}({n})| != |Reg_{q}({n + 1})|"


@prop(
    "counting", "counting/regular-proportion-product",
    n_max=("proportion_n_max", 40),
)
def _regular_proportion_product(n_max):
    for r in range(2, 10):
        for n in range(1, n_max + 1):
            yield
            product = cnt.regular_proportion_product(r, n)
            ratio = Fraction(cnt.count_reg(r, n), factorial(n))
            if product != ratio:
                return f"r={r} n={n}: product {product} != ratio {ratio}"


# -- inequalities suite ---------------------------------------------------------------

@prop("inequalities", "counting/cyc-at-most-reg", n_max=("n_max", 60))
def _cyc_at_most_reg(n_max):
    for r in range(2, 10):
        for n in range(1, n_max + 1):
            yield
            cyc, reg = cnt.count_cyc(r, n), cnt.count_reg(r, n)
            if cyc > reg:
                return f"|Cyc_{r}({n})|={cyc} > |Reg_{r}({n})|={reg}"
            equality_expected = r == 2 and n % 2 == 0
            if (cyc == reg) != equality_expected:
                return f"r={r} n={n}: equality pattern broke (cyc={cyc}, reg={reg})"


@prop("inequalities", "counting/nested-cycle-bound", m_max=("nested_m_max", 4))
def _nested_cycle_bound(m_max):
    for r in (2, 3):
        for m in range(1, m_max + 1):
            n = m * r * r
            yield
            if not cnt.count_cyc(r * r, n) < cnt.count_reg(r, n):
                return f"|Cyc_({r * r})({n})| >= |Reg_{r}({n})|"


@prop("inequalities", "counting/four-cycle-factor-two", m_max=("double_m_max", 15))
def _four_cycle_factor_two(m_max):
    for m in range(4, m_max + 1):
        n = 4 * m
        yield
        if not 2 * cnt.count_cyc(4, n) < cnt.count_reg(2, n):
            return f"2|Cyc_4({n})| >= |Reg_2({n})|"
    ratio = Fraction(cnt.count_reg(2, 16), cnt.count_cyc(4, 16))
    yield
    if ratio != Fraction(33, 16):
        return f"ratio at m=4 is {ratio}, expected 33/16"


@prop("inequalities", "counting/merge-lower-bound", grids=("merge_grids", MERGE_GRIDS))
def _merge_lower_bound(grids):
    for q, r, m in grids:
        n = m * q * r
        yield
        lhs = cnt.count_cyc(q * r, n)
        rhs = (m * q) ** (r - 1) * cnt.count_cyc_qr(q, r, n)
        if lhs < rhs:
            return f"q={q} r={r} m={m}: {lhs} < {rhs}"


@prop(
    "inequalities", "counting/regular-over-uniform-types",
    grids=("merge_grids", MERGE_GRIDS),
)
def _regular_over_uniform_types(grids):
    for q, r, m in grids:
        n = m * q * r
        yield
        lhs = cnt.count_reg(q, n)
        rhs = (m * q) ** (r - 1) * cnt.count_cyc_qr(q, r, n)
        if not lhs > rhs:
            return f"q={q} r={r} m={m}: |Reg_{q}({n})|={lhs} <= {rhs}"


@prop(
    "inequalities", "counting/roots-over-uniform-types",
    grids=("roots_grids", ((2, 2, 1), (2, 2, 2), (3, 1, 1), (2, 3, 1))),
)
def _roots_over_uniform_types(grids):
    for q, l, m in grids:
        r = q**l
        n = m * q * r
        yield
        lhs = cnt.count_roots(r, n)
        rhs = n * cnt.count_cyc_qr(q, r, n)
        if not lhs > rhs:
            return f"q={q} l={l} m={m}: |S^{r}_{n}|={lhs} <= {rhs}"


@prop("inequalities", "counting/padding-ratio", n_max=("padding_n_max", 7))
def _padding_ratio(n_max):
    for q in (2, 3):
        for n in range(1, n_max + 1):
            if (n + 1) % q != 0:
                continue
            for total in range(0, n + 1, q):
                for rho in _types_with_total(total, q):
                    yield
                    lhs = n * cnt.count_S_rho_q(rho, q, n)
                    rhs = cnt.count_S_rho_q(rho, q, n + 1)
                    if lhs < rhs:
                        return f"q={q} n={n} rho={rho or 'empty'}: {lhs} < {rhs}"
                    if (lhs == rhs) != (rho.total == 0):
                        return (
                            f"q={q} n={n} rho={rho or 'empty'}: equality only for"
                            " the empty type"
                        )


# -- monotonicity suite ------------------------------------------------------------

@prop(
    "monotonicity", "counting/prime-power-monotonicity",
    n_max=("n_max", 40), r_values=("r_values", (2, 3, 4, 5, 8, 9)),
)
def _prime_power_monotonicity(n_max, r_values):
    # p_r(n) < p_r(n+1) is (n+1)|S^r_n| < |S^r_{n+1}|; the Fractions only word it
    for r in r_values:
        counts = cnt.root_count_sequence(r, n_max + 1)
        for n in range(1, n_max + 1):
            yield
            if (n + 1) * counts[n] < counts[n + 1]:
                here, nxt = (Fraction(counts[k], factorial(k)) for k in (n, n + 1))
                return f"p_{r}({n})={here} < p_{r}({n + 1})={nxt}"


@prop(
    "monotonicity", "counting/plateau-structure",
    n_max=("n_max", 40), r_values=("plateau_r_values", (2, 3, 4, 5, 7, 8, 9)),
)
def _plateau_structure(n_max, r_values):
    # on the counts: p_r(n) vs p_r(n+1) is (n+1)|S^r_n| vs |S^r_{n+1}|, and the
    # scaled bound p_r(n) >= (n+1)/n p_r(n+1) is n|S^r_n| >= |S^r_{n+1}|
    for r in r_values:
        q, l = prime_power_decomposition(r)
        counts = cnt.root_count_sequence(r, n_max + 1)
        for n in range(1, n_max + 1):
            yield
            here, nxt = (n + 1) * counts[n], counts[n + 1]
            if (n + 1) % q != 0:
                if here != nxt:
                    return f"r={r} n={n}: plateau case broke"
            elif (n + 1) % (q * r) != 0:
                scaled = n * counts[n]
                if scaled < nxt:
                    return f"r={r} n={n}: scaled bound broke"
                equality_expected = (n + 1) // q <= r - 1
                if (scaled == nxt) != equality_expected:
                    return f"r={r} n={n}: scaled equality set broke"
            else:
                if here < nxt:
                    return f"r={r} n={n}: descent case broke"
                equality_expected = r == 2 and n == 3
                if (here == nxt) != equality_expected:
                    return f"r={r} n={n}: descent equality set broke"


@prop("monotonicity", "counting/non-prime-power-counterexample")
def _non_prime_power_counterexample():
    p4, p5 = cnt.prob_root(6, 4), cnt.prob_root(6, 5)
    yield
    if p4 != Fraction(1, 6):
        return f"p_6(4)={p4}, expected 1/6"
    yield
    if p5 != Fraction(1, 3):
        return f"p_6(5)={p5}, expected 1/3"
    yield
    if not p4 < p5:
        return "expected p_6(4) < p_6(5)"


# -- tables suite --------------------------------------------------------------------

def _table_property(property_id: str, reference: dict) -> None:
    """Declare a check of ``cnt.prob_root`` against a frozen table."""

    @prop("tables", property_id, r_values=sorted(reference), n_max=12)
    def check(r_values, n_max):
        for r in r_values:
            for n, text in enumerate(reference[r][:n_max], start=1):
                yield
                expected = Fraction(text)
                actual = cnt.prob_root(r, n)
                if actual != expected:
                    return f"p_{r}({n})={actual}, table says {text}"


_table_property("tables/prime-probabilities", REFERENCE_PROBABILITIES_PRIME)
_table_property("tables/prime-power-probabilities", REFERENCE_PROBABILITIES_PRIME_POWER)


# -- oeis suite -------------------------------------------------------------------

def _sequence_check(oeis_id, upto):
    """The terms of the vendored b-file against its generator in
    ``oeis.GENERATORS``, as ``oeis.cross_check`` compares them."""
    seq = oeis.fetch(oeis_id, source="fixture")
    _, generator = oeis.GENERATORS[oeis_id]
    return (yield from oeis.term_checks(seq, generator, upto))


prop(
    "oeis", "oeis/square-permutation-sequence",
    oeis_id="A247005", upto=("square_upto", 12),
)(_sequence_check)
prop(
    "oeis", "oeis/odd-cycle-square-sequence",
    oeis_id="A001818", upto=("double_factorial_upto", 10),
)(_sequence_check)


@prop("oeis", "oeis/cache-roundtrip")
def _cache_roundtrip():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for oeis_id in oeis.GENERATORS:
            oeis.prime_cache_from_fixture(oeis_id, cache_dir=tmp)
            yield
            if oeis.fetch(oeis_id, source="cache", cache_dir=tmp) != oeis.fetch(
                oeis_id, source="fixture"
            ):
                return f"cache round trip changed {oeis_id}"


# -- suites: views of the registry -----------------------------------------------

SUITES: dict[str, tuple[Property, ...]] = {
    p.suite: tuple(q for q in _REGISTRY if q.suite == p.suite) for p in _REGISTRY
}

SUITE_PROPERTIES = {
    suite: tuple(p.property_id for p in props) for suite, props in SUITES.items()
}


def suite_ids() -> tuple[str, ...]:
    return tuple(SUITES)


def _tasks(suite_list, bounds) -> list[tuple[int, dict]]:
    """(registry index, instance range) of every report to produce, suite
    by suite in the order given, properties in declaration order.  Every
    range is resolved here, so a bad override fails before any work."""
    ids = list(suite_list) if suite_list is not None else list(SUITES)
    for suite_id in ids:
        if suite_id not in SUITES:
            raise DomainError(f"unknown suite {suite_id!r}; options: {', '.join(SUITES)}")
    bounds = bounds or {}
    if unknown := [key for key in bounds if key not in _BOUNDS_KEYS]:
        raise DomainError(f"unknown bounds key {unknown[0]!r}")
    return [
        (index, instance_range)
        for suite_id in ids
        for index, p in enumerate(_REGISTRY)
        if p.suite == suite_id
        for instance_range in p.ranges(bounds)
    ]


def _run_task(task) -> VerificationReport:
    index, instance_range = task
    p = _REGISTRY[index]
    return run_property(p.property_id, instance_range, p.check(**instance_range))


def run_suites(
    suite_list=None, bounds: dict | None = None, jobs: int = 1
) -> list[VerificationReport]:
    """Run several suites (all by default) under one flat bounds dict.  With
    ``jobs`` > 1 the properties are spread over that many processes; reports
    come back in the same order either way."""
    tasks = _tasks(suite_list, bounds)
    if jobs <= 1 or len(tasks) <= 1:
        return [_run_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_task, tasks))


def run_suite(suite_id: str, bounds: dict | None = None) -> list[VerificationReport]:
    """Execute one registered suite; unknown ids raise DomainError."""
    return run_suites([suite_id], bounds)
