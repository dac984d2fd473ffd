"""Named, rerunnable verification suites.

Each property is declared once, with ``@prop``: its suite, its id and the
fields of its instance range, each with the flat bounds key that overrides
it.  A suite is the properties declared under its name, and running suites
is one map over those properties, one :class:`VerificationReport` per
instance range.  Reports are deterministic (same bounds, same bytes) apart
from wall time.
Counterexamples are serialized in cycle notation so they can be replayed
through the CLI.

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
from typing import Callable

from . import bijections as bij
from . import counting as cnt
from . import oeis
from .errors import DomainError, check_modulus
from .families import (
    FamilySpec,
    enumerate_enriched_cycles,
    enumerate_enriched_nearly_regular,
    enumerate_family,
    enumerate_regular_on,
    is_nearly_regular,
    is_regular,
)
from .permutation import CycleType, Permutation, parse
from .report import VerificationReport, golden_compare, golden_diff, run_property
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
    "golden_compare",
    "golden_diff",
    "run_suite",
    "run_suites",
    "suite_ids",
]

PHI_PAIRS = ((2, 2), (2, 4), (2, 6), (2, 8), (3, 3), (3, 6), (3, 9), (4, 4), (4, 8))
# (q, r, m) triples shared by the two merge inequalities
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


def _q_buckets(r: int, n: int) -> dict[int, list[Permutation]]:
    """k -> the members of Q_{r,k}(n), for k = 1..n."""
    return {k: list(_q_family(r, k, n)) for k in range(1, n + 1)}


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
    """One declared property of one suite; ``check(bounds)`` returns
    (instances checked, counterexample or None) over one instance range."""

    suite: str
    property_id: str
    check: Callable[[dict], tuple[int, str | None]]
    fields: dict
    ranges: Callable[[dict], list[dict]] | None = None

    def instance_ranges(self, bounds: dict) -> list[dict]:
        """The ranges to report on under a flat bounds dict, one report each."""
        if self.ranges is not None:
            return self.ranges(bounds)
        return [{name: _resolve(spec, bounds) for name, spec in self.fields.items()}]


_REGISTRY: list[Property] = []


def _resolve(spec, bounds: dict):
    if isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], str):
        key, default = spec
        return bounds.get(key, default)
    return spec


def prop(suite: str, property_id: str, ranges=None, **fields):
    """Declare the decorated ``check(bounds)`` as a property of ``suite``.

    Each keyword is one field of the report's instance range, which is the
    dict ``check`` receives: a pair ``(key, default)`` with a str ``key``
    reads that flat bounds key and falls back to ``default``; any other
    value is fixed.  ``ranges``, when given, maps the flat bounds dict to
    the list of ranges instead, and the property reports once per range.
    Suites and their order follow the order of declaration."""

    def register(check):
        _REGISTRY.append(Property(suite, property_id, check, fields, ranges))
        return check

    return register


# -- perm-core suite -----------------------------------------------------------

@prop("perm-core", "perm-core/format-parse-roundtrip", n_max=("roundtrip_n_max", 6))
def _format_parse_roundtrip(bounds):
    n_max = bounds["n_max"]
    checked = 0
    for n in range(n_max + 1):
        for p in enumerate_family(FamilySpec.everything(n)):
            checked += 1
            text = str(p)
            if parse(text) != p or str(parse(text)) != text:
                return checked, f"plain round trip broke on {text!r}"
    for r in (2, 3):
        for n in range(0, n_max + 1, r):
            for e in enumerate_enriched_cycles(r, n):
                checked += 1
                if parse(str(e), r) != e:
                    return checked, f"enriched round trip broke on {str(e)!r} (r={r})"
            for e in enumerate_enriched_nearly_regular(r, n):
                checked += 1
                if parse(str(e), r) != e:
                    return checked, f"enriched round trip broke on {str(e)!r} (r={r})"
    return checked, None


@prop(
    "perm-core", "perm-core/split-parts-recombine",
    n_max=("split_n_max", 7), q_values=("q_values", (2, 3)),
)
def _split_parts_recombine(bounds):
    n_max = bounds["n_max"]
    moduli = tuple(bounds["q_values"])
    checked = 0
    for n in range(n_max + 1):
        for p in enumerate_family(FamilySpec.everything(n)):
            for q in moduli:
                checked += 1
                regular, singular = p.split_parts(q)
                if set(regular.cycles) | set(singular.cycles) != set(p.cycles):
                    return checked, f"split of {p} at q={q} lost cycles"
                if any(len(c) % q == 0 for c in regular.cycles):
                    return checked, f"regular part of {p} at q={q} has a singular cycle"
                if any(len(c) % q != 0 for c in singular.cycles):
                    return checked, f"singular part of {p} at q={q} has a regular cycle"
    return checked, None


@prop(
    "perm-core", "perm-core/family-partitions",
    n_max=("partitions_n_max", 8), r_values=("r_values", (2, 3, 4)),
)
def _family_partitions(bounds):
    n_max = bounds["n_max"]
    r_values = tuple(bounds["r_values"])
    checked = 0
    for r in r_values:
        for n in range(1, n_max + 1):
            buckets = _q_buckets(r, n)
            reg = cnt.count_reg(r, n)
            nreg_scan = sum(
                1 for _ in enumerate_family(FamilySpec.nearly_regular(r, n))
            )
            regular_total = 0
            nearly_total = 0
            for k, members in buckets.items():
                checked += len(members)
                if k % r == 0:
                    nearly_total += len(members)
                    bad = next((p for p in members if not is_nearly_regular(p, r)), None)
                else:
                    regular_total += len(members)
                    bad = next((p for p in members if not is_regular(p, r)), None)
                if bad is not None:
                    return checked, f"bucket k={k} r={r} holds misclassified {bad}"
            if regular_total != reg:
                return checked, (
                    f"r={r} n={n}: regular buckets total {regular_total} != |Reg|={reg}"
                )
            if nearly_total != nreg_scan:
                return checked, (
                    f"r={r} n={n}: singular buckets total {nearly_total} != |NReg|={nreg_scan}"
                )
    return checked, None


@prop(
    "perm-core", "perm-core/power-additivity",
    draws=("draws", 150), n_max=10, seed=("seed", 20250811),
)
def _power_additivity(bounds):
    draws = bounds["draws"]
    n_max = bounds["n_max"]
    rng = random.Random(bounds["seed"])
    checked = 0
    for _ in range(draws):
        n = rng.randint(0, n_max)
        elems = list(range(1, n + 1))
        images = elems[:]
        rng.shuffle(images)
        p = Permutation.from_one_line(elems, images)
        e1, e2 = rng.randint(0, 8), rng.randint(0, 8)
        checked += 1
        if p.power(e1 + e2) != p.power(e1).compose(p.power(e2)):
            return checked, f"power additivity broke on {p} with e1={e1} e2={e2}"
    return checked, None


# -- bijections suite ----------------------------------------------------------

@prop(
    "bijections", "bijections/extract-insert-roundtrip",
    n_max=("n_max", 8), r_values=("r_values", (2, 3, 4)),
)
def _extract_insert_roundtrip(bounds):
    n_max = bounds["n_max"]
    r_values = tuple(bounds["r_values"])
    checked = 0
    for r in r_values:
        for n in range(1, n_max + 1):
            if n % r == 0:
                continue
            outputs = set()
            domain = 0
            for sigma in enumerate_family(FamilySpec.regular(r, n)):
                checked += 1
                domain += 1
                x, rest = bij.extract_element(sigma, r)
                if not is_regular(rest, r) or x in rest.ground_set():
                    return checked, f"extract({sigma}, r={r}) gave invalid ({x}, {rest})"
                if bij.insert_element(x, rest, r) != sigma:
                    return checked, f"insert(extract({sigma})) != original (r={r})"
                # rest's ground set is [n] minus x, so its one-line form fixes it
                outputs.add((x, *rest.one_line()))
            if len(outputs) != domain or domain != n * cnt.count_reg(r, n - 1):
                return checked, (
                    f"r={r} n={n}: extraction is not bijective "
                    f"({len(outputs)} outputs, |Reg|={domain})"
                )
    # arbitrary ground sets: subsets of [7] at r = 3
    r = 3
    for size in (1, 2, 4, 5, 7):
        for subset in itertools.combinations(range(1, 8), size):
            for sigma in enumerate_regular_on(subset, r):
                checked += 1
                x, rest = bij.extract_element(sigma, r)
                if bij.insert_element(x, rest, r) != sigma:
                    return checked, f"subset round trip broke on {sigma} (r=3)"
    return checked, None


@prop(
    "bijections", "bijections/grow-shrink-roundtrip",
    per_r=("per_r", ((2, 8), (3, 9), (4, 8))),
)
def _grow_shrink_roundtrip(bounds):
    r_bounds = dict(bounds["per_r"])
    checked = 0
    for r, n_max in r_bounds.items():
        for n in range(1, n_max + 1):
            buckets = _q_buckets(r, n)
            for k, members in sorted(buckets.items()):
                if (n - k) % r == 0:
                    continue
                image = set()
                for sigma in members:
                    checked += 1
                    pi = bij.grow_first_cycle(sigma, r)
                    if len(pi.cycles[0]) != k + 1:
                        return checked, f"grow({sigma}, r={r}) first cycle != {k + 1}"
                    if bij.shrink_first_cycle(pi, r) != sigma:
                        return checked, f"shrink(grow({sigma})) != original (r={r})"
                    image.add(pi)
                expected = len(buckets[k + 1])
                if len(image) != len(members) or len(members) != expected:
                    return checked, (
                        f"r={r} n={n} k={k}: |Q_k|={len(members)} but "
                        f"|Q_(k+1)|={expected}, image={len(image)}"
                    )
    return checked, None


@prop(
    "bijections", "bijections/nearly-regular-roundtrip",
    pairs=("nr_pairs", PHI_PAIRS), inverse_n_max=8,
)
def _nearly_regular_roundtrip(bounds):
    pairs = tuple(tuple(p) for p in bounds["pairs"])
    checked = 0
    for r, rn in pairs:
        image = set()
        for sigma in enumerate_family(FamilySpec.regular(r, rn)):
            checked += 1
            first_len = len(sigma.cycles[0])
            tau = bij.to_nearly_regular(sigma, r)
            colored = tau.base.cycles[0]
            if len(colored) != first_len - first_len % r + r:
                return checked, f"length law broke on {sigma} (r={r})"
            if tau.color_seq[0] != first_len % r:
                return checked, f"color law broke on {sigma} (r={r})"
            if not is_nearly_regular(tau.base, r):
                return checked, f"{sigma} mapped outside nearly regular (r={r})"
            if bij.from_nearly_regular(tau) != sigma:
                return checked, f"nearly-regular round trip broke on {sigma} (r={r})"
            image.add(str(tau))
        expected = (r - 1) * cnt.count_nreg(r, rn)
        if len(image) != expected:
            return checked, (
                f"r={r} rn={rn}: image size {len(image)} != |NReg*|={expected}"
            )
        # inverse round trip over the full enriched codomain at small sizes
        if rn <= bounds["inverse_n_max"]:
            for tau in enumerate_enriched_nearly_regular(r, rn):
                checked += 1
                if bij.to_nearly_regular(bij.from_nearly_regular(tau), r) != tau:
                    return checked, f"inverse round trip broke on {tau} (r={r})"
    return checked, None


@prop(
    "bijections", "bijections/regular-extension-bijectivity",
    n_max=("psi_n_max", 7), r_values=("r_values", (2, 3, 4)),
)
def _regular_extension_bijectivity(bounds):
    n_max = bounds["n_max"]
    r_values = tuple(bounds["r_values"])
    checked = 0
    for r in r_values:
        for n in range(0, n_max + 1):
            if (n + 1) % r == 0:
                continue
            outputs = set()
            for sigma in enumerate_family(FamilySpec.regular(r, n)):
                for j in range(1, n + 2):
                    checked += 1
                    out = bij.extend_regular(sigma, j, r)
                    if not is_regular(out, r) or out.size != n + 1:
                        return checked, f"psi({sigma}, {j}) invalid (r={r})"
                    outputs.add(out)
            expected = cnt.count_reg(r, n + 1)
            if len(outputs) != expected or expected != (n + 1) * cnt.count_reg(r, n):
                return checked, (
                    f"r={r} n={n}: extension not bijective "
                    f"({len(outputs)} distinct, expected {expected})"
                )
    return checked, None


@prop("bijections", "bijections/odd-even-refinement", n_max=("ap_n_max", 9))
def _odd_even_refinement(bounds):
    # A_{n,2k-1} = Q_{2,2k-1}(n) and P_{n,2k} = Q_{2,2k}(n): the r = 2 growth
    return _grow_shrink_roundtrip({"per_r": ((2, bounds["n_max"]),)})


@prop(
    "bijections", "bijections/merge-distinctness",
    grids=("merge_grids", ((2, 2, 4), (2, 2, 8), (3, 3, 9))),
)
def _merge_distinctness(bounds):
    grids = tuple(tuple(g) for g in bounds["grids"])
    checked = 0
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
            for combo in itertools.product(*break_choices):
                merged = tuple(
                    sorted(
                        bij.merge_cycle_class(chunk, breaks)
                        for chunk, breaks in zip(class_lists, combo)
                    )
                )
                checked += 1
                result = Permutation(merged)
                if any(len(c) % (q * r) != 0 for c in result.cycles):
                    return checked, f"merge of {pi} left {q * r}-regular cycle"
                outputs.add(result)
        if len(outputs) != expected_total:
            return checked, (
                f"q={q} r={r} n={n}: {len(outputs)} distinct merges, "
                f"expected {expected_total}"
            )
    return checked, None


# -- phi-bijection suite ---------------------------------------------------------

def _phi_ranges(bounds: dict) -> list[dict]:
    """One range per (r, rn) pair: ``pairs``, else the one pair given by
    ``r`` and ``n`` together, else PHI_PAIRS."""
    if "pairs" in bounds:
        pairs = bounds["pairs"]
    elif "r" in bounds or "n" in bounds:
        if "r" not in bounds or "n" not in bounds:
            raise DomainError("the phi-bijection override needs r and n together")
        n = bounds["n"]
        if not isinstance(n, int) or n < 1:
            raise DomainError(f"n must be an integer >= 1, got {n!r}")
        pairs = [(bounds["r"], bounds["r"] * n)]
    else:
        pairs = PHI_PAIRS
    for r, _ in pairs:
        check_modulus(r, "r")
    return [{"r": r, "n": rn // r, "rn": rn} for r, rn in pairs]


@prop("phi-bijection", "bijections/enriched-decomposition-bijection", ranges=_phi_ranges)
def _enriched_decomposition_bijection(bounds):
    r, rn = bounds["r"], bounds["rn"]
    checked = 0
    expected = cnt.count_reg(r, rn)
    enriched_expected = cnt.count_enriched_cyc(r, rn)
    if expected != enriched_expected:
        return checked, (
            f"|Reg_{r}({rn})|={expected} != |Cyc*_{r}({rn})|={enriched_expected}"
        )
    if rn <= 9:
        by_enum = sum(
            (r - 1) ** len(p.cycles)
            for p in enumerate_family(FamilySpec.cycle(r, rn))
        )
        if by_enum != expected:
            return checked, (
                f"enumerated |Cyc*_{r}({rn})|={by_enum} != {expected}"
            )
    image: set[str] = set()
    for sigma in enumerate_family(FamilySpec.regular(r, rn)):
        checked += 1
        tau = bij.to_enriched_cycles(sigma, r)
        if any(len(c) % r != 0 for c in tau.base.cycles):
            return checked, f"image of {sigma} is not an enriched cycle permutation"
        first_len = len(sigma.cycles[0])
        if len(tau.base.cycles[0]) != first_len - first_len % r + r:
            return checked, f"length law broke on {sigma} (r={r})"
        if tau.color_seq[0] != first_len % r:
            return checked, f"color law broke on {sigma} (r={r})"
        if bij.from_enriched_cycles(tau) != sigma:
            return checked, f"round trip broke on {sigma} (r={r})"
        image.add(str(tau))
    if len(image) != expected:
        return checked, f"{len(image)} distinct images, expected {expected}"
    return checked, None


# -- roots suite ------------------------------------------------------------------

@prop(
    "roots", "roots/criterion-vs-bruteforce",
    n_max=("n_max", 7), r_values=("r_values", tuple(range(2, 10))),
)
def _criterion_vs_bruteforce(bounds):
    n_max = bounds["n_max"]
    r_values = tuple(bounds["r_values"])
    checked = 0
    for n in range(n_max + 1):
        # one walk of S_n for the cycle types (one shared tuple per type), in
        # the lexicographic order itertools.permutations also follows; then
        # one root table alive at a time
        types: dict[tuple, tuple] = {}
        walk = []
        for p in enumerate_family(FamilySpec.everything(n)):
            lengths = tuple(sorted(p.cycle_lengths()))
            walk.append(types.setdefault(lengths, lengths))
        for r in r_values:
            table = brute_force_root_table(n, r)
            images = itertools.permutations(range(1, n + 1))
            for img, lengths in zip(images, walk, strict=True):
                verdict = type_has_root(lengths, r)
                checked += 1
                if verdict != (img in table):
                    p = Permutation.from_one_line(range(1, n + 1), img)
                    return checked, (
                        f"criterion {verdict} != brute force on {p} (r={r})"
                    )
    return checked, None


@prop("roots", "roots/prime-power-consistency", n_max=10)
def _prime_power_consistency(bounds):
    n_max = bounds["n_max"]
    checked = 0
    powers = [
        (r, prime_power_decomposition(r))
        for r in range(2, 10)
        if prime_power_decomposition(r) is not None
    ]
    for n in range(n_max + 1):
        for lengths in _partitions(n):
            p = _representative(lengths)
            for r, (q, l) in powers:
                checked += 1
                if has_root_general(p, r) != has_root_prime_power(p, q, l):
                    return checked, f"criteria disagree on type {p.cycle_type()} (r={r})"
    return checked, None


@prop(
    "roots", "roots/witness-soundness",
    n_max=("witness_n_max", 6), r_values=("witness_r_values", (2, 3, 4)),
)
def _witness_soundness(bounds):
    n_max = bounds["n_max"]
    r_values = tuple(bounds["r_values"])
    checked = 0
    for n in range(n_max + 1):
        elems = tuple(range(1, n + 1))
        for r in r_values:
            for target, witness in brute_force_root_table(n, r).items():
                checked += 1
                pi = Permutation.from_one_line(elems, witness)
                if pi.power(r).one_line() != target:
                    return checked, f"witness {pi} does not power to {target} (r={r})"
    # the one-off search agrees with the table's least witness
    for r in (2, 3):
        table = brute_force_root_table(4, r)
        for sigma in enumerate_family(FamilySpec.everything(4)):
            found = find_root_bruteforce(sigma, r)
            checked += 1
            expected = table.get(sigma.one_line())
            if (found.one_line() if found else None) != expected:
                return checked, f"least witness mismatch on {sigma} (r={r})"
    return checked, None


@prop("roots", "roots/regular-inclusion", n_max=("inclusion_n_max", 8))
def _regular_inclusion(bounds):
    n_max = bounds["n_max"]
    checked = 0
    for q in (2, 3):
        exponents = [l for l in (1, 2, 3) if q**l <= 9]
        for n in range(n_max + 1):
            for sigma in enumerate_family(FamilySpec.regular(q, n)):
                for l in exponents:
                    checked += 1
                    if not has_root_prime_power(sigma, q, l):
                        return checked, (
                            f"{sigma} is {q}-regular but fails the (q={q}, l={l}) criterion"
                        )
    return checked, None


# -- counting suite ----------------------------------------------------------------

@prop(
    "counting", "counting/triple-agreement",
    enum_n_max=("enum_n_max", 8), formula_n_max=("formula_n_max", 60),
)
def _triple_agreement(bounds):
    enum_n_max = bounds["enum_n_max"]
    formula_n_max = bounds["formula_n_max"]
    checked = 0
    for r in (2, 3, 4):
        for n in range(enum_n_max + 1):
            for counter in (cnt.count_reg, cnt.count_cyc):
                checked += 1
                formula = counter(r, n)
                recurrence = counter(r, n, "recurrence")
                enumerated = counter(r, n, "enumerate")
                if not formula == recurrence == enumerated:
                    return checked, (
                        f"{counter.__name__}(r={r}, n={n}): formula={formula} "
                        f"recurrence={recurrence} enumerate={enumerated}"
                    )
    for r in range(2, 10):
        for n in range(formula_n_max + 1):
            for counter in (cnt.count_reg, cnt.count_cyc):
                checked += 1
                if counter(r, n) != counter(r, n, "recurrence"):
                    return checked, f"{counter.__name__}(r={r}, n={n}) formula != recurrence"
    return checked, None


@prop("counting", "counting/enriched-count-match", n_max=("enriched_n_max", 8))
def _enriched_count_match(bounds):
    n_max = bounds["n_max"]
    checked = 0
    for r in (2, 3, 4):
        for n in range(0, n_max + 1, r):
            checked += 1
            dp = cnt.count_enriched_cyc(r, n)
            reg = cnt.count_reg(r, n)
            by_enum = sum(
                (r - 1) ** len(p.cycles)
                for p in enumerate_family(FamilySpec.cycle(r, n))
            )
            if not dp == reg == by_enum:
                return checked, (
                    f"r={r} n={n}: dp={dp} reg={reg} enumerated={by_enum}"
                )
            if r == 2 and dp != cnt.count_cyc(2, n):
                return checked, f"n={n}: enriched count != |Cyc_2({n})|"
    return checked, None


@prop("counting", "counting/q-family-counts", n_max=("q_family_n_max", 8))
def _q_family_counts(bounds):
    n_max = bounds["n_max"]
    checked = 0
    for r in (2, 3, 4):
        for n in range(1, n_max + 1):
            for k in range(1, n + 1):
                checked += 1
                formula = cnt.count_q_family(r, k, n)
                enumerated = sum(1 for _ in _q_family(r, k, n))
                if formula != enumerated:
                    return checked, (
                        f"|Q_{r},{k}({n})| formula={formula} enumerated={enumerated}"
                    )
                if k < n and (n - k) % r != 0:
                    if formula != cnt.count_q_family(r, k + 1, n):
                        return checked, (
                            f"|Q_{r},{k}({n})| != |Q_{r},{k + 1}({n})| despite n-k"
                            " not a multiple of r"
                        )
    return checked, None


@prop(
    "counting", "counting/odd-even-family-counts",
    n_max=("ap_n_max", 9), formula_n_max=("ap_formula_n_max", 40),
)
def _odd_even_family_counts(bounds):
    n_max = bounds["n_max"]
    checked = 0
    for n in range(2, n_max + 1):
        # A_{n,2k-1} = Q_{2,2k-1}(n) and P_{n,2k} = Q_{2,2k}(n)
        for k in range(1, n // 2 + 2):
            if 2 * k - 1 <= n:
                checked += 1
                if cnt.count_AP(n, k, "odd") != sum(1 for _ in _q_family(2, 2 * k - 1, n)):
                    return checked, f"|A_({n},{2 * k - 1})| mismatch"
            if 2 * k <= n:
                checked += 1
                if cnt.count_AP(n, k, "even") != sum(1 for _ in _q_family(2, 2 * k, n)):
                    return checked, f"|P_({n},{2 * k})| mismatch"
    # formula-level equalities between neighbours
    for big_n in range(2, bounds["formula_n_max"] + 1):
        for k in range(1, big_n // 2 + 1):
            checked += 1
            if big_n % 2 == 0:
                if cnt.count_AP(big_n, k, "odd") != cnt.count_AP(big_n, k, "even"):
                    return checked, f"|A_({big_n},{2 * k - 1})| != |P_({big_n},{2 * k})|"
            elif 2 * k + 1 <= big_n:
                if cnt.count_AP(big_n, k, "even") != cnt.count_AP(big_n, k + 1, "odd"):
                    return checked, f"|P_({big_n},{2 * k})| != |A_({big_n},{2 * k + 1})|"
    return checked, None


@prop(
    "counting", "counting/merged-type-counts", n_max=("merged_n_max", 8),
    grids=("merged_grids", ((2, 2), (2, 3), (3, 2), (2, 4))),
)
def _merged_type_counts(bounds):
    n_max = bounds["n_max"]
    grids = tuple(tuple(g) for g in bounds["grids"])
    checked = 0
    for q, r in grids:
        for n in range(n_max + 1):
            checked += 1
            dp = cnt.count_cyc_qr(q, r, n)
            enumerated = sum(
                1 for _ in enumerate_family(FamilySpec.uniform_multiples(q, r, n))
            )
            if dp != enumerated:
                return checked, (
                    f"|Cyc_({q},{r})({n})| dp={dp} enumerated={enumerated}"
                )
            if n % (q * r) != 0 and dp != 0:
                return checked, f"|Cyc_({q},{r})({n})| should vanish, got {dp}"
    return checked, None


@prop(
    "counting", "counting/singular-type-counts",
    n_max=("singular_n_max", 8), ratio_n_max=("ratio_n_max", 7),
)
def _singular_type_counts(bounds):
    n_max = bounds["n_max"]
    checked = 0
    for q in (2, 3):
        for n in range(n_max + 1):
            observed: dict[CycleType, int] = {}
            for p in enumerate_family(FamilySpec.everything(n)):
                _, singular = p.split_parts(q)
                rho = singular.cycle_type()
                observed[rho] = observed.get(rho, 0) + 1
            for total in range(0, n + 1, q):
                for rho in _types_with_total(total, q):
                    checked += 1
                    formula = cnt.count_S_rho_q(rho, q, n)
                    if formula != observed.get(rho, 0):
                        return checked, (
                            f"|S_(rho={rho or 'empty'},{q})({n})| formula={formula} "
                            f"enumerated={observed.get(rho, 0)}"
                        )
        for n in range(1, bounds["ratio_n_max"] + 1):
            if (n + 1) % q == 0:
                checked += 1
                if n * cnt.count_reg(q, n) != cnt.count_reg(q, n + 1):
                    return checked, f"n|Reg_{q}({n})| != |Reg_{q}({n + 1})|"
    return checked, None


@prop(
    "counting", "counting/regular-proportion-product",
    n_max=("proportion_n_max", 40),
)
def _regular_proportion_product(bounds):
    n_max = bounds["n_max"]
    checked = 0
    for r in range(2, 10):
        for n in range(1, n_max + 1):
            checked += 1
            product = cnt.regular_proportion_product(r, n)
            ratio = Fraction(cnt.count_reg(r, n), factorial(n))
            if product != ratio:
                return checked, f"r={r} n={n}: product {product} != ratio {ratio}"
    return checked, None


# -- inequalities suite ---------------------------------------------------------------

@prop("inequalities", "counting/cyc-at-most-reg", n_max=("n_max", 60))
def _cyc_at_most_reg(bounds):
    n_max = bounds["n_max"]
    checked = 0
    for r in range(2, 10):
        for n in range(1, n_max + 1):
            checked += 1
            cyc, reg = cnt.count_cyc(r, n), cnt.count_reg(r, n)
            if cyc > reg:
                return checked, f"|Cyc_{r}({n})|={cyc} > |Reg_{r}({n})|={reg}"
            equality_expected = r == 2 and n % 2 == 0
            if (cyc == reg) != equality_expected:
                return checked, (
                    f"r={r} n={n}: equality pattern broke (cyc={cyc}, reg={reg})"
                )
    return checked, None


@prop("inequalities", "counting/nested-cycle-bound", m_max=("nested_m_max", 4))
def _nested_cycle_bound(bounds):
    checked = 0
    for r in (2, 3):
        for m in range(1, bounds["m_max"] + 1):
            n = m * r * r
            checked += 1
            if not cnt.count_cyc(r * r, n) < cnt.count_reg(r, n):
                return checked, f"|Cyc_({r * r})({n})| >= |Reg_{r}({n})|"
    return checked, None


@prop("inequalities", "counting/four-cycle-factor-two", m_max=("double_m_max", 15))
def _four_cycle_factor_two(bounds):
    checked = 0
    for m in range(4, bounds["m_max"] + 1):
        n = 4 * m
        checked += 1
        if not 2 * cnt.count_cyc(4, n) < cnt.count_reg(2, n):
            return checked, f"2|Cyc_4({n})| >= |Reg_2({n})|"
    ratio = Fraction(cnt.count_reg(2, 16), cnt.count_cyc(4, 16))
    checked += 1
    if ratio != Fraction(33, 16):
        return checked, f"ratio at m=4 is {ratio}, expected 33/16"
    return checked, None


@prop("inequalities", "counting/merge-lower-bound", grids=("merge_grids", MERGE_GRIDS))
def _merge_lower_bound(bounds):
    grids = tuple(tuple(g) for g in bounds["grids"])
    checked = 0
    for q, r, m in grids:
        n = m * q * r
        checked += 1
        lhs = cnt.count_cyc(q * r, n)
        rhs = (m * q) ** (r - 1) * cnt.count_cyc_qr(q, r, n)
        if lhs < rhs:
            return checked, f"q={q} r={r} m={m}: {lhs} < {rhs}"
    return checked, None


@prop(
    "inequalities", "counting/regular-over-uniform-types",
    grids=("merge_grids", MERGE_GRIDS),
)
def _regular_over_uniform_types(bounds):
    grids = tuple(tuple(g) for g in bounds["grids"])
    checked = 0
    for q, r, m in grids:
        n = m * q * r
        checked += 1
        lhs = cnt.count_reg(q, n)
        rhs = (m * q) ** (r - 1) * cnt.count_cyc_qr(q, r, n)
        if not lhs > rhs:
            return checked, f"q={q} r={r} m={m}: |Reg_{q}({n})|={lhs} <= {rhs}"
    return checked, None


@prop(
    "inequalities", "counting/roots-over-uniform-types",
    grids=("roots_grids", ((2, 2, 1), (2, 2, 2), (3, 1, 1), (2, 3, 1))),
)
def _roots_over_uniform_types(bounds):
    grids = tuple(tuple(g) for g in bounds["grids"])
    checked = 0
    for q, l, m in grids:
        r = q**l
        n = m * q * r
        checked += 1
        lhs = cnt.count_roots(r, n)
        rhs = n * cnt.count_cyc_qr(q, r, n)
        if not lhs > rhs:
            return checked, f"q={q} l={l} m={m}: |S^{r}_{n}|={lhs} <= {rhs}"
    return checked, None


@prop("inequalities", "counting/padding-ratio", n_max=("padding_n_max", 7))
def _padding_ratio(bounds):
    n_max = bounds["n_max"]
    checked = 0
    for q in (2, 3):
        for n in range(1, n_max + 1):
            if (n + 1) % q != 0:
                continue
            for total in range(0, n + 1, q):
                for rho in _types_with_total(total, q):
                    checked += 1
                    lhs = n * cnt.count_S_rho_q(rho, q, n)
                    rhs = cnt.count_S_rho_q(rho, q, n + 1)
                    if lhs < rhs:
                        return checked, (
                            f"q={q} n={n} rho={rho or 'empty'}: {lhs} < {rhs}"
                        )
                    if (lhs == rhs) != (rho.total == 0):
                        return checked, (
                            f"q={q} n={n} rho={rho or 'empty'}: equality only for"
                            " the empty type"
                        )
    return checked, None


# -- monotonicity suite ------------------------------------------------------------

@prop(
    "monotonicity", "counting/prime-power-monotonicity",
    n_max=("n_max", 40), r_values=("r_values", (2, 3, 4, 5, 8, 9)),
)
def _prime_power_monotonicity(bounds):
    n_max = bounds["n_max"]
    r_values = tuple(bounds["r_values"])
    checked = 0
    for r in r_values:
        counts = cnt.root_count_sequence(r, n_max + 1)
        probs = [Fraction(counts[n], factorial(n)) for n in range(n_max + 2)]
        for n in range(1, n_max + 1):
            checked += 1
            if probs[n] < probs[n + 1]:
                return checked, f"p_{r}({n})={probs[n]} < p_{r}({n + 1})={probs[n + 1]}"
    return checked, None


@prop(
    "monotonicity", "counting/plateau-structure",
    n_max=("n_max", 40), r_values=("plateau_r_values", (2, 3, 4, 5, 7, 8, 9)),
)
def _plateau_structure(bounds):
    n_max = bounds["n_max"]
    checked = 0
    for r in bounds["r_values"]:
        q, l = prime_power_decomposition(r)
        counts = cnt.root_count_sequence(r, n_max + 1)
        probs = [Fraction(counts[n], factorial(n)) for n in range(n_max + 2)]
        for n in range(1, n_max + 1):
            checked += 1
            here, nxt = probs[n], probs[n + 1]
            if (n + 1) % q != 0:
                if here != nxt:
                    return checked, f"r={r} n={n}: plateau case broke"
            elif (n + 1) % (q * r) != 0:
                scaled = Fraction(n + 1, n) * nxt
                if here < scaled:
                    return checked, f"r={r} n={n}: scaled bound broke"
                equality_expected = (n + 1) // q <= r - 1
                if (here == scaled) != equality_expected:
                    return checked, f"r={r} n={n}: scaled equality set broke"
            else:
                if here < nxt:
                    return checked, f"r={r} n={n}: descent case broke"
                equality_expected = r == 2 and n == 3
                if (here == nxt) != equality_expected:
                    return checked, f"r={r} n={n}: descent equality set broke"
    return checked, None


@prop("monotonicity", "counting/non-prime-power-counterexample")
def _non_prime_power_counterexample(bounds):
    p4, p5 = cnt.prob_root(6, 4), cnt.prob_root(6, 5)
    if p4 != Fraction(1, 6):
        return 1, f"p_6(4)={p4}, expected 1/6"
    if p5 != Fraction(1, 3):
        return 2, f"p_6(5)={p5}, expected 1/3"
    if not p4 < p5:
        return 3, "expected p_6(4) < p_6(5)"
    return 3, None


# -- tables suite --------------------------------------------------------------------

def _table_property(property_id: str, reference: dict) -> None:
    """Declare a check of ``cnt.prob_root`` against a frozen table."""

    @prop("tables", property_id, r_values=sorted(reference), n_max=12)
    def check(bounds):
        checked = 0
        for r, row in sorted(reference.items()):
            for n, text in enumerate(row, start=1):
                checked += 1
                expected = Fraction(text)
                actual = cnt.prob_root(r, n)
                if actual != expected:
                    return checked, f"p_{r}({n})={actual}, table says {text}"
        return checked, None


_table_property("tables/prime-probabilities", REFERENCE_PROBABILITIES_PRIME)
_table_property("tables/prime-power-probabilities", REFERENCE_PROBABILITIES_PRIME_POWER)


# -- oeis suite -------------------------------------------------------------------

def _sequence_check(bounds):
    """``oeis.cross_check`` of the vendored b-file against its generator in
    ``oeis.GENERATORS``."""
    seq = oeis.fetch(bounds["oeis_id"], source="fixture")
    _, generator = oeis.GENERATORS[bounds["oeis_id"]]
    report = oeis.cross_check(seq, generator, bounds["upto"])
    return report.counts_checked, report.counterexample


prop(
    "oeis", "oeis/square-permutation-sequence",
    oeis_id="A247005", upto=("square_upto", 12),
)(_sequence_check)
prop(
    "oeis", "oeis/odd-cycle-square-sequence",
    oeis_id="A001818", upto=("double_factorial_upto", 10),
)(_sequence_check)


@prop("oeis", "oeis/cache-roundtrip")
def _cache_roundtrip(bounds):
    import tempfile

    checked = 0
    with tempfile.TemporaryDirectory() as tmp:
        for oeis_id in oeis.GENERATORS:
            oeis.prime_cache_from_fixture(oeis_id, cache_dir=tmp)
            checked += 1
            if oeis.fetch(oeis_id, source="cache", cache_dir=tmp) != oeis.fetch(
                oeis_id, source="fixture"
            ):
                return checked, f"cache round trip changed {oeis_id}"
    return checked, None


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
    return [
        (index, instance_range)
        for suite_id in ids
        for index, p in enumerate(_REGISTRY)
        if p.suite == suite_id
        for instance_range in p.instance_ranges(bounds)
    ]


def _run_task(task) -> VerificationReport:
    index, instance_range = task
    p = _REGISTRY[index]
    return run_property(p.property_id, instance_range, lambda: p.check(instance_range))


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
