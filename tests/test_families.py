import hashlib
import itertools

import pytest

from permroot import families
from permroot.counting import count_reg
from permroot.errors import DomainError, EnumerationBoundError
from permroot.families import (
    _FAMILIES,
    FamilySpec,
    _cycles_of_one_line,
    classify,
    enumerate_enriched_cycles,
    enumerate_family,
    enumerate_regular_on,
    is_nearly_regular,
    is_regular,
)
from permroot.permutation import Permutation, parse, parse_cycle_type


class TestClassify:
    def test_nearly_regular_example(self):
        p = parse("(1 2 4) (3) (5 6)")
        assert classify(p, FamilySpec.nearly_regular(3, 6))
        assert is_nearly_regular(p, 3)

    def test_identity_is_regular_for_all_r(self):
        for n in (0, 1, 4):
            ident = Permutation.identity(range(1, n + 1))
            for r in range(2, 7):
                assert classify(ident, FamilySpec.regular(r, n))

    def test_cycle_membership_by_length(self):
        p = parse("(1 2 3 4) (5 6 7 8)")
        assert classify(p, FamilySpec.cycle(2, 8))
        assert classify(p, FamilySpec.cycle(4, 8))
        assert not classify(p, FamilySpec.cycle(3, 8))

    def test_incompatible_ground_set(self):
        with pytest.raises(DomainError):
            classify(parse("(1 2)"), FamilySpec.regular(2, 3))

    def test_singular_type_family(self):
        spec = FamilySpec.singular_type(parse_cycle_type("2^2"), 2, 5)
        assert classify(parse("(1 2) (3 4) (5)"), spec)
        assert not classify(parse("(1 2) (3 4 5)"), spec)

    def test_singular_type_membership_large(self):
        sigma = parse("(1 2) (3 4) (5 9 7 8) (6 10 11 13) (12)")
        spec = FamilySpec.singular_type(parse_cycle_type("2^2,4^2"), 2, 13)
        assert classify(sigma, spec)
        assert not classify(sigma, FamilySpec.singular_type(parse_cycle_type("2^2"), 2, 13))

    def test_a_p_families(self):
        assert classify(parse("(1 2 3 4 6) (5 10 8) (7) (9)"), FamilySpec.odd_with_first(10, 3))
        assert classify(parse("(1 2 3 4 6 8) (5) (7 9 10)"), FamilySpec.even_first(10, 3))

    def test_predicates_agree_with_classify(self):
        for n in range(7):
            reg = {r: FamilySpec.regular(r, n) for r in (2, 3, 4)}
            nreg = {r: FamilySpec.nearly_regular(r, n) for r in (2, 3, 4)}
            for p in enumerate_family(FamilySpec.everything(n)):
                for r in (2, 3, 4):
                    assert is_regular(p, r) == classify(p, reg[r])
                    assert is_nearly_regular(p, r) == classify(p, nreg[r])

    def test_rho_with_regular_length_rejected(self):
        with pytest.raises(DomainError):
            FamilySpec.singular_type(parse_cycle_type("3"), 2, 5)


class TestEnumerate:
    def test_reg_2_2(self):
        members = list(enumerate_family(FamilySpec.regular(2, 2)))
        assert members == [Permutation.identity([1, 2])]

    def test_cyc_3_4_empty(self):
        assert list(enumerate_family(FamilySpec.cycle(3, 4))) == []

    def test_reg_3_6_count(self):
        assert sum(1 for _ in enumerate_family(FamilySpec.regular(3, 6))) == 400

    def test_lexicographic_one_line_order(self):
        stream = [p.one_line() for p in enumerate_family(FamilySpec.everything(4))]
        assert stream == sorted(itertools.permutations((1, 2, 3, 4)))

    def test_bound_enforced(self):
        with pytest.raises(EnumerationBoundError):
            next(enumerate_family(FamilySpec.everything(11)))
        with pytest.raises(EnumerationBoundError, match="exceeds 12, the largest n enumerated"):
            next(enumerate_family(FamilySpec.everything(13), bound=13))
        assert sum(1 for _ in enumerate_family(FamilySpec.everything(3), bound=3)) == 6

    def test_q_partitions_regular(self):
        # the first-cycle families with regular first length partition Reg_r(n)
        for r, n in ((2, 6), (3, 7)):
            total = 0
            seen = set()
            for k in range(1, n + 1):
                if k % r == 0:
                    continue
                members = list(enumerate_family(FamilySpec.first_cycle(r, k, n)))
                assert all(is_regular(p, r) for p in members)
                total += len(members)
                seen.update(members)
            assert total == len(seen) == count_reg(r, n)

    def test_nreg_is_union_of_singular_first_cycles(self):
        r, n = 2, 6
        by_union = set()
        for k in range(r, n + 1, r):
            by_union.update(enumerate_family(FamilySpec.first_cycle(r, k, n)))
        direct = set(enumerate_family(FamilySpec.nearly_regular(r, n)))
        assert by_union == direct

    def test_enumerate_regular_on_subset(self):
        members = list(enumerate_regular_on({3, 5, 6}, 3))
        assert parse("(3) (5 6)") in members
        assert all(p.ground_set() == frozenset({3, 5, 6}) for p in members)
        assert len(members) == count_reg(3, 3)

    def test_enriched_enumeration_counts_colors(self):
        members = list(enumerate_enriched_cycles(3, 3))
        # two 3-cycles, two colors each
        assert len(members) == 4
        assert len(set(members)) == 4


# sha256 over every family stream of stream_grid(), recorded before the families
# were declared in one table; it pins membership and stream order of every tag.
FAMILY_STREAMS_SHA256 = "fe850a8a2188abccd2f6b6bf92e79967b94d6f3a4fc1ddd1c6eb6cc1b2a4342c"


def _singular_types(q, n):
    """Every cycle type with all lengths divisible by q and size <= n, as text."""
    def parts(budget, smallest):
        yield ()
        for length in range(smallest, budget + 1, q):
            for rest in parts(budget - length, length):
                yield (length,) + rest

    for lengths in parts(n, q):
        yield ",".join(f"{ln}^{lengths.count(ln)}" for ln in sorted(set(lengths)))


def stream_grid():
    """(label, spec) for every tag at n <= 6, r in {2, 3, 4}, every k,
    q in {2, 3} and every admissible rho, plus the A/P constructors."""
    for n in range(7):
        yield f"all {n}", FamilySpec.everything(n)
        for r in (2, 3, 4):
            yield f"reg {r} {n}", FamilySpec.regular(r, n)
            yield f"cyc {r} {n}", FamilySpec.cycle(r, n)
            yield f"nreg {r} {n}", FamilySpec.nearly_regular(r, n)
            yield f"roots {r} {n}", FamilySpec.with_root(r, n)
            for k in range(1, n + 1):
                yield f"q {r} {k} {n}", FamilySpec.first_cycle(r, k, n)
        for q in (2, 3):
            for r in (2, 3, 4):
                yield f"cyc-qr {q} {r} {n}", FamilySpec.uniform_multiples(q, r, n)
            for rho in _singular_types(q, n):
                yield f"s-rho-q {rho} {q} {n}", FamilySpec.singular_type(
                    parse_cycle_type(rho), q, n
                )
        for k in range(1, (n + 1) // 2 + 1):
            yield f"odd_with_first {n} {k}", FamilySpec.odd_with_first(n, k)
        for k in range(1, n // 2 + 1):
            yield f"even_first {n} {k}", FamilySpec.even_first(n, k)


def test_family_streams_unchanged():
    h = hashlib.sha256()
    for label, spec in stream_grid():
        h.update(f"{label}\n".encode())
        for p in enumerate_family(spec):
            h.update(f"{p}\n".encode())
    assert h.hexdigest() == FAMILY_STREAMS_SHA256


def assert_matches_reference(n, specs):
    """Walk S_n once with the plain per-permutation filter and check that
    enumerate_family yields, for every spec, the same members in the same order."""
    streams = [(_FAMILIES[spec.tag][1], spec, enumerate_family(spec)) for spec in specs]
    for img in itertools.permutations(range(1, n + 1)):
        cycles = _cycles_of_one_line(img)
        ls = tuple(map(len, cycles))
        for member, spec, stream in streams:
            if member(ls, spec):
                assert next(stream).cycles == cycles, (spec, img)
    for _, spec, stream in streams:
        assert next(stream, None) is None, spec


def oracle_grid(n):
    """Every tag at n (q once n >= 1), with a few parameters each."""
    yield FamilySpec.everything(n)
    for r in (2, 3):
        yield FamilySpec.regular(r, n)
        yield FamilySpec.cycle(r, n)
        yield FamilySpec.nearly_regular(r, n)
        yield FamilySpec.with_root(r, n)
        for k in range(1, min(n, 3) + 1):
            yield FamilySpec.first_cycle(r, k, n)
    for q, r in ((2, 2), (3, 2), (2, 3)):
        yield FamilySpec.uniform_multiples(q, r, n)
    for rho in ("", "2", "2^2", "4", "2,4"):
        cycle_type = parse_cycle_type(rho)
        if cycle_type.total <= n:
            yield FamilySpec.singular_type(cycle_type, 2, n)


@pytest.mark.parametrize("n", range(9))
def test_prefix_scan_matches_per_permutation_filter(n):
    specs = list(oracle_grid(n))
    assert {spec.tag for spec in specs} == set(_FAMILIES) - ({"q"} if n == 0 else set())
    assert_matches_reference(n, specs)


def test_prefix_scan_matches_per_permutation_filter_at_9():
    assert_matches_reference(9, [
        FamilySpec.regular(2, 9), FamilySpec.cycle(3, 9), FamilySpec.uniform_multiples(3, 3, 9)
    ])


def _compositions(n):
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def test_membership_reads_first_length_and_multiset_only():
    # the contract enumerate_family relies on: it passes ls[1:] sorted
    for n in range(8):
        specs = list(oracle_grid(n)) + [
            FamilySpec.first_cycle(4, k, n) for k in range(1, n + 1)
        ] + [FamilySpec.regular(4, n), FamilySpec.uniform_multiples(3, 3, n)]
        for ls in _compositions(n):
            orders = {ls[:1] + rest for rest in itertools.permutations(ls[1:])}
            for spec in specs:
                member = _FAMILIES[spec.tag][1]
                assert len({bool(member(order, spec)) for order in orders}) == 1, (ls, spec)


def test_scan_keeps_no_per_permutation_state():
    assert sum(1 for _ in enumerate_family(FamilySpec.uniform_multiples(3, 3, 9))) == 2240
    memo, keys = families._COMPLETIONS[9]
    assert len(memo) + len(keys) < 2000
    # one chunk of 4! key ids per signature, nothing with 9! entries
    assert all(len(chunk) == 24 for chunk in memo.values())
    assert set(families._COMPLETIONS) <= set(range(10))
