import hashlib
import itertools
import math
import pickle

import pytest

from permroot import families
from permroot.counting import count_cyc, count_cyc_qr, count_reg
from permroot.errors import DomainError, EnumerationBoundError, InvalidPermutationError
from permroot.families import (
    _FAMILIES,
    FamilySpec,
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


class TestFamilySpec:
    """FamilySpec keeps the contract of a frozen dataclass of its fields."""

    def test_repr(self):
        assert repr(FamilySpec.regular(2, 5)) == (
            "FamilySpec(tag='reg', n=5, r=2, q=None, k=None, rho=None)"
        )

    def test_equal_specs_hash_equal(self):
        spec = FamilySpec.regular(2, 5)
        assert spec == FamilySpec("reg", 5, r=2) and hash(spec) == hash(FamilySpec("reg", 5, r=2))
        assert spec != FamilySpec.regular(3, 5) and spec != FamilySpec.cycle(2, 5)
        assert len({spec, FamilySpec("reg", 5, r=2), FamilySpec.regular(3, 5)}) == 2

    def test_not_equal_to_a_plain_tuple(self):
        spec = FamilySpec.regular(2, 5)
        assert spec != ("reg", 5, 2, None, None, None)
        assert ("reg", 5, 2, None, None, None) != spec

    def test_attributes_are_immutable(self):
        spec = FamilySpec.regular(2, 5)
        with pytest.raises(AttributeError):
            spec.n = 6
        with pytest.raises(AttributeError):
            spec.extra = 1
        with pytest.raises(AttributeError):
            del spec.r
        assert spec.n == 5 and spec.r == 2

    def test_pickle_round_trip(self):
        for spec in (
            FamilySpec.regular(2, 5),
            FamilySpec.first_cycle(3, 2, 7),
            FamilySpec.singular_type(parse_cycle_type("2^2"), 2, 6),
        ):
            assert pickle.loads(pickle.dumps(spec)) == spec


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

    @pytest.mark.parametrize("r", [2, 3])
    def test_enumerate_regular_on_equals_relabel(self, r):
        """The trusted relabeling gives what the validating relabel gives,
        member for member, on every subset of [7]."""
        for size in range(8):
            for subset in itertools.combinations(range(1, 8), size):
                labels = dict(enumerate(subset, start=1))
                expected = [
                    p.relabel(labels) for p in enumerate_family(FamilySpec.regular(r, size))
                ]
                got = list(enumerate_regular_on(subset, r))
                assert [p.cycles for p in got] == [p.cycles for p in expected]

    @pytest.mark.parametrize("elements", [[0, 1, 2], [-1, 3], [1, 2.5], [2, 2, 3], [True, 2]])
    def test_enumerate_regular_on_rejects_bad_labels(self, elements):
        """Labels must be distinct positive integers: a repeated label is
        refused, not dropped."""
        if len(set(elements)) < len(elements):
            message = "^element 2 appears in more than one position$"
        else:
            message = "must be positive integers"
        with pytest.raises(InvalidPermutationError, match=message):
            next(enumerate_regular_on(elements, 2))

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


def cycles_of_images(img):
    """Canonical cycles of i -> img[i-1], from each least unseen element: a
    walk of the test's own, shared with neither the scan nor Permutation."""
    seen, cycles = set(), []
    for s in range(1, len(img) + 1):
        if s not in seen:
            cycle = [s]
            while img[cycle[-1] - 1] != s:
                cycle.append(img[cycle[-1] - 1])
            seen.update(cycle)
            cycles.append(tuple(cycle))
    return tuple(cycles)


def assert_matches_reference(n, specs):
    """Walk S_n once with the plain per-permutation filter and check that
    enumerate_family yields, for every spec, the same members in the same order."""
    streams = [(_FAMILIES[spec.tag][1], spec, enumerate_family(spec)) for spec in specs]
    for img in itertools.permutations(range(1, n + 1)):
        cycles = cycles_of_images(img)
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


def _key_of(p):
    """The scan's key of a member: the length of the cycle of 1, then the
    other lengths sorted; () for the empty permutation."""
    c = p.cycles
    return (len(c[0]), *sorted(map(len, c[1:]))) if c else ()


@pytest.mark.parametrize("n", range(9))
def test_member_keys_follow_the_member_stream(n):
    specs = list(oracle_grid(n))
    assert {spec.tag for spec in specs} == set(_FAMILIES) - ({"q"} if n == 0 else set())
    for spec in specs:
        assert list(families._member_keys(spec)) == list(map(_key_of, enumerate_family(spec))), spec
    if n == 0:
        assert list(families._member_keys(FamilySpec.everything(0), bound=0)) == [()]


@pytest.mark.parametrize("args", [
    ("reg",), (FamilySpec.everything(3), -1), (FamilySpec.everything(3), True),
    (FamilySpec.everything(3), "9"), (FamilySpec.everything(11),),
    (FamilySpec.everything(13), 13),
], ids=["not-a-spec", "negative-bound", "bool-bound", "str-bound", "past-bound", "n-13"])
def test_member_keys_raise_what_enumerate_family_raises(args):
    raised = []
    for stream in (enumerate_family, families._member_keys):
        with pytest.raises(DomainError) as caught:
            next(stream(*args))
        raised.append((type(caught.value), str(caught.value)))
    assert raised[0] == raised[1]


def test_member_keys_free_the_memo_above_the_default_bound():
    keys = families._member_keys(FamilySpec.everything(11), bound=11)
    assert next(keys) == (1,) * 11
    assert 11 in families._COMPLETIONS
    keys.close()
    assert 11 not in families._COMPLETIONS


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
    # one memo per level j <= _TAIL, holding chunks of j! key ids; every
    # complete S_9 scan visits all 504 prefixes, so the memo has this exact
    # shape whichever scans ran first, and nothing with 9! entries
    assert len(memo) == families._TAIL + 1
    for j, level in enumerate(memo):
        assert all(len(chunk) == math.factorial(j) for chunk in level.values())
    assert [len(level) for level in memo] == [67, 165, 424, 922, 1292, 897, 316]
    assert len(keys) == 67
    assert set(families._COMPLETIONS) <= set(range(10))


def test_scan_above_default_bound_frees_its_memo():
    """The S_11 chunks (11 MB) go when the scan ends or is closed."""
    assert list(enumerate_family(FamilySpec.cycle(4, 11), bound=11)) == []
    assert 11 not in families._COMPLETIONS
    scan = enumerate_family(FamilySpec.everything(11), bound=11)
    assert next(scan).one_line() == tuple(range(1, 12))
    assert 11 in families._COMPLETIONS
    scan.close()
    assert 11 not in families._COMPLETIONS


def test_scan_at_the_largest_n_and_at_bound_zero():
    """n = 12, the largest n enumerated, streams from the identity (closing
    the scan frees its memo); bound 0 admits n = 0."""
    assert families._MAX_N == 12
    scan = enumerate_family(FamilySpec.everything(12), bound=12)
    assert next(scan) == Permutation.identity(range(1, 13))
    scan.close()
    assert 12 not in families._COMPLETIONS
    assert list(enumerate_family(FamilySpec.everything(0), bound=0)) == [Permutation()]


def _walk_completions(sig, m):
    """The keys of the m! completions of a prefix with signature ``sig``, in
    lexicographic order, by walking the cycles of each completion: the
    completion that sends the j-th tail to head picks[j] joins path i to
    path picks[tails[i]]."""
    tails, lengths, one, closed = sig[:m], sig[m:2 * m], sig[2 * m], sig[2 * m + 1:]
    keys = []
    for picks in itertools.permutations(range(m)):
        cycle_lengths = list(closed)
        first = one - m  # 1 lies on a closed cycle, unless on path number one
        done = bytearray(m)
        for i in range(m):
            total = 0
            holds_one = False
            j = i
            while not done[j]:
                done[j] = 1
                holds_one |= j == one
                total += lengths[j]
                j = picks[tails[j]]
            if total:
                cycle_lengths.append(total)
                if holds_one:
                    first = total
        cycle_lengths.sort()
        if cycle_lengths:
            cycle_lengths.remove(first)
            keys.append((first, *cycle_lengths))
        else:
            keys.append(())
    return keys


def test_recursive_chunks_match_direct_walk():
    """Every chunk the scans of S_n (n <= 9) memoize, at every level, decodes
    to the keys a direct walk of its signature's completions gives."""
    for n in range(9):
        assert sum(1 for _ in enumerate_family(FamilySpec.cycle(2, n))) == count_cyc(2, n)
    for spec in (
        FamilySpec.regular(2, 9), FamilySpec.cycle(3, 9), FamilySpec.uniform_multiples(3, 3, 9)
    ):
        for _ in enumerate_family(spec):
            pass
    for n in range(10):
        memo, key_ids = families._COMPLETIONS[n]
        keys = list(key_ids)
        for m, level in enumerate(memo):
            for sig, chunk in level.items():
                assert [keys[i] for i in chunk] == _walk_completions(sig, m), (n, sig)


def test_uniform_multiples_at_10_streams_its_count():
    spec = FamilySpec.uniform_multiples(2, 5, 10)
    try:
        assert sum(1 for _ in enumerate_family(spec)) == count_cyc_qr(2, 5, 10) == 945
    finally:
        families._COMPLETIONS.pop(10, None)  # drop the S_10 chunks the other tests do not use
