import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permroot.bijections import (
    extend_regular,
    extract_element,
    from_enriched_cycles,
    from_nearly_regular,
    grow_first_cycle,
    insert_element,
    merge_cycle_class,
    shrink_first_cycle,
    split_nearly_regular,
    to_enriched_cycles,
    to_nearly_regular,
)
from permroot import bijections
from permroot.counting import count_reg
from permroot.errors import DomainError, InvalidPermutationError
from permroot.families import (
    FamilySpec,
    enumerate_enriched_cycles,
    enumerate_family,
    enumerate_regular_on,
)
from permroot.permutation import Permutation, parse


class TestExtractInsert:
    def test_worked_example_case3(self, P):
        x, rest = extract_element(P("(1 8 2 5) (3) (4) (6 7)"), 3)
        assert x == 5
        assert rest == P("(1 8) (2) (3) (4) (6 7)")

    def test_insert_smaller_than_everything(self, P):
        assert insert_element(2, P("(3) (4) (6 7)"), 3) == P("(2) (3) (4) (6 7)")

    def test_singleton(self):
        x, rest = extract_element(parse("(1)"), 2)
        assert x == 1 and rest == Permutation()
        assert insert_element(1, Permutation(), 2) == parse("(1)")

    def test_case2_two_cycle(self, P):
        assert extract_element(P("(5 6)"), 3) == (6, P("(5)"))

    def test_worked_example_r2(self, P):
        x, rest = extract_element(P("(5 10 8) (7) (9)"), 2)
        assert x == 8
        assert rest == P("(5) (7 9 10)")

    def test_preconditions(self, P):
        with pytest.raises(DomainError):
            extract_element(Permutation(), 2)
        with pytest.raises(DomainError):
            extract_element(P("(1 2)"), 2)  # size multiple of r
        with pytest.raises(DomainError):
            extract_element(P("(1 2) (3)"), 2)  # not regular
        with pytest.raises(DomainError):
            insert_element(1, P("(2)"), 2)  # size+1 multiple of r
        with pytest.raises(DomainError):
            insert_element(2, P("(2 3)"), 3)  # collision

    @pytest.mark.parametrize("r,n", [(2, 5), (3, 5), (4, 6)])
    def test_roundtrip_exhaustive(self, r, n):
        for sigma in enumerate_family(FamilySpec.regular(r, n)):
            x, rest = extract_element(sigma, r)
            assert insert_element(x, rest, r) == sigma

    def test_roundtrip_on_subsets(self):
        for size in (1, 2, 4):
            for subset in itertools.combinations(range(1, 8), size):
                for sigma in enumerate_regular_on(subset, 3):
                    x, rest = extract_element(sigma, 3)
                    assert insert_element(x, rest, 3) == sigma

    @given(
        st.integers(2, 4),
        st.lists(st.integers(1, 20), min_size=1, max_size=8, unique=True).flatmap(
            lambda elems: st.permutations(elems).map(
                lambda images: Permutation.from_one_line(sorted(elems), images)
            )
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_random_regular(self, r, sigma):
        assume(sigma.size % r != 0)
        assume(all(len(c) % r != 0 for c in sigma.cycles))
        x, rest = extract_element(sigma, r)
        assert insert_element(x, rest, r) == sigma


class TestGrowShrink:
    def test_worked_examples(self, P):
        assert grow_first_cycle(P("(3) (5 6)"), 3) == P("(3 6) (5)")
        assert grow_first_cycle(P("(3 6) (5)"), 3) == P("(3 6 5)")
        assert shrink_first_cycle(P("(3 6) (5)"), 3) == P("(3) (5 6)")
        assert shrink_first_cycle(P("(3 6 5)"), 3) == P("(3 6) (5)")

    def test_even_odd_example(self, P):
        sigma = P("(1 2 3 4 6) (5 10 8) (7) (9)")
        image = grow_first_cycle(sigma, 2)
        assert image == P("(1 2 3 4 6 8) (5) (7 9 10)")
        assert shrink_first_cycle(image, 2) == sigma

    def test_preconditions(self, P):
        with pytest.raises(DomainError):
            grow_first_cycle(P("(1) (2) (3 4)"), 3)  # n-k multiple of r
        with pytest.raises(DomainError):
            grow_first_cycle(P("(1 2) (3 4 5) (6)"), 3)  # rest not regular
        with pytest.raises(DomainError):
            shrink_first_cycle(P("(1) (2) (3)"), 2)  # first cycle too short

    def test_roundtrip_exhaustive_q22(self):
        # every permutation of [n<=6] with regular non-first cycles, r=2
        for n in range(1, 7):
            for p in enumerate_family(FamilySpec.everything(n)):
                lengths = p.cycle_lengths()
                if any(l % 2 == 0 for l in lengths[1:]):
                    continue
                if (n - lengths[0]) % 2 == 0:
                    continue
                assert shrink_first_cycle(grow_first_cycle(p, 2), 2) == p


class TestNearlyRegular:
    def test_worked_examples(self, P):
        assert str(to_nearly_regular(P("(3) (5 6)"), 3)) == "(3 6 5)_1"
        tau = to_nearly_regular(P("(1 2) (3 4) (5 6)"), 3)
        assert str(tau) == "(1 2 4)_2 (3) (5 6)"
        assert from_nearly_regular(tau) == P("(1 2) (3 4) (5 6)")

    def test_inverse_examples(self):
        assert from_nearly_regular(parse("(3 6 5)_1", r=3)) == parse("(3) (5 6)")
        assert from_nearly_regular(parse("(1 2 4)_2 (3) (5 6)", r=3)) == parse(
            "(1 2) (3 4) (5 6)"
        )

    def test_length_law_exhaustive_reg_3_6(self):
        for sigma in enumerate_family(FamilySpec.regular(3, 6)):
            first = len(sigma.cycles[0])
            tau = to_nearly_regular(sigma, 3)
            assert len(tau.base.cycles[0]) == first - first % 3 + 3
            assert tau.color_seq[0] == first % 3
            assert from_nearly_regular(tau) == sigma

    def test_split_helper(self):
        tau = parse("(1 2 4)_2 (3) (5 6)", r=3)
        colored, rest = split_nearly_regular(tau)
        assert colored.cycle == (1, 2, 4)
        assert colored.color == 2
        assert rest == parse("(3) (5 6)")

    def test_rejects_wrong_shapes(self, P):
        with pytest.raises(DomainError):
            to_nearly_regular(P("(1 2) (3 4)"), 3)  # size not multiple of r
        with pytest.raises(DomainError):
            to_nearly_regular(P("(1 2 3) (4 5 6)"), 3)  # not regular
        with pytest.raises(DomainError):
            from_nearly_regular(parse("(1 2 3)_1 (4 5 6)_2", r=3))  # two colored


class TestEnrichedCycles:
    def test_worked_example(self, P):
        tau = to_enriched_cycles(P("(1 2) (3 4) (5 6)"), 3)
        assert str(tau) == "(1 2 4)_2 (3 6 5)_1"
        assert from_enriched_cycles(tau) == P("(1 2) (3 4) (5 6)")

    def test_empty(self):
        tau = to_enriched_cycles(Permutation(), 3)
        assert tau.base == Permutation()
        assert from_enriched_cycles(tau) == Permutation()

    def test_single_colored_two_cycle(self):
        # Reg_2(2) = {(1)(2)}, so the only preimage of any colored pair is it
        sigma = from_enriched_cycles(parse("(1 2)_1", r=2))
        assert sigma == Permutation.identity([1, 2])
        assert to_enriched_cycles(sigma, 2) == parse("(1 2)_1", r=2)

    def test_bijection_reg_3_6(self):
        image = set()
        for sigma in enumerate_family(FamilySpec.regular(3, 6)):
            tau = to_enriched_cycles(sigma, 3)
            assert all(len(c) % 3 == 0 for c in tau.base.cycles)
            assert from_enriched_cycles(tau) == sigma
            image.add(tau)
        assert len(image) == 400 == count_reg(3, 6)
        codomain = set(enumerate_enriched_cycles(3, 6))
        assert image == codomain

    def test_inverse_roundtrip_enriched_2_6(self):
        for tau in enumerate_enriched_cycles(2, 6):
            assert to_enriched_cycles(from_enriched_cycles(tau), 2) == tau


class TestExtendRegular:
    def test_base_case(self):
        assert extend_regular(Permutation(), 1, 2) == parse("(1)")

    def test_surjective_reg_2_3(self):
        outputs = set()
        for sigma in enumerate_family(FamilySpec.regular(2, 2)):
            for j in (1, 2, 3):
                outputs.add(extend_regular(sigma, j, 2))
        assert outputs == set(enumerate_family(FamilySpec.regular(2, 3)))
        assert len(outputs) == 3

    def test_surjective_reg_3_2(self):
        outputs = {extend_regular(parse("(1)"), j, 3) for j in (1, 2)}
        assert outputs == set(enumerate_family(FamilySpec.regular(3, 2)))

    def test_modulus_precondition(self, P):
        with pytest.raises(DomainError):
            extend_regular(P("(1)"), 1, 2)  # n+1 = 2 is a multiple of 2


class TestMergeCycleClass:
    def test_two_by_two(self):
        assert merge_cycle_class([(1, 2), (3, 4)], [3]) == (1, 2, 3, 4)
        assert merge_cycle_class([(1, 2), (3, 4)], [4]) == (1, 2, 4, 3)

    def test_three_breaks_three_outputs(self):
        outputs = {
            merge_cycle_class([(1, 2, 3), (4, 5, 6)], [bp]) for bp in (4, 5, 6)
        }
        assert len(outputs) == 3
        assert all(len(c) == 6 for c in outputs)

    def test_validation(self):
        with pytest.raises(DomainError):
            merge_cycle_class([(1, 2)], [])
        with pytest.raises(DomainError):
            merge_cycle_class([(1, 2), (3, 4, 5)], [3])
        with pytest.raises(DomainError):
            merge_cycle_class([(1, 2), (3, 4)], [9])

    def test_injective_over_classes_from_uniform_family(self):
        # all classes drawn from permutations with two 2-cycles on [4]
        outputs = set()
        expected = 0
        for pi in enumerate_family(FamilySpec.uniform_multiples(2, 2, 4)):
            expected += 2
            for bp in pi.cycles[1]:
                outputs.add(merge_cycle_class(pi.cycles, [bp]))
        assert len(outputs) == expected == 6


# -- the public maps are their checks, a core on cycle tuples and a constructor --

def _in_grow_domain(cycles, n, r):
    return bool(cycles) and (n - len(cycles[0])) % r != 0 and all(len(c) % r for c in cycles[1:])


def _in_shrink_domain(cycles, n, r):
    return bool(cycles) and len(cycles[0]) >= 2 and _in_grow_domain(
        (cycles[0][:-1],) + cycles[1:], n, r
    )


@pytest.mark.parametrize("r", [2, 3, 4])
def test_wrappers_equal_cores(r):
    """Every member of each map's domain over [n], n <= 7: the wrapper's
    output has exactly the core's cycles."""
    for n in range(8):
        for sigma in enumerate_family(FamilySpec.everything(n)):
            cycles = sigma.cycles
            if n % r and all(len(c) % r for c in cycles):
                x, rest = extract_element(sigma, r)
                assert (x, rest.cycles) == bijections._extract(cycles, r)
                # extraction images cover the insertion domain on [n]
                assert insert_element(x, rest, r).cycles == bijections._insert(x, rest.cycles, r)
            if (n + 1) % r and all(len(c) % r for c in cycles):
                for j in range(1, n + 2):
                    labels = [e for e in range(1, n + 2) if e != j]
                    relabeled = sigma.relabel(dict(enumerate(labels, start=1)))
                    assert extend_regular(sigma, j, r).cycles == bijections._insert(
                        j, relabeled.cycles, r
                    )
            if _in_grow_domain(cycles, n, r):
                assert grow_first_cycle(sigma, r).cycles == bijections._grow_first(cycles, r)
            if _in_shrink_domain(cycles, n, r):
                assert shrink_first_cycle(sigma, r).cycles == bijections._shrink_first(cycles, r)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_merge_equals_core(r):
    """Every class of r equal-length cycles of a permutation of [n], n <= 7,
    under every break-point vector, as given and with each cycle rotated."""
    for n in range(8):
        for sigma in enumerate_family(FamilySpec.everything(n)):
            for length in {len(c) for c in sigma.cycles}:
                same = [c for c in sigma.cycles if len(c) == length]
                for chunk in itertools.combinations(same, r):
                    rotated = [c[1:] + c[:1] for c in chunk]
                    for breaks in itertools.product(*chunk[1:]):
                        for given in (chunk, rotated):
                            assert merge_cycle_class(given, breaks) == bijections._merge(
                                given, breaks
                            )


# (map, arguments, error type, message): one row per check of a public map,
# each input passing the checks before it
WRAPPER_CHECKS = [
    (extract_element, (parse("(1)"), 1), DomainError, "r must be an integer >= 2, got 1"),
    (extract_element, (parse(""), 2), DomainError, "ground-set size 0 is a multiple of r=2"),
    (extract_element, (parse("(1 2) (3)"), 2), DomainError, "(1 2) (3) is not 2-regular"),
    (insert_element, (1, parse("(2)"), 1), DomainError, "r must be an integer >= 2, got 1"),
    (insert_element, ("1", parse("(2)"), 3), DomainError,
     "distinguished element must be an integer >= 1, got '1'"),
    (insert_element, (0, parse("(2)"), 3), DomainError,
     "distinguished element must be an integer >= 1, got 0"),
    (insert_element, (2, parse("(2 3)"), 3), DomainError, "element 2 already occurs in (2 3)"),
    (insert_element, (1, parse("(2)"), 2), DomainError,
     "resulting size 2 would be a multiple of r=2"),
    (insert_element, (4, parse("(1 2 3)"), 3), DomainError, "(1 2 3) is not 3-regular"),
    (extend_regular, (parse("(1)"), 1, 1), DomainError, "r must be an integer >= 2, got 1"),
    (extend_regular, (parse("(2 3)"), 1, 2), DomainError, "ground set is not [2]"),
    (extend_regular, (parse("(1)"), 1, 2), DomainError, "n+1=2 is a multiple of r=2"),
    (extend_regular, (parse("(1 2)"), 0, 2), DomainError, "j must lie in 1..3, got 0"),
    (extend_regular, (parse("(1 2)"), 4, 2), DomainError, "j must lie in 1..3, got 4"),
    (extend_regular, (parse("(1 2)"), "1", 2), DomainError, "j must lie in 1..3, got '1'"),
    (extend_regular, (parse("(1 2)"), 1, 2), DomainError, "(1 2) is not 2-regular"),
    (grow_first_cycle, (parse("(1)"), 0), DomainError, "r must be an integer >= 2, got 0"),
    (grow_first_cycle, (parse(""), 2), DomainError, "cannot grow the empty permutation"),
    (grow_first_cycle, (parse("(1) (2) (3 4)"), 3), DomainError, "n-k=3 is a multiple of r=3"),
    (grow_first_cycle, (parse("(1 2) (3 4 5) (6)"), 3), DomainError,
     "cycles beyond the first must be r-regular"),
    (shrink_first_cycle, (parse("(1 2)"), 0), DomainError, "r must be an integer >= 2, got 0"),
    (shrink_first_cycle, (parse(""), 2), DomainError, "cannot shrink the empty permutation"),
    (shrink_first_cycle, (parse("(1) (2) (3)"), 2), DomainError,
     "first cycle has no entry to remove"),
    (shrink_first_cycle, (parse("(1 2) (3 4)"), 3), DomainError, "n-k=3 is a multiple of r=3"),
    (shrink_first_cycle, (parse("(1 2) (3 4)"), 2), DomainError,
     "cycles beyond the first must be r-regular"),
    (to_nearly_regular, (parse("(1)"), 1), DomainError, "r must be an integer >= 2, got 1"),
    (to_nearly_regular, (parse(""), 2), DomainError,
     "the empty permutation has no first cycle to grow"),
    (to_nearly_regular, (parse("(1 2) (3)"), 2), DomainError,
     "ground-set size 3 is not a multiple of r=2"),
    (to_nearly_regular, (parse("(1 2 3) (4 5 6)"), 3), DomainError,
     "(1 2 3) (4 5 6) is not 3-regular"),
    (from_nearly_regular, (parse("(1 2 3)_1 (4 5 6)_2", r=3),), DomainError,
     "expected a nearly regular enrichment: exactly the first cycle colored"),
    (from_nearly_regular, (parse("(1) (2 3 4)_1", r=3),), DomainError,
     "expected a nearly regular enrichment: exactly the first cycle colored"),
    (to_enriched_cycles, (parse("(1 2)"), 1), DomainError, "r must be an integer >= 2, got 1"),
    (to_enriched_cycles, (parse("(1 2) (3)"), 2), DomainError,
     "ground-set size 3 is not a multiple of r=2"),
    (to_enriched_cycles, (parse("(1 2) (3 4)"), 2), DomainError, "(1 2) (3 4) is not 2-regular"),
    (from_enriched_cycles, (parse("(1) (2 3 4)_1", r=3),), DomainError,
     "every cycle must be singular and colored"),
    (merge_cycle_class, ([(1, 2)], []), DomainError, "need at least two cycles to merge"),
    (merge_cycle_class, ([(1, 2), (3, 4, 5)], [3]), DomainError,
     "cycles must all have the same positive length"),
    (merge_cycle_class, ([(), ()], []), DomainError,
     "cycles must all have the same positive length"),
    (merge_cycle_class, ([(1, 2), (2, 3)], [3]), InvalidPermutationError,
     "cycles are not disjoint"),
    (merge_cycle_class, ([(1, 2), (3, 4)], []), DomainError, "expected 1 break points, got 0"),
    (merge_cycle_class, ([(1, 2), (3, 4)], [3, 4]), DomainError,
     "expected 1 break points, got 2"),
    (merge_cycle_class, ([(1, 2), (3, 4)], [9]), DomainError,
     "break point 9 is not in cycle (3, 4)"),
    (from_nearly_regular, (parse("(1 3)_1 (2)", r=2),), DomainError,
     "ground-set size 3 is not a multiple of r=2"),
    (merge_cycle_class, ([(1, 2), (3, "a")], [3]), DomainError,
     "cycle entry must be an integer >= 1, got 'a'"),
]


@pytest.mark.parametrize(
    "fn, args, error, message", WRAPPER_CHECKS,
    ids=[f"{row[0].__name__}-{i}" for i, row in enumerate(WRAPPER_CHECKS)],
)
def test_wrapper_checks_raise(fn, args, error, message):
    with pytest.raises(error) as exc:
        fn(*args)
    assert type(exc.value) is error and str(exc.value) == message
