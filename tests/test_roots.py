import gc
import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from permroot import roots
from permroot.errors import DomainError
from permroot.families import FamilySpec, enumerate_family
from permroot.permutation import Permutation, parse_cycle_type
from permroot.roots import (
    TRIAL_DIVISION_BOUND,
    brute_force_root_table,
    brute_force_root_tables,
    bunch_sizes,
    find_root_bruteforce,
    has_root_general,
    has_root_prime_power,
    is_prime,
    is_qr_divisible,
    prime_power_decomposition,
    smallest_bunch_size,
)


class TestPrimePowerCriterion:
    def test_square_permutation_example(self, P):
        assert has_root_prime_power(P("(1 2 3 4) (5 6 7 8)"), 2, 1)

    def test_identity_always_passes(self):
        ident = Permutation.identity(range(1, 6))
        for q, l in ((2, 1), (2, 2), (3, 1), (5, 1)):
            assert has_root_prime_power(ident, q, l)

    def test_single_transposition_fails(self, P):
        assert not has_root_prime_power(P("(1 2)"), 2, 1)
        assert find_root_bruteforce(P("(1 2)"), 2) is None

    def test_q_must_be_prime(self, P):
        with pytest.raises(DomainError):
            has_root_prime_power(P("(1 2)"), 4, 1)

    def test_prime_power_decomposition(self):
        assert prime_power_decomposition(8) == (2, 3)
        assert prime_power_decomposition(6) is None

    def test_primes_and_prime_powers_below_2000(self):
        primes = [q for q in range(2, 2000) if all(q % d for d in range(2, q))]
        powers = {q**l: (q, l) for q in primes for l in range(1, 11) if q**l < 2000}
        for m in range(-2, 2000):
            assert is_prime(m) == (m in primes)
            assert prime_power_decomposition(m) == powers.get(m)

    def test_trial_division_bound(self):
        assert prime_power_decomposition(2**40) == (2, 40)
        assert prime_power_decomposition(2**41) == (2, 41)
        assert prime_power_decomposition(3**30) == (3, 30)
        assert not is_prime(10**12)
        # 2**61 - 1 is prime: trial division to its square root would not
        # return; a child process times each refusal
        code = (
            "import time\n"
            "from permroot.errors import DomainError\n"
            "from permroot.roots import is_prime, prime_power_decomposition\n"
            "for fn in (is_prime, prime_power_decomposition):\n"
            "    start = time.perf_counter()\n"
            "    try:\n"
            "        fn(2**61 - 1)\n"
            "    except DomainError as exc:\n"
            "        print(time.perf_counter() - start, exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=10, env=env
        )
        lines = done.stdout.splitlines()
        assert len(lines) == 2, done.stderr
        for line in lines:
            seconds, message = line.split(" ", 1)
            assert float(seconds) < 1
            assert message == (
                f"trial division is bounded by {TRIAL_DIVISION_BOUND}: "
                f"{2**61 - 1} has no prime factor up to {math.isqrt(TRIAL_DIVISION_BOUND)}"
            )

    def test_fourth_root_needs_multiplicity_four(self, P):
        # two 2-cycles have a square root but no fourth root
        sigma = P("(1 2) (3 4)")
        assert has_root_prime_power(sigma, 2, 1)
        assert not has_root_prime_power(sigma, 2, 2)
        assert find_root_bruteforce(sigma, 4) is None


class TestGeneralCriterion:
    def test_bunch_sizes_prime(self):
        assert bunch_sizes(1, 3) == (1, 3)
        assert bunch_sizes(3, 3) == (3,)
        assert bunch_sizes(2, 3) == (1, 3)

    def test_bunch_sizes_are_multiples_of_the_smallest(self):
        for r in range(1, 61):
            for length in range(1, 61):
                sizes = bunch_sizes(length, r)
                assert sizes[0] == smallest_bunch_size(length, r)
                assert all(d % sizes[0] == 0 for d in sizes)

    def test_matches_prime_power_criterion(self):
        for n in range(0, 8):
            for lengths in _partitions(n):
                p = _representative(lengths)
                for r in (2, 3, 4, 5, 7, 8, 9):
                    q, l = prime_power_decomposition(r)
                    assert has_root_general(p, r) == has_root_prime_power(p, q, l)

    def test_criterion_keeps_nothing_per_input(self):
        """Deciding distinct inputs leaves nothing allocated from roots.py
        once gc.collect() has emptied the interpreter's free lists."""
        perms = [
            Permutation([tuple(range(1, k + 1)), *((e,) for e in range(k + 1, 101))])
            for k in range(1, 101)
        ]
        tracemalloc.start()
        try:
            verdicts = [has_root_general(p, r) for p in perms for r in (2, 3, 6)]
            sizes = [len(table) for table in roots.brute_force_root_tables(5, (2, 3, 6, 2))]
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert len(verdicts) == 300
        assert sizes == [60, 80, 40, 60]
        held = snapshot.filter_traces([tracemalloc.Filter(True, roots.__file__)])
        assert held.statistics("filename") == []

    @pytest.mark.parametrize("n", range(0, 6))
    @pytest.mark.parametrize("r", range(2, 10))
    def test_oracle_equivalence_small(self, n, r):
        table = brute_force_root_table(n, r)
        for img in itertools.permutations(range(1, n + 1)):
            p = Permutation.from_one_line(range(1, n + 1), img)
            assert has_root_general(p, r) == (img in table)

    def test_bad_degree_messages(self, P):
        sigma = P("(1 2)")
        message = r"^root degree must be an integer >= 2, got 1$"
        for call in (has_root_general, find_root_bruteforce):
            with pytest.raises(DomainError, match=message):
                call(sigma, 1)
        with pytest.raises(DomainError, match=r"^r must be an integer >= 2, got 'x'$"):
            is_qr_divisible(parse_cycle_type("2^2"), 2, "x")

    def test_sixth_root_counts(self):
        assert len(brute_force_root_table(4, 6)) == 4
        assert len(brute_force_root_table(5, 6)) == 40


class TestBruteForce:
    def test_witness_squares_back(self, P):
        sigma = P("(1 2 3 4) (5 6 7 8)")
        witness = find_root_bruteforce(sigma, 2)
        assert witness is not None
        assert witness.power(2) == sigma

    def test_least_witness_is_identity_for_identity(self):
        ident = Permutation.identity([1, 2, 3])
        assert find_root_bruteforce(ident, 5) == ident

    def test_bound(self):
        with pytest.raises(DomainError):
            find_root_bruteforce(Permutation.identity(range(1, 10)), 2)
        with pytest.raises(DomainError):
            brute_force_root_table(9, 2)

    def test_arbitrary_ground_set(self, P):
        sigma = P("(3 5) (6 9)")
        witness = find_root_bruteforce(sigma, 2)
        assert witness is not None and witness.power(2) == sigma


def _power_table(n, r):
    """The root table rebuilt from ``Permutation.power``: each r-th power of
    S_n in one-line form -> its lexicographically least root."""
    elems = range(1, n + 1)
    table = {}
    for img in itertools.permutations(elems):
        power = Permutation.from_one_line(elems, img).power(r).one_line()
        table.setdefault(power, img)
    return table


def _degrees(n):
    """r = 2..12, the period lcm(1..n) of S_n, one past it, and a huge r."""
    period = math.lcm(*range(1, n + 1))
    return sorted({*range(2, 13), period, period + 1, 10**18 + 1})


class TestBruteForceAgainstPowers:
    @pytest.mark.parametrize("n", range(0, 7))
    def test_table_matches_powers(self, n):
        for r in _degrees(n):
            assert list(brute_force_root_table(n, r).items()) == list(_power_table(n, r).items())

    @pytest.mark.parametrize("n", range(0, 7))
    def test_one_pass_matches_one_table_per_degree(self, n):
        """Repeats, descending degrees, two degrees equal mod lcm(1..n), r = 1
        and a huge r: the tables equal the one-degree tables item for item,
        insertion order included, and a repeat gets a table of its own."""
        period = math.lcm(*range(1, n + 1))
        for degrees in (
            [2, 3, 2], [9, 8, 6, 5, 4, 3, 2], [3, 3 + period, 2], [1, 10**18 + 1, 4, 1],
            [period + 2, 7, period], [5],
        ):
            tables = brute_force_root_tables(n, degrees)
            assert [list(t.items()) for t in tables] == [
                list(brute_force_root_table(n, r).items()) for r in degrees
            ], degrees
            assert len({id(t) for t in tables}) == len(degrees)
        assert brute_force_root_tables(n, []) == []

    @pytest.mark.parametrize("n", range(0, 6))
    def test_find_agrees_with_table(self, n):
        elems = range(1, n + 1)
        sparse = {e: 3 * e + 2 for e in elems}  # order-preserving relabelling
        for r in _degrees(n):
            if r < 2:
                continue
            table = _power_table(n, r)
            for img in itertools.permutations(elems):
                sigma = Permutation.from_one_line(elems, img)
                root = table.get(img)
                want = None if root is None else Permutation.from_one_line(elems, root)
                assert find_root_bruteforce(sigma, r) == want
                assert find_root_bruteforce(sigma.relabel(sparse), r) == (
                    None if want is None else want.relabel(sparse)
                )

    def test_table_outputs_unchanged(self):
        """One sha256 over every table for n <= 7 and r = 2..12, entries in
        insertion order, recorded before the power computation was rewritten."""
        digest = hashlib.sha256()
        for n in range(0, 8):
            for r in range(2, 13):
                digest.update(repr((n, r, list(brute_force_root_table(n, r).items()))).encode())
        assert digest.hexdigest() == "c48787b5977a930562680c745b650131bb8c62ecfe93b252c81e589dbdd6e041"


class TestQrDivisible:
    def test_empty_type(self):
        assert is_qr_divisible(parse_cycle_type(""), 2, 2)

    def test_examples(self):
        assert is_qr_divisible(parse_cycle_type("2^2,4^2"), 2, 2)
        assert not is_qr_divisible(parse_cycle_type("2^1"), 2, 2)
        assert not is_qr_divisible(parse_cycle_type("3^2"), 2, 2)

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            is_qr_divisible(parse_cycle_type("2^2"), 1, 2)


class TestRegularInclusion:
    @pytest.mark.parametrize("q,l", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_regular_subset_of_roots(self, q, l):
        for n in range(0, 7):
            for sigma in enumerate_family(FamilySpec.regular(q, n)):
                assert has_root_prime_power(sigma, q, l)


def _partitions(total):
    def rec(remaining, max_part, acc):
        if remaining == 0:
            yield tuple(acc)
            return
        for part in range(min(remaining, max_part), 0, -1):
            acc.append(part)
            yield from rec(remaining - part, part, acc)
            acc.pop()
    yield from rec(total, total, [])


def _representative(lengths):
    cycles = []
    start = 1
    for ln in lengths:
        cycles.append(tuple(range(start, start + ln)))
        start += ln
    return Permutation(cycles)
