"""The bijection laws far beyond the exhaustive grids.

* the r = 3 chain input (cycles of lengths 4, 2, 4, 2, ... with each minimum
  first and large entries after it, then one fixed point), on which every
  extraction walks the whole chain;
* hypothesis round trips on random r-regular permutations of about 10^4
  elements;
* one sha256 over the images of every map on a seeded corpus of small
  random inputs, recorded from the earlier recursive implementation.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permroot.bijections import (
    extend_regular,
    extract_element,
    from_enriched_cycles,
    from_nearly_regular,
    grow_first_cycle,
    insert_element,
    shrink_first_cycle,
    to_enriched_cycles,
    to_nearly_regular,
)
from permroot.cli import main
from permroot.permutation import EnrichedPermutation, Permutation, parse

CORPUS_SEED = 20250206
CORPUS_SIZE = 2000
CORPUS_DIGEST = "84a101708684f443b5a6d7385c2781d880066db6a13d172e6e235aece75906c0"


def chain_cycles(count: int, start: int = 1) -> list[list[int]]:
    """``count`` cycles of lengths 4, 2, 4, 2, ... with minima start,
    start+1, ... in order, shuffled large entries after each minimum, then
    the fixed point start+count."""
    rng = random.Random(count)
    total = sum(4 if i % 2 == 0 else 2 for i in range(count))
    low = start + count + 1
    large = list(range(low, low + total - count))
    rng.shuffle(large)
    cycles, pos = [], 0
    for i in range(count):
        width = 3 if i % 2 == 0 else 1
        cycles.append([start + i] + large[pos : pos + width])
        pos += width
    cycles.append([start + count])
    return cycles


def draw_lengths(rng: random.Random, n: int, longest: int, r: int = 0) -> list[int]:
    """Cycle lengths summing to n, none a multiple of r when r is given;
    mostly at most ``longest``, one in ten up to ten times longer."""
    lengths = []
    while n:
        length = rng.randint(1, min(n, longest * (10 if rng.random() < 0.1 else 1)))
        while r and length % r == 0:
            length -= 1
        lengths.append(length)
        n -= length
    return lengths


def place(rng: random.Random, lengths, labels) -> Permutation:
    labels = list(labels)
    rng.shuffle(labels)
    cycles, pos = [], 0
    for length in lengths:
        cycles.append(labels[pos : pos + length])
        pos += length
    return Permutation(cycles)


def random_regular(rng: random.Random, n: int, r: int, labels=None) -> Permutation:
    return place(rng, draw_lengths(rng, n, 2 * r + 1, r), labels or range(1, n + 1))


def random_enriched_cycles(rng: random.Random, n: int, r: int) -> EnrichedPermutation:
    """Singular cycles with random colors on [n], n a multiple of r."""
    lengths = [r * k for k in draw_lengths(rng, n // r, 3)]
    base = place(rng, lengths, range(1, n + 1))
    return EnrichedPermutation(base, r, [rng.randint(1, r - 1) for _ in base.cycles])


def random_nearly_regular(rng: random.Random, n: int, r: int) -> EnrichedPermutation:
    """A colored singular cycle through 1 next to an r-regular rest on [n]."""
    k = r * rng.randint(1, n // r)
    first = [1] + rng.sample(range(2, n + 1), k - 1)
    rest = sorted(set(range(2, n + 1)) - set(first))
    cycles = [first] + [list(c) for c in random_regular(rng, n - k, r, rest).cycles]
    base = Permutation(cycles)
    return EnrichedPermutation(base, r, [rng.randint(1, r - 1)] + [None] * (len(cycles) - 1))


def corpus_images(seed: int, size: int):
    """The image of every applicable map on ``size`` seeded random inputs of
    up to 240 elements, as text lines."""
    rng = random.Random(seed)
    for _ in range(size):
        r = rng.choice((2, 3, 4, 5))
        n = rng.randint(1, 240)
        on_range = rng.random() < 0.5
        labels = None if on_range else rng.sample(range(1, 3 * n + 1), n)
        sigma = random_regular(rng, n, r, labels)
        if n % r:
            x, rest = extract_element(sigma, r)
            yield f"delta {x} | {rest}"
        if (n + 1) % r:
            free = sorted(set(range(1, 3 * n + 2)) - sigma.ground_set())
            yield f"delta-inv {insert_element(rng.choice(free), sigma, r)}"
            if on_range:
                yield f"psi {extend_regular(sigma, rng.randint(1, n + 1), r)}"
        if (n - len(sigma.cycles[0])) % r:
            yield f"phi {grow_first_cycle(sigma, r)}"
        if len(sigma.cycles[0]) > 1 and (n - len(sigma.cycles[0]) + 1) % r:
            yield f"alpha {shrink_first_cycle(sigma, r)}"
        if n % r == 0:
            yield f"lambda {to_nearly_regular(sigma, r)}"
            yield f"Phi {to_enriched_cycles(sigma, r)}"
        m = r * rng.randint(1, 240 // r)
        yield f"lambda-inv {from_nearly_regular(random_nearly_regular(rng, m, r))}"
        yield f"Phi-inv {from_enriched_cycles(random_enriched_cycles(rng, m, r))}"


def corpus_digest(seed: int = CORPUS_SEED, size: int = CORPUS_SIZE) -> str:
    h = hashlib.sha256()
    for line in corpus_images(seed, size):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


class TestChain:
    def test_extract_insert_on_long_chain(self):
        sigma = Permutation(chain_cycles(10**5))
        assert insert_element(*extract_element(sigma, 3), 3) == sigma

    def test_phi_roundtrip_on_chain_behind_fixed_point(self):
        sigma = Permutation([[1]] + chain_cycles(1001, start=2))
        assert sigma.size % 3 == 0 and sigma.size >= 3000
        assert from_enriched_cycles(to_enriched_cycles(sigma, 3)) == sigma

    def test_cli_delta_on_chain(self, capsys):
        sigma = Permutation(chain_cycles(10**4))
        assert main(["map", "delta", "--r", "3", str(sigma)]) == 0
        x, rest = capsys.readouterr().out.split(" | ")
        assert insert_element(int(x), parse(rest), 3) == sigma


def sized(r: int, n: int, multiple: bool) -> int:
    """The smallest size >= n that is (or, with multiple=False, is not) a multiple of r."""
    while (n % r == 0) != multiple:
        n += 1
    return n


LARGE = 10**4
each_r = pytest.mark.parametrize("r", (2, 3, 4, 5))
seeds = given(seed=st.integers(0, 2**32 - 1))
few = settings(max_examples=5, deadline=None)


class TestLargeRandomRoundTrips:
    @each_r
    @seeds
    @few
    def test_extract_insert(self, r, seed):
        sigma = random_regular(random.Random(seed), sized(r, LARGE, False), r)
        assert insert_element(*extract_element(sigma, r), r) == sigma

    @each_r
    @seeds
    @few
    def test_grow_shrink(self, r, seed):
        sigma = random_regular(random.Random(seed), sized(r, LARGE, True), r)
        assert shrink_first_cycle(grow_first_cycle(sigma, r), r) == sigma

    @each_r
    @seeds
    @few
    def test_nearly_regular(self, r, seed):
        sigma = random_regular(random.Random(seed), sized(r, LARGE, True), r)
        assert from_nearly_regular(to_nearly_regular(sigma, r)) == sigma

    @each_r
    @seeds
    @few
    def test_enriched_cycles(self, r, seed):
        sigma = random_regular(random.Random(seed), sized(r, LARGE, True), r)
        assert from_enriched_cycles(to_enriched_cycles(sigma, r)) == sigma

    @each_r
    @seeds
    @few
    def test_enriched_cycles_inverse(self, r, seed):
        tau = random_enriched_cycles(random.Random(seed), sized(r, LARGE, True), r)
        assert to_enriched_cycles(from_enriched_cycles(tau), r) == tau


def test_corpus_images_unchanged():
    assert corpus_digest() == CORPUS_DIGEST
