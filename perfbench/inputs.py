"""Seeded inputs for the benchmark workloads.

Every input is built straight from a random list of cycle lengths and a
random labelling, and written out in cycle notation by this module; no map
under test (and no formatter of the library) is used to make an input.  The
same ``(workload, seed)`` pair always gives byte-identical inputs.
"""

from __future__ import annotations

import json
import random
from math import gcd

# The verification grid: one bounds dict that every suite receives.  It
# shrinks the per-suite size keys and leaves the keys that collide between
# suites (``n_max``, ``r_values``, ``merge_grids``) at their defaults, so the
# S_8 / S_9 scans behind extract-insert, criterion-vs-bruteforce and
# merge-distinctness still run.
VERIFY_BOUNDS = {
    "pairs": [[2, 2], [2, 4], [2, 6], [3, 3], [3, 6], [4, 4]],
    "per_r": [[2, 6], [3, 6], [4, 6]],
    "nr_pairs": [[2, 2], [2, 4], [2, 6], [3, 3], [3, 6], [4, 4]],
    "ap_n_max": 7,
    "roundtrip_n_max": 5,
    "split_n_max": 6,
    "partitions_n_max": 6,
    "psi_n_max": 5,
    "witness_n_max": 5,
    "inclusion_n_max": 6,
    "enum_n_max": 6,
    "formula_n_max": 30,
    "enriched_n_max": 6,
    "q_family_n_max": 6,
    "ap_formula_n_max": 20,
    "merged_n_max": 6,
    "singular_n_max": 6,
    "ratio_n_max": 6,
    "proportion_n_max": 20,
    "padding_n_max": 6,
}

MAP_KINDS = ("Phi", "Phi-inv", "delta", "phi", "alpha")
MAP_RS = (2, 3, 4)
MAP_SIZES = (1000, 2000, 3000, 4000)   # one line per map invocation, about these sizes
ROOT_RS = (2, 3, 4, 6)
CHAIN_SIZES = (300, 30000)     # r = 3 chain for delta: passes, then far past the recursion limit
PAIRS_SIZES = (12000, 24000)   # all-2-cycle r = 3 input for Phi (quadratic today)

PRIME_POWERS = (2, 3, 4, 5, 8, 9)
NON_PRIME_POWERS = (6, 10, 12)
QR_PAIRS = ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3))
# Largest n a counts-exact request can draw, per kind; expected.json covers
# every request up to these sizes.
COUNT_LIMITS = {"roots": 190, "reg": 200, "cyc_qr": 80}


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def cycles_text(cycles, colors=None) -> str:
    """Cycle notation, with an optional ``_color`` subscript per cycle."""
    parts = []
    for i, cyc in enumerate(cycles):
        text = "(" + " ".join(map(str, cyc)) + ")"
        if colors is not None and colors[i] is not None:
            text += f"_{colors[i]}"
        parts.append(text)
    return " ".join(parts)


def draw_lengths(rng, total: int, allowed) -> list[int]:
    """Random cycle lengths from ``allowed`` summing exactly to ``total``;
    ``allowed`` must contain a length that divides every remainder left."""
    lengths = []
    while total:
        choices = [ln for ln in allowed if ln <= total]
        ln = rng.choice(choices)
        lengths.append(ln)
        total -= ln
    return lengths


def place(rng, lengths, labels) -> list[list[int]]:
    """Fill the cycle lengths with a random arrangement of ``labels``."""
    pool = list(labels)
    rng.shuffle(pool)
    out, pos = [], 0
    for ln in lengths:
        out.append(pool[pos : pos + ln])
        pos += ln
    return out


def regular_lengths(rng, total: int, r: int, longest: int = 12) -> list[int]:
    return draw_lengths(rng, total, [ln for ln in range(1, longest + 1) if ln % r])


def power_cycles(cycles, r: int) -> list[list[int]]:
    """Cycles of pi**r: a cycle of length L splits into gcd(L, r) cycles."""
    out = []
    for cyc in cycles:
        length = len(cyc)
        g = gcd(length, r)
        for i in range(g):
            out.append([cyc[(i + j * r) % length] for j in range(length // g)])
    return out


# -- cli-batch -------------------------------------------------------------------

def _near(rng, size: int, r: int, residue_ok) -> int:
    """A size within 5% of ``size`` whose residue mod r satisfies the test."""
    while True:
        n = rng.randint(size - size // 20, size + size // 20)
        if residue_ok(n % r):
            return n


def _map_line(rng, kind: str, r: int, size: int) -> tuple[str, int]:
    if kind == "Phi":
        n = _near(rng, size, r, lambda m: m == 0)
        return cycles_text(place(rng, regular_lengths(rng, n, r), range(1, n + 1))), n
    if kind == "Phi-inv":
        n = _near(rng, size, r, lambda m: m == 0)
        cycles = place(rng, draw_lengths(rng, n, range(r, 6 * r + 1, r)), range(1, n + 1))
        return cycles_text(cycles, [rng.randint(1, r - 1) for _ in cycles]), n
    if kind == "delta":
        n = _near(rng, size, r, lambda m: m != 0)
        return cycles_text(place(rng, regular_lengths(rng, n, r), range(1, n + 1))), n
    # phi grows the cycle containing 1 (n - k not a multiple of r); alpha
    # shrinks it (k >= 2, n - k + 1 not a multiple of r); other cycles regular
    n = _near(rng, size, r, lambda m: True)
    while True:
        k = rng.randint(2, 3 * r + 1)
        rest = n - k if kind == "phi" else n - k + 1
        if rest % r:
            break
    first = [1] + rng.sample(range(2, n + 1), k - 1)
    others = sorted(set(range(2, n + 1)) - set(first))
    cycles = [first] + place(rng, regular_lengths(rng, n - k, r), others)
    rng.shuffle(cycles)
    return cycles_text(cycles), n


def chain_input(rng, size: int) -> tuple[str, int]:
    """The r = 3 chain: cycles of lengths 4, 2, 4, 2, ... with minima 1..C in
    order, large entries after each minimum, then one fixed point C + 1."""
    count = (size - 1) // 3 // 2 * 2
    large = list(range(count + 2, 3 * count + 2))
    rng.shuffle(large)
    cycles, pos = [], 0
    for i in range(count):
        width = 3 if i % 2 == 0 else 1
        cycles.append([i + 1] + large[pos : pos + width])
        pos += width
    cycles.append([count + 1])
    return cycles_text(cycles), 3 * count + 1


def pairs_input(rng, size: int) -> tuple[str, int]:
    """``size / 2`` random 2-cycles: r = 3 regular, many cycles for Phi."""
    return cycles_text(place(rng, [2] * (size // 2), range(1, size + 1))), size


def root_line(rng, r: int, n: int, exists: bool) -> dict:
    """sigma = pi**r for a random pi ("yes"), or one r-cycle, whose length
    admits only bunches of r, next to such a power ("no")."""
    if exists:
        pi = place(rng, draw_lengths(rng, n, range(1, n + 1)), range(1, n + 1))
        cycles = power_cycles(pi, r)
    else:
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        head, tail = labels[:r], labels[r:]
        pi = place(rng, draw_lengths(rng, len(tail), range(1, len(tail) + 1)), tail)
        cycles = [head] + power_cycles(pi, r)
    rng.shuffle(cycles)
    return {"text": cycles_text(cycles), "n": n, "exists": exists}


def cli_inputs(seed: int) -> list[dict]:
    """One batch of 104 CLI invocations (``argv`` plus ``stdin`` lines, and
    what each line is, so the checks know the expected answer): 60 maps on
    1000-4000 elements, the r = 3 chain at about 300 and 30,000 elements for
    delta, the all-2-cycle r = 3 input at 12,000 and 24,000 elements for
    Phi, and 40 root queries, at n <= 8 (brute-force witness path) and at
    n = 400..600 (criterion only)."""
    rng = rng_for("cli-batch", seed)
    invocations = []

    def add(argv, lines):
        invocations.append({"argv": argv, "lines": lines})

    for r in MAP_RS:
        for kind in MAP_KINDS:
            for size in MAP_SIZES:
                text, n = _map_line(rng, kind, r, size)
                add(["map", kind, "--r", str(r)], [{"text": text, "n": n, "kind": kind}])
    for size in CHAIN_SIZES:
        text, n = chain_input(rng, size)
        add(["map", "delta", "--r", "3"], [{"text": text, "n": n, "kind": "delta", "chain": True}])
    for size in PAIRS_SIZES:
        text, n = pairs_input(rng, size)
        add(["map", "Phi", "--r", "3"], [{"text": text, "n": n, "kind": "Phi"}])
    # witness path (n <= 8 searches S_n) and criterion-only path (n > 8)
    for r in ROOT_RS:
        for exists in (True, False):
            # a "yes" search stops at the least root, so keep it short
            # (n <= 5); a "no" search scans all of S_n (an r-cycle needs n >= r)
            for sizes in ((3, 4, 5), (4, 5)) if exists else ((6, 7), (r, 7)):
                add(["root", "--r", str(r)],
                    [dict(root_line(rng, r, n, exists), kind="root", r=r) for n in sizes])
            for _ in range(3):
                add(["root", "--r", str(r)],
                    [dict(root_line(rng, r, rng.randint(400, 600), exists), kind="root", r=r)])
    return invocations


def cli_mix(invocations) -> dict:
    lines = [line for inv in invocations for line in inv["lines"]]
    roots = [line for line in lines if line["kind"] == "root"]
    bins = {"<=8": 0, "9-999": 0, "1000-9999": 0, ">=10000": 0}
    for line in lines:
        n = line["n"]
        key = "<=8" if n <= 8 else "9-999" if n < 1000 else "1000-9999" if n < 10000 else ">=10000"
        bins[key] += 1
    return {
        "invocations": len(invocations),
        "lines": len(lines),
        "size_histogram": bins,
        "chain_share": sum(1 for line in lines if line.get("chain")) / len(lines),
        "root_small_share": sum(1 for line in roots if line["n"] <= 8) / len(roots),
    }


# -- counts-exact ------------------------------------------------------------------

def _around(rng, centre: int, spread: int) -> int:
    return rng.randint(centre - spread, centre + spread)


def count_requests(seed: int) -> list[dict]:
    """106 exact-count requests in three groups, by cost; the seed draws r,
    q and n inside narrow bands, so each group's cost barely moves with it:

    * 40 cheap requests (closed formulas, small DPs, n <= 12 roots);
    * 30 brute-force fallbacks, r not a prime power at n = 7 (7! each),
      which hold the median request;
    * 36 cycle-type DPs at n = 110..150, whose top 24 (n near 140 and 150)
      hold the 90th percentile.
    """
    rng = rng_for("counts-exact", seed)
    reqs = []
    for _ in range(10):
        for fn in ("count_reg", "count_cyc"):
            reqs.append({"fn": fn, "r": rng.randint(2, 9), "n": rng.randint(150, COUNT_LIMITS["reg"])})
    reqs.append({"fn": "count_roots", "r": 2, "n": rng.randint(0, 12)})
    reqs.append({"fn": "prob_root", "r": 2, "n": rng.randint(1, 12)})
    for r in NON_PRIME_POWERS:
        for n in (3, 4, 5):
            reqs.append({"fn": rng.choice(("count_roots", "prob_root")), "r": r, "n": n})
    for q, r in QR_PAIRS:
        reqs.append({"fn": "count_cyc_qr", "q": q, "r": r, "n": q * r * rng.randint(2, 8)})
    for r in (2, 3, 4, 5):
        reqs.append({"fn": "count_enriched_cyc", "r": r, "n": r * _around(rng, 20, 2)})
    for r in NON_PRIME_POWERS:
        for _ in range(10):
            reqs.append({"fn": rng.choice(("count_roots", "prob_root")), "r": r, "n": 7})
    for r in PRIME_POWERS:
        for fn, centre in (("count_roots", 110), ("prob_root", 120), ("count_roots", 140),
                           ("prob_root", 145), ("root_count_sequence", 140),
                           ("root_count_sequence", 150)):
            reqs.append({"fn": fn, "r": r, "n": _around(rng, centre, 3)})
    rng.shuffle(reqs)
    return reqs


def counts_mix(reqs) -> dict:
    by_fn: dict[str, int] = {}
    for req in reqs:
        by_fn[req["fn"]] = by_fn.get(req["fn"], 0) + 1
    bins = {"<=7": 0, "8-99": 0, "100-199": 0, ">=200": 0}
    for req in reqs:
        n = req["n"]
        key = "<=7" if n <= 7 else "8-99" if n < 100 else "100-199" if n < 200 else ">=200"
        bins[key] += 1
    return {"requests": len(reqs), "by_function": by_fn, "size_histogram": bins}


def dumps(obj) -> bytes:
    """Canonical bytes of an input set, for the determinism test."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
