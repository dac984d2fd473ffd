"""The ROADMAP's reference points, best of three, from the library in ./src.

    python3 perfbench/reference.py

Prints ``root_count_sequence(2, 400)``, Phi (r = 3) on all-2-cycle inputs of
12,000 and 24,000 elements, and one pass of the verify-grid workload at
jobs = 1 and jobs = 2.  These are one-off numbers for perfbench/README.md,
not benchmark metrics.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path
from time import perf_counter

import inputs
from run import load_library


def best_of(k: int, fn) -> float:
    times = []
    for _ in range(k):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return min(times)


def main() -> int:
    scratch = Path.cwd() / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tempfile.tempdir = str(scratch)  # verify's cache round trip writes a temp dir
    lib = load_library(Path.cwd() / "src")
    rng = inputs.rng_for("reference", 0)
    print(f"root_count_sequence(2, 400): "
          f"{best_of(3, lambda: lib.counting.root_count_sequence(2, 400)):.3f} s")
    for size in inputs.PAIRS_SIZES:
        sigma = lib.permutation.parse(inputs.pairs_input(rng, size)[0])
        seconds = best_of(3, lambda: lib.bijections.to_enriched_cycles(sigma, 3))
        print(f"Phi, r = 3, {size // 2} 2-cycles ({size} elements): {seconds:.3f} s")
    suites = list(lib.verify.suite_ids())
    for jobs in (1, 2):
        seconds = best_of(3, lambda: lib.verify.run_suites(suites, inputs.VERIFY_BOUNDS, jobs=jobs))
        print(f"verify grid, jobs = {jobs}: {seconds:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
