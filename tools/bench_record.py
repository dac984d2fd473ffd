"""Record a BENCH trajectory point for one or more permroot checkouts.

    python3 tools/bench_record.py LABEL[=CHECKOUT] ...

Each LABEL=CHECKOUT names a source checkout (default: the current
directory) and writes ``BENCH_<LABEL>.json`` into the current directory.
For every workload of the checkout's ``BENCHMARK.json`` it runs
``perfbench/run.py`` 10 times at ``--trace 0`` and once at ``--trace 1``,
from the checkout's root, for the ``run_seconds`` that file sets and at
seed 7, and keeps the last JSON line of each run.  With several checkouts
the runs alternate between them, so a slow phase of the machine falls on
all of them alike and the i-th runs form pairs; which one runs first
alternates too.

Beside the perfbench runs each file records:

* the machine reference: the best of 5 ``python -c pass`` starts and the
  calibration-kernel best that each untraced run prints;
* the git rev of the checkout, whether its tracked files differ from that
  rev, and ``src_tree``: the git tree hash of ``src/`` as measured, which
  equals ``git rev-parse <commit>:src`` of any commit holding that code;
* ``nproc`` and the Python version;
* ``python -m pytest -q perfbench``: the pass count and each failing test,
  with its cause where the cause is known;
* what perfbench does not time: ``count_roots(2, n)`` at n = 800 and 1,600
  and ``count_roots(6, 1000)``, each timed once in a fresh interpreter per
  round; the rounds alternate between the checkouts like the perfbench
  runs, and the file keeps every time and their median.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

# perfbench tests that fail for a known reason, and the reason
KNOWN_FAILURES = {
    "perfbench/test_perfbench.py::test_exact_work_counts_repeat_across_traced_runs[counts-exact]": (
        "it asserts that counting.comb_calls, counting.factorial_calls and "
        "roots.bruteforce_perms_scanned are above 0, but counts-exact has called "
        "neither math.comb nor the brute-force root search since the cycle-type DP "
        "replaced the fallback (comb_calls and bruteforce_perms_scanned read 0); the "
        "outputs are right and the test's list of counters is out of date (ROADMAP item 1)"
    ),
}
RUNS = 10  # untraced perfbench runs per workload and checkout: 10 pairs
SEED = 7
COUNT_ROUNDS = 5
COUNT_ROOTS = ((2, 800), (2, 1600), (6, 1000))
COUNT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); "
    "from permroot.counting import count_roots\n"
    f"for r, n in {COUNT_ROOTS!r}:\n"
    "    t = time.perf_counter(); count_roots(r, n); print(time.perf_counter() - t)"
)
KERNEL_RE = re.compile(r"calibration kernel best ([0-9.]+) ms")


def run(cmd, cwd: Path, timeout: float = 3600) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def perfbench_run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its last JSON line, plus the kernel best it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = run(cmd, checkout)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    record = json.loads(lines[-1])
    record["metrics"] = {name: m["value"] for name, m in record["metrics"].items()}
    kernel = KERNEL_RE.search(done.stdout)
    if kernel:
        record["calibration_kernel_best_ms"] = float(kernel.group(1))
    return record


def pass_latency() -> float:
    best = []
    for _ in range(5):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        best.append(perf_counter() - start)
    return min(best)


def perfbench_tests(checkout: Path) -> dict:
    done = run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"], checkout)
    failed = re.findall(r"^FAILED (\S+)", done.stdout, re.MULTILINE)
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else done.stderr.strip()
    return {
        "summary": summary,
        "failed": [{"test": test, "cause": KNOWN_FAILURES.get(test, "unknown")} for test in failed],
    }


def count_roots_times(checkout: Path) -> list[float]:
    """One round: each ``COUNT_ROOTS`` call timed once, in a fresh interpreter."""
    done = run([sys.executable, "-c", COUNT_PROBE], checkout)
    if done.returncode != 0:
        raise SystemExit(f"count_roots probe in {checkout} exited {done.returncode}:\n{done.stderr}")
    return [float(line) for line in done.stdout.split()]


def git_rev(checkout: Path) -> dict:
    rev = run(["git", "rev-parse", "HEAD"], checkout)
    if rev.returncode != 0:
        return {"rev": None, "dirty": None, "src_tree": None}
    status = run(["git", "status", "--porcelain", "--untracked-files=no"], checkout)
    # hash src/ through a scratch index, so the checkout's own index is untouched
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        subprocess.run(["git", "add", "-A", "src"], cwd=checkout, env=env, check=True)
        tree = subprocess.run(["git", "write-tree", "--prefix=src/"], cwd=checkout, env=env,
                              capture_output=True, text=True, check=True)
    return {"rev": rev.stdout.strip(), "dirty": bool(status.stdout.strip()),
            "src_tree": tree.stdout.strip()}


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles of every metric over the untraced runs."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        low, _, high = statistics.quantiles(values, n=4)
        out[name] = {"median": statistics.median(values), "q1": low, "q3": high}
    return out


def alternate(targets: dict, i: int) -> list:
    """The checkouts in order on even rounds, reversed on odd ones."""
    return list(targets.items())[:: 1 if i % 2 == 0 else -1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", metavar="LABEL[=CHECKOUT]")
    args = parser.parse_args(argv)

    targets = {}
    for item in args.checkouts:
        label, _, path = item.partition("=")
        checkout = Path(path or ".").resolve()
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} has no perfbench/run.py")
        targets[label] = checkout
    spec = json.loads((next(iter(targets.values())) / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    records = {
        label: {
            "label": label,
            "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            **git_rev(checkout),
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "settings": {"seed": SEED, "seconds": seconds, "runs": RUNS},
            "machine": {"python_c_pass_s": pass_latency()},
            "workloads": {},
        }
        for label, checkout in targets.items()
    }

    untraced = {(label, w): [] for label in targets for w in workloads}
    for i in range(RUNS):
        for w in workloads:
            # which checkout runs first alternates from one round to the next
            for label, checkout in alternate(targets, i):
                print(f"run {i + 1}/{RUNS}: {w} on {label}", file=sys.stderr, flush=True)
                untraced[label, w].append(perfbench_run(checkout, w, SEED, seconds, 0))
    for w in workloads:
        for label, checkout in targets.items():
            print(f"traced: {w} on {label}", file=sys.stderr, flush=True)
            traced = perfbench_run(checkout, w, SEED, seconds, 1)
            runs = untraced[label, w]
            records[label]["workloads"][w] = {
                "correct": all(r["correct"] for r in runs) and traced["correct"],
                "summary": summarize(runs),
                "runs": runs,
                "traced": traced,
            }
    count_times = {label: [] for label in targets}
    for i in range(COUNT_ROUNDS):
        for label, checkout in alternate(targets, i):
            print(f"count_roots round {i + 1}/{COUNT_ROUNDS} on {label}", file=sys.stderr, flush=True)
            count_times[label].append(count_roots_times(checkout))
    for label, checkout in targets.items():
        print(f"perfbench tests on {label}", file=sys.stderr, flush=True)
        record = records[label]
        record["machine"]["calibration_kernel_best_ms"] = min(
            r["calibration_kernel_best_ms"]
            for w in workloads for r in untraced[label, w] if "calibration_kernel_best_ms" in r
        )
        record["count_roots_s"] = {
            f"count_roots({r}, {n})": {"median": statistics.median(times), "runs": times}
            for (r, n), times in zip(COUNT_ROOTS, zip(*count_times[label]))
        }
        record["perfbench_tests"] = perfbench_tests(checkout)
        out = Path(f"BENCH_{label}.json")
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
