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
  calibration-kernel best that each untraced run prints; next to it, the
  one-shot CLI latency of ``permroot root '(1 2)(3 4)' --r 2``, the best of
  5 fresh interpreters run from a copy of ``src/`` without ``__pycache__``,
  once with bytecode written (the first start writes it, the others read
  it) and once with ``PYTHONDONTWRITEBYTECODE=1`` (every start compiles);
* the git rev of the checkout, whether its tracked files differ from that
  rev, and ``src_tree``: the git tree hash of ``src/`` as measured, which
  equals ``git rev-parse <commit>:src`` of any commit holding that code;
* ``nproc`` and the Python version;
* ``python -m pytest -q perfbench``: the pass count and each failing test,
  with its cause where the cause is known;
* what perfbench does not time: ``count_roots(2, n)`` at n = 800 and 1,600
  and ``count_roots(6, 1000)``, each timed once in a fresh interpreter per
  round; the rounds alternate between the checkouts like the perfbench
  runs, and the file keeps every time and their median;
* the dense cycle-type DP, which perfbench reaches only through
  ``root_count_sequence``: that call at (r, upto) = (2, 150), (3, 150) and
  (2, 800), each the best of 5 calls in one fresh interpreter, in the same
  rounds, with every round's time and the median;
* the cycle-notation layer, in the same rounds: ``parse`` of every line of
  the cli-batch corpus (``perfbench/inputs.cli_inputs(7)``, with the ``r``
  the CLI passes) and ``str()`` of every result, each the best of 3 passes
  in a fresh interpreter, with every round's time and the median;
* the wall time of ``permroot verify --all --out <tmp>`` at ``--jobs 1`` and
  ``--jobs 2``, each run in a fresh interpreter, over 5 rounds that alternate
  between the checkouts likewise, with every time and the median; the
  ``wall_time`` of every report of every run, and for the four reports with
  the largest median, each one's median and runs; and the sha256 of each
  run's report as ``report.normalize_report_bytes`` gives it (one value
  when every run agrees).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
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
SEQUENCES = ((2, 150), (3, 150), (2, 800))
SEQUENCE_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); "
    "from permroot.counting import root_count_sequence\n"
    f"for r, n in {SEQUENCES!r}:\n"
    "    best = []\n"
    "    for _ in range(5):\n"
    "        t = time.perf_counter(); root_count_sequence(r, n); best.append(time.perf_counter() - t)\n"
    "    print(min(best))"
)
NOTATION_PROBE = (
    "import sys, time; sys.path[:0] = ['src', 'perfbench']; sys.dont_write_bytecode = True\n"
    "from permroot.permutation import parse\n"
    "from inputs import cli_inputs\n"
    "jobs = [(line['text'], int(inv['argv'][3]) if inv['argv'][:2] == ['map', 'Phi-inv'] else None)\n"
    "        for inv in cli_inputs(7) for line in inv['lines']]\n"
    "best = {'parse': [], 'str': []}\n"
    "for _ in range(3):\n"
    "    t = time.perf_counter(); values = [parse(text, r) for text, r in jobs]\n"
    "    best['parse'].append(time.perf_counter() - t)\n"
    "    t = time.perf_counter(); texts = [str(v) for v in values]\n"
    "    best['str'].append(time.perf_counter() - t)\n"
    "print(min(best['parse']), min(best['str']))"
)
NOTATION_LAYERS = ("parse", "str")
VERIFY_ROUNDS = 5
VERIFY_JOBS = (1, 2)
VERIFY_PROBE = "import sys; sys.path.insert(0, 'src'); from permroot.cli import main; sys.exit(main())"
ONE_SHOT_ARGS = ("root", "(1 2)(3 4)", "--r", "2")
REPORT_SHA_PROBE = (
    "import hashlib, sys; sys.path.insert(0, 'src'); "
    "from permroot.report import normalize_report_bytes\n"
    "text = open(sys.argv[1], encoding='utf-8').read()\n"
    "print(hashlib.sha256(normalize_report_bytes(text)).hexdigest())"
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


def one_shot_latency(checkout: Path) -> dict:
    """``permroot root '(1 2)(3 4)' --r 2``, the best of 5 fresh interpreters
    on a copy of the checkout's ``src/`` without ``__pycache__``, with
    bytecode written and read back, and with ``PYTHONDONTWRITEBYTECODE=1``."""
    base = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    out = {}
    for name, env in (("bytecode_written_s", base),
                      ("dont_write_bytecode_s", {**base, "PYTHONDONTWRITEBYTECODE": "1"})):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(checkout / "src", Path(tmp) / "src",
                            ignore=shutil.ignore_patterns("__pycache__"))
            best = []
            for _ in range(5):
                start = perf_counter()
                subprocess.run([sys.executable, "-c", VERIFY_PROBE, *ONE_SHOT_ARGS], cwd=tmp, env=env,
                               check=True, capture_output=True)
                best.append(perf_counter() - start)
        out[name] = min(best)
    return out


def perfbench_tests(checkout: Path) -> dict:
    done = run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"], checkout)
    failed = re.findall(r"^FAILED (\S+)", done.stdout, re.MULTILINE)
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else done.stderr.strip()
    return {
        "summary": summary,
        "failed": [{"test": test, "cause": KNOWN_FAILURES.get(test, "unknown")} for test in failed],
    }


def probe_times(checkout: Path, probe: str) -> list[float]:
    """One round of a timing probe: the times it prints, from a fresh interpreter."""
    done = run([sys.executable, "-c", probe], checkout)
    if done.returncode != 0:
        raise SystemExit(f"probe in {checkout} exited {done.returncode}:\n{probe}\n{done.stderr}")
    return [float(word) for word in done.stdout.split()]


def verify_all(checkout: Path, jobs: int) -> tuple[float, str, dict]:
    """The wall time of one ``verify --all`` in a fresh interpreter, the
    sha256 of its normalized report, and each report's ``wall_time``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "report.json")
        cmd = [sys.executable, "-c", VERIFY_PROBE, "verify", "--all", "--out", out,
               "--jobs", str(jobs)]
        start = perf_counter()
        done = run(cmd, checkout)
        wall = perf_counter() - start
        if done.returncode == 0:
            reports = json.loads(Path(out).read_text(encoding="utf-8"))
            done = run([sys.executable, "-c", REPORT_SHA_PROBE, out], checkout)
    if done.returncode != 0:
        raise SystemExit(f"verify --all --jobs {jobs} in {checkout} exited {done.returncode}:\n{done.stderr}")
    report_times = {
        f"{r['property_id']} {json.dumps(r['range'], sort_keys=True)}": r["wall_time"] for r in reports
    }
    return wall, done.stdout.strip(), report_times


def slowest_reports(runs: list[dict], count: int = 4) -> dict:
    """The ``count`` reports with the largest median ``wall_time``, each with its median and runs."""
    times = {name: [run[name] for run in runs] for name in runs[0]}
    slowest = sorted(times, key=lambda name: statistics.median(times[name]), reverse=True)[:count]
    return {name: {"median": statistics.median(times[name]), "runs": times[name]} for name in slowest}


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
            "machine": {"python_c_pass_s": pass_latency(), "one_shot_root_s": one_shot_latency(checkout)},
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
    sequence = {label: [] for label in targets}
    notation = {label: [] for label in targets}
    for i in range(COUNT_ROUNDS):
        for label, checkout in alternate(targets, i):
            print(f"count_roots, root_count_sequence and notation round {i + 1}/{COUNT_ROUNDS} on {label}",
                  file=sys.stderr, flush=True)
            count_times[label].append(probe_times(checkout, COUNT_PROBE))
            sequence[label].append(probe_times(checkout, SEQUENCE_PROBE))
            notation[label].append(probe_times(checkout, NOTATION_PROBE))
    verify_runs = {(label, jobs): [] for label in targets for jobs in VERIFY_JOBS}
    for i in range(VERIFY_ROUNDS):
        for label, checkout in alternate(targets, i):
            for jobs in VERIFY_JOBS:
                print(f"verify --all --jobs {jobs} round {i + 1}/{VERIFY_ROUNDS} on {label}",
                      file=sys.stderr, flush=True)
                verify_runs[label, jobs].append(verify_all(checkout, jobs))
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
        record["root_count_sequence_s"] = {
            f"root_count_sequence({r}, {n})": {"median": statistics.median(times), "runs": times}
            for (r, n), times in zip(SEQUENCES, zip(*sequence[label]))
        }
        record["notation_s"] = {
            name: {"median": statistics.median(times), "runs": times}
            for name, times in zip(NOTATION_LAYERS, zip(*notation[label]))
        }
        times = {jobs: [t for t, _, _ in verify_runs[label, jobs]] for jobs in VERIFY_JOBS}
        record["verify_all_s"] = {
            f"jobs {jobs}": {"median": statistics.median(times[jobs]), "runs": times[jobs]}
            for jobs in VERIFY_JOBS
        }
        record["verify_all_report_wall_time_s"] = {
            f"jobs {jobs}": [reports for _, _, reports in verify_runs[label, jobs]]
            for jobs in VERIFY_JOBS
        }
        record["verify_all_slowest_reports_s"] = {
            f"jobs {jobs}": slowest_reports([reports for _, _, reports in verify_runs[label, jobs]])
            for jobs in VERIFY_JOBS
        }
        record["verify_all_report_sha256"] = sorted(
            {sha for jobs in VERIFY_JOBS for _, sha, _ in verify_runs[label, jobs]}
        )
        record["perfbench_tests"] = perfbench_tests(checkout)
        out = Path(f"BENCH_{label}.json")
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
