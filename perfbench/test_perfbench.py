"""Checks of the benchmark itself: seeded inputs, the output checks, and the
exact work counts of the traced run.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import math
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import tracing
import workloads
from run import judge, load_library, measure

ROOT = Path(__file__).resolve().parent.parent
_CYCLE = re.compile(r"\(([^)]*)\)")
EXACT = (
    "families.perms_scanned", "roots.bruteforce_perms_scanned", "counting.comb_calls",
    "counting.factorial_calls", "bijections.elements", "verify.counts_checked",
)


@pytest.fixture(scope="module")
def lib():
    return load_library(ROOT / "src")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("make", [inputs.cli_inputs, inputs.count_requests])
def test_same_seed_same_inputs_other_seed_other_inputs(make):
    assert inputs.dumps(make(7)) == inputs.dumps(make(7))
    assert inputs.dumps(make(7)) != inputs.dumps(make(8))


def test_mix_holds_the_stated_shares():
    cli = inputs.cli_mix(inputs.cli_inputs(1))
    assert cli["chain_share"] == 2 / cli["lines"]
    assert cli["size_histogram"][">=10000"] == 3  # 30k chain, 12k and 24k pairs
    assert cli["invocations"] - math.ceil(0.9 * cli["invocations"]) >= 10  # beyond p90
    counts = inputs.count_requests(1)
    assert len(counts) >= 100


def test_power_cycles_is_the_power(lib):
    rng = random.Random(3)
    cycles = inputs.place(rng, inputs.draw_lengths(rng, 40, range(1, 13)), range(1, 41))
    pi = lib.permutation.Permutation(cycles)
    for r in (2, 3, 4, 6):
        assert lib.permutation.Permutation(inputs.power_cycles(cycles, r)) == pi.power(r)


def _small_cli_batch():
    rng = random.Random(11)
    invocations = []
    for kind in inputs.MAP_KINDS:
        text, n = inputs._map_line(rng, kind, 3, 60)
        invocations.append({"argv": ["map", kind, "--r", "3"],
                            "lines": [{"text": text, "n": n, "kind": kind}]})
    lines = [dict(inputs.root_line(rng, 2, n, exists), kind="root", r=2)
             for n, exists in ((6, True), (7, False), (40, True))]
    invocations.append({"argv": ["root", "--r", "2"], "lines": lines})
    return invocations


def _change_first_long_cycle(text: str, change) -> str:
    for m in _CYCLE.finditer(text):
        entries = m.group(1).split()
        if len(entries) > 2:
            return text[: m.start(1)] + " ".join(change(entries)) + text[m.end(1) :]
    raise AssertionError(f"no cycle longer than 2 in {text!r}")


def _rotate(entries):
    return entries[1:] + entries[:1]


def _swap(entries):
    return [entries[0], entries[2], entries[1]] + entries[3:]


@pytest.mark.parametrize("change", [_rotate, _swap])
def test_corrupted_map_output_counts_as_failed(lib, change):
    work = workloads.make("cli-batch", lib)
    invocations = _small_cli_batch()
    batch = work.run(invocations)
    assert batch.failed == 0
    assert work.check(invocations, batch) == (0, [])
    for i, text in enumerate(batch.outputs[:5]):
        def corrupted():
            bad = workloads.Batch(**{**batch.__dict__, "outputs": list(batch.outputs)})
            bad.outputs[i] = _change_first_long_cycle(text, change)
            return bad
        wrong, why = work.check(invocations, corrupted())
        assert wrong == 1, (invocations[i]["argv"], why)
        # judged against a correct first batch, and against itself
        good = judge(work, invocations, workloads.Batch(**batch.__dict__))
        assert judge(work, invocations, corrupted(), first=good).wrong == 1
        first = judge(work, invocations, corrupted())
        assert first.wrong == 1 and first.outputs is None
        assert judge(work, invocations, corrupted(), first=first).wrong == 1


def test_measure_checks_and_drops_outputs(lib):
    work = workloads.make("cli-batch", lib)
    invocations = _small_cli_batch()
    first = measure(work, invocations)
    again = measure(work, invocations, first)
    assert first.outputs is None and again.outputs is None
    assert first.digest == again.digest and first.wrong == again.wrong == 0


def test_wrong_root_answer_counts_as_failed(lib):
    work = workloads.make("cli-batch", lib)
    invocations = _small_cli_batch()
    batch = work.run(invocations)
    answers = batch.outputs[-1].splitlines()
    flipped = ["no" if a.startswith("yes") else "yes" for a in answers]
    bad = workloads.Batch(**{**batch.__dict__, "outputs": batch.outputs[:-1] + ["\n".join(flipped) + "\n"]})
    assert work.check(invocations, bad)[0] == len(answers)


def test_changed_count_counts_as_failed(lib):
    work = workloads.make("counts-exact", lib)
    requests = [
        {"fn": "count_roots", "r": 2, "n": 10},
        {"fn": "prob_root", "r": 6, "n": 5},
        {"fn": "root_count_sequence", "r": 3, "n": 20},
        {"fn": "count_enriched_cyc", "r": 2, "n": 10},
        {"fn": "count_cyc_qr", "q": 2, "r": 2, "n": 8},
        {"fn": "count_reg", "r": 3, "n": 50},
        {"fn": "count_cyc", "r": 4, "n": 48},
    ]
    batch = work.run(requests)
    assert work.check(requests, batch) == (0, [])
    for i, value in enumerate(batch.outputs):
        changed = [value[0] + 1] + value[1:] if isinstance(value, list) else value + 1
        bad = workloads.Batch(**{**batch.__dict__, "outputs": batch.outputs[:i] + [changed] + batch.outputs[i + 1 :]})
        assert work.check(requests, bad)[0] == 1, requests[i]


def test_changed_report_bytes_fail_every_report(lib):
    work = workloads.make("verify-grid", lib)
    batch = workloads.Batch(1.0, [1.0] * 42, 42, 0, 1, [b"[]"])
    wrong, why = work.check(None, batch)
    assert wrong == 42 and why


def test_lex_rank_is_the_enumeration_index():
    elems = (2, 5, 7, 9)
    for index, images in enumerate(itertools.permutations(elems)):
        assert tracing.lex_rank(elems, images) == index


@pytest.mark.parametrize("workload", ["counts-exact", "cli-batch", "verify-grid"])
def test_exact_work_counts_repeat_across_traced_runs(workload):
    runs = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"]
        runs.append({k: result["metrics"][k]["value"] for k in EXACT})
    assert runs[0] == runs[1]
    touched = {
        "counts-exact": ("counting.comb_calls", "counting.factorial_calls",
                         "roots.bruteforce_perms_scanned"),
        "cli-batch": ("bijections.elements", "roots.bruteforce_perms_scanned"),
        "verify-grid": ("families.perms_scanned", "verify.counts_checked", "bijections.elements"),
    }[workload]
    assert all(runs[0][k] > 0 for k in touched)


def test_refuses_a_directory_without_the_library():
    bare = ROOT / ".bench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "counts-exact", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
