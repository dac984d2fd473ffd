"""permroot benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout: the library is imported from
``./src``, nothing is installed, and scratch files stay under
``./.bench_tmp`` and ``./.bench_out``.  The run repeats one batch of the
workload's seeded inputs for ``--seconds``, each time in a fresh process
forked from one that has only imported the library, checks every output,
prints a readable report and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import multiprocessing
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
import types
from pathlib import Path
from time import perf_counter

import workloads
from tracing import LAYERS, Tracer, write_trace

SETUP_REPEATS = 9
MODULES = ("bijections", "cli", "counting", "oeis", "permutation", "report", "verify")
SUITES = (
    "perm-core", "bijections", "phi-bijection", "roots", "counting",
    "inequalities", "monotonicity", "tables", "oeis",
)
# what each end-to-end metric is called on each workload in the readable report
ALIASES = {
    "verify-grid": {"batch_s": "verify_wall_s"},
    "cli-batch": {
        "ops_per_s": "cli_lines_per_s", "items_per_s": "cli_elems_per_s",
        "op_p50_ms": "cli_p50_ms", "op_p90_ms": "cli_p90_ms",
    },
    "counts-exact": {"batch_s": "count_wall_s", "op_p50_ms": "count_p50_ms", "op_p90_ms": "count_p90_ms"},
}
# Best time of calibration_kernel() on the machine of the first baseline
# (README.md) in a quiet phase.  Reported times are scaled to this speed.
REFERENCE_KERNEL_S = 0.00100
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import permroot; sys.stdout.write(repr(time.perf_counter() - t))"
)


def percentile(values, p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def import_seconds(src: Path) -> float:
    """Time ``import permroot`` in a fresh interpreter, as a CLI start pays it."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(src)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def load_library(src: Path):
    sys.path.insert(0, str(src))
    lib = types.SimpleNamespace(**{
        name: importlib.import_module(f"permroot.{name}") for name in MODULES
    })
    origin = Path(lib.verify.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"permroot was imported from {origin}, not from {src}")
    return lib


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest batch process."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


class _Perm:
    """A permutation of 0..8 as a tuple of images, for the calibration kernel."""

    __slots__ = ("img",)

    def __init__(self, img):
        self.img = img

    def compose(self, other):
        img = self.img
        return _Perm(tuple(img[j] for j in other.img))

    def cycles(self):
        seen = [False] * len(self.img)
        out = []
        for start in range(len(self.img)):
            if not seen[start]:
                cyc, j = [], start
                while not seen[j]:
                    seen[j] = True
                    cyc.append(j)
                    j = self.img[j]
                out.append(tuple(cyc))
        return out


_KERNEL_PERMS = [_Perm(tuple(random.Random(i).sample(range(9), 9))) for i in range(40)]


def calibration_kernel() -> int:
    """Fixed pure-Python work shaped like the library's hot loops: small
    permutation objects composed and split into cycles, and cycles counted
    in a dict with tuple keys.  It runs in the interpreter, as the library
    does, and never calls permroot, so no change to the library can move
    it; only the speed of the machine does."""
    acc, q = 0, _KERNEL_PERMS[0]
    for p in _KERNEL_PERMS * 12:
        q = q.compose(p)
        acc += len(q.cycles())
    counts = {}
    for i, cyc in enumerate(q.cycles() * 200):
        counts[(cyc, i & 7)] = counts.get((cyc, i & 7), 0) + 1
    return acc + len(counts)


class Speed:
    """The machine's speed during a run: the best time of the calibration
    kernel, sampled before every batch.  Slow phases of the shared machine
    can cover a whole run; scaling by ``factor`` takes out the part of them
    that slows the kernel and the library alike."""

    def __init__(self):
        self.best = math.inf

    def sample(self, reps: int = 5) -> None:
        for _ in range(reps):
            start = perf_counter()
            calibration_kernel()
            self.best = min(self.best, perf_counter() - start)

    @property
    def factor(self) -> float:
        return REFERENCE_KERNEL_S / self.best


def outputs_digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def judge(work, inp, batch, first=None):
    """Check ``batch`` and drop its outputs, keeping their digest.  A batch
    repeating the outputs of ``first`` exactly inherits its verdict; any
    other batch is checked in full."""
    batch.digest = outputs_digest(batch.outputs)
    if first is not None and batch.digest == first.digest:
        batch.wrong, batch.messages = first.wrong, []
    else:
        batch.wrong, batch.messages = work.check(inp, batch)
    batch.outputs = None
    return batch


def measure(work, inp, first=None, trace: bool = False, **kwargs):
    """One timed batch, then its check outside the timed section.  With
    ``trace`` the library is traced while the batch runs (not while it is
    checked)."""
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        batch = work.run(inp, **kwargs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        batch.trace, batch.spans = tracer.snapshot(), tracer.spans
    return judge(work, inp, batch, first)


def in_fresh_process(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` in a child forked from this process, which
    never calls into the library: every batch starts with the library's
    caches as import left them, as a one-shot ``permroot`` process does,
    and what a batch allocates is freed with its process."""
    gc.freeze()  # the child's collector then never walks (and copies) inherited objects
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_serve, args=(send, fn, args, kwargs))
    child.start()
    send.close()
    try:
        ok, value = receive.recv()
    except EOFError:
        ok, value = False, "the batch process exited without a result"
    finally:
        receive.close()
        child.join()
    if not ok:
        raise RuntimeError(f"{value} (exit code {child.exitcode})")
    return value


def _serve(send, fn, args, kwargs) -> None:
    try:
        result = (True, fn(*args, **kwargs))
    except BaseException:
        result = (False, traceback.format_exc())
    send.send(result)
    send.close()


def run_batches(work, inp, seconds: float, speed: Speed | None = None, **kwargs) -> list:
    """Closed loop: repeat the batch, each in a fresh process, until
    ``seconds`` have been spent inside the timed sections.  Only the first
    traced batch keeps its raw spans."""
    batches, spent, first = [], 0.0, None
    while not batches or spent < seconds:
        if speed is not None:
            speed.sample()
        batch = in_fresh_process(measure, work, inp, first, **kwargs)
        if first is None:
            first = batch
        if batches:
            batch.spans = []
        batches.append(batch)
        spent += batch.wall_s
    return batches


def end_to_end(work, batches, setup_s: float, failed: int, speed: Speed) -> dict:
    """Every operation of the batch ran once per batch; each one's time is
    its best over the run (the noise of a shared machine only ever slows a
    call down), scaled by the machine speed.  The batch time is the sum of
    those times, the percentiles are taken over them, and the rates count
    the operations and items that succeeded."""
    attempted = sum(b.attempted for b in batches)
    best = [min(ms) * speed.factor for ms in zip(*(b.latencies_ms for b in batches))]
    p50, beyond50 = percentile(best, 0.5)
    p90, beyond90 = percentile(best, 0.9)
    batch_s = sum(best) / 1000
    metrics = {
        "batch_s": (batch_s, "s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "ops_per_s": ((batches[0].attempted - batches[0].failed) / batch_s, "1/s"),
        "items_per_s": (batches[0].items / batch_s, "1/s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (setup_s * speed.factor, "s"),
    }
    aliases = ALIASES[work.name]
    print(f"machine speed: calibration kernel best {speed.best * 1000:.4f} ms, reference "
          f"{REFERENCE_KERNEL_S * 1000:.4f} ms; times below are scaled by {speed.factor:.4f}")
    print(f"batches: {len(batches)} (each operation's time is its best of {len(batches)}); "
          f"unscaled: best-of batch {batch_s / speed.factor:.4f} s, median batch wall "
          f"{statistics.median(b.wall_s for b in batches):.4f} s, setup {setup_s:.4f} s")
    print(f"operations per batch: {len(best)} ({beyond50} beyond p50, {beyond90} beyond p90)")
    print(f"fail_ratio: {failed / attempted:.6f} ({failed} failed of {attempted} attempted)")
    for key, (value, unit) in metrics.items():
        print(f"  {aliases.get(key, key):22s} {value:14.6f} {unit:6s} [{key}]")
    if beyond90 < 10:
        print("note: fewer than 10 operations beyond p90")
    return {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}


def traced(work, inp, seconds: float, out_path: Path) -> tuple[list, dict]:
    """Untraced reference batches, then traced batches, each batch in a
    single process of its own; the per-layer numbers are medians over the
    traced batches."""
    is_verify = isinstance(work, workloads.VerifyGrid)
    reference = run_batches(work, inp, 0 if is_verify else seconds / 3)
    spent = sum(b.wall_s for b in reference)
    batches = list(reference)
    if is_verify:
        # the suite-sharding process pool, 2 workers
        jobs2 = in_fresh_process(measure, work, inp, reference[0], jobs=2)
        spent += jobs2.wall_s
        batches.append(jobs2)
    extra = {"per_suite": True} if is_verify else {}
    traced_batches = run_batches(work, inp, max(seconds - spent, 0), trace=True, **extra)
    batches += traced_batches
    snapshots = []
    for batch in traced_batches:
        snap = dict(batch.trace)
        snap.update({k: v for k, v in batch.layer.items() if k != "suite_s"})
        for sid in SUITES:
            snap[f"verify.suite_s.{sid}"] = batch.layer.get("suite_s", {}).get(sid, 0.0)
        snap["wall_s"] = batch.wall_s
        snapshots.append(snap)
    keys = [k for k in snapshots[0] if k not in ("self_s", "wall_s")]
    metrics = {k: statistics.median(s.get(k, 0) for s in snapshots) for k in keys}
    for k in ("verify.properties", "verify.counts_checked", "cli.lines", "cli.output_bytes"):
        metrics.setdefault(k, 0)
    # best batch over best batch, as the end-to-end times are taken
    untraced = min(b.wall_s for b in reference)
    metrics["verify.jobs2_speedup"] = untraced / jobs2.wall_s if is_verify else 0.0
    metrics["trace.overhead_ratio"] = min(s["wall_s"] for s in snapshots) / untraced
    self_s = {layer: statistics.median(s["self_s"][layer] for s in snapshots) for layer in LAYERS}
    print(f"traced batches: {len(traced_batches)}, untraced reference batches: {len(reference)}")
    print("self time per layer (s, median per batch): "
          + ", ".join(f"{layer} {value:.4f}" for layer, value in self_s.items()))
    write_trace(out_path, traced_batches[0].spans, snapshots)
    return batches, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "permroot" / "__init__.py").is_file():
        print(f"error: {src}/permroot not found; run from the root of a permroot checkout",
              file=sys.stderr)
        return 2
    scratch = root / ".bench_tmp"
    out_dir = root / ".bench_out"
    scratch.mkdir(exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    tempfile.tempdir = str(scratch)  # verify's cache round trip writes a temp dir
    os.environ["PERMROOT_CACHE_DIR"] = str(scratch / "cache")

    speed = Speed()
    speed.sample()
    imports = [import_seconds(src) for _ in range(SETUP_REPEATS)]
    lib = load_library(src)
    work = workloads.make(args.workload, lib)
    gens, inp = [], None
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        got = work.generate(args.seed)
        gens.append(perf_counter() - start)
        if inp is not None and got != inp:
            raise SystemExit("input generation is not deterministic")
        inp = got
    setup_s = statistics.median(i + g for i, g in zip(imports, gens))

    print(f"workload {work.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"python {sys.version.split()[0]}, nproc {os.cpu_count()}")
    print(f"mix: {json.dumps(work.mix(inp), sort_keys=True)}")
    print(f"setup: import {statistics.median(imports):.4f} s + inputs "
          f"{statistics.median(gens):.4f} s (medians of {SETUP_REPEATS})")
    if args.trace:
        out_path = out_dir / f"trace-{work.name}-seed{args.seed}.json"
        batches, layer = traced(work, inp, args.seconds, out_path)
        print(f"spans and per-batch counters written to {out_path}")
    else:
        batches = run_batches(work, inp, args.seconds, speed)
        speed.sample()
    wrong = sum(b.wrong for b in batches)
    failed = sum(b.failed for b in batches) + wrong
    for message in sorted({e for b in batches for e in b.errors}):
        print(f"failed: {message}")
    for i, batch in enumerate(batches, start=1):
        for message in batch.messages:
            print(f"WRONG: batch {i}: {message}")
    spec = _benchmark()
    if args.trace:
        metrics = {}
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layer[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:36s} {layer[m['name']]:16.6f} {m['unit']}")
    else:
        metrics = end_to_end(work, batches, setup_s, failed, speed)
        if set(metrics) != {m["name"] for m in spec["end_to_end"]}:
            raise SystemExit("end-to-end metrics do not match BENCHMARK.json")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": sum(b.attempted for b in batches),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _benchmark() -> dict:
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
