"""The benchmark workloads: inputs, one timed batch, and the output checks.

A batch is the unit a run repeats.  Each workload reports per batch its wall
time, one latency per operation, the operations attempted and failed, the
work items done, and the outputs, which ``check`` compares with answers known
by construction or recorded in ``expected.json``.  All load is closed loop:
one caller, which waits for each result before sending the next.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from pathlib import Path
from time import perf_counter

import inputs

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def digest(value) -> str:
    """Short digest of an exact result, as recorded in expected.json."""
    return hashlib.sha256(str(value).encode()).hexdigest()[:10]


@dataclass
class Batch:
    """One batch: ``latencies_ms`` has one entry per operation, in input
    order; ``items`` counts the work of the operations that succeeded.
    Once checked, ``outputs`` is dropped and ``digest``, ``wrong`` and
    ``messages`` hold what the check found; a traced batch also carries
    its per-layer numbers in ``trace`` and its raw spans in ``spans``."""

    wall_s: float
    latencies_ms: list[float]
    attempted: int
    failed: int
    items: int
    outputs: list | None
    errors: list[str] = field(default_factory=list)
    layer: dict = field(default_factory=dict)
    digest: str = ""
    wrong: int = 0
    messages: list[str] = field(default_factory=list)
    trace: dict | None = None
    spans: list = field(default_factory=list)


class VerifyGrid:
    """``verify.run_suites`` over every registered suite on one bounds dict;
    the reports are serialized as ``verify --out`` would."""

    name = "verify-grid"

    def __init__(self, lib, expected):
        self.lib = lib
        self.expected = expected
        # bound now, so the traced run does not count the check as report work
        self.normalize = lib.report.normalize_report_bytes

    def generate(self, seed: int):
        # the grid is fixed so its report bytes can be pinned by a digest
        return {"bounds": inputs.VERIFY_BOUNDS, "suites": list(self.lib.verify.suite_ids())}

    def mix(self, inp) -> dict:
        return {"suites": len(inp["suites"]), "bounds": inp["bounds"]}

    def run(self, inp, jobs: int = 1, per_suite: bool = False) -> Batch:
        """One pass; an operation is one property, timed by its report.
        ``per_suite`` calls ``run_suites`` once per suite (the same work at
        jobs = 1) so the traced run can time each suite."""
        verify, report = self.lib.verify, self.lib.report
        suite_s = {}
        start = perf_counter()
        if per_suite:
            reports = []
            for sid in inp["suites"]:
                got = verify.run_suites([sid], bounds=inp["bounds"], jobs=1)
                suite_s[sid] = sum(r.wall_time for r in got)
                reports.extend(got)
        else:
            reports = verify.run_suites(inp["suites"], bounds=inp["bounds"], jobs=jobs)
        text = report.reports_to_json(reports)
        wall = perf_counter() - start
        return Batch(
            wall_s=wall,
            latencies_ms=[r.wall_time * 1000 for r in reports],
            attempted=len(reports),
            failed=sum(1 for r in reports if not r.passed),
            items=sum(r.counts_checked for r in reports),
            outputs=[self.normalize(text)],
            errors=[f"{r.property_id}: {r.counterexample}" for r in reports if not r.passed],
            layer={
                "verify.properties": len(reports),
                "verify.counts_checked": sum(r.counts_checked for r in reports),
                "suite_s": suite_s,
            },
        )

    def check(self, inp, batch: Batch) -> tuple[int, list[str]]:
        """A pass whose normalized report bytes differ from the recorded
        digest is wrong as a whole: every report in it counts as failed."""
        got = hashlib.sha256(batch.outputs[0]).hexdigest()
        if got != self.expected["verify_sha256"]:
            return batch.attempted, [f"normalized report sha256 {got} != recorded "
                                     f"{self.expected['verify_sha256']}"]
        return 0, []


class CliBatch:
    """In-process ``permroot.cli.main(argv)`` calls with stdin and stdout
    swapped for in-memory text; one operation is one input line."""

    name = "cli-batch"

    def __init__(self, lib, expected):
        self.lib = lib

    def generate(self, seed: int):
        return inputs.cli_inputs(seed)

    def mix(self, inp) -> dict:
        return inputs.cli_mix(inp)

    def run(self, inp) -> Batch:
        cli = self.lib.cli
        latencies, outputs, errors = [], [], []
        attempted = failed = items = out_bytes = 0
        saved_stdin = sys.stdin
        start = perf_counter()
        try:
            for inv in inp:
                lines = inv["lines"]
                sys.stdin = io.StringIO("".join(line["text"] + "\n" for line in lines))
                out, err = io.StringIO(), io.StringIO()
                t0 = perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(list(inv["argv"]))
                except Exception as exc:  # an invocation that raises counts as failed
                    code, text = None, f"{type(exc).__name__}"
                else:
                    text = out.getvalue()
                latencies.append((perf_counter() - t0) * 1000)
                attempted += len(lines)
                if code != 0:
                    failed += len(lines)
                    errors.append(f"{' '.join(inv['argv'])} on n={lines[0]['n']}: "
                                  f"{text if code is None else err.getvalue().strip()}")
                    outputs.append(None)
                else:
                    items += sum(line["n"] for line in lines)
                    out_bytes += len(text)
                    outputs.append(text)
        finally:
            sys.stdin = saved_stdin
        wall = perf_counter() - start
        return Batch(wall, latencies, attempted, failed, items, outputs, errors, layer={
            "cli.lines": attempted, "cli.output_bytes": out_bytes,
        })

    def check(self, inp, batch: Batch) -> tuple[int, list[str]]:
        """Wrong lines and why; a line whose invocation raised is already
        counted as failed."""
        problems = []
        for inv, text in zip(inp, batch.outputs):
            if text is None:
                continue  # already counted as failed
            answers = text.splitlines()
            if len(answers) != len(inv["lines"]):
                problems += [f"{inv['argv']}: {len(answers)} answers for {len(inv['lines'])} lines"
                             ] * len(inv["lines"])
                continue
            r = int(inv["argv"][-1])
            for line, answer in zip(inv["lines"], answers):
                try:
                    problem = self.check_line(line, answer, r)
                except (ValueError, RecursionError) as exc:  # unparsable or outside the domain
                    problem = f"{type(exc).__name__}: {exc}"
                if problem:
                    problems.append(f"{inv['argv']} n={line['n']}: {problem}")
        return len(problems), problems

    def check_line(self, line: dict, answer: str, r: int) -> str | None:
        """Why ``answer`` is wrong for the input ``line``, or None.  Map
        outputs must be canonical and round-trip through the library
        inverse; root answers must match the answer known by construction."""
        bij, parse = self.lib.bijections, self.lib.permutation.parse
        kind, source = line["kind"], line["text"]
        if kind == "root":
            verdict, _, witness = answer.partition(" ")
            if verdict != ("yes" if line["exists"] else "no"):
                return f"answered {verdict!r}"
            if verdict == "no":
                return None if not witness else "witness printed for 'no'"
            if not witness:
                # the brute-force search gives one up to 8 elements; a
                # constructive root may give one at any size
                return "no witness at n <= 8" if line["n"] <= 8 else None
            pi = parse(witness)
            if _text(pi) != witness or pi.power(r) != parse(source):
                return f"witness {witness} does not power to the input"
            return None
        if kind == "delta":
            x, sep, rest_text = answer.partition(" | ")
            rest = parse(rest_text)
            if not sep or _text(rest) != rest_text:
                return "output is not 'x | rest' in canonical form"
            back = bij.insert_element(int(x), rest, r)
            return None if back == parse(source) else "insert(delta(s)) != s"
        if kind == "Phi":
            out = parse(answer, r)
            back = bij.from_enriched_cycles(out)
        else:
            out = parse(answer)
            inverse = {
                "Phi-inv": lambda p: bij.to_enriched_cycles(p, r),
                "phi": lambda p: bij.shrink_first_cycle(p, r),
                "alpha": lambda p: bij.grow_first_cycle(p, r),
            }[kind]
            back = inverse(out)
        if _text(out) != answer:
            return "output is not canonical"
        expected = parse(source, r) if kind == "Phi-inv" else parse(source)
        return None if back == expected else f"inverse of {kind} did not give the input back"


def _text(p) -> str:
    """Canonical text of a parsed (possibly enriched) permutation, written
    without the library's formatter."""
    if hasattr(p, "color_seq"):
        return inputs.cycles_text(p.base.cycles, p.color_seq)
    return inputs.cycles_text(p.cycles)


class CountsExact:
    """Seeded exact-count requests straight into ``permroot.counting``."""

    name = "counts-exact"

    def __init__(self, lib, expected):
        self.lib = lib
        self.expected = expected

    def generate(self, seed: int):
        return inputs.count_requests(seed)

    def mix(self, inp) -> dict:
        return inputs.counts_mix(inp)

    def run(self, inp) -> Batch:
        counting = self.lib.counting
        latencies, outputs, errors = [], [], []
        failed = 0
        start = perf_counter()
        for req in inp:
            fn = getattr(counting, req["fn"])  # looked up per call: the traced run rebinds it
            args = (req["q"], req["r"], req["n"]) if "q" in req else (req["r"], req["n"])
            t0 = perf_counter()
            try:
                value = fn(*args)
            except Exception as exc:  # a request that raises counts as failed
                value = None
                failed += 1
                errors.append(f"{req}: {type(exc).__name__}: {exc}")
            latencies.append((perf_counter() - t0) * 1000)
            outputs.append(value)
        wall = perf_counter() - start
        items = sum(r["n"] for r, v in zip(inp, outputs) if v is not None)
        return Batch(wall, latencies, len(inp), failed, items, outputs, errors)

    def check(self, inp, batch: Batch) -> tuple[int, list[str]]:
        """Wrong results and why; a request that raised is already counted
        as failed."""
        table = self.expected["counts"]
        fixture = self.lib.oeis.fetch("A247005", source="fixture").as_dict()
        problems = []
        for req, value in zip(inp, batch.outputs):
            if value is not None:
                problem = self.check_result(req, value, table, fixture)
                if problem:
                    problems.append(f"{req}: {problem}")
        return len(problems), problems

    def check_result(self, req: dict, value, table: dict, fixture: dict) -> str | None:
        """Why ``value`` is wrong for ``req``, or None: every result matches
        its recorded digest directly or through an identity."""
        fn, r, n = req["fn"], req["r"], req["n"]
        roots = table["roots"].get(str(r))
        if fn == "root_count_sequence":
            if len(value) != n + 1:
                return f"sequence has {len(value)} terms"
            bad = [i for i, v in enumerate(value) if digest(v) != roots[i]]
            if r == 2:
                bad += [i for i, v in enumerate(value) if i in fixture and fixture[i] != v]
            return f"terms {sorted(set(bad))[:5]} differ" if bad else None
        if fn == "prob_root":
            count = value * factorial(n)  # identity: prob_root == count_roots / n!
            if not isinstance(value, Fraction) or count.denominator != 1:
                return f"{value} is not count_roots / {n}!"
            value = count.numerator
            fn = "count_roots"
        if fn == "count_roots":
            if r == 2 and n in fixture and fixture[n] != value:
                return f"A247005({n}) is {fixture[n]}"
            return None if digest(value) == roots[n] else "digest differs"
        if fn == "count_enriched_cyc":
            if value != self.lib.counting.count_reg(r, n):
                return "count_enriched_cyc(r, rn) != count_reg(r, rn)"
            fn = "count_reg"
        if fn in ("count_reg", "count_cyc"):
            key = "reg" if fn == "count_reg" else "cyc"
            return None if digest(value) == table[key][str(r)][n] else "digest differs"
        q = req["q"]
        if n % (q * r):
            return None if value == 0 else "nonzero count off the q*r grid"
        return None if digest(value) == table["cyc_qr"][f"{q},{r}"][n // (q * r)] else "digest differs"


def make(name: str, lib):
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    if name == "verify-grid":
        return VerifyGrid(lib, expected)
    if name == "cli-batch":
        return CliBatch(lib, expected)
    if name == "counts-exact":
        return CountsExact(lib, expected)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify-grid", "cli-batch", "counts-exact")
