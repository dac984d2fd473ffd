"""Span tracing for the traced run, from outside the library.

``Tracer.install`` rebinds public names of ``permroot`` at run time (for
example ``permroot.bijections.to_enriched_cycles``, and ``enumerate_family``
as imported into ``verify`` and ``counting``) to wrappers that open a span
around each call; ``uninstall`` puts the originals back.  Nothing under
``src/`` is edited.

A span has a layer (the module name), a start, an end and the span that
caused it; spans under one harness-level call share that call's id.  Layer
busy time is the time spent in the outermost span of that layer, and self
time is a span's duration minus the part its child spans cover.  Counters
are kept at the same boundaries.  Aggregates are always kept; raw spans are
kept for the first ``MAX_SPANS`` spans at depth <= ``SPAN_DEPTH`` and written
out when the run ends.  A name the tracer expects but the library lacks is
an error, so a renamed function cannot read as a layer that does no work.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from fractions import Fraction
from math import factorial
from time import perf_counter

LAYERS = (
    "permutation", "families", "bijections", "roots", "counting",
    "verify", "report", "oeis", "cli",
)
MAX_SPANS = 20000
SPAN_DEPTH = 2

BIJECTIONS = (
    "extract_element", "insert_element", "extend_regular", "grow_first_cycle",
    "shrink_first_cycle", "to_nearly_regular", "from_nearly_regular",
    "split_nearly_regular", "to_enriched_cycles", "from_enriched_cycles",
    "merge_cycle_class",
)
COUNTING = (
    "count_reg", "count_cyc", "count_enriched_cyc", "count_cyc_qr",
    "count_q_family", "count_AP", "count_S_rho_q", "root_count_sequence",
    "count_roots", "prob_root", "regular_proportion_product", "count_of_type",
    "falling_factorial", "double_factorial",
)
CRITERIA = ("has_root_general", "has_root_prime_power", "type_has_root")
BRUTE_FORCE = ("find_root_bruteforce", "brute_force_root_table")


class _Frame:
    __slots__ = ("layer", "name", "start", "child", "span_id", "op_id")

    def __init__(self, layer, name, start, span_id, op_id):
        self.layer = layer
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.op_id = op_id


def _bits(value) -> int:
    if isinstance(value, bool):
        return 0
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, Fraction):
        return value.numerator.bit_length() + value.denominator.bit_length()
    if isinstance(value, (list, tuple)):
        return sum(_bits(v) for v in value)
    return 0


def _elements(args) -> int:
    """Ground-set size of the permutation argument of a bijection call."""
    for arg in args:
        size = getattr(arg, "size", None)
        if isinstance(size, int):
            return size
    if args and isinstance(args[0], (list, tuple)):
        return sum(len(c) for c in args[0])  # merge_cycle_class(cycles, ...)
    return 0


def lex_rank(elems, images) -> int:
    """Position of ``images`` in the lexicographic order of the permutations
    of the sorted tuple ``elems`` (itertools.permutations order)."""
    remaining = list(elems)
    rank = 0
    for i, img in enumerate(images):
        j = remaining.index(img)
        rank += j * factorial(len(elems) - i - 1)
        remaining.pop(j)
    return rank


class Tracer:
    """Spans and counters for one traced batch."""

    def __init__(self):
        self._patches = []
        self._next_id = 0
        self.spans = []
        self._stack: list[_Frame] = []
        self._depth = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.by_name = defaultdict(float)
        self.calls = Counter()
        self.name_calls = Counter()
        self.counters = Counter()

    # -- spans -----------------------------------------------------------------

    def enter(self, layer: str, name: str) -> _Frame:
        self._next_id += 1
        stack = self._stack
        op_id = stack[0].op_id if stack else self._next_id
        frame = _Frame(layer, name, perf_counter(), self._next_id, op_id)
        stack.append(frame)
        self._depth[layer] += 1
        return frame

    def exit(self, frame: _Frame, failed: bool = False) -> bool:
        """Close the innermost span; True when it was the outermost span of
        its layer (a call into the layer from outside)."""
        end = perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame.start
        layer = frame.layer
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += duration
        self.self_time[layer] += duration - frame.child
        self._depth[layer] -= 1
        outer = self._depth[layer] == 0
        if outer:
            self.busy[layer] += duration
            self.by_name[frame.name] += duration
            self.name_calls[frame.name] += 1
            self.calls[layer] += 1
            if failed:
                self.counters[f"{layer}.failed"] += 1
        if len(stack) < SPAN_DEPTH and len(self.spans) < MAX_SPANS:
            self.spans.append((
                frame.span_id, parent.span_id if parent else None, frame.op_id,
                layer, frame.name, frame.start, end, failed,
            ))
        return outer

    def wrap(self, layer: str, name: str, fn, after=None):
        """A wrapper timing ``fn`` as a span; ``after(args, result, outer,
        failed)`` updates counters once the span is closed."""
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            frame = enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                outer = exit_(frame, failed=True)
                if after is not None:
                    after(args, None, outer, True)
                raise
            outer = exit_(frame)
            if after is not None:
                after(args, result, outer, False)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_scan(self, fn):
        """Wrap ``enumerate_family``: only time spent inside ``next()`` is
        scan time; a fully consumed scan of S_n adds n! scanned perms."""
        tracer = self

        def traced(spec, *args, **kwargs):
            tracer.counters["families.scan_calls"] += 1
            inner = fn(spec, *args, **kwargs)
            while True:
                frame = tracer.enter("families", "enumerate_family")
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.exit(frame)
                    tracer.counters["families.perms_scanned"] += factorial(spec.n)
                    return
                except BaseException:
                    tracer.exit(frame, failed=True)
                    raise
                tracer.exit(frame)
                tracer.counters["families.members_yielded"] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def counted(self, key: str, fn):
        counters = self.counters

        def count(*args):
            counters[key] += 1
            return fn(*args)

        count.__wrapped__ = fn
        return count

    # -- installing ------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Rebind ``owner.attr``, which must exist."""
        if not hasattr(owner, attr):
            raise AttributeError(f"{owner.__name__} has no {attr!r} to trace")
        self._patches.append((owner, attr, owner.__dict__.get(attr, getattr(owner, attr))))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from permroot import (
            bijections, cli, counting, families, oeis, permutation, report,
            roots, verify,
        )

        c = self.counters

        def bijection_after(args, result, outer, failed):
            if outer:
                c["bijections.elements"] += _elements(args)

        def counting_after(args, result, outer, failed):
            if outer and not failed:
                c["counting.result_bits"] += _bits(result)

        def table_after(args, result, outer, failed):
            if outer and not failed:
                c["roots.bruteforce_perms_scanned"] += factorial(args[0])

        def find_after(args, result, outer, failed):
            if outer and not failed:
                sigma = args[0]
                if result is None:
                    c["roots.bruteforce_perms_scanned"] += factorial(sigma.size)
                else:
                    rank = lex_rank(sigma.elements(), result.one_line())
                    c["roots.bruteforce_perms_scanned"] += rank + 1

        def bytes_after(args, result, outer, failed):
            if outer and not failed:
                c["report.bytes"] += len(result)

        for name in BIJECTIONS:
            fn = getattr(bijections, name)
            self.patch(bijections, name, self.wrap("bijections", name, fn, bijection_after))
        for name in COUNTING:
            fn = getattr(counting, name)
            self.patch(counting, name, self.wrap("counting", name, fn, counting_after))
        self.patch(counting, "comb", self.counted("counting.comb_calls", counting.comb))
        self.patch(counting, "factorial", self.counted("counting.factorial_calls", counting.factorial))

        scan = self.wrap_scan(families.enumerate_family)
        for owner in (families, verify, counting, cli):
            self.patch(owner, "enumerate_family", scan)

        afters = {"find_root_bruteforce": find_after, "brute_force_root_table": table_after}
        for name in CRITERIA + BRUTE_FORCE:
            fn = getattr(roots, name)
            kind = "criterion" if name in CRITERIA else "bruteforce"
            wrapped = self.wrap("roots", f"{kind}:{name}", fn, afters.get(name))
            # wherever a module imported the function by name
            for owner in (roots, verify, cli, counting):
                if getattr(owner, name, None) is fn:
                    self.patch(owner, name, wrapped)

        original = permutation.parse
        parse = self.wrap("permutation", "parse", original)
        for owner in (permutation, verify, cli):
            if getattr(owner, "parse", None) is original:
                self.patch(owner, "parse", parse)
        for cls in (permutation.Permutation, permutation.EnrichedPermutation):
            self.patch(cls, "__str__", self.wrap("permutation", "format", cls.__str__))

        self.patch(verify, "run_suites", self.wrap("verify", "run_suites", verify.run_suites))
        self.patch(report, "reports_to_json", self.wrap(
            "report", "reports_to_json", report.reports_to_json, bytes_after))
        self.patch(oeis, "fetch", self.wrap("oeis", "fetch", oeis.fetch))
        self.patch(cli, "main", self.wrap("cli", "main", cli.main))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer numbers of the traced batch."""
        c, busy, by = self.counters, self.busy, self.by_name
        scanned = c["families.perms_scanned"]
        criterion = [f"criterion:{n}" for n in CRITERIA]
        brute = [f"bruteforce:{n}" for n in BRUTE_FORCE]
        return {
            "families.scan_calls": c["families.scan_calls"],
            "families.perms_scanned": scanned,
            "families.members_yielded": c["families.members_yielded"],
            "families.yield_ratio": c["families.members_yielded"] / scanned if scanned else 0.0,
            "families.scan_s": busy["families"],
            "bijections.calls": self.calls["bijections"],
            "bijections.elements": c["bijections.elements"],
            "bijections.busy_s": busy["bijections"],
            "bijections.failed": c["bijections.failed"],
            "bijections.phi_s": by["to_enriched_cycles"],
            "bijections.phi_inv_s": by["from_enriched_cycles"],
            "bijections.delta_s": by["extract_element"] + by["insert_element"],
            "bijections.grow_shrink_s": by["grow_first_cycle"] + by["shrink_first_cycle"],
            "counting.calls": self.calls["counting"],
            "counting.busy_s": busy["counting"],
            "counting.comb_calls": c["counting.comb_calls"],
            "counting.factorial_calls": c["counting.factorial_calls"],
            "counting.result_bits": c["counting.result_bits"],
            "roots.criterion_calls": self._outer_calls(criterion),
            "roots.criterion_s": sum(by[n] for n in criterion),
            "roots.bruteforce_calls": self._outer_calls(brute),
            "roots.bruteforce_s": sum(by[n] for n in brute),
            "roots.bruteforce_perms_scanned": c["roots.bruteforce_perms_scanned"],
            "permutation.parse_calls": self._outer_calls(["parse"]),
            "permutation.parse_s": by["parse"],
            "permutation.format_calls": self._outer_calls(["format"]),
            "permutation.format_s": by["format"],
            "report.serialize_s": busy["report"],
            "report.bytes": c["report.bytes"],
            "oeis.fetch_calls": self.calls["oeis"],
            "oeis.fetch_s": busy["oeis"],
            "cli.invocations": self.calls["cli"],
            "cli.self_s": self.self_time["cli"],
            "self_s": {layer: self.self_time[layer] for layer in LAYERS},
        }

    def _outer_calls(self, names) -> int:
        return sum(self.name_calls[n] for n in names)


def write_trace(path, spans, batches) -> None:
    """Write raw spans and the per-batch counters as JSON."""
    payload = {
        "spans": [
            dict(zip(("id", "parent", "op", "layer", "name", "start", "end", "failed"), s))
            for s in spans
        ],
        "batches": batches,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
