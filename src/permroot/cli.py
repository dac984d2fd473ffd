"""Command-line interface.

Subcommands: map, root, count, prob, enumerate, verify, oeis.  Exit codes:
0 success, 1 verification failure, 2 usage or input error, 141 standard
output closed early (a closed pipe).  Permutations are passed as quoted
cycle-notation strings or, in batch mode, one per line on standard input; a
bad line is reported with its line number and the other lines still get
their answers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial
from typing import Callable, Iterable

from . import bijections as bij
from . import counting as cnt
from . import oeis
from .errors import DomainError, PermrootError, check_int
from .families import (
    DEFAULT_ENUMERATION_BOUND,
    FamilySpec,
    enumerate_enriched_cycles,
    enumerate_family,
)
from .permutation import parse, parse_cycle_type
from .report import golden_diff, write_reports
from .roots import BRUTE_FORCE_BOUND, find_root_bruteforce, has_root_general

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended


def _delta(text: str, args) -> dict:
    x, rest = bij.extract_element(parse(text), args.r)
    return {"x": x, "rest": str(rest)}


# map name -> its answer on one input; lambda-inv and Phi-inv read colored input
MAPS = {
    "delta": _delta,
    "delta-inv": lambda text, args: str(bij.insert_element(args.x, parse(text), args.r)),
    "phi": lambda text, args: str(bij.grow_first_cycle(parse(text), args.r)),
    "alpha": lambda text, args: str(bij.shrink_first_cycle(parse(text), args.r)),
    "lambda": lambda text, args: str(bij.to_nearly_regular(parse(text), args.r)),
    "lambda-inv": lambda text, args: str(bij.from_nearly_regular(parse(text, args.r))),
    "Phi": lambda text, args: str(bij.to_enriched_cycles(parse(text), args.r)),
    "Phi-inv": lambda text, args: str(bij.from_enriched_cycles(parse(text, args.r))),
    "psi": lambda text, args: str(bij.extend_regular(parse(text), args.j, args.r)),
}


# JSON schemas for --format json output, one per subcommand.
SCHEMAS = {
    "map": {
        "type": "object",
        "required": ["map", "r", "input", "output"],
        "properties": {
            "map": {"type": "string", "enum": list(MAPS)},
            "r": {"type": "integer", "minimum": 2},
            "input": {"type": "string"},
            "output": {
                "oneOf": [
                    {"type": "string"},
                    {
                        "type": "object",
                        "required": ["x", "rest"],
                        "properties": {
                            "x": {"type": "integer"},
                            "rest": {"type": "string"},
                        },
                    },
                ]
            },
        },
    },
    "root": {
        "type": "object",
        "required": ["r", "n", "exists", "witness"],
        "properties": {
            "r": {"type": "integer", "minimum": 2},
            "n": {"type": "integer", "minimum": 0},
            "exists": {"type": "boolean"},
            "witness": {"type": ["string", "null"]},
        },
    },
    "count": {
        "type": "object",
        "required": ["family", "params", "methods", "value"],
        "properties": {
            "family": {"type": "string"},
            "params": {"type": "object"},
            "methods": {
                "type": "object",
                "additionalProperties": {"type": "string", "pattern": "^[0-9]+$"},
            },
            "value": {"type": "string", "pattern": "^[0-9]+$"},
        },
    },
    "prob": {
        "type": "object",
        "required": ["family", "params", "value"],
        "properties": {
            "family": {"type": "string"},
            "params": {"type": "object"},
            "value": {
                "type": "object",
                "required": ["num", "den"],
                "properties": {
                    "num": {"type": "string", "pattern": "^[0-9]+$"},
                    "den": {"type": "string", "pattern": "^[0-9]+$"},
                },
            },
        },
    },
    "enumerate": {
        "type": "object",
        "required": ["family", "params", "count", "items"],
        "properties": {
            "family": {"type": "string"},
            "params": {"type": "object"},
            "count": {"type": "integer", "minimum": 0},
            "items": {"type": "array", "items": {"type": "string"}},
        },
    },
    "verify": {
        "type": "object",
        "required": ["suites", "passed", "reports"],
        "properties": {
            "suites": {"type": "array", "items": {"type": "string"}},
            "passed": {"type": "boolean"},
            "reports": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": [
                        "property_id", "range", "status", "counterexample",
                        "counts_checked",
                    ],
                    "properties": {
                        "property_id": {"type": "string"},
                        "range": {"type": "object"},
                        "status": {"type": "string", "enum": ["pass", "fail"]},
                        "counterexample": {"type": ["string", "null"]},
                        "counts_checked": {"type": "integer"},
                        "wall_time": {"type": "number"},
                    },
                },
            },
        },
    },
    "oeis": {
        "type": "object",
        "required": ["oeis_id", "terms"],
        "properties": {
            "oeis_id": {"type": "string", "pattern": "^A[0-9]{6}$"},
            "terms": {
                "type": "array",
                "items": {
                    "type": "array",
                    "items": {"type": ["integer", "string"]},
                    "minItems": 2,
                    "maxItems": 2,
                },
            },
            "check": {"type": ["object", "null"]},
        },
    },
}


# built on the first main() call and reused; each handler looks its names up
# when it runs, so a rebinding after the build is still seen
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permroot",
        description="Cycle-structure bijections, exact root counts, and verification suites.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", parents=[common], help="apply one of the bijections")
    p_map.set_defaults(handler=_cmd_map)
    p_map.add_argument("name", choices=MAPS)
    p_map.add_argument("perm", nargs="?", help="cycle notation; omit to read lines from stdin")
    p_map.add_argument("--r", type=int, required=True)
    p_map.add_argument("--x", type=int, help="distinguished element (delta-inv)")
    p_map.add_argument("--j", type=int, help="new label (psi)")

    p_root = sub.add_parser("root", parents=[common], help="r-th-root existence and witness")
    p_root.set_defaults(handler=_cmd_root)
    p_root.add_argument("perm", nargs="?")
    p_root.add_argument("--r", type=int)
    p_root.add_argument("--q", type=int, help="base of the root degree q**l (alternative to --r)")
    p_root.add_argument("--l", type=int, default=1, help="exponent for --q")

    p_count = sub.add_parser("count", parents=[common], help="exact family counts")
    p_count.set_defaults(handler=_cmd_count)
    _family_arguments(p_count)
    p_count.add_argument(
        "--method", choices=("formula", "recurrence", "enumerate", "all"), default=None
    )

    p_prob = sub.add_parser("prob", parents=[common], help="probability of an r-th root")
    p_prob.set_defaults(handler=_cmd_prob)
    p_prob.add_argument("--r", type=int, required=True)
    p_prob.add_argument("--n", type=int, required=True)

    p_enum = sub.add_parser("enumerate", parents=[common], help="stream a family")
    p_enum.set_defaults(handler=_cmd_enumerate)
    _family_arguments(p_enum)

    p_verify = sub.add_parser("verify", parents=[common], help="run verification suites")
    p_verify.set_defaults(handler=_cmd_verify)
    p_verify.add_argument("--suite", action="append", help="suite id (repeatable)")
    p_verify.add_argument("--all", action="store_true", help="run every suite")
    p_verify.add_argument("--list", action="store_true", help="list suite ids")
    p_verify.add_argument("--r", type=int, help="override: restrict phi-bijection to one r")
    p_verify.add_argument("--n", type=int, help="override: restrict phi-bijection to one n")
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--out", help="write report JSON to this path")
    p_verify.add_argument("--golden", help="compare the report against a golden file")

    p_oeis = sub.add_parser("oeis", parents=[common], help="fetch and cross-check OEIS b-files")
    p_oeis.set_defaults(handler=_cmd_oeis)
    p_oeis.add_argument("oeis_id")
    p_oeis.add_argument("--source", choices=oeis.SOURCES, default="fixture")
    p_oeis.add_argument("--offline", action="store_true", help="forbid network access")
    p_oeis.add_argument("--cache-dir", default=None)
    p_oeis.add_argument("--upto", type=int, default=None, help="cross-check up to this index")
    p_oeis.add_argument("--fetch-only", action="store_true", help="print terms, no cross-check")
    return parser


def _family_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--k", type=int)
    p.add_argument("--rho", help='cycle type such as "2^2,4^2"; empty string for the empty type')
    p.add_argument("--bound", type=int, default=DEFAULT_ENUMERATION_BOUND)


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _each_input(args, answer) -> int:
    """Call ``answer(text)`` on the permutation argument or, without one, on
    each line of stdin that is not blank.  A bad stdin line prints
    ``error: line N: ...`` and the other lines go on; the exit code is then
    EXIT_USAGE."""
    if args.perm is not None:
        answer(args.perm)
        return EXIT_OK
    status = EXIT_OK
    for number, line in enumerate(sys.stdin, start=1):
        if not line.strip():
            continue
        try:
            answer(line.rstrip("\n"))
        except PermrootError as exc:
            print(f"error: line {number}: {exc}", file=sys.stderr)
            status = EXIT_USAGE
    return status


def _cmd_map(args) -> int:
    if args.name == "delta-inv" and args.x is None:
        raise PermrootError("delta-inv needs --x")
    if args.name == "psi" and args.j is None:
        raise PermrootError("psi needs --j")
    check_int(args.r, "r", 2)

    def answer(text):
        out = MAPS[args.name](text, args)
        payload = {"map": args.name, "r": args.r, "input": text, "output": out}
        _emit(args, payload, out if isinstance(out, str) else f"{out['x']} | {out['rest']}")

    return _each_input(args, answer)


# q**l has at most l * q.bit_length() bits; a larger degree is refused before
# the power is taken
MAX_DEGREE_BITS = 4096


def _check_q_l(args) -> None:
    """--q and --l are checked even where --r wins or nothing reads them."""
    check_int(args.l, "l", 1)
    if args.q is not None:
        check_int(args.q, "q", 2)


def _degree(args) -> int | None:
    """--r, or else --q to the power --l."""
    _check_q_l(args)
    if args.r is not None or args.q is None:
        return args.r
    bits = args.l * args.q.bit_length()
    if bits > MAX_DEGREE_BITS:
        raise DomainError(
            f"q**l is bounded by {MAX_DEGREE_BITS} bits, got l * bit_length(q) = {bits}"
        )
    return args.q**args.l


def _cmd_root(args) -> int:
    r = _degree(args)
    if r is None:
        raise PermrootError("root needs --r (or --q with --l)")
    check_int(r, "root degree", 2)

    def answer(text):
        sigma = parse(text)
        exists = has_root_general(sigma, r)
        witness = None
        if sigma.size <= BRUTE_FORCE_BOUND:
            found = find_root_bruteforce(sigma, r)
            if (found is not None) != exists:
                raise PermrootError(
                    f"criterion and brute force disagree on {sigma} (r={r})"
                )
            witness = str(found) if found is not None else None
        payload = {"r": r, "n": sigma.size, "exists": exists, "witness": witness}
        if exists:
            text_out = "yes" + (f" {witness}" if witness is not None else "")
        else:
            text_out = "no"
        _emit(args, payload, text_out)

    return _each_input(args, answer)


# (param, how it is read from the arguments, the flag named when it is missing)
_R = ("r", _degree, "--r (or --q with --l)")
_R_ONLY = ("r", lambda args: args.r, "--r")
_Q = ("q", lambda args: args.q, "--q")
_K = ("k", lambda args: args.k, "--k")
_RHO = ("rho", lambda args: args.rho, "--rho")


@dataclass(frozen=True)
class _Family:
    """One ``--family`` name: the flags read into params, the FamilySpec built
    from them, its exact counts by method (called with params as keywords) and
    the stream that ``enumerate`` prints, which is also its ``enumerate`` count."""

    flags: tuple
    spec: Callable[..., FamilySpec]
    counts: dict[str, Callable[..., int]]
    stream: Callable[..., Iterable] = lambda spec, bound: enumerate_family(spec, bound)


# the callables look library names up per call, so the benchmark tracer's rebinding is seen
FAMILIES = {
    "reg": _Family((_R,), FamilySpec.regular, {
        "formula": lambda **p: cnt.count_reg(**p),
        "recurrence": lambda **p: cnt.count_reg(**p, method="recurrence"),
    }),
    "cyc": _Family((_R,), FamilySpec.cycle, {
        "formula": lambda **p: cnt.count_cyc(**p),
        "recurrence": lambda **p: cnt.count_cyc(**p, method="recurrence"),
    }),
    "cyc-star": _Family(
        (_R,), FamilySpec.cycle, {"formula": lambda **p: cnt.count_enriched_cyc(**p)},
        stream=lambda spec, bound: enumerate_enriched_cycles(spec.r, spec.n, bound),
    ),
    "nreg": _Family(
        (_R,), FamilySpec.nearly_regular, {"formula": lambda **p: cnt.count_nreg(**p)}
    ),
    "q": _Family(
        (_R, _K), FamilySpec.first_cycle, {"formula": lambda **p: cnt.count_q_family(**p)}
    ),
    "a": _Family(
        (_K,), FamilySpec.odd_with_first, {"formula": lambda **p: cnt.count_AP(**p, parity="odd")}
    ),
    "p": _Family(
        (_K,), FamilySpec.even_first, {"formula": lambda **p: cnt.count_AP(**p, parity="even")}
    ),
    "cyc-qr": _Family(
        (_Q, _R_ONLY), FamilySpec.uniform_multiples, {"formula": lambda **p: cnt.count_cyc_qr(**p)}
    ),
    "s-rho-q": _Family(
        (_Q, _RHO),
        lambda rho, q, n: FamilySpec.singular_type(parse_cycle_type(rho), q, n),
        {"formula": lambda rho, q, n: cnt.count_S_rho_q(parse_cycle_type(rho), q, n)},
    ),
    "roots": _Family((_R,), FamilySpec.with_root, {"formula": lambda **p: cnt.count_roots(**p)}),
    "all": _Family((), FamilySpec.everything, {"formula": lambda n: factorial(n)}),
}


def _family_spec(args) -> tuple[_Family, FamilySpec, dict]:
    if args.bound < 1:
        raise DomainError("enumeration bound must be positive")
    _check_q_l(args)
    family = FAMILIES[args.family]
    params: dict = {"n": args.n}
    for name, read, flag in family.flags:
        params[name] = read(args)
        if params[name] is None:
            raise PermrootError(f"family {args.family!r} needs {flag}")
    return family, family.spec(**params), params


def _cmd_count(args) -> int:
    family, spec, params = _family_spec(args)
    counts = dict(family.counts)
    counts["enumerate"] = lambda **_: sum(1 for _ in family.stream(spec, args.bound))
    if args.method not in (None, "all", *counts):
        raise PermrootError(f"family {args.family!r} has no {args.method} count")
    wanted = {None: family.counts, "all": counts}.get(args.method, [args.method])
    methods = {name: counts[name](**params) for name in wanted}
    values = set(methods.values())
    if len(values) > 1:
        raise PermrootError(f"methods disagree: {methods}")
    value = values.pop()
    payload = {
        "family": args.family,
        "params": params,
        "methods": {k: str(v) for k, v in methods.items()},
        "value": str(value),
    }
    _emit(args, payload, str(value))
    return EXIT_OK


def _cmd_prob(args) -> int:
    value: Fraction = cnt.prob_root(args.r, args.n)
    payload = {
        "family": "root-probability",
        "params": {"r": args.r, "n": args.n},
        "value": {"num": str(value.numerator), "den": str(value.denominator)},
    }
    _emit(args, payload, f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    family, spec, params = _family_spec(args)
    members = family.stream(spec, args.bound)
    if args.format == "json":
        items = [str(p) for p in members]
        payload = {
            "family": args.family,
            "params": params,
            "count": len(items),
            "items": items,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        # one line per member as it comes, so memory stays flat in n!
        for p in members:
            print(p)
    return EXIT_OK


def _cmd_verify(args) -> int:
    # verify, and the process pool with it, loads only when a suite runs
    from .verify import run_suites, suite_ids

    if args.jobs < 1:
        raise DomainError("parallelism must be at least 1")
    if args.list:
        for sid in suite_ids():
            print(sid)
        return EXIT_OK
    if args.all or not args.suite:
        suites = list(suite_ids())
    else:
        suites = args.suite
    # phi-bijection refuses r without n and n without r
    bounds = {k: v for k, v in (("r", args.r), ("n", args.n)) if v is not None}
    reports = run_suites(suites, bounds=bounds, jobs=args.jobs)
    passed = all(r.passed for r in reports)
    if args.out:
        write_reports(reports, args.out)
    if args.format == "json":
        payload = {
            "suites": suites,
            "passed": passed,
            "reports": [r.to_json_dict() for r in reports],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in reports:
            line = f"{r.status.upper():4s} {r.property_id} ({r.counts_checked} checked)"
            if r.counterexample:
                line += f" counterexample: {r.counterexample}"
            print(line)
    if args.golden:
        if not args.out:
            raise PermrootError("--golden requires --out")
        diff = golden_diff(args.out, args.golden)
        if diff is not None:
            print(f"golden mismatch at {diff}", file=sys.stderr)
            return EXIT_VERIFICATION_FAILURE
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILURE


def _cmd_oeis(args) -> int:
    if args.offline and args.source == "network":
        raise PermrootError("--offline forbids --source network")
    seq = oeis.fetch(args.oeis_id, source=args.source, cache_dir=args.cache_dir)
    check_payload = None
    status = EXIT_OK
    text_lines = []
    if args.fetch_only or args.oeis_id not in oeis.GENERATORS:
        text_lines = [f"{i} {v}" for i, v in seq.terms]
    else:
        label, generator = oeis.GENERATORS[args.oeis_id]
        upto = args.upto if args.upto is not None else seq.max_index
        report = oeis.cross_check(seq, generator, upto)
        check_payload = report.to_json_dict()
        line = f"{report.status.upper():4s} {args.oeis_id} vs {label} ({report.counts_checked} terms)"
        if report.counterexample:
            line += f" counterexample: {report.counterexample}"
        text_lines = [line]
        if not report.passed:
            status = EXIT_VERIFICATION_FAILURE
    payload = {
        "oeis_id": seq.oeis_id,
        "terms": [[i, str(v)] for i, v in seq.terms],
        "check": check_payload,
    }
    _emit(args, payload, "\n".join(text_lines))
    return status


def main(argv=None) -> int:
    # exact counts and cycle entries may have more digits than int <-> str
    # allows by default (4,300 since Python 3.11); lift that for this call
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        parser = _build_parser()
        # argparse does not match a trailing positional once flags intervene
        # ("map Phi --r 3 '(1 2)'"), so recover it from the leftovers
        args, extras = parser.parse_known_args(argv)
        if extras:
            if (
                getattr(args, "perm", "absent") is None
                and len(extras) == 1
                and not extras[0].startswith("-")
            ):
                args.perm = extras[0]
            else:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
        try:
            status = args.handler(args)
            sys.stdout.flush()  # a closed pipe raises here, not at exit
            return status
        except PermrootError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except BrokenPipeError:
            # the reader went away (`permroot ... | head -1`): point stdout
            # at devnull so the interpreter's final flush stays silent
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_BROKEN_PIPE
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
