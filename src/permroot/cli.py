"""Command-line interface.

Subcommands: map, root, count, prob, enumerate, verify, oeis.  Exit codes:
0 success, 1 verification failure, 2 usage or input error.  Permutations are
passed as quoted cycle-notation strings or, in batch mode, one per line on
standard input; a bad line is reported with its line number and the other
lines still get their answers.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import factorial

from . import bijections as bij
from . import counting as cnt
from . import oeis
from .errors import DomainError, PermrootError
from .families import (
    DEFAULT_ENUMERATION_BOUND,
    FamilySpec,
    enumerate_enriched_cycles,
    enumerate_family,
)
from .permutation import parse, parse_cycle_type
from .report import golden_diff, write_reports
from .roots import BRUTE_FORCE_BOUND, find_root_bruteforce, has_root_general
from .verify import run_suites, suite_ids

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_USAGE = 2

MAP_NAMES = (
    "delta", "delta-inv", "phi", "alpha", "lambda", "lambda-inv",
    "Phi", "Phi-inv", "psi",
)


# JSON schemas for --format json output, one per subcommand.
SCHEMAS = {
    "map": {
        "type": "object",
        "required": ["map", "r", "input", "output"],
        "properties": {
            "map": {"type": "string", "enum": list(MAP_NAMES)},
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permroot",
        description="Cycle-structure bijections, exact root counts, and verification suites.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", parents=[common], help="apply one of the bijections")
    p_map.add_argument("name", choices=MAP_NAMES)
    p_map.add_argument("perm", nargs="?", help="cycle notation; omit to read lines from stdin")
    p_map.add_argument("--r", type=int, required=True)
    p_map.add_argument("--x", type=int, help="distinguished element (delta-inv)")
    p_map.add_argument("--j", type=int, help="new label (psi)")

    p_root = sub.add_parser("root", parents=[common], help="r-th-root existence and witness")
    p_root.add_argument("perm", nargs="?")
    p_root.add_argument("--r", type=int)
    p_root.add_argument("--q", type=int, help="prime base (alternative to --r)")
    p_root.add_argument("--l", type=int, default=1, help="exponent for --q")

    p_count = sub.add_parser("count", parents=[common], help="exact family counts")
    _family_arguments(p_count)
    p_count.add_argument(
        "--method", choices=("formula", "recurrence", "enumerate", "all"), default=None
    )
    p_count.add_argument("--bound", type=int, default=DEFAULT_ENUMERATION_BOUND)

    p_prob = sub.add_parser("prob", parents=[common], help="probability of an r-th root")
    p_prob.add_argument("--r", type=int, required=True)
    p_prob.add_argument("--n", type=int, required=True)

    p_enum = sub.add_parser("enumerate", parents=[common], help="stream a family")
    _family_arguments(p_enum)
    p_enum.add_argument("--bound", type=int, default=DEFAULT_ENUMERATION_BOUND)

    p_verify = sub.add_parser("verify", parents=[common], help="run verification suites")
    p_verify.add_argument("--suite", action="append", help="suite id (repeatable)")
    p_verify.add_argument("--all", action="store_true", help="run every suite")
    p_verify.add_argument("--list", action="store_true", help="list suite ids")
    p_verify.add_argument("--r", type=int, help="override: restrict phi-bijection to one r")
    p_verify.add_argument("--n", type=int, help="override: restrict phi-bijection to one n")
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--out", help="write report JSON to this path")
    p_verify.add_argument("--golden", help="compare the report against a golden file")

    p_oeis = sub.add_parser("oeis", parents=[common], help="fetch and cross-check OEIS b-files")
    p_oeis.add_argument("oeis_id")
    p_oeis.add_argument("--source", choices=oeis.SOURCES, default="fixture")
    p_oeis.add_argument("--offline", action="store_true", help="forbid network access")
    p_oeis.add_argument("--cache-dir", default=None)
    p_oeis.add_argument("--upto", type=int, default=None, help="cross-check up to this index")
    p_oeis.add_argument("--fetch-only", action="store_true", help="print terms, no cross-check")
    return parser


def _family_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family",
        required=True,
        choices=("reg", "cyc", "cyc-star", "nreg", "q", "a", "p", "cyc-qr",
                 "s-rho-q", "roots", "all"),
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--rho", help='cycle type such as "2^2,4^2"; empty string for the empty type')


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _each_input(args, answer) -> int:
    """Call ``answer(text)`` on the permutation argument or, without one, on
    each line of stdin.  A bad stdin line prints ``error: line N: ...`` and
    the other lines go on; the exit code is then EXIT_USAGE."""
    if args.perm is not None:
        answer(args.perm)
        return EXIT_OK
    status = EXIT_OK
    for number, line in enumerate(sys.stdin, start=1):
        try:
            answer(line.rstrip("\n"))
        except PermrootError as exc:
            print(f"error: line {number}: {exc}", file=sys.stderr)
            status = EXIT_USAGE
    return status


def _apply_map(name: str, text: str, args) -> str | dict:
    r = args.r
    if name == "delta":
        x, rest = bij.extract_element(parse(text), r)
        return {"x": x, "rest": str(rest)}
    if name == "delta-inv":
        return str(bij.insert_element(args.x, parse(text), r))
    if name == "phi":
        return str(bij.grow_first_cycle(parse(text), r))
    if name == "alpha":
        return str(bij.shrink_first_cycle(parse(text), r))
    if name == "lambda":
        return str(bij.to_nearly_regular(parse(text), r))
    if name == "lambda-inv":
        return str(bij.from_nearly_regular(parse(text, r)))
    if name == "Phi":
        return str(bij.to_enriched_cycles(parse(text), r))
    if name == "Phi-inv":
        return str(bij.from_enriched_cycles(parse(text, r)))
    if name == "psi":
        return str(bij.extend_regular(parse(text), args.j, r))
    raise PermrootError(f"unknown map {name!r}")


def _cmd_map(args) -> int:
    if args.name == "delta-inv" and args.x is None:
        raise PermrootError("delta-inv needs --x")
    if args.name == "psi" and args.j is None:
        raise PermrootError("psi needs --j")

    def answer(text):
        out = _apply_map(args.name, text, args)
        payload = {"map": args.name, "r": args.r, "input": text, "output": out}
        _emit(args, payload, out if isinstance(out, str) else f"{out['x']} | {out['rest']}")

    return _each_input(args, answer)


def _cmd_root(args) -> int:
    if args.r is None and args.q is None:
        raise PermrootError("root needs --r (or --q with --l)")
    r = args.r if args.r is not None else args.q**args.l

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


def _family_spec(args) -> tuple[FamilySpec, dict]:
    if args.bound < 1:
        raise DomainError("enumeration bound must be positive")
    family = args.family
    params: dict = {"n": args.n}
    if family in ("reg", "cyc", "cyc-star", "nreg", "q", "roots"):
        r = args.r
        if r is None and args.q is not None:
            r = args.q ** (args.l if args.l is not None else 1)
        if r is None:
            raise PermrootError(f"family {family!r} needs --r (or --q with --l)")
        params["r"] = r
    if family in ("cyc-qr", "s-rho-q"):
        if args.q is None:
            raise PermrootError(f"family {family!r} needs --q")
        params["q"] = args.q
    if family == "cyc-qr":
        if args.r is None:
            raise PermrootError("family 'cyc-qr' needs --r")
        params["r"] = args.r
    if family in ("q", "a", "p"):
        if args.k is None:
            raise PermrootError(f"family {family!r} needs --k")
        params["k"] = args.k
    if family == "s-rho-q":
        if args.rho is None:
            raise PermrootError("family 's-rho-q' needs --rho")
        params["rho"] = args.rho
    spec = {
        "reg": lambda: FamilySpec.regular(params["r"], args.n),
        "cyc": lambda: FamilySpec.cycle(params["r"], args.n),
        "cyc-star": lambda: FamilySpec.cycle(params["r"], args.n),
        "nreg": lambda: FamilySpec.nearly_regular(params["r"], args.n),
        "q": lambda: FamilySpec.first_cycle(params["r"], args.k, args.n),
        "a": lambda: FamilySpec.odd_with_first(args.n, args.k),
        "p": lambda: FamilySpec.even_first(args.n, args.k),
        "cyc-qr": lambda: FamilySpec.uniform_multiples(args.q, args.r, args.n),
        "s-rho-q": lambda: FamilySpec.singular_type(parse_cycle_type(args.rho), args.q, args.n),
        "roots": lambda: FamilySpec.with_root(params["r"], args.n),
        "all": lambda: FamilySpec.everything(args.n),
    }[family]()
    return spec, params


def _count_methods(args, spec: FamilySpec, params: dict) -> dict[str, int]:
    family, n = args.family, args.n
    method = args.method
    r = params.get("r")
    out: dict[str, int] = {}

    def want(name: str) -> bool:
        return method in (None, "all", name)

    if family in ("reg", "cyc"):
        counter = cnt.count_reg if family == "reg" else cnt.count_cyc
        if want("formula"):
            out["formula"] = counter(r, n)
        if want("recurrence"):
            out["recurrence"] = counter(r, n, "recurrence")
        if method in ("enumerate", "all"):
            out["enumerate"] = counter(r, n, "enumerate", bound=args.bound)
        return out

    if family == "cyc-star":
        out["formula"] = cnt.count_enriched_cyc(r, n)
    elif family == "nreg":
        out["formula"] = sum(cnt.count_q_family(r, k, n) for k in range(r, n + 1, r))
    elif family == "q":
        out["formula"] = cnt.count_q_family(r, args.k, n)
    elif family == "a":
        out["formula"] = cnt.count_AP(n, args.k, "odd")
    elif family == "p":
        out["formula"] = cnt.count_AP(n, args.k, "even")
    elif family == "cyc-qr":
        out["formula"] = cnt.count_cyc_qr(args.q, args.r, n)
    elif family == "s-rho-q":
        out["formula"] = cnt.count_S_rho_q(parse_cycle_type(args.rho), args.q, n)
    elif family == "roots":
        out["formula"] = cnt.count_roots(r, n)
    elif family == "all":
        out["formula"] = factorial(n)
    if method in ("enumerate", "all"):
        if family == "cyc-star":
            out["enumerate"] = sum(
                (r - 1) ** len(p.cycles) for p in enumerate_family(spec, args.bound)
            )
        else:
            out["enumerate"] = sum(1 for _ in enumerate_family(spec, args.bound))
    return out


def _cmd_count(args) -> int:
    spec, params = _family_spec(args)
    methods = _count_methods(args, spec, params)
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
    spec, params = _family_spec(args)
    if args.family == "cyc-star":
        items = [str(e) for e in enumerate_enriched_cycles(params["r"], args.n, args.bound)]
    else:
        items = [str(p) for p in enumerate_family(spec, args.bound)]
    if args.format == "json":
        payload = {
            "family": args.family,
            "params": params,
            "count": len(items),
            "items": items,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for item in items:
            print(item)
    return EXIT_OK


def _cmd_verify(args) -> int:
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


_OEIS_GENERATORS = {
    "A247005": ("count_roots(2, n)", lambda n: cnt.count_roots(2, n)),
    "A001818": ("count_reg(2, 2n)", lambda n: cnt.count_reg(2, 2 * n)),
}


def _cmd_oeis(args) -> int:
    if args.offline and args.source == "network":
        raise PermrootError("--offline forbids --source network")
    seq = oeis.fetch(args.oeis_id, source=args.source, cache_dir=args.cache_dir)
    check_payload = None
    status = EXIT_OK
    text_lines = []
    if args.fetch_only or args.oeis_id not in _OEIS_GENERATORS:
        text_lines = [f"{i} {v}" for i, v in seq.terms]
    else:
        label, generator = _OEIS_GENERATORS[args.oeis_id]
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
    handler = {
        "map": _cmd_map,
        "root": _cmd_root,
        "count": _cmd_count,
        "prob": _cmd_prob,
        "enumerate": _cmd_enumerate,
        "verify": _cmd_verify,
        "oeis": _cmd_oeis,
    }[args.command]
    try:
        return handler(args)
    except PermrootError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
