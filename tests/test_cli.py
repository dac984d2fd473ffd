import contextlib
import dataclasses
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permroot import cli
from permroot.cli import SCHEMAS, main
from permroot.counting import root_count_sequence
from permroot.families import FamilySpec, enumerate_family
from permroot.report import write_reports
from permroot.verify import run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# each "permroot ...  # -> out" line of the README's CLI block: (argv, out)
README_EXAMPLES = [
    pytest.param(shlex.split(m[1]), m[2], id=m[1])
    for m in re.finditer(
        r"^permroot (.*?)\s+# -> (.*)$",
        (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8"),
        re.MULTILINE,
    )
]


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


class TestMap:
    def test_phi_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "map", "Phi", "--r", "3", "(1 2) (3 4) (5 6)")
        assert code == 0
        assert out.strip() == "(1 2 4)_2 (3 6 5)_1"

    def test_phi_inverse(self, capsys):
        code, out, _ = run_cli(
            capsys, "map", "Phi-inv", "--r", "3", "(1 2 4)_2 (3 6 5)_1"
        )
        assert code == 0
        assert out.strip() == "(1 2) (3 4) (5 6)"

    def test_cli_roundtrip_over_reg_3_6(self, capsys):
        for sigma in enumerate_family(FamilySpec.regular(3, 6)):
            text = str(sigma)
            code, out, _ = run_cli(capsys, "map", "Phi", "--r", "3", text)
            assert code == 0
            code, back, _ = run_cli(capsys, "map", "Phi-inv", "--r", "3", out.strip("\n"))
            assert code == 0
            assert back.rstrip("\n") == text

    def test_delta_and_inverse(self, capsys):
        code, out, _ = run_cli(capsys, "map", "delta", "--r", "3", "(1 8 2 5) (3) (4) (6 7)")
        assert code == 0 and out.strip() == "5 | (1 8) (2) (3) (4) (6 7)"
        code, out, _ = run_cli(
            capsys, "map", "delta-inv", "--r", "3", "--x", "5", "(1 8) (2) (3) (4) (6 7)"
        )
        assert code == 0 and out.strip() == "(1 8 2 5) (3) (4) (6 7)"

    def test_psi(self, capsys):
        code, out, _ = run_cli(capsys, "map", "psi", "--r", "2", "--j", "1", "")
        assert code == 0 and out.strip() == "(1)"

    def test_batch_mode_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("(1) (2)\n(1 3 2) (4)\n"))
        code, out, _ = run_cli(capsys, "map", "lambda", "--r", "2")
        assert code == 0
        assert out.splitlines() == ["(1 2)_1", "(1 3 2 4)_1"]

    def test_bad_stdin_line_reports_its_number(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("(1) (2)\n(1 2\n(1 3 2) (4)\n"))
        code, out, err = run_cli(capsys, "map", "lambda", "--r", "2")
        assert code == 2
        assert out.splitlines() == ["(1 2)_1", "(1 3 2 4)_1"]
        assert len(err.splitlines()) == 1
        assert err.startswith("error: line 2: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ("map", "delta-inv", "--r", "3"), "delta-inv needs --x",
                id="delta-inv-delta-inv needs --x",
            ),
            pytest.param(("map", "psi", "--r", "3"), "psi needs --j", id="psi-psi needs --j"),
            pytest.param(
                ("map", "lambda-inv", "--r", "1"), "r must be an integer >= 2, got 1",
                id="map-bad-r",
            ),
            pytest.param(
                ("root", "--r", "1"), "root degree must be an integer >= 2, got 1",
                id="root-bad-r",
            ),
        ],
    )
    def test_argument_error_before_stdin(self, capsys, monkeypatch, argv, message):
        stdin = io.StringIO("(1 2)\n(1) (2)\n")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"
        assert stdin.tell() == 0

    def test_json_schema(self, capsys):
        code, payload, _ = run_json(capsys, "map", "Phi", "--r", "3", "(1 2) (3 4) (5 6)")
        assert code == 0
        jsonschema.validate(payload, SCHEMAS["map"])
        code, payload, _ = run_json(capsys, "map", "delta", "--r", "2", "(1 2 3)")
        assert code == 0
        jsonschema.validate(payload, SCHEMAS["map"])

    def test_bad_input_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "map", "Phi", "--r", "3", "(1 2) (3 4)")
        assert code == 2
        assert "error" in err

    def test_bad_r_exits_2_without_traceback(self, capsys):
        code, _, err = run_cli(capsys, "map", "Phi", "--r", "0", "(1 2)")
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestRoot:
    def test_root_with_witness(self, capsys):
        from permroot.permutation import parse

        code, out, _ = run_cli(capsys, "root", "--r", "2", "(1 2 3 4)(5 6 7 8)")
        assert code == 0
        assert out.startswith("yes ")
        witness = out.strip().split(" ", 1)[1]
        assert parse(witness).power(2) == parse("(1 2 3 4)(5 6 7 8)")

    def test_root_absent(self, capsys):
        code, out, _ = run_cli(capsys, "root", "--r", "2", "(1 2)")
        assert code == 0 and out.strip() == "no"

    def test_bad_stdin_line_reports_its_number(self, capsys, monkeypatch):
        lines = ["(1 2)(3 4)", "(1 2", "(1 3)(2 4)"]
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{t}\n" for t in lines)))
        code, out, err = run_cli(capsys, "root", "--r", "2")
        assert code == 2
        singly = [run_cli(capsys, "root", "--r", "2", t)[1] for t in lines[::2]]
        assert out == "".join(singly)
        assert out.splitlines() == ["yes (1 3 2 4)", "yes (1 2 3 4)"]
        assert len(err.splitlines()) == 1
        assert err.startswith("error: line 2: ")

    def test_bad_stdin_line_json(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("(1 2)\n)\n(1)\n"))
        code, out, err = run_cli(capsys, "root", "--r", "2", "--format", "json")
        assert code == 2
        payloads = [json.loads(line) for line in out.splitlines()]
        for payload in payloads:
            jsonschema.validate(payload, SCHEMAS["root"])
        assert [p["exists"] for p in payloads] == [False, True]
        assert err.startswith("error: line 2: ")

    def test_blank_stdin_lines_are_skipped(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("(1 2)(3 4)\n\n  \n(1 3)\n\n"))
        code, out, err = run_cli(capsys, "root", "--r", "2")
        assert code == 0 and err == ""
        assert out.splitlines() == ["yes (1 3 2 4)", "no"]

    def test_blank_stdin_lines_are_skipped_json(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("(1 2)\n\n)\n\t\n(1)\n"))
        code, out, err = run_cli(capsys, "root", "--r", "2", "--format", "json")
        assert code == 2
        payloads = [json.loads(line) for line in out.splitlines()]
        assert [(p["n"], p["exists"]) for p in payloads] == [(2, False), (1, True)]
        assert len(err.splitlines()) == 1
        assert err.startswith("error: line 3: ")

    @pytest.mark.parametrize("text, truth", [("(1 3)(2 4) (5 6)(7 8)", True), ("(1 2) (3 4 5)", False)])
    def test_criterion_disagreement_exits_2(self, capsys, monkeypatch, text, truth):
        """A wrong criterion verdict on a line small enough for the brute-force
        witness is caught by the cross-check, as an argument or on stdin."""
        real, target = cli.has_root_general, cli.parse(text)
        assert real(target, 2) is truth
        monkeypatch.setattr(
            cli, "has_root_general", lambda sigma, r: real(sigma, r) != (sigma == target)
        )
        code, out, err = run_cli(capsys, "root", "--r", "2", text)
        assert (code, out) == (2, "")
        assert err == f"error: criterion and brute force disagree on {target} (r=2)\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(f"(1)\n{text}\n"))
        code, out, err = run_cli(capsys, "root", "--r", "2")
        assert (code, out) == (2, "yes (1)\n")
        assert err == f"error: line 2: criterion and brute force disagree on {target} (r=2)\n"

    def test_prime_power_flags(self, capsys):
        code_a, out_a, _ = run_cli(capsys, "root", "--q", "2", "--l", "2", "(1 2)(3 4)")
        code_b, out_b, _ = run_cli(capsys, "root", "--r", "4", "(1 2)(3 4)")
        assert code_a == code_b == 0
        assert out_a == out_b == "no\n"

    @pytest.mark.parametrize("flags, message", [
        (("--q", "2", "--l", "-1"), "l must be an integer >= 1, got -1"),
        (("--q", "2", "--l", "0"), "l must be an integer >= 1, got 0"),
        (("--q", "-2", "--l", "2"), "q must be an integer >= 2, got -2"),
        (("--q", "4", "--l", "1000000000000"),
         f"q**l is bounded by {cli.MAX_DEGREE_BITS} bits, got l * bit_length(q) = 3000000000000"),
    ])
    def test_bad_prime_power_flags_exit_2(self, capsys, flags, message):
        for command in (("root", "(1 2)"), ("count", "--family", "roots", "--n", "3")):
            code, out, err = run_cli(capsys, *command, *flags)
            assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("count", "--family", "reg", "--r", "2", "--q", "2", "--l", "-1", "--n", "3"),
        ("count", "--family", "s-rho-q", "--q", "2", "--rho", "", "--l", "-5", "--n", "3"),
        ("root", "--r", "2", "--l", "0", "(1 2)"),
    ])
    def test_prime_power_flags_checked_where_unread(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        l = argv[argv.index("--l") + 1]
        assert (code, out, err) == (2, "", f"error: l must be an integer >= 1, got {l}\n")

    def test_modulus_q_is_not_a_degree(self, capsys):
        # cyc-qr reads --q as a modulus and takes no power, so MAX_DEGREE_BITS does not apply
        big = str(2**5000 + 1)
        code, out, err = run_cli(capsys, "count", "--family", "cyc-qr", "--q", big, "--r", "2", "--n", "4")
        assert (code, out, err) == (0, "0\n", "")

    def test_r_wins_over_valid_prime_power_flags(self, capsys):
        with_q = run_cli(capsys, "root", "--r", "2", "--q", "3", "--l", "2", "(1 2)(3 4)")
        assert with_q == run_cli(capsys, "root", "--r", "2", "(1 2)(3 4)")
        assert with_q[0] == 0

    def test_json_schema(self, capsys):
        code, payload, _ = run_json(capsys, "root", "--r", "2", "(1 2 3 4)(5 6 7 8)")
        assert code == 0
        jsonschema.validate(payload, SCHEMAS["root"])
        assert payload["exists"] is True


class TestCountProb:
    def test_count_reg_all_methods(self, capsys):
        code, payload, _ = run_json(
            capsys, "count", "--family", "reg", "--r", "3", "--n", "6", "--method", "all"
        )
        assert code == 0
        jsonschema.validate(payload, SCHEMAS["count"])
        assert payload["value"] == "400"
        assert payload["methods"] == {
            "formula": "400", "recurrence": "400", "enumerate": "400"
        }

    def test_count_other_families(self, capsys):
        for argv, expected in [
            (("--family", "cyc", "--r", "3", "--n", "6"), "160"),
            (("--family", "cyc-star", "--r", "3", "--n", "6"), "400"),
            (("--family", "cyc-qr", "--q", "2", "--r", "2", "--n", "4"), "3"),
            (("--family", "q", "--r", "2", "--k", "1", "--n", "2"), "1"),
            (("--family", "s-rho-q", "--q", "2", "--rho", "", "--n", "5"), "45"),
            (("--family", "roots", "--r", "2", "--n", "6"), "270"),
            (("--family", "all", "--n", "4"), "24"),
        ]:
            code, payload, _ = run_json(capsys, "count", *argv)
            assert code == 0
            jsonschema.validate(payload, SCHEMAS["count"])
            assert payload["value"] == expected

    def test_count_roots_for_any_r(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--family", "roots", "--r", "6", "--n", "8")
        assert code == 0 and out.strip() == "8680"
        code, payload, _ = run_json(
            capsys, "count", "--family", "roots", "--r", "6", "--n", "8", "--method", "all"
        )
        assert code == 0
        assert payload["methods"] == {"formula": "8680", "enumerate": "8680"}

    @pytest.mark.parametrize("method", ["formula", "enumerate"])
    def test_method_reports_only_itself(self, capsys, method):
        code, payload, _ = run_json(
            capsys, "count", "--family", "q", "--r", "2", "--k", "2", "--n", "5",
            "--method", method,
        )
        assert code == 0
        assert payload["methods"] == {method: "12"} and payload["value"] == "12"

    def test_cyc_star_enumerate_counts_colorings(self, capsys):
        code, payload, _ = run_json(
            capsys, "count", "--family", "cyc-star", "--r", "3", "--n", "6",
            "--method", "enumerate",
        )
        assert code == 0
        assert payload["methods"] == {"enumerate": "400"}

    def test_cyc_star_count_zero_when_r_does_not_divide_n(self, capsys):
        code, payload, _ = run_json(
            capsys, "count", "--family", "cyc-star", "--r", "3", "--n", "4", "--method", "all"
        )
        assert code == 0
        assert payload["methods"] == {"formula": "0", "enumerate": "0"}

    def test_missing_method_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "count", "--family", "q", "--r", "2", "--k", "1", "--n", "4",
            "--method", "recurrence",
        )
        assert code == 2 and out == ""
        assert err == "error: family 'q' has no recurrence count\n"

    def test_prob_non_prime_power(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "--r", "10", "--n", "30")
        assert code == 0 and out.strip() == "6441528799633/54486432000000"

    def test_prob_table_values(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "--r", "2", "--n", "12")
        assert code == 0 and out.strip() == "209/720"
        code, out, _ = run_cli(capsys, "prob", "--r", "9", "--n", "12")
        assert code == 0 and out.strip() == "110/243"
        code, out, _ = run_cli(capsys, "prob", "--r", "2", "--n", "1")
        assert code == 0 and out.strip() == "1"

    def test_single_counts_match_sequence(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--family", "roots", "--r", "2", "--n", "400")
        assert code == 0 and out.strip() == str(root_count_sequence(2, 400)[400])
        code, out, _ = run_cli(capsys, "prob", "--r", "6", "--n", "60")
        expected = Fraction(root_count_sequence(6, 60)[60], factorial(60))
        assert code == 0 and out.strip() == f"{expected.numerator}/{expected.denominator}"

    def test_prob_json_schema(self, capsys):
        code, payload, _ = run_json(capsys, "prob", "--r", "2", "--n", "12")
        assert code == 0
        jsonschema.validate(payload, SCHEMAS["prob"])
        assert payload["value"] == {"num": "209", "den": "720"}


class TestEnumerate:
    def test_text_stream(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--family", "cyc", "--r", "3", "--n", "3")
        assert code == 0
        assert out.splitlines() == ["(1 2 3)", "(1 3 2)"]

    def test_text_lines_stream(self, capsys, monkeypatch):
        """Each member's line is printed before the stream yields the next one."""
        out = io.StringIO()
        seen_before_second = []

        def stream(spec, bound):
            yield cli.parse("(1) (2)")
            seen_before_second.append(out.getvalue())
            yield cli.parse("(1 2)")

        family = dataclasses.replace(cli.FAMILIES["all"], stream=stream)
        monkeypatch.setitem(cli.FAMILIES, "all", family)
        monkeypatch.setattr("sys.stdout", out)
        assert main(["enumerate", "--family", "all", "--n", "2"]) == 0
        assert seen_before_second == ["(1) (2)\n"]
        assert out.getvalue() == "(1) (2)\n(1 2)\n"

    def test_json_schema(self, capsys):
        code, payload, _ = run_json(
            capsys, "enumerate", "--family", "reg", "--r", "2", "--n", "3"
        )
        assert code == 0
        jsonschema.validate(payload, SCHEMAS["enumerate"])
        assert payload["count"] == 3

    @pytest.mark.parametrize("family, k, length", [("a", "3", 5), ("p", "2", 4)])
    def test_first_cycle_longer_than_n_exits_2(self, capsys, family, k, length):
        code, out, err = run_cli(capsys, "enumerate", "--family", family, "--k", k, "--n", "3")
        assert code == 2 and out == ""
        assert err == f"error: need n >= {length} for a first cycle of length {length}\n"

    @pytest.mark.parametrize("command", ["count", "enumerate"])
    def test_q_first_cycle_longer_than_n_exits_2(self, capsys, command):
        code, out, err = run_cli(
            capsys, command, "--family", "q", "--r", "2", "--k", "5", "--n", "4"
        )
        assert code == 2 and out == ""
        assert err == "error: need n >= 5 for a first cycle of length 5\n"

    def test_bound_violation_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "enumerate", "--family", "all", "--n", "12"
        )
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("command", ["count", "enumerate"])
    def test_bound_below_one_exits_2(self, capsys, command):
        code, out, err = run_cli(
            capsys, command, "--family", "reg", "--r", "2", "--n", "3", "--bound", "0"
        )
        assert code == 2 and out == ""
        assert err.strip() == "error: enumeration bound must be positive"

    # one invocation per --family name, with the params echo it gives
    FAMILY_CASES = [
        ("reg", ("--r", "2", "--n", "5"), {"n": 5, "r": 2}),
        ("cyc", ("--r", "3", "--n", "6"), {"n": 6, "r": 3}),
        ("cyc-star", ("--r", "3", "--n", "6"), {"n": 6, "r": 3}),
        ("nreg", ("--r", "2", "--n", "5"), {"n": 5, "r": 2}),
        ("q", ("--r", "3", "--k", "2", "--n", "5"), {"n": 5, "r": 3, "k": 2}),
        ("a", ("--k", "2", "--n", "5"), {"n": 5, "k": 2}),
        ("p", ("--k", "1", "--n", "5"), {"n": 5, "k": 1}),
        ("cyc-qr", ("--q", "2", "--r", "2", "--n", "4"), {"n": 4, "q": 2, "r": 2}),
        ("s-rho-q", ("--q", "2", "--rho", "2^2", "--n", "5"), {"n": 5, "q": 2, "rho": "2^2"}),
        ("roots", ("--q", "2", "--l", "2", "--n", "5"), {"n": 5, "r": 4}),
        ("all", ("--n", "4"), {"n": 4}),
    ]

    @pytest.mark.parametrize("family, flags, params", FAMILY_CASES)
    def test_every_family_counts_its_stream(self, capsys, family, flags, params):
        argv = ("--family", family, *flags)
        code, counted, _ = run_json(capsys, "count", *argv, "--method", "all")
        assert code == 0
        jsonschema.validate(counted, SCHEMAS["count"])
        assert set(counted["methods"].values()) == {counted["value"]}
        assert "enumerate" in counted["methods"]
        code, out, _ = run_cli(capsys, "enumerate", *argv)
        assert code == 0
        assert len(out.splitlines()) == int(counted["value"]) > 0
        code, listed, _ = run_json(capsys, "enumerate", *argv)
        assert code == 0
        assert listed["items"] == out.splitlines()
        assert counted["params"] == listed["params"] == params


class TestVerify:
    def test_tables_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "tables")
        assert code == 0
        assert out.count("PASS") == 2

    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--list")
        assert code == 0
        assert "phi-bijection" in out.split()

    def test_json_schema(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "--suite", "oeis")
        assert code == 0
        jsonschema.validate(payload, SCHEMAS["verify"])
        assert payload["passed"] is True

    def test_bounds_override(self, capsys):
        code, payload, _ = run_json(
            capsys, "verify", "--suite", "phi-bijection", "--r", "3", "--n", "2"
        )
        assert code == 0
        assert payload["reports"][0]["counts_checked"] == 400

    def test_golden_match_and_mismatch(self, capsys, tmp_path):
        golden = tmp_path / "golden.json"
        write_reports(run_suite("tables"), golden)
        out_path = tmp_path / "out.json"
        code, _, _ = run_cli(
            capsys, "verify", "--suite", "tables",
            "--out", str(out_path), "--golden", str(golden),
        )
        assert code == 0
        doctored = json.loads(golden.read_text())
        doctored[0]["counts_checked"] = 1
        golden.write_text(json.dumps(doctored))
        code, _, err = run_cli(
            capsys, "verify", "--suite", "tables",
            "--out", str(out_path), "--golden", str(golden),
        )
        assert code == 1
        assert "golden mismatch" in err

    def test_unknown_suite_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nope")
        assert code == 2 and "unknown suite" in err

    def test_jobs_below_one_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "tables", "--jobs", "0")
        assert code == 2 and out == ""
        assert err.strip() == "error: parallelism must be at least 1"

    @pytest.mark.parametrize("r, n", [("0", "2"), ("3", "0")])
    def test_bad_phi_override_exits_2(self, capsys, r, n):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "phi-bijection", "--r", r, "--n", n
        )
        assert code == 2 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "flags", [("--r", "3"), ("--n", "2"), ("--suite", "phi-bijection", "--r", "3")]
    )
    def test_r_and_n_go_together(self, capsys, flags):
        code, out, err = run_cli(capsys, "verify", *flags)
        assert code == 2 and out == ""
        assert err.startswith("error:")


class TestOeis:
    def test_cross_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "oeis", "A247005", "--upto", "12")
        assert code == 0 and out.startswith("PASS")

    def test_json_schema(self, capsys):
        code, payload, _ = run_json(capsys, "oeis", "A001818", "--upto", "10")
        assert code == 0
        jsonschema.validate(payload, SCHEMAS["oeis"])
        assert payload["check"]["status"] == "pass"

    def test_upto_below_first_index_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "oeis", "A247005", "--upto", "-1")
        assert code == 2 and out == ""
        assert err == "error: A247005 has terms from index 0, requested -1\n"

    def test_fetch_only(self, capsys):
        code, out, _ = run_cli(capsys, "oeis", "A001818", "--fetch-only")
        assert code == 0
        assert out.splitlines()[4] == "4 11025"

    def test_offline_forbids_network(self, capsys):
        code, _, err = run_cli(
            capsys, "oeis", "A247005", "--offline", "--source", "network"
        )
        assert code == 2 and "error" in err

    def test_mismatching_cache_fails_with_exit_1(self, capsys, tmp_path):
        (tmp_path / "b247005.txt").write_text("0 1\n1 999\n")
        code, out, _ = run_cli(
            capsys, "oeis", "A247005",
            "--source", "cache", "--cache-dir", str(tmp_path), "--upto", "1",
        )
        assert code == 1
        assert "FAIL" in out


def test_readme_examples_found():
    assert len(README_EXAMPLES) >= 4


@pytest.mark.parametrize("argv, first_line", README_EXAMPLES)
def test_readme_example(capsys, argv, first_line):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == first_line


class TestUsageErrors:
    def test_argparse_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["map"])  # missing required arguments
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


def checkout_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def permroot_subprocess(*args, code=None, timeout=10):
    """Run ``permroot ARGS`` (or ``python -c CODE``) on this checkout in a
    fresh interpreter, failing the test if it outlives ``timeout``."""
    argv = ["-c", code] if code is not None else ["-m", "permroot.cli", *args]
    return subprocess.run(
        [sys.executable, *argv], env=checkout_env(), capture_output=True, text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("argv, stdin_lines", [
    (("enumerate", "--family", "all", "--n", "8"), 0),
    (("map", "delta", "--r", "3"), 20000),
])
def test_closed_pipe_exits_quietly(tmp_path, argv, stdin_lines):
    """``permroot ... | head -1``: the reader takes one line and closes the
    pipe while more than a pipe buffer of answers is still to come."""
    stdin = tmp_path / "stdin.txt"
    stdin.write_text("(1 2) (3 4 5 6 7)\n" * stdin_lines)
    with open(stdin) as fh:
        proc = subprocess.Popen(
            [sys.executable, "-m", "permroot.cli", *argv], env=checkout_env(),
            stdin=fh, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=30)
    assert first.strip() in ("(1) (2) (3) (4) (5) (6) (7) (8)", "2 | (1) (3 4 5 6 7)")
    assert "Traceback" not in err and "Exception ignored" not in err
    assert (code, err) == (cli.EXIT_BROKEN_PIPE, "")


class TestCallCost:
    def test_reused_parser_answers_like_a_fresh_one(self, capsys):
        """Calls in one process share one parser, and each answers as a call
        with its own parser would: no --suite list or flag carries over."""
        calls = [
            ["verify", "--suite", "tables"],
            ["verify", "--suite", "oeis"],
            ["map", "Phi", "--r", "3", "(1 2) (3 4) (5 6)"],
            ["root", "--q", "2", "--l", "2", "--format", "json", "(1 2)(3 4)"],
            ["root", "(1 2)(3 4)"],
            ["map", "delta", "--r", "3", "--bogus", "(1 2)"],
            ["--help"],
        ]

        def call(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            return code, out, err

        cli._build_parser.cache_clear()
        reused = [call(argv) for argv in calls]
        assert cli._build_parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(call(argv))
        assert reused == fresh
        assert reused[1][1].count("PASS") == 3 and "tables" not in reused[1][1]

    def test_verify_and_network_load_on_use(self):
        done = permroot_subprocess(code="""
import sys
lazy = ("permroot.verify", "concurrent.futures", "urllib.request")
import permroot
print(*[m for m in lazy if m in sys.modules])
from permroot import cli
cli.main(["root", "(1 2)", "--r", "2"])
print(*[m for m in lazy if m in sys.modules])
print(permroot.run_suites.__module__, len(permroot.suite_ids()), permroot.verify.__name__)
""")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["", "no", "", "permroot.verify 9 permroot.verify"]

    @pytest.mark.parametrize("argv, answer", [
        (("count", "--family", "roots", "--q", "3", "--l", "50", "--n", "12"), "216832000\n"),
        (("root", "(1 2)", "--q", "4", "--l", "1000000000000"), None),
    ])
    def test_huge_root_degree_answers_quickly(self, argv, answer):
        done = permroot_subprocess(*argv)
        if answer is None:
            assert (done.returncode, done.stdout) == (2, "")
            assert done.stderr.startswith("error: q**l is bounded by")
        else:
            assert (done.returncode, done.stdout, done.stderr) == (0, answer, "")

    @pytest.mark.parametrize("argv, shortest", [
        (("count", "--family", "reg", "--r", "2", "--n", "1700"), 4300),
        (("root", f"(1 {'9' * 5000})", "--r", "2"), len("no\n")),
        (("root", f"(1 2) (3 {'9' * 5000})", "--r", "2"), 5000),
        (("map", "delta", "--r", "3", f"(1 {'9' * 5000})", "--format", "json"), 5000),
    ])
    def test_numbers_past_the_int_str_digit_limit(self, capsys, argv, shortest):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert len(out) >= shortest
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


# -- fuzzing argv ---------------------------------------------------------------

@st.composite
def fuzz_int(draw):
    """An integer flag as argparse reads it: mostly a valid small value, else
    a boundary (0, 1, negative), a word-size or a huge one; the huge ones are
    past Python's int <-> str digit limit."""
    kind = draw(st.integers(0, 9))
    if kind < 7:
        return str(draw(st.integers(2, 9)))
    if kind == 7:
        return str(draw(st.integers(-2, 1)))
    if kind == 8:
        return draw(st.sampled_from(["2147483647", "9223372036854775808", "-9223372036854775808"]))
    return draw(st.sampled_from(["", "-"])) + "9" * draw(st.integers(13, 5000))


@st.composite
def fuzz_cycle_text(draw, colored=None):
    """Cycle notation on at most 7 elements, mostly a permutation of [m],
    sometimes with an odd entry; with no color, the first cycle colored (as
    lambda-inv reads) or every cycle ("all", as Phi-inv reads), as asked or
    else at random; or a short malformed string."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(alphabet="()_ 0123456789-,x", max_size=16))
    elems = [str(e) for e in draw(st.permutations(range(1, draw(st.integers(0, 7)) + 1)))]
    if elems and draw(st.integers(0, 4)) == 0:
        elems[-1] = draw(fuzz_int())
    cuts = sorted(draw(st.sets(st.integers(1, max(len(elems) - 1, 1)), max_size=len(elems))))
    pieces = [elems[i:j] for i, j in zip([0, *cuts], [*cuts, len(elems)]) if i < j]
    if colored is None or draw(st.integers(0, 9)) == 0:
        colored = draw(st.sampled_from([0, 1, "all"]))
    colored = len(pieces) if colored == "all" else colored
    colors = [f"_{draw(st.integers(-1, 4))}" for _ in pieces[:colored]]
    colors += [""] * (len(pieces) - colored)
    return " ".join(f"({' '.join(c)}){color}" for c, color in zip(pieces, colors))


def _maybe(draw, flag, chance, values=fuzz_int()):
    """``[flag, value]`` with probability about ``chance``, else nothing."""
    if draw(st.integers(1, 10)) > 10 * chance:
        return []
    return [flag, draw(values)]


@st.composite
def fuzz_argv(draw):
    """(argv, stdin) for map, root, count, prob or enumerate, drawn from the
    CLI's own MAPS and FAMILIES and biased toward valid input: a family's own
    flags are usually given and the others seldom.  n stays at most 7 where a
    family is streamed or S_n is walked, and at most 60 for the exact counts."""
    command = draw(st.sampled_from(["map", "root", "count", "prob", "enumerate"]))
    stdin = ""
    if command in ("map", "root"):
        argv, colored = [command], 0
        if command == "map":
            name = draw(st.sampled_from(list(cli.MAPS)))
            colored = {"lambda-inv": 1, "Phi-inv": "all"}.get(name, 0)
            argv += [name, "--r", draw(fuzz_int())]
            argv += _maybe(draw, "--x", 0.9 if name == "delta-inv" else 0.1)
            argv += _maybe(draw, "--j", 0.9 if name == "psi" else 0.1)
        else:
            by_q = draw(st.integers(0, 3)) == 0
            argv += _maybe(draw, "--r", 0.2 if by_q else 0.9)
            argv += _maybe(draw, "--q", 0.9 if by_q else 0.1)
            argv += _maybe(draw, "--l", 0.7 if by_q else 0.1)
        text = fuzz_cycle_text(colored)
        if draw(st.booleans()):
            argv.append(draw(text))
        else:
            stdin = "".join(line + "\n" for line in draw(st.lists(text, max_size=3)))
    elif command == "prob":
        argv = ["prob", "--r", draw(fuzz_int()), "--n", str(draw(st.integers(-1, 60)))]
    else:
        family = draw(st.sampled_from(list(cli.FAMILIES)))
        argv = [command, "--family", family]
        method = draw(st.sampled_from([None, None, "formula", "recurrence", "enumerate", "all"]))
        streamed = command == "enumerate" or method in ("enumerate", "all")
        argv += ["--n", str(draw(st.integers(-1, 7 if streamed else 60)))]
        if command == "count" and method is not None:
            argv += ["--method", method]
        own = {missing.split()[0] for _, _, missing in cli.FAMILIES[family].flags}
        for flag in ("--r", "--q", "--l", "--k"):
            argv += _maybe(draw, flag, 0.9 if flag in own else 0.1)
        rho = st.sampled_from(["", "2", "2^2,4", "3^2", "2^", "x"])
        argv += _maybe(draw, "--rho", 0.9 if "--rho" in own else 0.1, rho)
        argv += _maybe(draw, "--bound", 0.1)
    if draw(st.integers(0, 3)) == 0:
        argv += ["--format", "json"]
    return argv, stdin


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(fuzz_argv())
@example((["map", "lambda-inv", "--r", "2", "(1 3)_1 (2)"], ""))  # found by a wider run
def test_fuzzed_argv_answers_or_exits_2(case):
    """Nothing but argparse's own exit leaves ``cli.main``; the exit code is
    0 or 2, an answer prints nothing on stderr, and every exit-2 line is an
    ``error:`` line or argparse usage."""
    argv, stdin = case
    err = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code, usage = main(argv), False
            except SystemExit as exc:
                code, usage = exc.code, True
    finally:
        sys.stdin = saved_stdin
    lines = err.getvalue().splitlines()
    assert code in (0, 2), (argv, code, lines)
    if usage:
        assert lines[0].startswith("usage: permroot"), (argv, lines)
        assert re.match(r"permroot( \S+)?: error: ", lines[-1]), (argv, lines)
    elif code == 2:
        assert lines and all(line.startswith("error:") for line in lines), (argv, lines)
    else:
        assert lines == [], (argv, lines)
