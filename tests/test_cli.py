import dataclasses
import io
import json
import re
import shlex
from pathlib import Path

import jsonschema
import pytest

from permroot import cli
from permroot.cli import SCHEMAS, main
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
