import hashlib
import json

import pytest

from permroot import bijections, counting, verify
from permroot.errors import DomainError
from permroot.permutation import CycleType, parse
from permroot.report import (
    VerificationReport,
    golden_compare,
    golden_diff,
    normalize_report_bytes,
    reports_to_json,
    run_property,
    write_reports,
)
from permroot.roots import prime_power_decomposition
from permroot.verify import (
    SUITE_PROPERTIES,
    SUITES,
    _types_with_total,
    run_suite,
    run_suites,
    suite_ids,
)

# Every stated module invariant must be covered by a registered property.
REQUIRED_PROPERTY_IDS = {
    # perm-core invariants
    "perm-core/format-parse-roundtrip",
    "perm-core/split-parts-recombine",
    "perm-core/family-partitions",
    "perm-core/power-additivity",
    # bijections invariants
    "bijections/extract-insert-roundtrip",
    "bijections/grow-shrink-roundtrip",
    "bijections/nearly-regular-roundtrip",
    "bijections/enriched-decomposition-bijection",
    "bijections/regular-extension-bijectivity",
    "bijections/odd-even-refinement",
    "bijections/merge-distinctness",
    # roots invariants
    "roots/criterion-vs-bruteforce",
    "roots/prime-power-consistency",
    "roots/witness-soundness",
    "roots/regular-inclusion",
    # counting invariants
    "counting/triple-agreement",
    "counting/enriched-count-match",
    "counting/q-family-counts",
    "counting/odd-even-family-counts",
    "counting/merged-type-counts",
    "counting/singular-type-counts",
    "counting/regular-proportion-product",
    "counting/cyc-at-most-reg",
    "counting/nested-cycle-bound",
    "counting/four-cycle-factor-two",
    "counting/merge-lower-bound",
    "counting/regular-over-uniform-types",
    "counting/roots-over-uniform-types",
    "counting/padding-ratio",
    "counting/prime-power-monotonicity",
    "counting/plateau-structure",
    "counting/non-prime-power-counterexample",
    # table and sequence cross-checks
    "tables/prime-probabilities",
    "tables/prime-power-probabilities",
    "oeis/square-permutation-sequence",
    "oeis/odd-cycle-square-sequence",
    "oeis/cache-roundtrip",
}


# A reduced grid for every suite: it sets flat override keys of every suite,
# keys that several properties read (n_max, r_values, merge_grids) and the
# phi-bijection pairs.
REDUCED_BOUNDS = {
    "pairs": [[2, 2], [2, 4], [3, 3], [3, 6], [4, 4]],
    "nr_pairs": [[2, 4], [3, 3]],
    "per_r": [[2, 5], [3, 5]],
    "r_values": [2, 3],
    "n_max": 5,
    "q_values": [3],
    "draws": 40,
    "seed": 7,
    "roundtrip_n_max": 4,
    "split_n_max": 5,
    "partitions_n_max": 5,
    "psi_n_max": 4,
    "ap_n_max": 6,
    "merge_grids": [[2, 2, 1], [2, 2, 4]],
    "witness_n_max": 4,
    "witness_r_values": [2, 3],
    "inclusion_n_max": 5,
    "enum_n_max": 5,
    "formula_n_max": 20,
    "enriched_n_max": 6,
    "q_family_n_max": 5,
    "ap_formula_n_max": 15,
    "merged_n_max": 5,
    "merged_grids": [[2, 2], [3, 2]],
    "singular_n_max": 5,
    "ratio_n_max": 5,
    "proportion_n_max": 15,
    "nested_m_max": 2,
    "double_m_max": 6,
    "roots_grids": [[2, 2, 1], [3, 1, 1]],
    "padding_n_max": 5,
    "plateau_r_values": [2, 3, 4],
    "square_upto": 8,
    "double_factorial_upto": 6,
}
# sha256 of the normalized report bytes of every suite under REDUCED_BOUNDS,
# recorded from the per-suite implementation that preceded the registry.
REDUCED_REPORTS_SHA256 = "8063b991acfba6172034f469c2f8939f3f4b1bf7082a98f4b03d159d5d1cb329"


@pytest.fixture(scope="module")
def reduced_runs():
    return {
        jobs: run_suites(suite_ids(), bounds=REDUCED_BOUNDS, jobs=jobs) for jobs in (1, 2)
    }


class TestRegistry:
    def test_covers_required_properties(self):
        registered = {pid for pids in SUITE_PROPERTIES.values() for pid in pids}
        assert REQUIRED_PROPERTY_IDS <= registered

    def test_declared_suites_exist(self):
        assert set(SUITE_PROPERTIES) == set(SUITES) == set(suite_ids())

    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            run_suite("no-such-suite")
        with pytest.raises(DomainError):
            run_suites(["tables", "no-such-suite"])

    def test_emitted_property_ids_match_declaration(self, reduced_runs):
        declared = [pid for suite in suite_ids() for pid in SUITE_PROPERTIES[suite]]
        phi_id = SUITE_PROPERTIES["phi-bijection"][0]
        for reports in reduced_runs.values():
            emitted = [r.property_id for r in reports]
            assert list(dict.fromkeys(emitted)) == declared
            assert emitted.count(phi_id) == len(REDUCED_BOUNDS["pairs"])
            assert len(emitted) == len(declared) - 1 + len(REDUCED_BOUNDS["pairs"])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reduced_grid_report_bytes_unchanged(self, reduced_runs, jobs):
        reports = reduced_runs[jobs]
        assert all(r.passed for r in reports)
        normalized = normalize_report_bytes(reports_to_json(reports))
        assert hashlib.sha256(normalized).hexdigest() == REDUCED_REPORTS_SHA256

    def test_unknown_bounds_key_refused_before_any_report(self, monkeypatch):
        monkeypatch.setattr(verify, "_run_task", lambda task: pytest.fail("a report ran"))
        with pytest.raises(DomainError, match="^unknown bounds key 'nmax'$"):
            run_suite("monotonicity", {"nmax": 3})
        with pytest.raises(DomainError, match="^unknown bounds key 'pair'$"):
            run_suites(None, {**REDUCED_BOUNDS, "pair": [[2, 2]]})

    @pytest.mark.parametrize(
        "bounds",
        [{"r": 0, "n": 2}, {"r": 3, "n": 0}, {"r": 3}, {"n": 2}, {"pairs": [[2, 5]]}],
    )
    def test_bad_phi_override_raises_domain_error(self, bounds):
        with pytest.raises(DomainError):
            run_suite("phi-bijection", bounds)


def _wrong_at(fn, bad, delta=1):
    """``fn`` with ``delta`` added to its value on the arguments ``bad``."""
    return lambda *args: fn(*args) + delta if args == bad else fn(*args)


def _wrong_term(r, n, delta):
    """A wrong ``root_count_sequence`` built from the original: ``delta``
    added to |S^r_n|."""
    def wrong(orig):
        def sequence(*args):
            counts = list(orig(*args))
            if args[0] == r:
                counts[n] += delta
            return counts
        return sequence
    return wrong


def _collide(fn, at_r, member, other):
    """``fn`` that maps the canonical cycles ``member`` where it maps
    ``other`` at r = ``at_r``: two members of one domain share an image."""
    return lambda cycles, r: fn(other if (cycles, r) == (member, at_r) else cycles, r)


def _collide_perm(fn, at_r, member, other):
    """``_collide`` for a map on permutations, the members in cycle notation."""
    return lambda sigma, r: fn(parse(other) if (str(sigma), r) == (member, at_r) else sigma, r)


# (tag, suite, property id, owner module, attribute, wrong replacement built
# from the original) -> the (counts_checked, counterexample) of each report of
# that property under REDUCED_BOUNDS, recorded when every property counted
# its own instances.  The root_count_sequence cases were recorded while the
# monotonicity properties still compared Fractions, and the collision cases
# while the round trips still kept their image sets.  A case's test id is its
# property id and its tag; the numeric tags are the list positions those
# cases were first collected under, kept so their ids do not move.
FAILING_CASES = [
    (
        "0", "inequalities", "counting/cyc-at-most-reg", counting, "count_cyc",
        lambda orig: lambda r, n, *method: (
            counting.count_reg(r, n) + 1 if (r, n) == (3, 4) else orig(r, n, *method)
        ),
        [(9, "|Cyc_3(4)|=17 > |Reg_3(4)|=16")],
    ),
    (
        "1", "perm-core", "perm-core/family-partitions", verify, "is_nearly_regular",
        lambda orig: lambda p, r: orig(p, r) and str(p) != "(1 2 3) (4)",
        [(132, "bucket k=3 r=3 holds misclassified (1 2 3) (4)")],
    ),
    (
        "2", "monotonicity", "counting/non-prime-power-counterexample", counting, "prob_root",
        lambda orig: _wrong_at(orig, (6, 4)),
        [(1, "p_6(4)=7/6, expected 1/6")],
    ),
    (
        "3", "monotonicity", "counting/non-prime-power-counterexample", counting, "prob_root",
        lambda orig: _wrong_at(orig, (6, 5)),
        [(2, "p_6(5)=4/3, expected 1/3")],
    ),
    (
        "4", "oeis", "oeis/square-permutation-sequence", counting, "count_roots",
        lambda orig: _wrong_at(orig, (2, 5)),
        [(6, "index 5: sequence has 60, computed 61")],
    ),
    (
        "5", "bijections", "bijections/odd-even-refinement", bijections, "_shrink_first",
        lambda orig: lambda cycles, r: orig(cycles, r) if sum(map(len, cycles)) != 4 else cycles,
        [(4, "shrink(grow((1) (2) (3) (4))) != original (r=2)")],
    ),
    (
        "6", "phi-bijection", "bijections/enriched-decomposition-bijection", counting,
        "count_enriched_cyc", lambda orig: _wrong_at(orig, (3, 6)),
        [(1, None), (9, None), (4, None), (0, "|Reg_3(6)|=400 != |Cyc*_3(6)|=401"), (18, None)],
    ),
    (
        "7", "monotonicity", "counting/prime-power-monotonicity", counting, "root_count_sequence",
        _wrong_term(2, 4, 1), [(3, "p_2(3)=1/2 < p_2(4)=13/24")],
    ),
    (
        "8", "monotonicity", "counting/prime-power-monotonicity", counting, "root_count_sequence",
        _wrong_term(3, 4, 5), [(8, "p_3(3)=2/3 < p_3(4)=7/8")],
    ),
    (
        "9", "monotonicity", "counting/plateau-structure", counting, "root_count_sequence",
        _wrong_term(3, 2, 1), [(6, "r=3 n=1: plateau case broke")],
    ),
    (
        "10", "monotonicity", "counting/plateau-structure", counting, "root_count_sequence",
        _wrong_term(2, 2, 1), [(1, "r=2 n=1: scaled bound broke")],
    ),
    (
        "11", "monotonicity", "counting/plateau-structure", counting, "root_count_sequence",
        _wrong_term(2, 2, -1), [(1, "r=2 n=1: scaled equality set broke")],
    ),
    (
        "12", "monotonicity", "counting/plateau-structure", counting, "root_count_sequence",
        _wrong_term(2, 6, 30), [(5, "r=2 n=5: scaled equality set broke")],
    ),
    (
        "13", "monotonicity", "counting/plateau-structure", counting, "root_count_sequence",
        _wrong_term(2, 4, 1), [(3, "r=2 n=3: descent case broke")],
    ),
    (
        "14", "monotonicity", "counting/plateau-structure", counting, "root_count_sequence",
        _wrong_term(2, 4, -1), [(3, "r=2 n=3: descent equality set broke")],
    ),
    # a forward map that sends two members of one domain to one image, its
    # inverse left as it is: the round trip of one of them fails
    (
        "collision", "bijections", "bijections/extract-insert-roundtrip", bijections,
        "_extract", lambda orig: _collide(orig, 3, ((1,), (2,)), ((1, 2),)),
        [(51, "insert(extract((1) (2))) != original (r=3)")],
    ),
    (
        "collision", "bijections", "bijections/grow-shrink-roundtrip", bijections,
        "_grow_first", lambda orig: _collide(orig, 3, ((1,), (2,), (3,)), ((1,), (2, 3))),
        [(50, "shrink(grow((1) (2) (3))) != original (r=3)")],
    ),
    (
        "collision", "bijections", "bijections/nearly-regular-roundtrip", bijections,
        "to_nearly_regular",
        lambda orig: _collide_perm(orig, 2, "(1) (2) (3) (4)", "(1) (2 3 4)"),
        [(1, "nearly-regular round trip broke on (1) (2) (3) (4) (r=2)")],
    ),
    (
        "collision", "phi-bijection", "bijections/enriched-decomposition-bijection",
        bijections, "to_enriched_cycles",
        lambda orig: _collide_perm(orig, 2, "(1) (2) (3) (4)", "(1) (2 3 4)"),
        [
            (1, None), (1, "round trip broke on (1) (2) (3) (4) (r=2)"), (4, None),
            (400, None), (18, None),
        ],
    ),
]
CASE_IDS = [f"{case[2]}-{case[0]}" for case in FAILING_CASES]


def test_failing_case_ids_are_unique():
    assert len(set(CASE_IDS)) == len(CASE_IDS)


@pytest.mark.parametrize(
    "tag,suite,property_id,owner,attr,wrong,expected", FAILING_CASES, ids=CASE_IDS
)
def test_failing_reports_unchanged(
    monkeypatch, tag, suite, property_id, owner, attr, wrong, expected
):
    monkeypatch.setattr(owner, attr, wrong(getattr(owner, attr)))
    reports = [r for r in run_suite(suite, REDUCED_BOUNDS) if r.property_id == property_id]
    assert [(r.counts_checked, r.counterexample) for r in reports] == expected


def test_monotone_structure_to_600_for_prime_powers_to_32():
    """The monotone property and Chernoff's plateau structure, checked on the
    counts to n = 600 for every prime power r <= 32."""
    prime_powers = [r for r in range(2, 33) if prime_power_decomposition(r)]
    assert len(prime_powers) == 18
    bounds = {"n_max": 600, "r_values": prime_powers, "plateau_r_values": prime_powers}
    reports = run_suite("monotonicity", bounds)
    assert all(r.passed for r in reports)
    assert {r.property_id: r.counts_checked for r in reports} == {
        "counting/prime-power-monotonicity": 18 * 600,
        "counting/plateau-structure": 18 * 600,
        "counting/non-prime-power-counterexample": 3,
    }


def _merge_fixed_points(cycles):
    """Canonical cycles with the first two fixed points after the first cycle
    merged into a 2-cycle; unchanged when there are fewer than two."""
    fixed = [c for c in cycles[1:] if len(c) == 1][:2]
    if len(fixed) < 2:
        return cycles
    return tuple(sorted([c for c in cycles if c not in fixed] + [fixed[0] + fixed[1]]))


def _split_two_cycle(cycles):
    """Inverse of ``_merge_fixed_points`` on its image at r = 2, where the
    cycles after the first have odd lengths."""
    pair = next((c for c in cycles[1:] if len(c) == 2), None)
    if pair is None:
        return cycles
    return tuple(sorted([c for c in cycles if c != pair] + [pair[:1], pair[1:]]))


@pytest.mark.parametrize(
    "property_id", ["bijections/grow-shrink-roundtrip", "bijections/odd-even-refinement"]
)
def test_grow_into_singular_rest_fails(monkeypatch, property_id):
    """At r = 2 a grow that leaves a 2-cycle after the first cycle, undone by
    its shrink, is injective and keeps the first-cycle length, so only the
    check that the image lies in Q_{r,k+1}(n) catches it."""
    grow, shrink = bijections._grow_first, bijections._shrink_first
    monkeypatch.setattr(
        bijections, "_grow_first",
        lambda cycles, r: _merge_fixed_points(grow(cycles, r)) if r == 2 else grow(cycles, r),
    )
    monkeypatch.setattr(
        bijections, "_shrink_first",
        lambda cycles, r: shrink(_split_two_cycle(cycles) if r == 2 else cycles, r),
    )
    reports = [r for r in run_suite("bijections", REDUCED_BOUNDS) if r.property_id == property_id]
    assert [(r.counts_checked, r.counterexample) for r in reports] == [
        (4, "grow((1) (2) (3) (4), r=2) left a singular cycle after the first")
    ]


def test_grow_shrink_scans_only_domain_buckets(monkeypatch):
    """The round trip enumerates Q_{r,k}(n) only where it is the domain of a
    growth, (n - k) % r != 0, and reads |Q_{r,k+1}(n)| from the formula."""
    specs = []
    scan = verify.enumerate_family
    monkeypatch.setattr(
        verify, "enumerate_family",
        lambda spec, **kwargs: specs.append(spec) or scan(spec, **kwargs),
    )
    per_r = ((2, 6), (3, 6))
    (prop,) = [
        p for p in SUITES["bijections"] if p.property_id == "bijections/grow-shrink-roundtrip"
    ]
    report = run_property(prop.property_id, {"per_r": per_r}, prop.check(per_r=per_r))
    assert report.passed
    assert [(s.tag, s.r, s.n, s.k) for s in specs] == [
        ("q", r, n, k)
        for r, n_max in per_r
        for n in range(1, n_max + 1)
        for k in range(1, n)
        if (n - k) % r
    ]


# p(m), the number of partitions of m, for m = 0..12
PARTITION_NUMBERS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77)


class TestTypesWithTotal:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_types_are_the_scaled_partitions(self, q):
        for total in range(0, 25, q):
            types = list(_types_with_total(total, q))
            assert len(set(types)) == len(types) == PARTITION_NUMBERS[total // q]
            for rho in types:
                assert all(ln % q == 0 for ln in rho.expand())
                assert rho.total == sum(rho.expand()) == total

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_empty_total_gives_only_the_empty_type(self, q):
        assert list(_types_with_total(0, q)) == [CycleType()]


def test_criterion_walk_decides_each_type_once(monkeypatch):
    """The criterion is asked once per cycle type and r, not once per
    permutation: 2 * (p(0) + ... + p(6)) calls for n_max = 6, r in (2, 3)."""
    calls = []
    criterion = verify.type_has_root
    monkeypatch.setattr(
        verify, "type_has_root", lambda lengths, r: calls.append(r) or criterion(lengths, r)
    )
    reports = [
        r for r in run_suite("roots", {"n_max": 6, "r_values": (2, 3)})
        if r.property_id == "roots/criterion-vs-bruteforce"
    ]
    assert [r.passed for r in reports] == [True]
    assert len(calls) == 2 * sum(PARTITION_NUMBERS[:7])


class TestReports:
    def test_fail_requires_counterexample(self):
        with pytest.raises(DomainError):
            VerificationReport("x", {}, "fail", None, 1)

    def test_pass_requires_positive_count(self):
        with pytest.raises(DomainError):
            VerificationReport("x", {}, "pass", None, 0)

    def test_deterministic_bytes_modulo_wall_time(self):
        a = normalize_report_bytes(reports_to_json(run_suite("tables")))
        b = normalize_report_bytes(reports_to_json(run_suite("tables")))
        assert a == b

    def test_phi_suite_bounds_override(self):
        reports = run_suite("phi-bijection", {"r": 3, "n": 2})
        assert len(reports) == 1
        assert reports[0].passed
        assert reports[0].counts_checked == 400

    def test_parallel_merge_is_deterministic(self):
        serial = run_suites(["tables", "oeis"], jobs=1)
        parallel = run_suites(["tables", "oeis"], jobs=2)
        assert [r.property_id for r in serial] == [r.property_id for r in parallel]
        assert normalize_report_bytes(reports_to_json(serial)) == normalize_report_bytes(
            reports_to_json(parallel)
        )


class TestGolden:
    def test_equal_files(self, tmp_path):
        reports = run_suite("tables")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_reports(reports, a)
        write_reports(run_suite("tables"), b)
        assert golden_compare(a, b)

    def test_differing_value_reports_location(self, tmp_path):
        reports = run_suite("tables")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_reports(reports, a)
        doctored = json.loads(a.read_text())
        doctored[0]["counts_checked"] = 999
        b.write_text(json.dumps(doctored))
        assert not golden_compare(a, b)
        diff = golden_diff(a, b)
        assert "counts_checked" in diff

    def test_missing_file(self, tmp_path):
        reports = run_suite("tables")
        a = tmp_path / "a.json"
        write_reports(reports, a)
        with pytest.raises(FileNotFoundError):
            golden_compare(a, tmp_path / "missing.json")

    def test_schema_mismatch(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        good = tmp_path / "good.json"
        write_reports(run_suite("tables"), good)
        with pytest.raises(DomainError):
            golden_compare(good, bad)

    @pytest.mark.parametrize("read", [
        lambda path: normalize_report_bytes(path.read_text()),
        lambda path: golden_compare(path, path),
    ], ids=["normalize_report_bytes", "golden_compare"])
    def test_number_beyond_int_digit_limit(self, read, tmp_path):
        path = tmp_path / "big.json"
        path.write_text("[" + "9" * 5000 + "]")  # past Python's default 4,300-digit limit
        with pytest.raises(DomainError, match="4300 digits"):
            read(path)

    def test_normalization_strips_wall_time(self):
        text = '[{"property_id": "x", "wall_time": 1.23, "status": "pass"}]'
        assert b"wall_time" not in normalize_report_bytes(text)

    def test_checked_in_golden_matches(self, tmp_path):
        from pathlib import Path

        golden = Path(__file__).parent / "fixtures" / "golden" / "v1" / "tables.json"
        fresh = tmp_path / "tables.json"
        write_reports(run_suite("tables"), fresh)
        assert golden_compare(fresh, golden)
