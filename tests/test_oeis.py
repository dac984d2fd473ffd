import os
import urllib.request
from importlib import resources

import pytest

from permroot.counting import count_reg, count_roots
from permroot.errors import DomainError, SequenceLookupError
from permroot.oeis import (
    GENERATORS,
    SequenceRef,
    _parse_bfile,
    cross_check,
    fetch,
    prime_cache_from_fixture,
)


class TestFetch:
    def test_fixture_values(self):
        seq = fetch("A001818", source="fixture")
        assert seq.as_dict()[4] == 11025
        assert seq.as_dict()[0] == 1

    def test_square_prefix_matches_bruteforce_counts(self):
        seq = fetch("A247005", source="fixture").as_dict()
        assert [seq[n] for n in range(1, 8)] == [1, 1, 3, 12, 60, 270, 1890]

    def test_malformed_id(self):
        for bad in ("X123", "A123", "A1234567", "a247005"):
            with pytest.raises(DomainError):
                fetch(bad)

    def test_unknown_fixture(self):
        with pytest.raises(SequenceLookupError):
            fetch("A000001", source="fixture")

    def test_unknown_source(self):
        with pytest.raises(DomainError):
            fetch("A247005", source="carrier-pigeon")

    def test_cache_roundtrip(self, tmp_path):
        prime_cache_from_fixture("A247005", cache_dir=tmp_path)
        assert fetch("A247005", source="cache", cache_dir=tmp_path) == fetch(
            "A247005", source="fixture"
        )

    def test_cache_miss(self, tmp_path):
        with pytest.raises(SequenceLookupError):
            fetch("A247005", source="cache", cache_dir=tmp_path)

    def test_cache_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PERMROOT_CACHE_DIR", str(tmp_path))
        prime_cache_from_fixture("A001818")
        assert (tmp_path / "b001818.txt").is_file()
        assert fetch("A001818", source="cache") == fetch("A001818", source="fixture")

    def test_failed_cache_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def failing_replace(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename refused"):
            prime_cache_from_fixture("A247005", cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_network_fetch_stores_cache(self, tmp_path, monkeypatch):
        payload = b"# comment line\n0 1\n1 7\n"

        class FakeResponse:
            def read(self):
                return payload

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(
            urllib.request, "urlopen", lambda url, timeout: FakeResponse()
        )
        seq = fetch("A000002", source="network", cache_dir=tmp_path)
        assert seq.terms == ((0, 1), (1, 7))
        assert (tmp_path / "b000002.txt").read_bytes() == payload
        assert fetch("A000002", source="cache", cache_dir=tmp_path) == seq

    def test_fixture_mode_never_touches_network(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("network touched in fixture mode")

        monkeypatch.setattr(urllib.request, "urlopen", boom)
        assert fetch("A247005", source="fixture").as_dict()[3] == 3


class TestBfileParsing:
    def test_comments_and_blanks_ignored(self):
        seq = _parse_bfile("# header\n\n1 10\n2 20\n", "A000001")
        assert seq.terms == ((1, 10), (2, 20))

    def test_bad_line(self):
        with pytest.raises(SequenceLookupError):
            _parse_bfile("1 2 3\n", "A000001")
        with pytest.raises(SequenceLookupError):
            _parse_bfile("one 1\n", "A000001")

    def test_non_increasing_indices(self):
        with pytest.raises(SequenceLookupError):
            _parse_bfile("2 1\n1 2\n", "A000001")

    def test_empty(self):
        with pytest.raises(SequenceLookupError):
            _parse_bfile("# nothing\n", "A000001")


class TestCrossCheck:
    def test_square_sequence_passes(self):
        seq = fetch("A247005", source="fixture")
        report = cross_check(seq, lambda n: count_roots(2, n), 12)
        assert report.passed
        assert report.counts_checked == 13

    def test_double_factorial_sequence_passes(self):
        seq = fetch("A001818", source="fixture")
        report = cross_check(seq, lambda n: count_reg(2, 2 * n), 10)
        assert report.passed

    def test_offset_generator_fails_with_location(self):
        seq = SequenceRef("A000001", ((0, 1), (1, 2), (2, 4)))
        report = cross_check(seq, lambda n: 2 ** (n + 1), 2)
        assert not report.passed
        assert "index 0" in report.counterexample

    def test_insufficient_terms(self):
        seq = SequenceRef("A000001", ((0, 1), (1, 2)))
        with pytest.raises(DomainError):
            cross_check(seq, lambda n: 1, 5)

    def test_upto_below_first_index(self):
        seq = SequenceRef("A000001", ((1, 1), (2, 2)))
        with pytest.raises(DomainError, match="A000001 has terms from index 1, requested 0"):
            cross_check(seq, lambda n: n, 0)

    def test_every_vendored_bfile_has_a_passing_generator(self):
        names = [f.name for f in (resources.files("permroot") / "data").iterdir()]
        bfiles = sorted(name for name in names if name.endswith(".txt"))
        assert bfiles
        for name in bfiles:
            oeis_id = "A" + name[1:-len(".txt")]
            seq = fetch(oeis_id, source="fixture")
            _, generator = GENERATORS[oeis_id]
            report = cross_check(seq, generator, seq.max_index)
            assert report.passed, report.counterexample
            assert report.counts_checked == len(seq.terms)
