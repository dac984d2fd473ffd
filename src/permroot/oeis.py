"""OEIS b-file retrieval with vendored fixtures, a local cache, and optional
network fetch.

Fixture mode is hermetic: the snapshots shipped under ``permroot/data`` are
enough for every cross-check in the test suite, so nothing here ever needs
the network unless explicitly asked.  Cache writes are atomic
(write-temp-then-rename); the cache directory is taken from the
``PERMROOT_CACHE_DIR`` environment variable when set.
"""

from __future__ import annotations

import os
import re
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

from . import counting
from .errors import DomainError, SequenceLookupError, check_int
from .report import VerificationReport, run_property

CACHE_DIR_ENV = "PERMROOT_CACHE_DIR"
SOURCES = ("fixture", "cache", "network")

# OEIS id -> (label, the generator its terms are cross-checked against); each
# generator looks its count up in ``counting`` per call, so the benchmark
# tracer's rebinding of that name is seen
GENERATORS: dict[str, tuple[str, Callable[[int], int]]] = {
    "A247005": ("count_roots(2, n)", lambda n: counting.count_roots(2, n)),
    "A001818": ("count_reg(2, 2n)", lambda n: counting.count_reg(2, 2 * n)),
}

_ID_RE = re.compile(r"A\d{6}")


@dataclass(frozen=True)
class SequenceRef:
    """An OEIS sequence prefix: (index, value) pairs with strictly
    increasing indices and exact integer values."""

    oeis_id: str
    terms: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    @property
    def max_index(self) -> int:
        return self.terms[-1][0] if self.terms else -1


def _check_id(oeis_id: str) -> str:
    if not isinstance(oeis_id, str) or _ID_RE.fullmatch(oeis_id) is None:
        raise DomainError(f"malformed OEIS id {oeis_id!r} (expected 'A' + 6 digits)")
    return oeis_id


def _parse_bfile(text: str, oeis_id: str) -> SequenceRef:
    terms: list[tuple[int, int]] = []
    last = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise SequenceLookupError(f"{oeis_id} b-file line {lineno}: expected 'index value'")
        try:
            index, value = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise SequenceLookupError(f"{oeis_id} b-file line {lineno}: {exc}") from exc
        if last is not None and index <= last:
            raise SequenceLookupError(
                f"{oeis_id} b-file line {lineno}: indices not strictly increasing"
            )
        last = index
        terms.append((index, value))
    if not terms:
        raise SequenceLookupError(f"{oeis_id} b-file contains no terms")
    return SequenceRef(oeis_id, tuple(terms))


def cache_directory(cache_dir: str | os.PathLike | None = None) -> Path:
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "permroot"


def _bfile_name(oeis_id: str) -> str:
    return f"b{oeis_id[1:]}.txt"


def _fixture_text(oeis_id: str) -> str:
    resource = resources.files("permroot") / "data" / _bfile_name(oeis_id)
    if not resource.is_file():
        raise SequenceLookupError(f"no vendored fixture for {oeis_id}")
    return resource.read_text(encoding="utf-8")


def _cache_text(oeis_id: str, cache_dir) -> str:
    path = cache_directory(cache_dir) / _bfile_name(oeis_id)
    if not path.is_file():
        raise SequenceLookupError(f"{oeis_id} is not cached under {path.parent}")
    return path.read_text(encoding="utf-8")


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file in the same directory,
    renamed into place; the temp file is removed if anything fails."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _network_text(oeis_id: str, cache_dir, timeout: float) -> str:
    import urllib.request  # ssl and http load only when the network is asked for

    url = f"https://oeis.org/{oeis_id}/{_bfile_name(oeis_id)}"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            text = resp.read().decode("utf-8")
    except OSError as exc:
        raise SequenceLookupError(f"fetching {url} failed: {exc}") from exc
    _atomic_write(cache_directory(cache_dir) / _bfile_name(oeis_id), text)
    return text


def fetch(
    oeis_id: str,
    source: str = "fixture",
    cache_dir: str | os.PathLike | None = None,
    timeout: float = 30.0,
) -> SequenceRef:
    """Fetch a b-file from one source: "fixture" (vendored snapshot, never
    touches the network), "cache" (previously stored copy), or "network"
    (live fetch, stored into the cache)."""
    _check_id(oeis_id)
    if source == "fixture":
        text = _fixture_text(oeis_id)
    elif source == "cache":
        text = _cache_text(oeis_id, cache_dir)
    elif source == "network":
        text = _network_text(oeis_id, cache_dir, timeout)
    else:
        raise DomainError(f"unknown source {source!r}; options: {', '.join(SOURCES)}")
    return _parse_bfile(text, oeis_id)


def prime_cache_from_fixture(
    oeis_id: str, cache_dir: str | os.PathLike | None = None
) -> Path:
    """Copy the vendored snapshot into the cache (atomic), for offline use of
    the cache source."""
    _check_id(oeis_id)
    target = cache_directory(cache_dir) / _bfile_name(oeis_id)
    _atomic_write(target, _fixture_text(oeis_id))
    return target


def term_checks(seq: SequenceRef, generator: Callable[[int], int], upto: int):
    """A property check (see ``report.run_property``): compares
    ``generator(index)`` with every sequence term of index <= upto, yields
    once per term compared and returns the first mismatch, or None."""
    check_int(upto, "upto")
    if upto > seq.max_index:
        raise DomainError(
            f"{seq.oeis_id} has terms up to index {seq.max_index}, requested {upto}"
        )
    if seq.terms and upto < seq.terms[0][0]:
        raise DomainError(
            f"{seq.oeis_id} has terms from index {seq.terms[0][0]}, requested {upto}"
        )
    for index, value in seq.terms:
        if index > upto:
            break
        computed = generator(index)
        yield
        if computed != value:
            return f"index {index}: sequence has {value}, computed {computed}"


def cross_check(
    seq: SequenceRef,
    generator: Callable[[int], int],
    upto: int,
) -> VerificationReport:
    """The report of ``term_checks``: it fails at the first term of index
    <= upto where ``generator(index)`` differs, and an ``upto`` outside the
    sequence's indices raises DomainError."""
    return run_property(
        f"oeis/{seq.oeis_id}", {"oeis_id": seq.oeis_id, "upto": upto},
        term_checks(seq, generator, upto),
    )
