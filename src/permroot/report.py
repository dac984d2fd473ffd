"""Machine-readable verification reports and golden-file comparison.

Reports are deterministic apart from ``wall_time``, which is excluded from
golden comparison.  Golden files are normalized JSON: sorted keys, compact
separators, wall_time stripped.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import Generator

from .errors import DomainError


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one named property over a stated instance range."""

    property_id: str
    instance_range: dict
    status: str  # "pass" | "fail"
    counterexample: str | None
    counts_checked: int
    wall_time: float = field(compare=False, default=0.0)

    def __post_init__(self):
        if self.status not in ("pass", "fail"):
            raise DomainError(f"status must be 'pass' or 'fail', got {self.status!r}")
        if self.status == "fail" and self.counterexample is None:
            raise DomainError("a failing report must carry a counterexample")
        if self.status == "pass" and self.counts_checked <= 0:
            raise DomainError("a passing report must have checked at least one instance")

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        return {
            "property_id": self.property_id,
            "range": self.instance_range,
            "status": self.status,
            "counterexample": self.counterexample,
            "counts_checked": self.counts_checked,
            "wall_time": self.wall_time,
        }


def run_property(
    property_id: str,
    instance_range: dict,
    check: Generator[None, None, str | None],
) -> VerificationReport:
    """Run and time one property check: a generator that yields once per
    instance checked and returns its counterexample, or None when the
    property holds.  The yields are the report's ``counts_checked``."""
    start = time.perf_counter()
    checked = 0
    try:
        while True:
            next(check)
            checked += 1
    except StopIteration as done:
        counterexample = done.value
    elapsed = time.perf_counter() - start
    return VerificationReport(
        property_id=property_id,
        instance_range=instance_range,
        status="pass" if counterexample is None else "fail",
        counterexample=counterexample,
        counts_checked=checked,
        wall_time=elapsed,
    )


def reports_to_json(reports) -> str:
    payload = [r.to_json_dict() for r in reports]
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def write_reports(reports, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(reports_to_json(reports))


def _strip_wall_time(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall_time(v) for k, v in obj.items() if k != "wall_time"}
    if isinstance(obj, list):
        return [_strip_wall_time(v) for v in obj]
    return obj


def _stripped(text: str):
    """Report JSON text parsed, with wall_time stripped."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"not valid report JSON: {exc}") from exc
    except ValueError as exc:  # int refuses the digits; the limit stays as the process has it
        raise DomainError(
            f"report JSON has a number of more than {sys.get_int_max_str_digits()} digits, "
            "Python's int/str conversion limit (sys.set_int_max_str_digits)"
        ) from exc
    return _strip_wall_time(data)


def normalize_report_bytes(text: str) -> bytes:
    """Canonical byte form of report JSON: sorted keys, compact separators,
    wall_time stripped."""
    return json.dumps(_stripped(text), sort_keys=True, separators=(",", ":")).encode()


def _first_difference(a, b, path="$") -> str | None:
    if type(a) is not type(b):
        return f"{path}: type {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                return f"{path}.{key}: missing on left"
            if key not in b:
                return f"{path}.{key}: missing on right"
            diff = _first_difference(a[key], b[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = _first_difference(x, y, f"{path}[{i}]")
            if diff:
                return diff
        return None
    return None if a == b else f"{path}: {a!r} != {b!r}"


def golden_diff(report_path, golden_path) -> str | None:
    """First difference between two normalized report files, or None."""
    with open(report_path, encoding="utf-8") as fh:
        left = fh.read()
    with open(golden_path, encoding="utf-8") as fh:
        right = fh.read()
    return _first_difference(_stripped(left), _stripped(right))


def golden_compare(report_path, golden_path) -> bool:
    """Equality of the two reports with wall_time stripped."""
    return golden_diff(report_path, golden_path) is None
