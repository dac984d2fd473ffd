"""Regenerate perfbench/expected.json from the library in ./src.

    python3 perfbench/make_expected.py

The file pins the outputs the benchmark checks: the sha256 of the
normalized report bytes of the verification grid, and a short digest of
every exact count a counts-exact request can draw (see inputs.COUNT_LIMITS).
Regenerate it only when the library's outputs are meant to change, and say
so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import inputs
from workloads import EXPECTED_PATH, digest


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    scratch = Path.cwd() / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tempfile.tempdir = str(scratch)  # verify's cache round trip writes a temp dir
    from permroot import counting, report, verify

    reports = verify.run_suites(verify.suite_ids(), bounds=inputs.VERIFY_BOUNDS, jobs=1)
    if not all(r.passed for r in reports):
        raise SystemExit("the verification grid does not pass")
    normalized = report.normalize_report_bytes(report.reports_to_json(reports))
    limits = inputs.COUNT_LIMITS
    roots = {
        str(r): [digest(v) for v in counting.root_count_sequence(r, limits["roots"])]
        for r in inputs.PRIME_POWERS
    }
    roots.update({
        str(r): [digest(counting.count_roots(r, n)) for n in range(8)]
        for r in inputs.NON_PRIME_POWERS
    })
    counts = {
        "roots": roots,
        "reg": {str(r): [digest(counting.count_reg(r, n)) for n in range(limits["reg"] + 1)]
                for r in range(2, 10)},
        "cyc": {str(r): [digest(counting.count_cyc(r, n)) for n in range(limits["reg"] + 1)]
                for r in range(2, 10)},
        "cyc_qr": {
            f"{q},{r}": [digest(counting.count_cyc_qr(q, r, q * r * m))
                         for m in range(limits["cyc_qr"] // (q * r) + 1)]
            for q, r in inputs.QR_PAIRS
        },
    }
    payload = {"verify_sha256": hashlib.sha256(normalized).hexdigest(), "counts": counts}
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
