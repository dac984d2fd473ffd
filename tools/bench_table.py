"""Print the BENCH trajectory: one row per ``BENCH_*.json`` in a directory.

    python3 tools/bench_table.py [DIR]

DIR defaults to the current directory.  Rows are ordered by
``recorded_at``; a parent and its change recorded together carry one time,
and the clean checkout (the parent) comes first.  Each row holds, per
workload, the median ``batch_s`` and ``peak_rss_mb`` of the untraced
perfbench runs, then the median of every probe the file records
(``count_roots_s``, ``root_count_sequence_s``, ``notation_s``, ``scan_s``,
``bruteforce_s``) and of ``verify_all_s`` at each ``--jobs``.  A column that a
file predates reads ``-``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PROBES = ("count_roots_s", "root_count_sequence_s", "notation_s")


def columns(record: dict) -> dict[str, float]:
    """Column name -> median for one BENCH record."""
    out = {}
    for workload, data in record.get("workloads", {}).items():
        for metric in ("batch_s", "peak_rss_mb"):
            out[f"{workload} {metric}"] = data["summary"][metric]["median"]
    for probe in PROBES:
        for name, entry in record.get(probe, {}).items():
            # count_roots(2, 800) names itself; notation_s holds parse and str
            out[f"notation {name}" if probe == "notation_s" else name] = entry["median"]
    for probe in ("scan_s", "bruteforce_s"):
        if probe in record:
            out[probe] = record[probe]["median"]
    for jobs, entry in record.get("verify_all_s", {}).items():
        out[f"verify_all {jobs}"] = entry["median"]
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else ".")
    records = [json.loads(path.read_text(encoding="utf-8")) for path in root.glob("BENCH_*.json")]
    records.sort(key=lambda r: (r["recorded_at"], bool(r.get("dirty"))))
    rows = [(r["label"], r["recorded_at"], columns(r)) for r in records]
    names = list(dict.fromkeys(name for _, _, cols in rows for name in cols))
    table = [["label", "recorded_at", *names]] + [
        [label, at, *(f"{cols[n]:.4g}" if n in cols else "-" for n in names)]
        for label, at, cols in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
