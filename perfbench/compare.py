"""Check that the deterministic per-cell counters repeat across runs.

Usage, from the repository root, after some ``tables``/``races`` runs::

    python3 perfbench/compare.py perfbench/out/races-seed*-trace0.json

Prints every cell whose counters (VCs, conflicts, propagations, clauses)
differ between the given reports and exits 1 if there is one.  Cells that
timed out are listed apart: their counters depend on wall time.
"""

from __future__ import annotations

import json
import sys


def main(paths: list[str]) -> int:
    seen: dict[str, dict[str, set]] = {}
    timed_out: set[str] = set()
    for path in paths:
        with open(path) as fh:
            report = json.load(fh)
        for row in report.get("cells", ()):
            if "timeout" in row["verdicts"]:
                timed_out.add(row["cell"])
            counters = seen.setdefault(row["cell"], {})
            for key, value in row["counters"].items():
                counters.setdefault(key, set()).add(value)
            for key in row["unsteady"]:
                counters.setdefault(key, set()).add("unsteady within a run")
    unsteady = 0
    for cell, counters in sorted(seen.items()):
        moved = {k: sorted(map(str, v)) for k, v in counters.items()
                 if len(v) > 1}
        if moved:
            note = " (timed out)" if cell in timed_out else ""
            print(f"{cell}{note}: {moved}")
            unsteady += cell not in timed_out
    print(f"{len(seen)} cells over {len(paths)} reports; "
          f"{unsteady} with counters that do not repeat")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
