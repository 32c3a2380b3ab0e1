"""The benchmark's arithmetic: medians, the geomean of per-cell medians, the
tail-percentile rule, span self time and failure accounting."""

from __future__ import annotations

import math
import statistics

DECIDED = ("verified", "bug")


def median(values) -> float:
    return statistics.median(values)


def geomean_of_medians(samples: dict[str, list[float]]) -> float:
    """Geometric mean over cells of each cell's median: every cell weighs
    the same, however many samples it has."""
    meds = [median(v) for v in samples.values()]
    return math.exp(sum(math.log(m) for m in meds) / len(meds))


def total_of_medians(samples: dict[str, list[float]]) -> float:
    return sum(median(v) for v in samples.values())


def tail_percentile(n: int, beyond: int = 10) -> int:
    """The highest whole percentile p with at least ``beyond`` of ``n``
    samples above it: (100 - p) / 100 * n >= beyond."""
    if n < beyond:
        raise ValueError(f"{n} samples cannot leave {beyond} beyond a "
                         "percentile")
    return math.floor(100 - 100 * beyond / n)


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile ``p`` (0..100) of ``values``."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name, the sum over spans of duration minus the part of the
    span's interval that its child spans cover."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out: dict[str, float] = {}
    for span in spans:
        covered = 0.0
        reach = span["start"]
        for child in sorted(children.get(span["id"], ()),
                            key=lambda s: s["start"]):
            lo = max(child["start"], reach, span["start"])
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        own = span["end"] - span["start"] - covered
        out[span["name"]] = out.get(span["name"], 0.0) + own
    return out


def unclaimed_share(spans: list[dict], root: str = "check") -> float:
    """The share of the (single) ``root`` span's wall time that no child
    span claims."""
    span = next(s for s in spans if s["name"] == root)
    return self_times(spans)[root] / (span["end"] - span["start"])


def classify(expect: str, verdict: str | None, http_status: int | None = None
             ) -> str:
    """One attempted check: ``ok`` (expected verdict), ``undecided``
    (timeout/unknown: not wrong, not decided), ``wrong`` (a decided
    verdict other than the expected one) or ``crashed`` (no verdict: the
    process died, exited internal, or the server answered 422/429/500)."""
    if http_status in (422, 429, 500) or verdict is None:
        return "crashed"
    if verdict == expect:
        return "ok"
    if verdict in DECIDED:
        return "wrong"
    if verdict in ("timeout", "unknown"):
        return "undecided"
    return "crashed"  # unsupported, or anything else no valid request gets


def failure_summary(records: list[dict], known_wrong=frozenset()) -> dict:
    """Counts over attempted checks.  ``failed`` holds every wrong or
    crashed check; ``unexpected`` the failed cells not listed as known
    program defects, which make the run incorrect."""
    failed = [r for r in records if r["class"] in ("wrong", "crashed")]
    decided = [r for r in records if r.get("verdict") in DECIDED
               and r["class"] != "crashed"]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "decided": len(decided),
        "failed_cells": sorted({r["cell"] for r in failed}),
        "unexpected": sorted({r["cell"] for r in failed
                              if r["cell"] not in known_wrong}),
    }
