"""The paper-workload benchmark: time to verdict on Table II/III cells and
race cells, and latency of the verification server.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {tables,races,serve} --seed N \\
        --seconds S --trace {0,1}

``tables`` and ``races`` run one check at a time, each in a fresh Python
process (as one ``pugpara`` invocation), in a seeded order, for a fixed
number of whole passes over the cells: as many as nominally fit in
``--seconds``, at least one.  ``serve``
drives one ``repro.serve`` process with a seeded open-loop stream.  Every
``PUGPARA_*`` variable is cleared, so the program runs its defaults.

The host's speed drifts, so every time the program takes is reported
scaled to a nominal host by the speed of a fixed reference workload timed
on the program's CPU during the run (``calibrate.py``); the run's median
reference time and the factor are printed above the metrics.  Per-cell
rows give unscaled wall times.

Every verdict is checked against the hand-written table in ``cells.py``.
``--trace 1`` also runs each check with spans around every layer's public
functions and reports per-layer metrics.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-cell rows
and spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import stats  # noqa: E402
from cells import KNOWN_WRONG, races_cells, tables_cells  # noqa: E402
from child import RESULT_PREFIX  # noqa: E402
from spans import LAYERS  # noqa: E402

WORKLOADS = ("tables", "races", "serve")
#: Nominal seconds of one pass over a workload's cells (2 CPUs at 2 GHz).
#: A run makes ``--seconds // PASS_SECONDS`` passes, at least one, so its
#: sample count does not depend on how fast the machine happens to be.
PASS_SECONDS = {"tables": 28.0, "races": 20.0}
COUNTER_KEYS = ("queries", "conflicts", "propagations", "clauses")
#: Layer counters the traced child counts itself (see spans.py).
SPAN_COUNTS = ("smt.dispatch.vcs", "smt.qcache.lookups", "smt.qcache.hits",
               "param.witness.calls", "param.witness.found",
               "check.replay.calls", "check.replay.confirmed")

#: Which end-to-end metric each layer should move, and on which workload.
LAYER_TARGETS = {
    "lang.frontend.s": "setup_s on tables/races",
    "check.s": "verdict_s.geomean on races",
    "param.ca.s": "verdict_s.geomean on tables (param cells)",
    "param.witness.s": "verdict_s.geomean on tables (param cells)",
    "param.witness.found_ratio": "verdict_s.geomean on tables (param cells)",
    "encode.nonparam.s": "verdict_s.total on tables",
    "encode.templates.hit_ratio": "latency_s.p50 on serve",
    "smt.dispatch.s": "verdict_s.geomean on races",
    "smt.dispatch.vcs": "verdict_s.geomean on races",
    "smt.qcache.s": "latency_s.p50 on serve",
    "smt.qcache.lookups": "latency_s.p50 on serve",
    "smt.qcache.hit_ratio": "latency_s.p50 on serve",
    "smt.simplify.s": "verdict_s.geomean on tables (nonparam mutants)",
    "smt.arrays.s": "verdict_s.geomean on tables (nonparam mutants)",
    "smt.bitblast.s": "verdict_s.geomean on tables (Transpose +C), races",
    "smt.bitblast.clauses": "verdict_s.geomean on tables, races",
    "smt.sat.s": "verdict_s.total on tables (nonparam n=16, Reduction -C)",
    "smt.sat.conflicts": "verdict_s.total on tables",
    "smt.sat.propagations": "verdict_s.total on tables",
    "smt.solver.s": "verdict_s.geomean on tables, races",
    "check.replay.s": "verdict_s.geomean on races",
    "check.replay.calls": "verdict_s.geomean on races",
    "check.replay.confirmed_ratio": "verdict_s.geomean on races",
    "serve.check_s.p50": "latency_s.* on serve",
    "serve.overhead_s.p50": "latency_s.* on serve",
    "serve.dedup_share": "latency_s.* on serve",
    "serve.cache_hit_share": "latency_s.* on serve",
    "bench.late_s.max": "latency_s.* on serve (generator health)",
    "trace.overhead_ratio": "none: the cost of tracing",
    "trace.unclaimed_share": "none: check time no layer claims",
}

UNITS = {"setup_s": "s", "verdict_s.geomean": "s", "verdict_s.total": "s",
         "latency_s.p50": "s", "latency_s.tail": "s",
         "decided_share": "share", "correct_share": "share",
         "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith((".s", ".p50", ".max")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("share"):
        return "share"
    return "count"


def program_env(root: str) -> dict:
    """The environment the program sees: ``src`` importable, every
    ``PUGPARA_*`` knob cleared."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PUGPARA_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


# ------------------------------------------------------------ cell workloads


def run_child(cell: dict, env: dict, trace: bool) -> dict:
    """One check in a fresh process; returns its record."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(cell),
         "1" if trace else "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        out, err = proc.communicate(timeout=cell["timeout"] + 30)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    t_end = time.monotonic()
    record = {"cell": cell["name"], "expect": cell["expect"], "trace": trace,
              "latency_s": t_end - t_spawn}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or \
            not lines[-1].startswith(RESULT_PREFIX):
        record.update(verdict=None, error=err.strip()[-400:])
    else:
        result = json.loads(lines[-1][len(RESULT_PREFIX):])
        record.update(result)
        record["setup_s"] = result["t_call"] - t_spawn
    record["class"] = stats.classify(cell["expect"], record["verdict"])
    return record


def run_cells(cells: list[dict], env: dict, seed: int, passes: int,
              trace: bool) -> tuple[list[dict], list[float]]:
    """``passes`` passes over ``cells``, each in a fresh seeded order, on
    one CPU; returns the records and the reference times taken on that CPU
    before each check.  Traced runs follow each check by its traced twin."""
    rng = random.Random(seed)
    calibrate.pin(calibrate.cpus()[0])
    records: list[dict] = []
    references: list[float] = []
    for _ in range(passes):
        order = list(cells)
        rng.shuffle(order)
        for cell in order:
            references.append(calibrate.reference_s())
            records.append(run_child(cell, env, False))
            if trace:
                records.append(run_child(cell, env, True))
    return records, references


def _by_cell(records: list[dict], key) -> dict[str, list]:
    out: dict[str, list] = {}
    for r in records:
        out.setdefault(r["cell"], []).append(key(r))
    return out


def _verdict_s(record: dict, factor: float) -> float:
    """A check's time to verdict on the nominal host.  A check that ran
    into its limit counts at the limit it ran into, unscaled."""
    if record["verdict"] == "timeout":
        return record["verdict_s"]
    return record["verdict_s"] * factor


def cell_metrics(records: list[dict], factor: float) -> tuple[dict, dict]:
    """The end-to-end metrics of a ``tables``/``races`` run; ``factor``
    scales the run's times to the nominal host (see calibrate.py)."""
    plain = [r for r in records if not r["trace"]]
    timed = [r for r in plain if r["verdict"] is not None]
    latencies = [r["latency_s"] * factor for r in plain]
    summary = stats.failure_summary(plain, KNOWN_WRONG)
    p = stats.tail_percentile(len(latencies))
    verdict_s = _by_cell(timed, lambda r: _verdict_s(r, factor))
    return {
        "setup_s": stats.median([r["setup_s"] for r in timed]) * factor,
        "verdict_s.geomean": stats.geomean_of_medians(verdict_s),
        "verdict_s.total": stats.total_of_medians(verdict_s),
        "latency_s.p50": stats.median(latencies),
        "latency_s.tail": stats.percentile(latencies, p),
        "decided_share": summary["decided"] / summary["attempted"],
        "correct_share": 1 - summary["failed"] / summary["attempted"],
        # A timed-out check's memory depends on how far it got in its
        # budget, i.e. on machine speed: the peak counts decided checks.
        "peak_rss_mb": max(r["rss_mb"] for r in timed
                           if r["verdict"] in stats.DECIDED),
    }, {"tail_percentile": p, "samples": len(latencies)}


def layer_metrics(records: list[dict], untraced_geomean: float,
                  factor: float) -> dict:
    """Per-layer metrics from the traced checks: each layer's self time
    (scaled by ``factor``, as the end-to-end times are) and count, as the
    sum over cells of the per-cell median."""
    traced = [r for r in records if r["trace"] and r["verdict"] is not None]
    per_cell: dict[str, list[dict]] = {}
    for r in traced:
        self_s = stats.self_times(r["spans"])
        row = {f"{name}.s": self_s.get(name, 0.0) * factor
               for name in ["check", *LAYERS]}
        row.update({k: r["counts"].get(k, 0) for k in SPAN_COUNTS})
        row.update({
            "smt.bitblast.clauses": r["counters"]["clauses"],
            "smt.sat.conflicts": r["counters"]["conflicts"],
            "smt.sat.propagations": r["counters"]["propagations"],
            "templates.hits": r["counters"]["template_hits"],
            "templates.lookups": r["counters"]["template_hits"]
            + r["counters"]["template_misses"],
        })
        row["unclaimed"] = stats.unclaimed_share(r["spans"])
        per_cell.setdefault(r["cell"], []).append(row)
    keys = list(next(iter(per_cell.values()))[0])
    total = {k: sum(stats.median([row[k] for row in rows])
                    for rows in per_cell.values()) for k in keys}
    traced_geomean = stats.geomean_of_medians(
        _by_cell(traced, lambda r: _verdict_s(r, factor)))
    out = {name: total[name] for name in keys if name.endswith(".s")}
    out.update({
        "param.witness.found_ratio": _ratio(total["param.witness.found"],
                                            total["param.witness.calls"]),
        "encode.templates.hit_ratio": _ratio(total["templates.hits"],
                                             total["templates.lookups"]),
        "smt.dispatch.vcs": total["smt.dispatch.vcs"],
        "smt.qcache.lookups": total["smt.qcache.lookups"],
        "smt.qcache.hit_ratio": _ratio(total["smt.qcache.hits"],
                                       total["smt.qcache.lookups"]),
        "smt.bitblast.clauses": total["smt.bitblast.clauses"],
        "smt.sat.conflicts": total["smt.sat.conflicts"],
        "smt.sat.propagations": total["smt.sat.propagations"],
        "check.replay.calls": total["check.replay.calls"],
        "check.replay.confirmed_ratio": _ratio(
            total["check.replay.confirmed"], total["check.replay.calls"]),
        "serve.check_s.p50": 0.0, "serve.overhead_s.p50": 0.0,
        "serve.dedup_share": 0.0, "serve.cache_hit_share": 0.0,
        "bench.late_s.max": 0.0,
        "trace.overhead_ratio": traced_geomean / untraced_geomean,
        "trace.unclaimed_share": stats.median(
            [stats.median([row["unclaimed"] for row in rows])
             for rows in per_cell.values()]),
    })
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def cell_rows(records: list[dict]) -> list[dict]:
    """One report row per cell: verdicts, median time, the deterministic
    counters, and which counters did not repeat across its samples."""
    rows = []
    for cell, recs in _by_cell(records, lambda r: r).items():
        ok = [r for r in recs if r["verdict"] is not None]
        seen = {k: sorted({r["counters"][k] for r in ok})
                for k in COUNTER_KEYS}
        unclaimed = [stats.unclaimed_share(r["spans"])
                     for r in ok if r.get("spans")]
        rows.append({
            "cell": cell, "expect": recs[0]["expect"],
            "verdicts": sorted({str(r["verdict"]) for r in recs}),
            "classes": sorted({r["class"] for r in recs}),
            "verdict_s": stats.median([r["verdict_s"] for r in ok])
            if ok else None,
            "counters": {k: v[0] for k, v in seen.items() if v},
            "unsteady": [k for k, v in seen.items() if len(v) > 1],
            "unclaimed": stats.median(unclaimed) if unclaimed else None,
        })
    return sorted(rows, key=lambda r: r["cell"])


# ------------------------------------------------------------ serve workload


def serve_metrics(result: dict) -> tuple[dict, dict, list, dict]:
    """End-to-end and per-layer metrics of one ``serve`` run."""
    records = result["records"]
    factor = calibrate.speed_factor(result["references"])
    rows = []
    for rec in records:
        item, body = rec["item"], rec["body"]
        verdict = body.get("verdict") if body.get("status") == "ok" else None
        rows.append({
            "cell": item["cell"], "expect": item["expect"],
            "verdict": verdict, "status": rec["status"],
            "class": stats.classify(item["expect"], verdict, rec["status"]),
            "latency_s": (rec["done"] - item["due_at"]) * factor,
            "elapsed": body.get("elapsed", 0.0) * factor,
            "resubmit": item["resubmit"], "renamed": item["renamed"],
            "deduped": bool(body.get("deduped")),
            "vcs": body.get("vcs_checked", 0),
            "solver": (body.get("stats") or {}).get("solver") or {},
        })
    summary = stats.failure_summary(rows, KNOWN_WRONG)
    latencies = [r["latency_s"] for r in rows]
    p = stats.tail_percentile(len(latencies))
    # Time to verdict of each pool request's first (cold) submission, as
    # the worker measured it; queueing shows in the latency metrics.
    first = {r["cell"]: [r["elapsed"]] for r in rows
             if not r["resubmit"] and r["verdict"] is not None}
    e2e = {
        "setup_s": stats.median(result["setup"]) * factor,
        "verdict_s.geomean": stats.geomean_of_medians(first),
        "verdict_s.total": stats.total_of_medians(first),
        "latency_s.p50": stats.median(latencies),
        "latency_s.tail": stats.percentile(latencies, p),
        "decided_share": summary["decided"] / summary["attempted"],
        "correct_share": 1 - summary["failed"] / summary["attempted"],
        "peak_rss_mb": result["rss_mb"],
    }
    # Deduplicated followers carry their leader's body, and a cached query
    # carries the stats of the solve that filled the cache: cache lookups
    # count over the requests that ran, solver work over those that ran
    # with no cache hit.
    ran = [r["solver"] for r in rows if not r["deduped"]]
    cold = [s for s in ran if not s.get("cache_hits")]
    queries = sum(s.get("queries", 0) for s in ran)
    hits = sum(s.get("cache_hits", 0) for s in ran)
    enc = result["stats"].get("encode") or {}
    t_hits = enc.get("template_hits", 0)
    t_all = t_hits + enc.get("template_misses", 0)
    layers = {name: 0.0 for name in LAYER_TARGETS}
    layers.update({f"{name}.s": 0.0 for name in ["check", *LAYERS]})
    layers.update({
        "encode.templates.hit_ratio": _ratio(t_hits, t_all),
        "smt.dispatch.vcs": sum(r["vcs"] for r in rows if not r["deduped"]),
        "smt.qcache.lookups": queries,
        "smt.qcache.hit_ratio": _ratio(hits, queries),
        "smt.simplify.s": factor * sum(s.get("simplify_time", 0.0)
                                       for s in cold),
        "smt.arrays.s": factor * sum(s.get("array_time", 0.0) for s in cold),
        "smt.bitblast.s": factor * sum(s.get("blast_time", 0.0)
                                       for s in cold),
        "smt.sat.s": factor * sum(s.get("sat_time", 0.0) for s in cold),
        "smt.bitblast.clauses": sum(s.get("clauses", 0) for s in cold),
        "smt.sat.conflicts": sum(s.get("conflicts", 0) for s in cold),
        "smt.sat.propagations": sum(s.get("propagations", 0) for s in cold),
        "serve.check_s.p50": stats.median([r["elapsed"] for r in rows]),
        "serve.overhead_s.p50": stats.median(
            [r["latency_s"] - r["elapsed"] for r in rows]),
        "serve.dedup_share": _ratio(sum(r["deduped"] for r in rows),
                                    len(rows)),
        "serve.cache_hit_share": _ratio(
            sum(1 for s in ran
                if s.get("queries") and s.get("cache_hits") == s["queries"]),
            len(rows)),
        "bench.late_s.max": result["late"],
        # No spans run inside the server yet: tracing costs it nothing.
        "trace.overhead_ratio": 1.0,
    })
    info = {"tail_percentile": p, "samples": len(latencies),
            "references": len(result["references"]), "factor": factor,
            "reference_s": stats.median(result["references"]),
            "resubmit_share": _ratio(sum(r["resubmit"] for r in rows),
                                     len(rows)),
            "renamed_share": _ratio(sum(r["renamed"] for r in rows),
                                    len(rows)),
            # Deduplicated followers carry their leader's elapsed time.
            "busy_share": sum(r["elapsed"] for r in rows
                              if not r["deduped"]) / factor / max(
                r["item"]["due"] for r in records),
            "summary": summary}
    return e2e, layers, rows, info


# ------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no program under ./src/repro; run from the "
              "repository root", file=sys.stderr)
        return 2
    env = program_env(root)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.workload == "serve":
        import serve_load
        sys.path.insert(0, env["PYTHONPATH"])
        from repro.kernels import KERNELS
        sources = {name: k.source for name, k in KERNELS.items()}
        result = serve_load.run(env, os.path.join(out_dir, f"serve-{tag}"),
                                sources, args.seed, args.seconds)
        e2e, layers, rows, info = serve_metrics(result)
        summary = info.pop("summary")
        report = {"e2e": e2e, "layers": layers, "info": info,
                  "requests": rows, "server_stats": result["stats"]}
        print(f"serve: {info['samples']} requests, resubmitted share "
              f"{info['resubmit_share']:.3f}, alpha-renamed share "
              f"{info['renamed_share']:.3f}, worker busy share "
              f"{info['busy_share']:.3f}")
    else:
        cells = tables_cells() if args.workload == "tables" else races_cells()
        # A traced run checks every cell twice (untraced, then traced).
        passes = max(1, int(args.seconds / PASS_SECONDS[args.workload]
                            / (2 if args.trace else 1)))
        records, references = run_cells(cells, env, args.seed, passes,
                                        bool(args.trace))
        factor = calibrate.speed_factor(references)
        e2e, info = cell_metrics(records, factor)
        info.update(references=len(references), factor=factor,
                     reference_s=stats.median(references))
        summary = stats.failure_summary(records, KNOWN_WRONG)
        rows = cell_rows(records)
        layers = (layer_metrics(records, e2e["verdict_s.geomean"], factor)
                  if args.trace else {})
        report = {"e2e": e2e, "layers": layers, "info": info, "cells": rows}
        if args.trace:
            report["spans"] = [{"check": r["cell"], "spans": r["spans"]}
                               for r in records if r.get("spans")]
        for row in rows:
            flag = f"  NOT REPEATING: {','.join(row['unsteady'])}" \
                if row["unsteady"] else ""
            vs = row["verdict_s"]
            claim = "" if row["unclaimed"] is None else \
                f" unclaimed={row['unclaimed']:.3f}"
            print(f"{row['cell']:44s} {'/'.join(row['verdicts']):9s} "
                  f"expect {row['expect']:8s} "
                  f"{'-' if vs is None else f'{vs:.3f}'}s "
                  f"{row['counters']}{claim}{flag}")
        print(f"{args.workload}: {passes} pass(es) over {len(cells)} cells")
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as fh:
        json.dump(report, fh)

    print(f"{args.workload}: reference workload median "
          f"{info['reference_s']:.4f} s over "
          f"{info['references']} samples; times below are scaled by "
          f"{info['factor']:.4f} to the nominal host")
    print(f"{args.workload}: failed {summary['failed']} of "
          f"{summary['attempted']} checks")
    known = sorted(set(summary["failed_cells"]) - set(summary["unexpected"]))
    if known:
        print(f"  known program defects: {', '.join(known)}")
    if summary["unexpected"]:
        print(f"  UNEXPECTED failures: {', '.join(summary['unexpected'])}")
    for name, value in e2e.items():
        extra = ""
        if name == "latency_s.tail":
            extra = (f"  (p{info['tail_percentile']}, "
                     f"{info['samples']} samples)")
        print(f"  {name:24s} {value:12.6g} {_unit(name)}{extra}")
    for name, value in layers.items():
        print(f"  {name:30s} {value:12.6g} {_unit(name):6s} should move "
              f"{LAYER_TARGETS.get(name, 'verdict_s.geomean')}")
    metrics = layers if args.trace else e2e
    print(json.dumps({
        "correct": not summary["unexpected"],
        "attempted": summary["attempted"], "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": _unit(k)}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
