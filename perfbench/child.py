"""Run one cell in this fresh process, as one ``pugpara`` invocation would.

Usage: ``python3 perfbench/child.py '<cell json>' <trace 0|1>`` with the
program's ``src`` on ``PYTHONPATH``.  The last stdout line is
``PERFBENCH <json>``: the verdict, the monotonic instants around the checker
call, the solver counters, the peak RSS and, when traced, the spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time

RESULT_PREFIX = "PERFBENCH "


def _builder(name):
    from repro.check import suite_assumptions
    return suite_assumptions(name) if name else None


def _concretize(conc):
    if conc is None:
        return None
    out = {"bdim": tuple(conc["bdim"]), "gdim": tuple(conc["gdim"])}
    if conc.get("scalars"):
        out["scalars"] = dict(conc["scalars"])
    return out


def _load_infos(cell):
    """Parse and type-check the cell's kernels from the suite's sources."""
    import repro.lang as lang
    from repro.kernels import KERNELS, PAIRS, address_mutants
    if cell["kind"] == "races":
        return [lang.check_kernel(lang.parse_kernel(
            KERNELS[cell["kernel"]].source))]
    pair = PAIRS[cell["pair"]]
    src = lang.check_kernel(lang.parse_kernel(pair.source.source))
    tgt_ast = lang.parse_kernel(pair.target.source)
    if cell.get("mutant"):
        tgt_ast = next(m.kernel for m in address_mutants(tgt_ast)
                       if m.label == cell["mutant"])
    return [src, lang.check_kernel(tgt_ast)]


def _call(cell, infos):
    """The checker call, with the program's defaults for every knob."""
    from repro.check import check_races
    from repro.check.equivalence import check_equivalence_nonparam
    from repro.lang import LaunchConfig
    from repro.param.equivalence import ParamOptions, check_equivalence_param
    builder = _builder(cell.get("assume"))
    width, timeout = cell["width"], cell["timeout"]
    if cell["kind"] == "races":
        return check_races(infos[0], width, assumption_builder=builder,
                           concretize=_concretize(cell.get("conc")),
                           timeout=timeout)
    if cell["kind"] == "param":
        return check_equivalence_param(
            infos[0], infos[1], width, assumption_builder=builder,
            concretize=_concretize(cell.get("conc")),
            options=ParamOptions(timeout=timeout,
                                 bughunt=cell.get("bughunt", False)))
    from cells import nonparam_launch
    launch = nonparam_launch(cell["pair"], cell["n"])
    bdim, gdim = tuple(launch["bdim"]), tuple(launch["gdim"])
    extent = None
    if cell.get("plus_c"):
        extent = bdim[0] * bdim[1] * bdim[2] * gdim[0] * gdim[1]
    return check_equivalence_nonparam(
        infos[0], infos[1], LaunchConfig(bdim=bdim, gdim=gdim, width=width),
        scalar_values=launch["scalars"] or None, concretize_extent=extent,
        timeout=timeout)


def counters(stats: dict) -> dict:
    """The deterministic per-check counters from the outcome's stats."""
    solver = stats.get("solver") or {}
    encode = stats.get("encode") or {}
    return {
        "queries": int(solver.get("queries", 0)),
        "conflicts": int(solver.get("conflicts", 0)),
        "propagations": int(solver.get("propagations", 0)),
        "clauses": int(solver.get("clauses", 0)),
        "template_hits": int(encode.get("template_hits", 0)),
        "template_misses": int(encode.get("template_misses", 0)),
    }


def run(cell: dict, trace: bool) -> dict:
    tracer = None
    if trace:
        import repro.check  # noqa: F401  (load every layer before wrapping)
        import repro.param.equivalence  # noqa: F401
        from spans import Tracer, install
        tracer = Tracer(cell["name"])
        install(tracer)
    infos = _load_infos(cell)
    t_call = time.monotonic()
    root = tracer.begin("check") if tracer else None
    outcome = _call(cell, infos)
    if tracer:
        tracer.end(root)
    t_done = time.monotonic()
    result = {
        "verdict": outcome.verdict.value, "t_call": t_call,
        "verdict_s": t_done - t_call, "vcs": outcome.vcs_checked,
        "complete": outcome.complete, "reason": outcome.reason,
        "counters": counters(outcome.stats),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    return result


if __name__ == "__main__":
    result = run(json.loads(sys.argv[1]), sys.argv[2] == "1")
    print(RESULT_PREFIX + json.dumps(result), flush=True)
