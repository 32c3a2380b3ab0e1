"""Confirm every expected ``bug`` of the benchmark through the concrete
interpreter, independently of the checkers.

For each cell expected to be a bug, try a short hand-written list of small
launches (within the cell's assumptions) and report the first on which
``repro.lang.run_kernel`` shows the defect: the two kernels' outputs
diverge (equivalence cells), or the run records a race (race cells).

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/confirm.py

Exits 1 if any expected bug is not shown.
"""

from __future__ import annotations

import itertools
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from cells import (RACE_KERNELS, nonparam_launch, race_cell,  # noqa: E402
                   tables_cells)

from repro.errors import InterpError  # noqa: E402
from repro.kernels import KERNELS, PAIRS, address_mutants  # noqa: E402
from repro.lang import (LaunchConfig, check_kernel, parse_kernel,  # noqa: E402
                        run_kernel)


def _launches(cell: dict):
    """Small launches, as (bdim, gdim, scalars), the cell's question
    admits: its own launch for nonparam cells, else a few inside its
    assumptions (or any, when it has none)."""
    width = cell["width"]
    if cell["kind"] == "nonparam":
        launch = nonparam_launch(cell["pair"], cell["n"])
        yield tuple(launch["bdim"]), tuple(launch["gdim"]), launch["scalars"]
        return
    pair = cell.get("pair") or cell.get("assume")
    transpose = (cell.get("kernel") or pair or "").endswith("Transpose") \
        or pair == "Transpose"
    if cell.get("assume") is None and transpose:
        # No covering bounds: scalars may make the output index wrap.
        big = 1 << (width - 1)
        for bdim, (w, h) in itertools.product(
                [(4, 1, 1), (2, 2, 1), (4, 4, 1)],
                [(4, big), (big, 4), (big, big), (4, 4)]):
            yield bdim, (1, 1), {"width": w, "height": h}
        return
    if transpose:
        for b, (gx, gy) in itertools.product((1, 2, 4),
                                             [(1, 1), (2, 2), (2, 1)]):
            yield (b, b, 1), (gx, gy), {"width": b * gx, "height": b * gy}
        return
    if cell.get("assume") is None:
        for bdim, gdim in itertools.product(
                [(2, 1, 1), (4, 1, 1), (2, 2, 1), (3, 1, 1)],
                [(1, 1), (2, 1)]):
            yield bdim, gdim, {}
        return
    for n in (2, 4, 8, 16):
        if n <= 1 << (width // 2):
            yield (n, 1, 1), (1, 1), {}


def _inputs(info, scalars: dict, width: int) -> dict:
    """Pairwise-distinct contents for every global array."""
    mask = (1 << width) - 1
    inputs: dict = dict(scalars)
    for k, name in enumerate(sorted(info.global_arrays)):
        inputs[name] = {i: (7 * i + 3 + 101 * k) & mask for i in range(96)}
    return inputs


def _pattern(name: str, flat: int) -> int:
    return (flat * 13 + len(name)) & 0xFF


def _run(info, config, inputs, fill):
    try:
        result = run_kernel(info, config, inputs, shared_fill=fill)
    except InterpError as exc:
        return f"fault: {exc}"
    return result


def _race_shown(cell: dict) -> str | None:
    info = check_kernel(parse_kernel(KERNELS[cell["kernel"]].source))
    for bdim, gdim, scalars in _launches(cell):
        config = LaunchConfig(bdim=bdim, gdim=gdim, width=cell["width"])
        result = _run(info, config, _inputs(info, scalars, cell["width"]),
                      None)
        if not isinstance(result, str) and result.races:
            return (f"bdim={bdim} gdim={gdim} {scalars}: "
                    f"{result.races[0]}")
    return None


def _divergence_shown(cell: dict) -> str | None:
    pair = PAIRS[cell["pair"]]
    src = check_kernel(parse_kernel(pair.source.source))
    tgt_ast = parse_kernel(pair.target.source)
    if cell.get("mutant"):
        tgt_ast = next(m.kernel for m in address_mutants(tgt_ast)
                       if m.label == cell["mutant"])
    tgt = check_kernel(tgt_ast)
    for bdim, gdim, scalars in _launches(cell):
        config = LaunchConfig(bdim=bdim, gdim=gdim, width=cell["width"])
        inputs = _inputs(src, scalars, cell["width"])
        for fill in (None, _pattern):
            a = _run(src, config, inputs, fill)
            b = _run(tgt, config, inputs, fill)
            where = f"bdim={bdim} gdim={gdim} {scalars}"
            if isinstance(a, str) or isinstance(b, str):
                if isinstance(a, str) != isinstance(b, str):
                    fault = a if isinstance(a, str) else b
                    return f"{where}: only one kernel runs ({fault})"
                continue
            for name in sorted(set(a.globals) | set(b.globals)):
                ga, gb = a.globals.get(name, {}), b.globals.get(name, {})
                diff = sorted(i for i in set(ga) | set(gb)
                              if ga.get(i) != gb.get(i))
                if diff:
                    i = diff[0]
                    return (f"{where}: {name}[{i}] = {ga.get(i)} vs "
                            f"{gb.get(i)}")
            if bool(a.races) != bool(b.races):
                return f"{where}: only one kernel races"
    return None


def bug_cells() -> list[dict]:
    """Every expected-bug cell of every workload (the serve pool's 12-bit
    race requests included)."""
    cells = [c for c in tables_cells() if c["expect"] == "bug"]
    cells += [race_cell(k, w, a) for k in RACE_KERNELS
              for w in (8, 12, 16, 32) for a in (True, False)]
    return [c for c in cells if c["expect"] == "bug"]


def main() -> int:
    missing = 0
    for cell in bug_cells():
        shown = (_race_shown(cell) if cell["kind"] == "races"
                 else _divergence_shown(cell))
        if shown is None:
            missing += 1
        print(f"{cell['name']:44s} "
              f"{'NOT SHOWN' if shown is None else 'shown: ' + shown}")
    print(f"{missing} expected bug(s) not shown")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
