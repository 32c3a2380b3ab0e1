"""The benchmark's cells: one check each, with a hand-written expected verdict.

A cell is a plain dict, so it crosses the process boundary as JSON:

* ``kind``     — ``param`` / ``nonparam`` (equivalence) or ``races``;
* ``pair``     — the Transpose/Reduction pair (equivalence cells);
* ``kernel``   — the suite kernel (race cells);
* ``mutant``   — an address-mutant label of the pair's target (Table III);
* ``width``    — machine word width in bits;
* ``n``        — thread count of a nonparam launch; ``plus_c`` pins inputs;
* ``assume``   — suite assumption builder (``Transpose``/``Reduction``/None);
* ``conc``     — the param ``+C`` concretization (bdim/gdim/scalars);
* ``bughunt``  — param fast bug hunting (frames skipped);
* ``expect``   — the true answer, ``verified`` or ``bug``.

Expected verdicts are written by hand from the kernels' semantics, not
copied from the checker.  Every ``bug`` is confirmed independently by
``confirm.py`` through the concrete interpreter.
"""

from __future__ import annotations

# Table II/III per-check limit (seconds).  Transpose 8b param -C is the
# paper's own T.O and runs into it; every decided cell stays far below.
TABLE_LIMIT = 6.0
RACE_LIMIT = 30.0

CONC_TRANSPOSE = {"bdim": [2, 2, 1], "gdim": [2, 2],
                  "scalars": {"width": 4, "height": 4}}
CONC_REDUCTION = {"bdim": [8, 1, 1], "gdim": [1, 1]}
CONC = {"Transpose": CONC_TRANSPOSE, "Reduction": CONC_REDUCTION}

#: Address mutants of each pair's target (Table III).
MUTANTS = {"Transpose": [f"addr{i}" for i in range(4)],
           "Reduction": [f"addr{i}" for i in range(6)]}

#: Cells whose expected verdict the program is known to miss: bughunt
#: returns VERIFIED with frames unverified on these two Reduction mutants.
#: They stay in the workload and are counted in ``failed``.
KNOWN_WRONG = frozenset(
    f"t3.param.Reduction.{m}.w{w}" for m in ("addr2", "addr4")
    for w in (8, 16))


def nonparam_launch(pair: str, n: int) -> dict:
    """The paper's n-thread launch: a sqrt(n) x sqrt(n) transpose block when
    n is a perfect square, else the closest non-square block (the '*' rows,
    on which the pair is not equivalent); one n-thread reduction block."""
    if pair == "Reduction":
        return {"bdim": [n, 1, 1], "gdim": [1, 1], "scalars": {}}
    root = int(n ** 0.5)
    if root * root == n:
        bx, by = root, root
    else:
        bx = 1 << (n.bit_length() // 2)
        by = n // bx
    return {"bdim": [bx, by, 1], "gdim": [2, 2],
            "scalars": {"width": bx * 2, "height": by * 2}}


def _equiv(name: str, kind: str, pair: str, width: int, expect: str,
           **extra) -> dict:
    cell = {"name": name, "kind": kind, "pair": pair, "width": width,
            "expect": expect, "timeout": TABLE_LIMIT, "assume": pair}
    cell.update(extra)
    return cell


def tables_cells() -> list[dict]:
    """Table II (bug-free pairs) and Table III (address mutants)."""
    cells = []
    # Table II, param -C: fully symbolic geometry.
    for pair, width in (("Reduction", 8), ("Reduction", 12),
                        ("Transpose", 8)):
        cells.append(_equiv(f"t2.param.{pair}.w{width}", "param", pair,
                            width, "verified"))
    # Table II, param +C: pinned geometry and scalars.
    for pair, width in (("Transpose", 8), ("Transpose", 16),
                        ("Reduction", 8), ("Reduction", 12)):
        cells.append(_equiv(f"t2.paramC.{pair}.w{width}", "param", pair,
                            width, "verified", conc=CONC[pair]))
    # Table II, nonparam at n threads.  Transpose n=8 is non-square: '*'.
    for pair, width, n, plus_c in (
            ("Transpose", 8, 4, False), ("Transpose", 8, 8, False),
            ("Transpose", 8, 16, False), ("Transpose", 8, 16, True),
            ("Transpose", 16, 4, False), ("Transpose", 16, 8, False),
            ("Reduction", 8, 16, False), ("Reduction", 12, 16, False)):
        expect = "bug" if pair == "Transpose" and n == 8 else "verified"
        tag = f"n{n}C" if plus_c else f"n{n}"
        cells.append(_equiv(f"t2.nonparam.{pair}.w{width}.{tag}", "nonparam",
                            pair, width, expect, n=n, plus_c=plus_c))
    # Table III, param bughunt on every address mutant.
    for pair, labels in MUTANTS.items():
        for label in labels:
            for width in (8, 16):
                cells.append(_equiv(f"t3.param.{pair}.{label}.w{width}",
                                    "param", pair, width, "bug",
                                    mutant=label, bughunt=True))
    # Table III, nonparam on mutant 0 of each pair.
    for pair in MUTANTS:
        for n in (4, 8, 16):
            cells.append(_equiv(f"t3.nonparam.{pair}.addr0.w8.n{n}",
                                "nonparam", pair, 8, "bug", n=n,
                                mutant="addr0"))
    return cells


#: Race verdicts, by (kernel, with suite assumptions).  Without the suite
#: assumptions a block may be 2-D, and threads that differ only in tid.y
#: write the same cell indexed by tid.x; scanRacy reads and writes its one
#: buffer in the same barrier interval under any assumptions.  Without the
#: covering bounds a transpose's output index ``y + height * x`` wraps the
#: machine word, so two threads write one cell.
_RACE_EXPECT = {
    ("naiveReduce", True): "verified", ("naiveReduce", False): "bug",
    ("optimizedReduce", True): "verified",
    ("optimizedReduce", False): "bug",
    ("scalarProd", True): "verified", ("scalarProd", False): "bug",
    ("scanRacy", True): "bug", ("scanRacy", False): "bug",
    ("naiveTranspose", True): "verified", ("naiveTranspose", False): "bug",
    ("optimizedTranspose", True): "verified",
    ("optimizedTranspose", False): "bug",
}


RACE_KERNELS = ("naiveReduce", "optimizedReduce", "scalarProd", "scanRacy",
                "naiveTranspose", "optimizedTranspose")


def race_cell(kernel: str, width: int, assumed: bool) -> dict:
    """One race check.  Assumed means the suite assumptions: pow2 for the
    tree kernels; for the transposes, the Transpose assumptions at the +C
    concretization (2,2,1)/(2,2)."""
    transpose = kernel.endswith("Transpose")
    cell = {"kind": "races", "kernel": kernel, "width": width,
            "assume": None, "expect": _RACE_EXPECT[(kernel, assumed)],
            "timeout": RACE_LIMIT}
    tag = "none"
    if assumed:
        tag = "C" if transpose else "pow2"
        cell["assume"] = "Transpose" if transpose else "Reduction"
        if transpose:
            cell["conc"] = CONC_TRANSPOSE
    cell["name"] = f"races.{kernel}.w{width}.{tag}"
    return cell


def races_cells() -> list[dict]:
    """Table I's parameterized race check over the suite's race kernels."""
    cells = [race_cell(kernel, width, assumed)
             for kernel in RACE_KERNELS[:4]
             for width in (8, 16, 32) for assumed in (True, False)]
    for kernel in ("naiveTranspose", "optimizedTranspose"):
        cells += [race_cell(kernel, width, True) for width in (8, 16)]
        cells += [race_cell(kernel, width, False) for width in (8, 32)]
    return cells
