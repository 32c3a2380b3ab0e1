"""The stored CNF does not depend on how clauses reach the solver.

Gates load their defining clauses in one ``add_gate`` call and template
replays load whole circuits at once; both must leave the solver exactly
as loading the same clause stream one ``add_clause`` at a time would: the
same arena, ``n_orig``, ``num_vars`` and level-0 assignments.  The race
VCs of the suite's race kernels exercise both loaders, with root-forced
inputs (the suite assumptions pin geometry bits) and without, with the
blast template cache on and off.
"""

import pytest

from repro.check import suite_assumptions
from repro.check.races import check_races
from repro.errors import SolverError
from repro.kernels import load
from repro.smt import blastcache
from repro.smt import solver as facade
from repro.smt.bitblast import BitBlaster
from repro.smt.blastcache import BlastCache
from repro.smt.cnf import ClauseDB, GateBuilder
from repro.smt.sat import SATResult, SATSolver

from .test_blastcache import _batch

RACE_KERNELS = ("naiveReduce", "optimizedReduce", "scalarProd", "scanRacy",
                "naiveTranspose", "optimizedTranspose")
TRANSPOSE_CONC = {"bdim": (2, 2, 1), "gdim": (2, 2),
                  "scalars": {"width": 4, "height": 4}}


class StreamSolver(SATSolver):
    """A solver that records every clause its loaders receive, in order,
    and answers ``solve`` with UNKNOWN.  Each instance is listed in
    :data:`CREATED` for a later identity check (the dispatcher turns any
    exception raised while solving into an UNKNOWN verdict, so the check
    cannot run inside it)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stream: list[list[int]] = []
        self._in_gate = False
        CREATED.append(self)

    def add_clause(self, lits):
        lits = list(lits)
        if not self._in_gate:
            self.stream.append(lits)
        return super().add_clause(lits)

    def add_gate(self, inputs, clauses):
        self.stream += [list(c) for c in clauses]
        self._in_gate = True
        try:
            return super().add_gate(inputs, clauses)
        finally:
            self._in_gate = False

    def add_clauses(self, clause_iter):
        clauses = [list(c) for c in clause_iter]
        self.stream += clauses
        return super().add_clauses(clauses)

    def add_clauses_flat(self, sizes, flat):
        pos = 0
        for n in sizes:
            self.stream.append(flat[pos:pos + n])
            pos += n
        return super().add_clauses_flat(sizes, flat)

    def solve(self, *args, **kwargs):
        return SATResult.UNKNOWN


CREATED: list[StreamSolver] = []


def assert_per_clause_identity(sat: StreamSolver) -> None:
    ref = SATSolver()
    ref.new_vars(sat.num_vars)
    for clause in sat.stream:
        ref.add_clause(clause)
    assert sat.ok == ref.ok
    assert sat.num_vars == ref.num_vars
    assert sat.n_orig == ref.n_orig
    assert sat.arena == ref.arena
    assert set(sat.trail) == set(ref.trail)


@pytest.fixture(params=["cache-on", "cache-off"])
def blast_cache(request, monkeypatch):
    """A fresh process-wide template cache, or none at all."""
    if request.param == "cache-on":
        monkeypatch.setenv("PUGPARA_BLAST_CACHE", "1")
        monkeypatch.setattr(blastcache, "_GLOBAL", BlastCache())
        return blastcache._GLOBAL
    monkeypatch.setenv("PUGPARA_BLAST_CACHE", "0")
    return None


@pytest.mark.parametrize("assumed", [True, False], ids=["suite", "none"])
@pytest.mark.parametrize("width", [8, 16, 32])
@pytest.mark.parametrize("kernel", RACE_KERNELS)
def test_race_vcs_load_as_per_clause(kernel, width, assumed, blast_cache,
                                     monkeypatch):
    monkeypatch.setattr(facade, "SATSolver", StreamSolver)
    _, info = load(kernel)
    transpose = kernel.endswith("Transpose")
    builder = conc = None
    if assumed:
        builder = suite_assumptions("Transpose" if transpose
                                    else "Reduction")
        conc = TRANSPOSE_CONC if transpose else None
    del CREATED[:]
    # Every solved query comes back UNKNOWN, so no replay runs; most are
    # refuted by the loaders alone (``ok`` turns False while blasting).
    check_races(info, width, assumption_builder=builder, concretize=conc,
                jobs=1, cache=False)
    assert CREATED, "no VC reached the SAT layer"
    while CREATED:
        assert_per_clause_identity(CREATED.pop())
    if blast_cache is not None:
        assert blast_cache.hits + blast_cache.misses > 0  # it was consulted


def test_batch_loads_as_per_clause(blast_cache):
    for term in _batch():
        sat = StreamSolver()
        BitBlaster(GateBuilder(sat), cache=blast_cache).assert_term(term)
        assert_per_clause_identity(sat)
    if blast_cache is not None:
        assert blast_cache.hits > 0


def test_root_forced_gate_inputs_take_the_per_clause_path():
    sat = StreamSolver()
    gb = GateBuilder(sat)
    a, b, c = gb.new_lit(), gb.new_lit(), gb.new_lit()
    gb.assert_lit(a ^ 1)
    # One input false at level 0: the AND collapses to a unit chain.
    g = gb.AND([a, b, c])
    gb.assert_lit(gb.XOR(g, b))
    gb.ITE(b, c, a)
    assert_per_clause_identity(sat)
    assert sat.root_value(b) == 0


@pytest.mark.parametrize("backend", [SATSolver, ClauseDB])
@pytest.mark.parametrize("gate", ["and2", "and3", "xor", "ite"])
def test_gate_rejects_an_undeclared_input(backend, gate):
    gb = GateBuilder(backend())
    a = gb.new_lit()
    bad = 2 * 100
    with pytest.raises(SolverError, match="undeclared"):
        if gate == "and2":
            gb.AND([a, bad])
        elif gate == "and3":
            gb.AND([a, gb.new_lit(), bad])
        elif gate == "xor":
            gb.XOR(bad, a)
        else:
            gb.ITE(a, gb.new_lit(), bad)


@pytest.mark.parametrize("load", ["clause", "bulk", "flat"])
def test_clause_db_loaders_agree_on_an_empty_clause(load):
    db = ClauseDB()
    db.new_vars(2)
    if load == "clause":
        assert db.add_clause([]) is False
    elif load == "bulk":
        assert db.add_clauses([[0, 2], []]) is False
    else:
        assert db.add_clauses_flat([2, 0], [0, 2]) is False
    assert not db.ok
    assert [] not in db.clauses
