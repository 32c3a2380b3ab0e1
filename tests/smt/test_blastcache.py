"""Unit tests for the cross-query blast template cache.

Captures are stored as pending entries and encoded into templates at
their first reuse; these tests pin that the deferral changes nothing a
solver can see, holds no solver alive, and keeps the cache bounded.
"""

import gc
import weakref

import pytest

from repro.smt import (
    BVAdd, BVMul, BVShl, BVUDiv, BVURem, BVVar, Eq, Ne, ULt, fresh_scope,
)
from repro.smt import blastcache
from repro.smt.bitblast import BitBlaster
from repro.smt.blastcache import BlastCache, _Pending, _Template
from repro.smt.cnf import ClauseDB, GateBuilder
from repro.smt.sat import SATSolver


class EagerCache(BlastCache):
    """Encodes every capture at record time, against the live builder's
    constant literals (the pre-deferral policy)."""

    def record(self, key, inputs, gb, build):
        outputs = super().record(key, inputs, gb, build)
        entry = self._templates.pop(key, None)
        if entry is not None:
            tpl = self._encode(_Pending(entry.log, entry.first, entry.n_aux,
                                        inputs, outputs, gb.true_lit,
                                        gb.false_lit))
            if tpl is not None:
                self._templates[key] = tpl
        return outputs


def _batch():
    """Queries sharing multiplier, divider and shifter nodes, so later
    queries replay what earlier ones captured."""
    with fresh_scope():
        x, y, z = (BVVar(n, 8) for n in ("bc.x", "bc.y", "bc.z"))
        prod = BVMul(x, y)
        quot = BVUDiv(z, BVAdd(x, 1))
        # bit 0 of z * 6 is the constant false: the shifter below has a
        # constant input slot, and a constant output bit
        shifted = Eq(BVShl(BVMul(z, 6), x), y)
        return [
            Eq(prod, z),
            ULt(prod, quot),
            Ne(BVURem(prod, BVAdd(y, 3)), quot),
            Eq(BVShl(prod, x), BVMul(quot, y)),
            ULt(BVMul(quot, y), prod),
            shifted,
            Ne(BVMul(quot, y), z),
            shifted,
        ]


def _blast_all(cache, terms, backend=ClauseDB):
    """Blast each term into its own builder; the per-query CNF."""
    out = []
    for term in terms:
        db = backend()
        BitBlaster(GateBuilder(db), cache=cache).assert_term(term)
        out.append(db)
    return out


class TestDeferredEncoding:
    def test_same_clauses_and_vars_as_eager(self):
        terms = _batch()
        eager, deferred = EagerCache(), BlastCache()
        for a, b in zip(_blast_all(eager, terms), _blast_all(deferred, terms)):
            assert a.num_vars == b.num_vars
            assert a.clauses == b.clauses
        assert (eager.hits, eager.misses, eager.replayed_clauses) == \
            (deferred.hits, deferred.misses, deferred.replayed_clauses)
        assert deferred.hits > 0

    def test_same_clauses_on_a_sat_backend(self):
        # SATSolver folds root-forced inputs to constants before lookup,
        # so signatures differ from ClauseDB's; the identity must hold
        # there too, and so must the verdicts.
        terms = _batch()
        eager = _blast_all(EagerCache(), terms, SATSolver)
        deferred = _blast_all(BlastCache(), terms, SATSolver)
        for a, b in zip(eager, deferred):
            assert a.num_vars == b.num_vars
            assert a.solve() == b.solve()

    def test_pending_becomes_template_on_first_reuse(self):
        with fresh_scope():
            x, y = BVVar("bc.p", 8), BVVar("bc.q", 8)
            term = Eq(BVMul(x, y), y)
        cache = BlastCache()
        _blast_all(cache, [term])
        assert cache._templates
        assert all(type(e) is _Pending for e in cache._templates.values())
        _blast_all(cache, [term])
        assert cache.hits >= 1
        assert any(type(e) is _Template for e in cache._templates.values())

    def test_pending_holds_no_solver(self):
        with fresh_scope():
            x, y = BVVar("bc.s", 8), BVVar("bc.t", 8)
            term = ULt(BVMul(x, y), BVUDiv(y, x))
        cache = BlastCache()
        sat = SATSolver()
        BitBlaster(GateBuilder(sat), cache=cache).assert_term(term)
        assert any(type(e) is _Pending for e in cache._templates.values())
        ref = weakref.ref(sat)
        del sat
        gc.collect()
        assert ref() is None


class TestCap:
    def test_pending_map_is_capped(self, monkeypatch):
        monkeypatch.setattr(blastcache, "MAX_TEMPLATES", 3)
        cache = BlastCache()
        with fresh_scope():
            terms = [Eq(BVMul(BVVar(f"bc.c{i}", 8), BVVar("bc.d", 8)),
                        BVVar("bc.e", 8)) for i in range(8)]
        for term in terms:
            _blast_all(cache, [term])
            assert len(cache._templates) <= 3
        assert cache._templates  # the cap resets, it does not disable


@pytest.mark.parametrize("width", [4, 8])
def test_replay_is_equisatisfiable_with_direct_build(width):
    with fresh_scope():
        x, y = BVVar("bc.u", width), BVVar("bc.v", width)
        terms = [Eq(BVMul(x, y), BVAdd(x, 1)), Eq(BVMul(x, y), BVAdd(x, 1))]
    direct = _blast_all(None, terms, SATSolver)
    cached = _blast_all(BlastCache(), terms, SATSolver)
    assert [s.solve() for s in direct] == [s.solve() for s in cached]
