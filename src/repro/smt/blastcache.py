"""Cross-query circuit template cache for the bit-blaster.

One ``solve_all`` batch blasts the same interned terms over and over:
every one-shot facade check rebuilds its own CNF, so a 32-bit multiplier
node shared by twelve queries costs twelve full shift-add constructions.
Terms are hash-consed (:mod:`repro.smt.terms`), so a term object *is* its
structure — this module records, once per term, the clauses a circuit
construction emitted, and replays them into later builders by pure
substitution (fresh auxiliary variables, the caller's input literals).

Recording protocol (driven by :class:`~repro.smt.bitblast.BitBlaster`):

* The node's **operands are blasted first**, outside the recording, so the
  template only captures the node's own circuitry, never gates shared with
  siblings.
* During recording the builder runs with an **isolated gate cache** — an
  outer-cache hit would reference a literal the template cannot encode.
* The builder itself logs the clauses: while its ``log`` is a list, each
  gate appends its clauses there as it loads them into the real backend,
  so the first construction is also the first use.  A nested recording
  hands its log on to the enclosing one.  The variables allocated during
  the recording are the contiguous block ``[num_vars before, num_vars
  after)``.
* Every literal in the recorded clauses is classified as the global
  constant (variable 0 in every :class:`~repro.smt.cnf.GateBuilder`), an
  input (encoded as input index + polarity flip), or an auxiliary variable
  of the fresh block (encoded as aux index + polarity, by arithmetic on
  the block).  Any other literal aborts the recording — construction
  still succeeds, there is just no template.

Encoding is **deferred to the first reuse**.  A capture is stored as a
pending entry: the raw clause log, the fresh variable block, the input
and output literals, and the builder's two constant literals — never the
builder or its solver, so a pending entry keeps no solver alive.  The
first :meth:`BlastCache.replay` lookup of the key encodes the entry into a
template and replays it.  Most captured circuits are never looked up
again (a one-query check blasts each node once), so they never pay for
encoding; a circuit that is reused pays once, exactly as before.  The
template is computed from the same log, so the emitted clause stream is
the one eager encoding would produce.

Replay validity hinges on the **input signature**: gate constructors fold
on input constness, equality and complement (``AND([x, x ^ 1])`` is
false), so a template is only valid for input vectors with the same
canonical shape — each literal rendered as ``('c', value)`` or
``('v', first-occurrence slot, polarity vs. first occurrence)``.  The
cache key is ``(term, signature)``; on a shape mismatch the circuit is
simply built directly (and recorded under the new signature).

Replayed clauses bypass the gate cache entirely — substitution is three
list operations per clause versus hash probes and fold checks per gate —
which is where the batch-level speedup comes from.  Verdicts are
unaffected: a replay emits exactly the Tseitin definitions the direct
construction would, over fresh auxiliaries.

``PUGPARA_BLAST_CACHE=0`` disables the cache process-wide (the
kill-switch used by the differential CI job).
"""

from __future__ import annotations

import os
from typing import Sequence

__all__ = ["BlastCache", "global_blast_cache", "blast_cache_enabled"]

#: Templates below this clause count are not worth the bookkeeping.
MIN_CLAUSES = 8

#: Cache-wide template cap; on overflow the cache resets (simple, and in
#: practice a whole verification run stays far below it).
MAX_TEMPLATES = 4096


def blast_cache_enabled() -> bool:
    return os.environ.get("PUGPARA_BLAST_CACHE", "1") != "0"


def input_signature(lits: Sequence[int], is_const) -> tuple:
    """Canonical shape of an input literal vector.

    Two vectors share a signature iff they present the same pattern of
    constants, repeated variables and polarities to the gate folds — the
    precondition for replaying a template recorded against one of them.
    """
    sig: list[object] = []
    slots: dict[int, tuple[int, int]] = {}  # var -> (slot, first polarity)
    for l in lits:
        c = is_const(l)
        if c is not None:
            sig.append(c)  # True / False
            continue
        v = l >> 1
        hit = slots.get(v)
        if hit is None:
            slots[v] = hit = (len(slots), l & 1)
            sig.append((hit[0], 0))
        else:
            slot, pol = hit
            sig.append((slot, (l & 1) ^ pol))
    return tuple(sig)


class _Template:
    """One recorded circuit: clauses and outputs over flat-int literal
    references, plus the auxiliary variable count.

    ``clean`` marks a template whose decoded clauses are guaranteed
    load-ready (size >= 2, duplicate-, tautology- and assigned-literal-
    free), so replay may bypass the solver's clause sanitation entirely —
    see :meth:`BlastCache._encode` for the argument.  Clean templates are
    additionally flattened (``sizes`` + concatenated ``flat`` refs) so
    replay decodes the whole template in one list comprehension."""

    __slots__ = ("n_aux", "clauses", "outputs", "clean", "sizes", "flat")

    def __init__(self, n_aux: int, clauses: list[list[int]],
                 outputs: list[int], clean: bool) -> None:
        self.n_aux = n_aux
        self.clauses = clauses
        self.outputs = outputs
        self.clean = clean
        if clean:
            self.sizes = [len(refs) for refs in clauses]
            self.flat = [r for refs in clauses for r in refs]
        else:
            self.sizes = None
            self.flat = None


# Literal references are flat ints so replay decoding is one comparison and
# one add (or one list index) per literal:
#
# * ``0`` / ``1`` — the constant literals verbatim (variable 0 is the
#   reserved constant in every builder);
# * ``c >= 2`` — auxiliary literal, encoded as if the template's fresh
#   variables were variables ``1..n_aux`` (``c = 2 * (idx + 1) + pol``).
#   Replay allocates ``base = new_vars(n_aux)`` and decodes by adding
#   ``delta = 2 * base - 2``;
# * ``c < 0`` — input reference ``-(2 * idx + flip + 1)``, decoded through
#   a precomputed map of the caller's input literals and their negations.


class _Pending:
    """A captured circuit not yet encoded: the raw clause log of its first
    construction, its fresh variables ``first .. first + n_aux - 1``, its
    input and output literals, and the capturing builder's constant
    literals (a snapshot of ``gb.is_const``, which would pin the builder
    and its solver)."""

    __slots__ = ("log", "first", "n_aux", "inputs", "outputs", "true_lit",
                 "false_lit")

    def __init__(self, log: list[list[int]], first: int, n_aux: int,
                 inputs: Sequence[int], outputs: Sequence[int],
                 true_lit: int, false_lit: int) -> None:
        self.log = log
        self.first = first
        self.n_aux = n_aux
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.true_lit = true_lit
        self.false_lit = false_lit

    def is_const(self, lit: int) -> bool | None:
        if lit == self.true_lit:
            return True
        if lit == self.false_lit:
            return False
        return None


class BlastCache:
    """Template store shared across :class:`BitBlaster` instances.

    Entries are :class:`_Pending` captures until their first reuse, then
    :class:`_Template` encodings; one map holds both, capped together at
    :data:`MAX_TEMPLATES`."""

    def __init__(self) -> None:
        self._templates: dict[tuple, _Template | _Pending] = {}
        self.hits = 0
        self.misses = 0
        self.replayed_clauses = 0

    # ----------------------------------------------------------------- replay

    def replay(self, key: tuple, inputs: Sequence[int], gb) -> list[int] | None:
        """Emit a cached circuit into ``gb``; returns the output literals,
        or ``None`` on a cache miss."""
        tpl = self._templates.get(key)
        if type(tpl) is _Pending:
            tpl = self._encode(tpl)
            if tpl is None:
                del self._templates[key]
            else:
                self._templates[key] = tpl
        if tpl is None:
            self.misses += 1
            return None
        self.hits += 1
        sat = gb.sat
        base = sat.new_vars(tpl.n_aux)
        delta = 2 * base - 2
        inmap: list[int] = []
        for l in inputs:
            inmap.append(l)
            inmap.append(l ^ 1)
        # Clause refs never hold constants (stripped at encode time), so
        # the decode is one comparison plus one add or one index per lit.
        if tpl.clean:
            sat.add_clauses_flat(
                tpl.sizes,
                [inmap[-c - 1] if c < 0 else c + delta for c in tpl.flat])
        else:
            sat.add_clauses(
                [inmap[-c - 1] if c < 0 else c + delta for c in refs]
                for refs in tpl.clauses)
        self.replayed_clauses += len(tpl.clauses)
        return [inmap[-c - 1] if c < 0 else (c + delta if c > 1 else c)
                for c in tpl.outputs]

    # ------------------------------------------------------------- recording

    def record(self, key: tuple, inputs: Sequence[int], gb, build) -> list[int]:
        """Run ``build(inputs)`` against ``gb`` with its clause log on and
        an isolated gate cache, store the capture as a pending entry, and
        return the built outputs."""
        outer_log = gb.log
        saved_cache = gb._cache
        log: list[list[int]] = []
        gb.log = log
        gb._cache = {}
        first = gb.sat.num_vars
        try:
            outputs = build(list(inputs))
        finally:
            gb.log = outer_log
            gb._cache = saved_cache
        if outer_log is not None:
            outer_log += log
        if len(log) < MIN_CLAUSES:
            return outputs
        if len(self._templates) >= MAX_TEMPLATES:
            self._templates.clear()
        self._templates[key] = _Pending(log, first, gb.sat.num_vars - first,
                                        inputs, outputs, gb.true_lit,
                                        gb.false_lit)
        return outputs

    @staticmethod
    def _encode(pending: _Pending) -> _Template | None:
        # Aux literals lie in [lo, hi) and encode as ``lit - shift``; every
        # other literal is looked up among the constants and the inputs.
        lo = 2 * pending.first
        hi = lo + 2 * pending.n_aux
        shift = lo - 2
        # The reserved constant variable encodes verbatim.  Constant input
        # slots are resolved statically: the signature pins each slot's
        # constness and value, so a slot that is constant here is the same
        # constant at every replay of this template.  A repeated input
        # variable refers to its first slot.
        ref_of = {0: 0, 1: 1}
        seen: set[int] = set()
        is_const = pending.is_const
        for i, l in enumerate(pending.inputs):
            if l >> 1 in seen:
                continue
            seen.add(l >> 1)
            c = is_const(l)
            if c is None:
                ref_of[l] = -((i << 1) + 1)
                ref_of[l ^ 1] = -((i << 1) + 2)
            else:
                ref_of[l] = 0 if c else 1
                ref_of[l ^ 1] = 1 if c else 0
        get = ref_of.get

        clauses: list[list[int]] = []
        clean = True
        for clause in pending.log:
            refs: list[int] | None = []
            for lit in clause:
                if lo <= lit < hi:
                    refs.append(lit - shift)
                    continue
                r = get(lit)
                if r is None:
                    return None
                if r == 0:  # the true constant satisfies the clause
                    refs = None
                    break
                if r != 1:  # the false constant drops out
                    refs.append(r)
            if refs is None:
                continue
            clauses.append(refs)
            # A template is "clean" when every decoded clause is already in
            # stored form: size >= 2, no duplicate or complementary refs,
            # i.e. no two refs share a variable (``r >> 1`` maps both
            # polarities of an aux or input ref to one key).  Distinct refs
            # decode to distinct variables at every replay (the signature
            # fixes the slot structure; auxiliaries are a fresh block), and
            # replay inputs are root-unassigned by construction (the
            # blaster substitutes root-forced literals with constants
            # first), so ref-level cleanliness transfers to the decoded
            # clauses verbatim.
            if clean and (len(refs) < 2
                          or len({r >> 1 for r in refs}) != len(refs)):
                clean = False
        out_refs: list[int] = []
        for lit in pending.outputs:
            if lo <= lit < hi:
                out_refs.append(lit - shift)
                continue
            r = get(lit)
            if r is None:
                return None
            out_refs.append(r)
        return _Template(pending.n_aux, clauses, out_refs, clean)


_GLOBAL: BlastCache | None = None


def global_blast_cache() -> BlastCache:
    """The process-wide template cache (created on first use)."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = BlastCache()
    return _GLOBAL
