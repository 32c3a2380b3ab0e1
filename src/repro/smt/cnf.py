"""Tseitin transformation primitives.

:class:`GateBuilder` wraps a :class:`~repro.smt.sat.SATSolver` and offers
gate-level constructors (`AND`, `OR`, `XOR`, `ITE`, `IFF`) that allocate a
fresh output literal and emit the defining clauses.  Gates are cached by
their (operator, sorted inputs) signature, so the circuit stays a DAG even
when the term DAG is re-traversed.

The constant literals ``true_lit``/``false_lit`` are two polarities of one
reserved variable forced at level 0, which lets the bit-blaster treat
constant bits uniformly as literals.

Each gate hands its defining clauses to the backend in one ``add_gate``
call.  A gate's output variable is fresh and its inputs are distinct
variables, so its clauses are duplicate- and tautology-free by
construction; the backend validates the inputs once (not every clause
literal) and, when none of them is assigned at level 0, stores the clauses
as they are.  Either way the stored CNF is what loading the clauses one
``add_clause`` at a time would build.

While :attr:`GateBuilder.log` is a list, every clause the builder emits is
also appended to it — the blast template cache captures circuits this way
(:mod:`repro.smt.blastcache`).

The backend needs ``new_var``/``add_clause``/``add_gate``: a
:class:`SATSolver` for direct solving, or a :class:`ClauseDB` when the
clauses are only recorded.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .sat import SATSolver
from ..errors import SolverError

__all__ = ["ClauseDB", "GateBuilder"]


class ClauseDB:
    """A plain clause sink implementing the :class:`GateBuilder` backend
    protocol (``new_var``/``add_clause``/``add_gate``).

    Unlike :class:`SATSolver.add_clause` it performs no level-0
    simplification, so the recorded CNF is exactly what the gates emitted
    and can be replayed into any number of solver instances.  Every loader
    treats an empty clause alike: it is not stored and ``ok`` turns False.
    """

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[list[int]] = []
        self.ok = True

    def new_var(self) -> int:
        v = self.num_vars
        self.num_vars += 1
        return v

    def add_clause(self, lits: Iterable[int]) -> bool:
        clause = list(lits)
        for lit in clause:
            if not 0 <= lit < 2 * self.num_vars:
                raise SolverError(
                    f"literal {lit} references an undeclared variable")
        if not clause:
            self.ok = False
            return False
        self.clauses.append(clause)
        return True

    def add_gate(self, inputs: Sequence[int],
                 clauses: list[list[int]]) -> bool:
        """Record one gate's defining clauses (see
        :meth:`SATSolver.add_gate`); only the inputs are range-checked."""
        nv2 = 2 * self.num_vars
        for lit in inputs:
            if not 0 <= lit < nv2:
                raise SolverError(
                    f"literal {lit} references an undeclared variable")
        self.clauses += clauses
        return self.ok

    def new_vars(self, n: int) -> int:
        """Allocate ``n`` fresh variables at once; returns the first index
        (the bulk counterpart of :meth:`new_var`, used by template replay)."""
        first = self.num_vars
        if n > 0:
            self.num_vars += n
        return first

    def add_clauses(self, clause_iter: Iterable[list[int]]) -> bool:
        """Bulk :meth:`add_clause` without per-literal validation — the
        replay path feeds machine-generated clauses over this DB's own
        variable counter."""
        clauses = self.clauses
        for clause in clause_iter:
            if clause:
                clauses.append(clause)
            else:
                self.ok = False
        return self.ok

    def add_clauses_flat(self, sizes: list[int], flat: list[int]) -> bool:
        """Bulk-load from a flat literal buffer (see the
        :class:`~repro.smt.sat.SATSolver` counterpart)."""
        clauses = self.clauses
        pos = 0
        for n in sizes:
            if n == 0:
                self.ok = False
                continue
            end = pos + n
            clauses.append(flat[pos:end])
            pos = end
        return self.ok


class GateBuilder:
    """Clause emitter with structural gate caching."""

    def __init__(self, sat: SATSolver | ClauseDB | None = None) -> None:
        self.sat = sat if sat is not None else SATSolver()
        const_var = self.sat.new_var()
        self.true_lit = const_var << 1
        self.false_lit = self.true_lit | 1
        self.sat.add_clause([self.true_lit])
        self._cache: dict[tuple, int] = {}
        self.gates = 0
        #: When a list, every clause emitted from here on is appended too.
        self.log: list[list[int]] | None = None

    # ----------------------------------------------------------------- basics

    def new_lit(self) -> int:
        return self.sat.new_var() << 1

    def add_clause(self, lits: Iterable[int]) -> None:
        clause = list(lits)
        if self.log is not None:
            self.log.append(clause)
        self.sat.add_clause(clause)

    def _gate(self, inputs: Sequence[int], clauses: list[list[int]]) -> None:
        """Emit one gate's clauses (duplicate- and tautology-free: a fresh
        output over distinct input variables) in one backend call."""
        if self.log is not None:
            self.log += clauses
        self.sat.add_gate(inputs, clauses)

    def lit_const(self, value: bool) -> int:
        return self.true_lit if value else self.false_lit

    def is_const(self, lit: int) -> bool | None:
        """The constant value of ``lit`` if it is one of the reserved constant
        literals, else ``None``."""
        if lit == self.true_lit:
            return True
        if lit == self.false_lit:
            return False
        return None

    # ------------------------------------------------------------------ gates

    def AND(self, lits: Sequence[int]) -> int:
        if len(lits) == 2:
            return self.AND2(lits[0], lits[1])
        out: list[int] = []
        for lit in lits:
            c = self.is_const(lit)
            if c is False:
                return self.false_lit
            if c is True:
                continue
            out.append(lit)
        inputs = tuple(sorted(set(out)))
        for lit in inputs:
            if lit ^ 1 in inputs:
                return self.false_lit
        if not inputs:
            return self.true_lit
        if len(inputs) == 1:
            return inputs[0]
        key = ("and", inputs)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        g = self.new_lit()
        ng = g ^ 1
        clauses = [[ng, lit] for lit in inputs]
        clauses.append([g, *(lit ^ 1 for lit in inputs)])
        self._gate(inputs, clauses)
        self._cache[key] = g
        self.gates += 1
        return g

    def AND2(self, a: int, b: int) -> int:
        """``AND([a, b])``: the same folds, cache key and clauses, without
        the general case's list and set building."""
        t = self.true_lit
        f = t ^ 1
        if a == f or b == f:
            return f
        if a == t:
            return b
        if b == t or a == b:
            return a
        if a == b ^ 1:
            return f
        if a > b:
            a, b = b, a
        key = ("and", (a, b))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        g = self.new_lit()
        ng = g ^ 1
        self._gate((a, b), [[ng, a], [ng, b], [g, a ^ 1, b ^ 1]])
        self._cache[key] = g
        self.gates += 1
        return g

    def OR(self, lits: Sequence[int]) -> int:
        return self.AND([lit ^ 1 for lit in lits]) ^ 1

    def XOR(self, a: int, b: int) -> int:
        ca, cb = self.is_const(a), self.is_const(b)
        if ca is not None:
            return b ^ 1 if ca else b
        if cb is not None:
            return a ^ 1 if cb else a
        if a == b:
            return self.false_lit
        if a == b ^ 1:
            return self.true_lit
        # Canonicalize: inputs positive, sorted; sign folded into the output.
        sign = (a & 1) ^ (b & 1)
        a &= ~1
        b &= ~1
        if a > b:
            a, b = b, a
        key = ("xor", a, b)
        hit = self._cache.get(key)
        if hit is None:
            g = self.new_lit()
            ng = g ^ 1
            self._gate((a, b), [[ng, a, b], [ng, a ^ 1, b ^ 1],
                                [g, a, b ^ 1], [g, a ^ 1, b]])
            self._cache[key] = g
            self.gates += 1
            hit = g
        return hit ^ sign

    def IFF(self, a: int, b: int) -> int:
        return self.XOR(a, b) ^ 1

    def ITE(self, c: int, t: int, e: int) -> int:
        cc = self.is_const(c)
        if cc is True:
            return t
        if cc is False:
            return e
        if t == e:
            return t
        ct, ce = self.is_const(t), self.is_const(e)
        if ct is True and ce is False:
            return c
        if ct is False and ce is True:
            return c ^ 1
        if ct is True:
            return self.OR([c, e])
        if ct is False:
            return self.AND([c ^ 1, e])
        if ce is True:
            return self.OR([c ^ 1, t])
        if ce is False:
            return self.AND([c, t])
        if t == e ^ 1:
            return self.IFF(c, t)
        key = ("ite", c, t, e)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        g = self.new_lit()
        ng = g ^ 1
        clauses = [[ng, c ^ 1, t], [ng, c, e], [g, c ^ 1, t ^ 1],
                   [g, c, e ^ 1],
                   # Redundant but propagation-strengthening clauses.
                   [ng, t, e], [g, t ^ 1, e ^ 1]]
        cv = c >> 1
        if cv != t >> 1 and cv != e >> 1:
            self._gate((c, t, e), clauses)
        else:
            # The condition reappears as a branch: some clauses repeat or
            # complement a literal, so each takes the sanitizing loader.
            for clause in clauses:
                self.add_clause(clause)
        self._cache[key] = g
        self.gates += 1
        return g

    # ----------------------------------------------------- adder primitives

    def full_adder(self, a: int, b: int, cin: int) -> tuple[int, int]:
        """Returns ``(sum, carry_out)`` of a 1-bit full adder."""
        axb = self.XOR(a, b)
        s = self.XOR(axb, cin)
        carry = self.AND2(self.AND2(a, b) ^ 1, self.AND2(cin, axb) ^ 1) ^ 1
        return s, carry

    def assert_lit(self, lit: int) -> None:
        """Assert ``lit`` as a unit clause."""
        self.add_clause([lit])
