"""In-memory spans around the public functions of each program layer.

The benchmark never edits the program: :func:`install` rebinds each layer's
public function, wherever a ``repro`` module holds a reference to it, to a
wrapper that records a span (name, start, end, parent, check id) and the
layer's counters.  Spans stay in memory and are written out when the run
ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter


class Tracer:
    """Spans of one process.  Single-threaded: the stack is the call chain."""

    def __init__(self, check_id: str = "") -> None:
        self.check_id = check_id
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "check": self.check_id, "start": time.perf_counter(),
                "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the current stack."""
        return any(self.spans[i]["name"] == name for i in self._stack)

    def wrap(self, fn, name: str, count=None):
        """``fn`` inside a span; ``count(tracer, args, result, outermost)``
        updates the layer's counters after each call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = not self.inside(name)
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if count is not None:
                count(self, args, result, outermost)
            return result

        traced.__wrapped_layer__ = fn
        return traced


# ----------------------------------------------------------- layer counters


def _count_witness(tr, args, result, outermost):
    tr.counts["param.witness.calls"] += 1
    tr.counts["param.witness.found"] += result is not None


def _count_dispatch(tr, args, result, outermost):
    if outermost:
        tr.counts["smt.dispatch.vcs"] += len(args[0])


def _count_lookup(tr, args, result, outermost):
    tr.counts["smt.qcache.lookups"] += 1
    tr.counts["smt.qcache.hits"] += result is not None


def _count_replay_run(tr, args, result, outermost):
    # run_kernel called by the race checker: one replay, confirmed when
    # the concrete run observed a race.
    if outermost:
        tr.counts["check.replay.calls"] += 1
        tr.counts["check.replay.confirmed"] += bool(result.races)


def _count_replay_equiv(tr, args, result, outermost):
    if outermost:
        tr.counts["check.replay.calls"] += 1
        tr.counts["check.replay.confirmed"] += bool(result.confirmed)


#: (module, attribute, span name, counter, rebind scope).  A scope of None
#: rebinds every ``repro`` module's reference; a tuple limits it to those
#: modules (run_kernel is replay only when the checkers call it).
FUNCTIONS = [
    ("repro.lang.parser", "parse_kernel", "lang.frontend", None, None),
    ("repro.lang.typecheck", "check_kernel", "lang.frontend", None, None),
    ("repro.param.ca", "extract_model", "param.ca", None, None),
    ("repro.param.witness", "solve_addr_match", "param.witness",
     _count_witness, None),
    ("repro.encode.nonparam", "encode_kernel", "encode.nonparam", None, None),
    ("repro.encode.nonparam", "concretize_inputs", "encode.nonparam", None,
     None),
    ("repro.smt.dispatch", "solve_all", "smt.dispatch", _count_dispatch,
     None),
    ("repro.smt.simplify", "simplify_all", "smt.simplify", None, None),
    ("repro.smt.arrays", "eliminate_arrays", "smt.arrays", None, None),
    ("repro.check.replay", "replay_equivalence", "check.replay",
     _count_replay_equiv, None),
    ("repro.lang.interp", "run_kernel", "check.replay", _count_replay_run,
     ("repro.check.races", "repro.check.replay")),
]

#: (module, class, method, span name, counter).
METHODS = [
    ("repro.smt.qcache", "QueryCache", "lookup", "smt.qcache",
     _count_lookup),
    ("repro.smt.qcache", "QueryCache", "store", "smt.qcache", None),
    ("repro.smt.bitblast", "BitBlaster", "assert_term", "smt.bitblast", None),
    ("repro.smt.sat", "SATSolver", "solve", "smt.sat", None),
    ("repro.smt.solver", "Solver", "check", "smt.solver", None),
]

#: Every span name a layer can produce, besides the root ``check``.
LAYERS = sorted({row[2] for row in FUNCTIONS} | {row[3] for row in METHODS})


def install(tracer: Tracer) -> None:
    """Wrap every layer function; call after the program is imported."""
    for mod_name, attr, name, count, scope in FUNCTIONS:
        original = getattr(importlib.import_module(mod_name), attr)
        wrapped = tracer.wrap(original, name, count)
        for loaded_name, module in list(sys.modules.items()):
            if not loaded_name.startswith("repro") or module is None:
                continue
            if scope is not None and loaded_name not in scope:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    for mod_name, cls_name, method, name, count in METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        setattr(cls, method, tracer.wrap(getattr(cls, method), name, count))
