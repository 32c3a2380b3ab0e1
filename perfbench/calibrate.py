"""A fixed reference workload that measures how fast the host runs Python
right now, and the CPU pinning that makes that measure apply.

The host's speed drifts by tens of percent from minute to minute, and each
of its CPUs drifts on its own: other tenants share its cores and caches.
Every check slows with the CPU it runs on.  So the benchmark runs the
program on one CPU, times this workload on the same CPU between checks
(or between requests, when none is in flight), and scales every time the
program takes to a host on which the workload's median is ``REFERENCE_S``.

The workload does what the checker does most, in the same interpreter:
build and look up tuple-keyed dicts (term interning) and walk integer
clause lists through watch lists (SAT).  It never changes with the
program.  It is more sensitive to the host's speed than the checker: over
runs of all three workloads on a 2-CPU Xeon VM, log(check time) followed
log(median reference time) with correlation 0.9-1.0 and a slope of about
``ELASTICITY``, so the scale is the reference ratio to that power (a
covariate adjustment, fitted once and fixed here).
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time

#: Seconds the reference workload takes on the nominal host (a typical
#: median on a 2-CPU Xeon VM, Python 3.11).
REFERENCE_S = 0.04
#: How much a check's time moves per unit move of the reference time, on
#: a log scale (see above).
ELASTICITY = 0.6


def _workload() -> int:
    rng = random.Random(20240611)
    nvars = 1500
    clauses = [[rng.choice((1, -1)) * rng.randrange(1, nvars)
                for _ in range(3)] for _ in range(6000)]
    watches: dict[int, list[int]] = {}
    for i, clause in enumerate(clauses):
        for lit in clause[:2]:
            watches.setdefault(lit, []).append(i)
    table: dict[tuple, int] = {}
    acc = 0
    for step in range(nvars):
        lit = -(step + 1) if step % 3 else step + 1
        for ci in watches.get(-lit, ()):
            clause = clauses[ci]
            key = (clause[0], clause[1], clause[2] ^ step)
            node = table.get(key)
            if node is None:
                node = table[key] = len(table)
            acc += node
    return acc


def reference_s() -> float:
    """Wall seconds of one run of the reference workload, with the cyclic
    garbage collector off, so the caller's heap does not weigh on it."""
    gc.disable()
    try:
        start = time.perf_counter()
        _workload()
        return time.perf_counter() - start
    finally:
        gc.enable()


def cpus() -> tuple[int, int]:
    """The CPU the program and the reference workload run on, and the CPU
    for the benchmark's own threads (the same one on a 1-CPU host), out of
    those the calling thread may use: ask before pinning it."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


def pin(cpu: int) -> None:
    """Run the calling thread, and the processes it starts, on ``cpu``."""
    os.sched_setaffinity(0, {cpu})


def speed_factor(samples: list[float]) -> float:
    """The factor that turns this run's times into nominal-host times."""
    return (REFERENCE_S / statistics.median(samples)) ** ELASTICITY
