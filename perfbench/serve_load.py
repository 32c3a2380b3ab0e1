"""The ``serve`` workload: one ``repro.serve`` process fed by an open loop.

The seeded stream first-submits every pool request once, spread evenly over
the run, and fills the other slots with resubmissions of requests already
sent; half of the resubmitted unpaired requests are alpha-renamed.
Arrivals come at a fixed rate, one at a seeded instant in each slot, sent
over at most ``CONNECTIONS`` concurrent connections.  A request that comes
due while every connection is busy waits, and its latency counts from when
it was due.

The server and its worker run on one CPU, the generator's threads on the
other.  Whenever no request is in flight and the next is not due soon, the
generator times the reference workload on the server's CPU (calibrate.py).
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

import calibrate
from cells import CONC, RACE_KERNELS, race_cell

CONNECTIONS = 2
RATE = 4.0              # requests per second (about a quarter of one worker)
REQUEST_TIMEOUT = 30.0
WIDTHS = (8, 12)
#: Resubmissions of an unpaired request per resubmission of a paired one.
UNPAIRED_WEIGHT = 2
#: Least time to the next due request for an idle generator to time the
#: reference workload (about three of its runs).
IDLE_GAP = 0.15
#: How often a waiting generator looks for an idle gap.
POLL_S = 0.005
READY_PREFIX = "pugpara-serve ready"
#: A width outside ``WIDTHS``: the warm-up requests leave no cache entry
#: the stream reads.
WARMUP_WIDTH = 4
KEYWORDS = frozenset({
    "__global__", "__shared__", "__device__", "void", "int", "unsigned",
    "float", "if", "else", "for", "while", "return", "assume", "assert",
    "postcond", "spec", "min", "max", "tid", "bid", "bdim", "gdim",
    "x", "y", "z", "__syncthreads"})
_IDENT = re.compile(r"\b[A-Za-z_]\w*\b")


def pool(sources: dict, widths: tuple = WIDTHS) -> list[dict]:
    """Distinct requests, each with its expected verdict: race checks of
    every race kernel with and without its assumptions, and param +C
    equivalence of both pairs, at 8 and 12 bits.  ``races`` and ``tables``
    carry the wider, slower checks: here a half-second cold check makes
    the requests that arrive behind it wait, and which arrivals it catches
    varies from seed to seed more than the tail can bear.

    Warm, a paired race check is a cache hit (~10 ms) while an unpaired
    one still replays its counterexample (~0.1 s).  Unpaired requests are
    resubmitted ``UNPAIRED_WEIGHT`` times as often, which keeps the cache
    hits near a third of the stream, so the median latency falls inside
    the replay-bound group rather than on the edge between the two."""
    out = []
    for cell in [race_cell(kernel, width, assumed)
                 for kernel in RACE_KERNELS for width in widths
                 for assumed in (True, False)]:
        body = {"command": "races", "source": sources[cell["kernel"]],
                "width": cell["width"], "timeout": REQUEST_TIMEOUT}
        if cell["assume"]:
            body["pair"] = cell["assume"]
        if cell.get("conc"):
            body.update(cbdim=cell["conc"]["bdim"],
                        cgdim=cell["conc"]["gdim"],
                        scalars=cell["conc"]["scalars"])
        out.append({"cell": cell["name"], "expect": cell["expect"],
                    "body": body})
    for pair, (src, tgt) in (("Transpose", ("naiveTranspose",
                                            "optimizedTranspose")),
                             ("Reduction", ("naiveReduce",
                                            "optimizedReduce"))):
        conc = CONC[pair]
        for width in widths:
            body = {"command": "equiv", "method": "param",
                    "source": sources[src], "target": sources[tgt],
                    "width": width, "timeout": REQUEST_TIMEOUT,
                    "pair": pair, "cbdim": conc["bdim"],
                    "cgdim": conc["gdim"]}
            if conc.get("scalars"):
                body["scalars"] = conc["scalars"]
            out.append({"cell": f"serve.paramC.{pair}.w{width}",
                        "expect": "verified", "body": body})
    return out


def warmup(sources: dict) -> list[dict]:
    """One request of each kind (paired race check, unpaired race check,
    param equivalence) at ``WARMUP_WIDTH``: sent before the clock, they load
    every code path the stream takes, as a long-lived server has."""
    kinds: dict = {}
    for item in pool(sources, (WARMUP_WIDTH,)):
        kinds.setdefault((item["body"]["command"], "pair" in item["body"]),
                         item)
    return list(kinds.values())


def alpha_rename(source: str, suffix: str) -> str:
    """Rename every non-reserved identifier: an alpha-equivalent kernel."""
    return _IDENT.sub(lambda m: m.group(0) if m.group(0) in KEYWORDS
                      else f"{m.group(0)}_{suffix}", source)


def make_stream(requests: list[dict], seed: int, seconds: float) -> list[dict]:
    """The seeded stream: ``RATE * seconds`` requests, one due at a seeded
    uniform instant in each of that many equal slots.  This is the rate of
    a Poisson process without its bursts, whose size varies from seed to
    seed and, behind one worker, sets the tail latency more than the
    program does.

    The pool's first submissions are spread evenly over the stream, one at
    a seeded slot in each of ``len(requests)`` equal stretches, in seeded
    order, so cold checks do not bunch up.  Every other slot resubmits a
    seeded choice among the sent requests that have not used up their
    quota.  Quotas share the slots out in proportion to a weight,
    ``UNPAIRED_WEIGHT`` for unpaired requests and 1 for the rest (a
    request first sent late may leave part of its quota, and those slots
    go to a seeded choice among all sent requests), and each unpaired
    request's resubmissions alternate between as sent and alpha-renamed
    under a seeded suffix: the mix moves by a few requests from seed to
    seed."""
    rng = random.Random(seed)
    count = max(len(requests), round(RATE * seconds))
    slot = seconds / count
    dues = [(i + rng.random()) * slot for i in range(count)]
    order = list(requests)
    rng.shuffle(order)
    stretch = count / len(order)
    firsts = {0} | {int(k * stretch) + rng.randrange(max(1, int(stretch)))
                    for k in range(1, len(order))}
    weights = [1 if "pair" in item["body"] else UNPAIRED_WEIGHT
               for item in order]
    shares = [(count - len(order)) * w / sum(weights) for w in weights]
    quotas = [int(share) for share in shares]
    # The slots left over go to the largest remainders, ties seeded.
    ranked = sorted(range(len(order)), reverse=True,
                    key=lambda i: (shares[i] - quotas[i], rng.random()))
    for i in ranked[:count - len(order) - sum(quotas)]:
        quotas[i] += 1
    quota = {item["cell"]: q for item, q in zip(order, quotas)}
    rename_next = {item["cell"]: False for item in order}
    stream, sent = [], []
    for i, due in enumerate(dues):
        if i in firsts:
            item = order.pop()
            sent.append(item)
            stream.append({**item, "due": due, "resubmit": False,
                           "renamed": False})
            continue
        item = rng.choice([s for s in sent if quota[s["cell"]] > 0] or sent)
        quota[item["cell"]] -= 1
        body = dict(item["body"])
        renamed = "pair" not in body and rename_next[item["cell"]]
        rename_next[item["cell"]] = not rename_next[item["cell"]]
        if renamed:
            suffix = f"r{rng.randrange(16 ** 6):06x}"
            for key in ("source", "target"):
                if key in body:
                    body[key] = alpha_rename(body[key], suffix)
        stream.append({**item, "body": body, "due": due, "resubmit": True,
                       "renamed": renamed})
    return stream


def _post(port: int, body: dict) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("POST", "/v1/check", json.dumps(body),
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def _get(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


class Server:
    """One ``python -m repro.serve`` process and its worker pool."""

    def __init__(self, env: dict, cache_dir: str) -> None:
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--workers", "1", "--cache-dir", cache_dir],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env)
        line = self.proc.stdout.readline()
        self.ready = time.monotonic()
        if not line.startswith(READY_PREFIX):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    @property
    def setup_s(self) -> float:
        return self.ready - self.spawned

    def peak_rss_mb(self) -> float:
        """VmHWM of the server plus its worker processes."""
        pids = [self.proc.pid]
        try:
            with open(f"/proc/{self.proc.pid}/task/{self.proc.pid}/children"
                      ) as fh:
                pids += [int(p) for p in fh.read().split()]
        except OSError:
            pass
        total = 0.0
        for pid in pids:
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) / 1024
            except OSError:
                pass
        return total

    def stop(self) -> None:
        """SIGTERM, then wait for the drain; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def drive(port: int, stream: list[dict], references: list[float],
          work_cpu: int, own_cpu: int) -> tuple[list[dict], float]:
    """Send ``stream`` on schedule from threads on ``own_cpu``; returns one
    record per request and the generator's maximum lateness (seconds past
    due when a request left).  Idle gaps add reference times, taken on the
    server's ``work_cpu``, to ``references``."""
    todo: queue.Queue = queue.Queue()
    records: list[dict] = []
    lock = threading.Lock()
    free = threading.Semaphore(CONNECTIONS)
    late = [0.0]
    in_flight = [0]

    def connection() -> None:
        while True:
            item = todo.get()
            if item is None:
                return
            try:
                status, body = _post(port, item["body"])
            except (OSError, ValueError) as exc:
                status, body = None, {"error": str(exc)}
            done = time.monotonic()
            free.release()
            with lock:
                in_flight[0] -= 1
                records.append({"item": item, "status": status,
                                "body": body, "done": done})

    threads = [threading.Thread(target=connection, daemon=True)
               for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    start = time.monotonic()
    for item in stream:
        due = start + item["due"]
        sampled = False
        while (pause := due - time.monotonic()) > 0:
            with lock:
                idle = in_flight[0] == 0
            if idle and not sampled and pause > IDLE_GAP:
                calibrate.pin(work_cpu)
                references.append(calibrate.reference_s())
                calibrate.pin(own_cpu)
                sampled = True
            else:
                time.sleep(min(pause, POLL_S))
        free.acquire()
        now = time.monotonic()
        late[0] = max(late[0], now - due)
        with lock:
            in_flight[0] += 1
        todo.put({**item, "due_at": due})
    for _ in threads:
        todo.put(None)
    for t in threads:
        t.join(timeout=300)
    return records, late[0]


def run(env: dict, workdir: str, sources: dict, seed: int, seconds: float,
        setups: int = 7) -> dict:
    """Set the server up ``setups`` times, each on a fresh cache directory
    (the last one serves), run the stream, and return raw records, the
    reference times and the server's ``/v1/stats``."""
    stream = make_stream(pool(sources), seed, seconds)
    setup_times, references, server = [], [], None
    work_cpu, own_cpu = calibrate.cpus()
    try:
        for i in range(setups):
            if server is not None:
                server.stop()
            # The server and its worker inherit the work CPU.
            calibrate.pin(work_cpu)
            references.append(calibrate.reference_s())
            server = Server(env, os.path.join(workdir, f"cache{i}"))
            setup_times.append(server.setup_s)
        calibrate.pin(own_cpu)
        # Start the worker process and load its code before the clock: a
        # long-lived server pays that once.
        for item in warmup(sources):
            _post(server.port, item["body"])
        records, late = drive(server.port, stream, references, work_cpu,
                              own_cpu)
        server_stats = _get(server.port, "/v1/stats")
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    return {"records": records, "late": late, "setup": setup_times,
            "references": references, "stats": server_stats, "rss_mb": rss}
