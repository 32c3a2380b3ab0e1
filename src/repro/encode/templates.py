"""Cross-configuration VC templates: symexec once, specialize per cell.

The paper's two-thread abstraction (PAPER.md §IV) makes the expensive
front-end work — symbolic execution of the kernel body, conditional-
assignment extraction, and race-pair enumeration — a function of the
*kernel* and the *check kind* alone: the launch geometry (``bdim``/
``gdim``), the scalar parameters, and the configuration-suite assumptions
all enter the verification conditions as plain assertions appended
afterwards.  This module caches that front-end product, the **VC
template**, so a width ladder (w8/w16/w32) or a `configs.py` sweep pays
symexec once per (kernel, check kind, width) instead of once per cell,
and a long-lived ``repro.serve`` deployment pays it once per kernel
across tenants.

Soundness of reuse is an interning argument, not an approximation
argument: every checker runs inside :class:`~repro.smt.terms.fresh_scope`,
which restarts the fresh-name counter, so re-running symexec on the same
kernel mints byte-identical variable names and therefore — terms being
hash-consed — *the very same term objects* the template stored.  A
template hit returns exactly what a miss would have computed; verdicts
are bit-identical by construction, and the differential CI job
(``PUGPARA_TEMPLATES=0`` vs ``=1``) pins that.

Width cannot be held symbolic — it is baked into every bit-vector sort —
so the template key includes it; what the template *does* share is
everything downstream of the width choice: all `configs.py` cells, all
concretizations, all assumption suites, and repeat requests.

The store mirrors the query cache's two layers (:mod:`repro.smt.qcache`):
a per-process dict keyed by digest, and an optional sharded disk layer
(fcntl-locked, checksummed, atomically replaced) for sharing across
server workers.  Disk round-trips go through the qcache term codec, whose
decoder rebuilds via the raw interning constructor — a reloaded template
is re-interned into the live DAG and behaves exactly like a fresh one.

``PUGPARA_TEMPLATES=0`` disables the store process-wide.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any

from ..lang.pretty import pretty_kernel
from ..lang.typecheck import KernelInfo
from ..smt.qcache import (
    _entry_checksum, _flock, decode_terms, encode_terms, shard_prefix,
)
from ..smt.terms import Term

__all__ = [
    "TEMPLATE_FORMAT_TAG", "VCTemplate", "TemplateStore", "kernel_digest",
    "template_key", "templates_enabled", "default_template_store",
    "set_default_template_store", "resolve_template_store",
]

#: Bumped whenever the template payload shape or the term codec changes;
#: entries with another tag are treated as misses and rewritten.
TEMPLATE_FORMAT_TAG = "pugpara-vctpl-v2"


def templates_enabled() -> bool:
    """The ``PUGPARA_TEMPLATES`` kill switch (house style: 0/false/off/no)."""
    raw = os.environ.get("PUGPARA_TEMPLATES")
    if raw is None:
        return True
    return raw.strip().lower() not in ("0", "false", "off", "no")


def kernel_digest(info: KernelInfo) -> str:
    """A stable digest of one kernel's full source-level content.

    Keys off the pretty-printed AST (declarations, body, spec and
    postcondition lines all included), so textual noise — comments,
    whitespace — does not split templates, while any semantic edit does.
    """
    import hashlib
    return hashlib.sha256(pretty_kernel(info.kernel).encode()).hexdigest()


def template_key(info: KernelInfo, check: str, width: int) -> str:
    """The store key: kernel digest x check kind x machine word width."""
    return f"{kernel_digest(info)}-{check}-w{width}"


@dataclass
class VCTemplate:
    """One check's front-end product, ready to specialize.

    ``base`` is the assertion prefix shared by every VC of the check
    (geometry positivity plus the kernel's own assumptions); ``queries``
    is the ordered list of per-VC records — for the race checker,
    ``(kind, line_a, line_b, array, terms)`` tuples whose ``terms`` are
    conjoined after the base and the per-cell assumptions.  Order is part
    of the contract: checkers consume results in generation order, so the
    template must replay the exact sequence a fresh run would generate.

    ``witness_bids`` runs parallel to ``queries``: the race checker's
    ``[t1.bid.x, t1.bid.y, t2.bid.x, t2.bid.y]`` for each query, read
    from a model to replay only the witness threads' blocks.

    ``unsupported`` caches a front-end rejection (:class:`EncodingError`
    text): re-checking an unsupported kernel then skips symexec too and
    reproduces the same UNSUPPORTED reason verbatim.
    """
    check: str
    width: int
    base: list[Term] = field(default_factory=list)
    queries: list[tuple[str, int, int, str, list[Term]]] = \
        field(default_factory=list)
    witness_bids: list[list[Term]] = field(default_factory=list)
    unsupported: str | None = None

    def to_blob(self) -> dict:
        """Serialize for the disk layer (one flat term table, split by
        per-root counts on the way back in)."""
        roots: list[Term] = list(self.base)
        qmeta: list[list[Any]] = []
        for kind, la, lb, array, terms in self.queries:
            qmeta.append([kind, la, lb, array, len(terms)])
            roots.extend(terms)
        for bids in self.witness_bids:
            roots.extend(bids)
        return {
            "format": TEMPLATE_FORMAT_TAG,
            "check": self.check,
            "width": self.width,
            "n_base": len(self.base),
            "queries": qmeta,
            "witness": [len(bids) for bids in self.witness_bids],
            "terms": encode_terms(roots),
            "unsupported": self.unsupported,
        }

    @classmethod
    def from_blob(cls, blob: dict) -> "VCTemplate":
        terms = decode_terms(blob["terms"])
        n_base = blob["n_base"]
        base, rest = terms[:n_base], terms[n_base:]
        queries: list[tuple[str, int, int, str, list[Term]]] = []
        pos = 0
        for kind, la, lb, array, n in blob["queries"]:
            queries.append((kind, la, lb, array, rest[pos:pos + n]))
            pos += n
        witness_bids: list[list[Term]] = []
        for n in blob["witness"]:
            witness_bids.append(rest[pos:pos + n])
            pos += n
        return cls(check=blob["check"], width=blob["width"], base=base,
                   queries=queries, witness_bids=witness_bids,
                   unsupported=blob.get("unsupported"))


class TemplateStore:
    """Two-layer VC template cache (memory dict + sharded disk).

    The memory layer holds live :class:`VCTemplate` objects — their terms
    are interned, so a hit hands back the same nodes the encoder would
    rebuild.  The disk layer (enabled by ``disk_dir``) shares templates
    between server workers through the same shard/lock/checksum protocol
    as the query cache; corrupt or foreign-format entries quarantine to
    ``<entry>.corrupt`` and read as misses.
    """

    def __init__(self, disk_dir: str | None = None,
                 maxsize: int = 256) -> None:
        self.disk_dir = disk_dir
        self.maxsize = maxsize
        self._mem: dict[str, VCTemplate] = {}
        self.stats = {"hits": 0, "misses": 0, "disk_hits": 0, "stores": 0,
                      "quarantined": 0}
        if disk_dir:
            os.makedirs(disk_dir, exist_ok=True)

    # ----------------------------------------------------------- layout

    def _entry_path(self, key: str) -> str:
        assert self.disk_dir is not None
        return os.path.join(self.disk_dir, shard_prefix(key),
                            key + ".json")

    # ----------------------------------------------------------- lookup

    def lookup(self, key: str) -> VCTemplate | None:
        tpl = self._mem.get(key)
        if tpl is not None:
            self.stats["hits"] += 1
            return tpl
        if self.disk_dir:
            tpl = self._disk_lookup(key)
            if tpl is not None:
                self.stats["disk_hits"] += 1
                self._remember(key, tpl)
                return tpl
        self.stats["misses"] += 1
        return None

    def _disk_lookup(self, key: str) -> VCTemplate | None:
        path = self._entry_path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._quarantine(path)
            return None
        blob = payload.get("entry") if isinstance(payload, dict) else None
        if (not isinstance(blob, dict)
                or blob.get("format") != TEMPLATE_FORMAT_TAG
                or payload.get("checksum") != _entry_checksum(blob)):
            self._quarantine(path)
            return None
        try:
            return VCTemplate.from_blob(blob)
        except (KeyError, IndexError, TypeError, ValueError):
            self._quarantine(path)
            return None

    def _quarantine(self, path: str) -> None:
        """Set a damaged entry aside (never deleted — it is evidence)."""
        try:
            os.replace(path, path + ".corrupt")
            self.stats["quarantined"] += 1
        except OSError:
            pass

    # ------------------------------------------------------------ store

    def store(self, key: str, template: VCTemplate) -> None:
        self.stats["stores"] += 1
        self._remember(key, template)
        if self.disk_dir:
            self._disk_store(key, template)

    def _remember(self, key: str, template: VCTemplate) -> None:
        if len(self._mem) >= self.maxsize and key not in self._mem:
            # Templates are few and long-lived; a full reset on overflow
            # is simpler than LRU bookkeeping and never observed in
            # practice (a suite touches tens of keys, not hundreds).
            self._mem.clear()
        self._mem[key] = template

    def _disk_store(self, key: str, template: VCTemplate) -> None:
        path = self._entry_path(key)
        shard = os.path.dirname(path)
        try:
            os.makedirs(shard, exist_ok=True)
            blob = template.to_blob()
            payload = {"checksum": _entry_checksum(blob), "entry": blob}
            data = json.dumps(payload)
            with _flock(os.path.join(shard, ".lock")):
                fd, tmp = tempfile.mkstemp(dir=shard, suffix=".tmp")
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as fh:
                        fh.write(data)
                    os.replace(tmp, path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
        except OSError:
            pass  # disk layer is best-effort; memory layer already has it

    def clear(self) -> None:
        self._mem.clear()


_default_store: TemplateStore | None = None


def default_template_store() -> TemplateStore:
    """The process-wide store (created on first use, memory-only unless
    ``PUGPARA_TEMPLATE_DIR`` names a disk directory)."""
    global _default_store
    if _default_store is None:
        _default_store = TemplateStore(
            disk_dir=os.environ.get("PUGPARA_TEMPLATE_DIR") or None)
    return _default_store


def set_default_template_store(store: TemplateStore | None) -> None:
    """Install (or reset, with ``None``) the process default.  The serve
    worker initializer points this at ``<cache_dir>/templates`` so all
    workers of one server share front-end work through the shard locks."""
    global _default_store
    _default_store = store


def resolve_template_store() -> TemplateStore | None:
    """The store checkers should consult: the default store, or ``None``
    when the ``PUGPARA_TEMPLATES`` kill switch is thrown."""
    if not templates_enabled():
        return None
    return default_template_store()
