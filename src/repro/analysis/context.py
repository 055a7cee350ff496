"""Shared, content-addressed store for static analysis artifacts.

Gist's server side (paper §3.1, Fig. 2) is dominated by static machinery —
CFGs, dominator/postdominator trees, reaching definitions, the call graph,
the ICFG/TICFG, and backward slices.  Historically every consumer
(:class:`~repro.analysis.slicing.BackwardSlicer`,
:class:`~repro.instrument.planner.InstrumentationPlanner`, each
:class:`~repro.core.server.DiagnosisCampaign`) rebuilt its own copies.
An :class:`AnalysisContext` centralizes them:

- **Memoized, immutable accessors** — ``cfg(func)``, ``domtree(func)``,
  ``postdomtree(func)``, ``reaching_defs(func)``, ``callgraph()``,
  ``icfg()``/``ticfg()``, ``slice_from(pc)`` — each artifact is built at
  most once per module content and shared by every consumer holding the
  context.
- **Content addressing** — artifacts are keyed by a stable fingerprint of
  the function (or module) they were derived from.  Re-finalizing a module
  after editing a function body invalidates exactly the stale artifacts
  (uids shift conservatively evict downstream functions too) while
  untouched ones survive.
- **Counters** — cache hits, misses, evictions, and disk hits per artifact
  kind (:class:`CacheStats`), so tests can assert that a repeated diagnosis
  performs zero redundant analysis.
- **Optional on-disk cache** — ``cache_dir`` persists a pickle of the
  *rebindable* artifact data (label maps, uid maps, slice depth dicts — no
  live IR objects), keyed by the module fingerprint, so repeated CLI or
  benchmark invocations skip cold analysis entirely.

The context is safe to share across threads: the concurrent fleet loop in
:mod:`repro.core.cooperative` keeps campaign mutation on the server thread,
but a re-entrant lock guards artifact construction anyway so future
multi-campaign sharding can lean on it.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..lang.ir import Function, Instr, Module, Opcode
from .callgraph import CallGraph, CallSite, build_callgraph
from .cfg import FunctionCFG, build_cfg
from .dataflow import ReachingDefs, compute_reaching_defs
from .domtree import DomTree, build_domtree, build_postdomtree
from .icfg import ICFG, build_icfg, build_ticfg

_DISK_VERSION = 1


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def fingerprint_function(func: Function) -> str:
    """Stable content fingerprint of one function.

    Includes instruction uids: uid-keyed artifacts (reaching definitions,
    slices, the ICFG) are only reusable when uids did not shift, so a shift
    must read as a content change.
    """
    h = hashlib.sha256()
    h.update(func.name.encode())
    h.update(("(" + ",".join(func.params) + ")").encode())
    for bb in func:
        h.update(("\n" + bb.label + ":").encode())
        for ins in bb.instrs:
            h.update(f"\n{ins.uid}|{ins.line}|{ins.format()}".encode())
    return h.hexdigest()


def fingerprint_module(module: Module,
                       func_prints: Optional[Dict[str, str]] = None) -> str:
    """Stable content fingerprint of a whole module (name-independent)."""
    if func_prints is None:
        func_prints = {name: fingerprint_function(f)
                       for name, f in module.functions.items()}
    h = hashlib.sha256()
    for g in module.globals.values():
        h.update(f"@{g.name}[{g.size}]={list(g.init)}".encode())
    for i, s in enumerate(module.strings):
        h.update(f"str#{i}={s!r}".encode())
    for name in module.functions:
        h.update(func_prints[name].encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting, total and per artifact kind."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    by_kind: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def record(self, kind: str, event: str, count: int = 1) -> None:
        setattr(self, event, getattr(self, event) + count)
        slot = self.by_kind.setdefault(
            kind, {"hits": 0, "misses": 0, "evictions": 0, "disk_hits": 0})
        slot[event] += count

    @property
    def hit_rate(self) -> float:
        served = self.hits + self.disk_hits
        total = served + self.misses
        return served / total if total else 0.0

    def builds(self, kind: str) -> int:
        """How many times artifacts of ``kind`` were actually computed."""
        return self.by_kind.get(kind, {}).get("misses", 0)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "hit_rate": self.hit_rate,
            "by_kind": {k: dict(v) for k, v in self.by_kind.items()},
        }


# ---------------------------------------------------------------------------
# The context
# ---------------------------------------------------------------------------


class AnalysisContext:
    """Memoized analysis artifacts for one module (see module docstring)."""

    def __init__(self, module: Module,
                 cache_dir: Optional[os.PathLike] = None) -> None:
        if not module.finalized:
            raise ValueError("module must be finalized")
        self.module = module
        self.stats = CacheStats()
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._lock = threading.RLock()
        self._epoch = module.analysis_epoch
        self._func_prints: Dict[str, str] = {
            name: fingerprint_function(f)
            for name, f in module.functions.items()}
        self._module_print = fingerprint_module(module, self._func_prints)
        #: (kind, func_name) -> artifact
        self._func_artifacts: Dict[Tuple[str, str], Any] = {}
        #: kind -> artifact
        self._module_artifacts: Dict[str, Any] = {}
        #: (failing_uid, include_control_deps, use_must_alias) -> slice
        self._slices: Dict[Tuple[int, bool, bool], Any] = {}
        self._slicers: Dict[bool, Any] = {}
        self._planner: Any = None
        self._disk: Optional[Dict[str, Any]] = None
        if self.cache_dir is not None:
            self._load_disk()

    # -- fingerprints --------------------------------------------------------

    @property
    def module_fingerprint(self) -> str:
        with self._lock:
            self._validate()
            return self._module_print

    def function_fingerprint(self, func: str) -> str:
        with self._lock:
            self._validate()
            return self._func_prints[func]

    # -- staleness / invalidation -------------------------------------------

    def _validate(self) -> None:
        """Cheap staleness probe: re-fingerprint only after a re-finalize,
        and evict exactly the artifacts whose inputs changed."""
        if self.module.analysis_epoch == self._epoch:
            return
        old_prints = self._func_prints
        self._func_prints = {
            name: fingerprint_function(f)
            for name, f in self.module.functions.items()}
        for (kind, func) in list(self._func_artifacts):
            if self._func_prints.get(func) != old_prints.get(func):
                del self._func_artifacts[(kind, func)]
                self.stats.record(kind, "evictions")
        new_print = fingerprint_module(self.module, self._func_prints)
        if new_print != self._module_print:
            for kind in list(self._module_artifacts):
                del self._module_artifacts[kind]
                self.stats.record(kind, "evictions")
            if self._slices:
                self.stats.record("slice", "evictions", len(self._slices))
                self._slices.clear()
            self._module_print = new_print
            self._disk = None
            if self.cache_dir is not None:
                self._load_disk()
        self._epoch = self.module.analysis_epoch

    def clear(self) -> None:
        """Drop every cached artifact (counted as evictions)."""
        with self._lock:
            for (kind, _func) in self._func_artifacts:
                self.stats.record(kind, "evictions")
            for kind in self._module_artifacts:
                self.stats.record(kind, "evictions")
            if self._slices:
                self.stats.record("slice", "evictions", len(self._slices))
            self._func_artifacts.clear()
            self._module_artifacts.clear()
            self._slices.clear()

    # -- generic memoization -------------------------------------------------

    def _func_artifact(self, kind: str, func: str,
                       build: Callable[[], Any]) -> Any:
        with self._lock:
            self._validate()
            key = (kind, func)
            cached = self._func_artifacts.get(key)
            if cached is not None:
                self.stats.record(kind, "hits")
                return cached
            art = self._decode_disk_func(kind, func)
            if art is not None:
                self.stats.record(kind, "disk_hits")
            else:
                self.stats.record(kind, "misses")
                art = build()
            self._func_artifacts[key] = art
            return art

    def _module_artifact(self, kind: str, build: Callable[[], Any]) -> Any:
        with self._lock:
            self._validate()
            cached = self._module_artifacts.get(kind)
            if cached is not None:
                self.stats.record(kind, "hits")
                return cached
            art = self._decode_disk_module(kind)
            if art is not None:
                self.stats.record(kind, "disk_hits")
            else:
                self.stats.record(kind, "misses")
                art = build()
            self._module_artifacts[kind] = art
            return art

    # -- per-function artifacts ----------------------------------------------

    def cfg(self, func: str) -> FunctionCFG:
        return self._func_artifact(
            "cfg", func, lambda: build_cfg(self.module.functions[func]))

    def domtree(self, func: str) -> DomTree:
        return self._func_artifact(
            "domtree", func, lambda: build_domtree(self.cfg(func)))

    def postdomtree(self, func: str) -> DomTree:
        return self._func_artifact(
            "postdomtree", func, lambda: build_postdomtree(self.cfg(func)))

    def reaching_defs(self, func: str) -> ReachingDefs:
        return self._func_artifact(
            "reaching_defs", func,
            lambda: compute_reaching_defs(self.module.functions[func],
                                          self.cfg(func)))

    def stores_in(self, func: str) -> List[Instr]:
        """All STORE instructions of one function (slicer helper)."""
        return self._func_artifact(
            "stores", func,
            lambda: [ins for ins
                     in self.module.functions[func].instructions()
                     if ins.opcode == Opcode.STORE])

    # -- module-level artifacts ----------------------------------------------

    def callgraph(self) -> CallGraph:
        return self._module_artifact(
            "callgraph", lambda: build_callgraph(self.module))

    def icfg(self) -> ICFG:
        return self._module_artifact("icfg", lambda: build_icfg(self.module))

    def ticfg(self) -> ICFG:
        return self._module_artifact("ticfg",
                                     lambda: build_ticfg(self.module))

    def store_symbols(self) -> List[Tuple[Instr, Tuple]]:
        """Every STORE with a resolvable symbolic location (module-wide),
        the must-alias index the slicer links loads against."""
        def build() -> List[Tuple[Instr, Tuple]]:
            slicer = self.slicer()
            out: List[Tuple[Instr, Tuple]] = []
            for ins in self.module.instructions():
                if ins.opcode == Opcode.STORE:
                    sym = slicer.access_symbol(ins)
                    if sym is not None:
                        out.append((ins, sym))
            return out
        return self._module_artifact("store_symbols", build)

    # -- consumers ------------------------------------------------------------

    def slicer(self, use_must_alias: bool = True):
        """The shared :class:`BackwardSlicer` bound to this context."""
        from .slicing import BackwardSlicer

        with self._lock:
            if use_must_alias not in self._slicers:
                self._slicers[use_must_alias] = BackwardSlicer(
                    self.module, use_must_alias=use_must_alias, context=self)
            return self._slicers[use_must_alias]

    def planner(self):
        """The shared :class:`InstrumentationPlanner` for this context."""
        from ..instrument.planner import InstrumentationPlanner

        with self._lock:
            if self._planner is None:
                self._planner = InstrumentationPlanner(
                    self.module, slicer=self.slicer(), context=self)
            return self._planner

    def slice_from(self, failing_uid: int,
                   include_control_deps: bool = True,
                   use_must_alias: bool = True):
        """Memoized backward slice from ``failing_uid``."""
        from .slicing import StaticSlice

        with self._lock:
            self._validate()
            key = (failing_uid, include_control_deps, use_must_alias)
            cached = self._slices.get(key)
            if cached is not None:
                self.stats.record("slice", "hits")
                return cached
            depth = None
            if self._disk is not None:
                depth = self._disk.get("slices", {}).get(key)
            if depth is not None:
                self.stats.record("slice", "disk_hits")
                slice_ = StaticSlice(module=self.module,
                                     failing_uid=failing_uid,
                                     depth=dict(depth))
            else:
                self.stats.record("slice", "misses")
                slice_ = self.slicer(use_must_alias).slice_from(
                    failing_uid, include_control_deps)
            self._slices[key] = slice_
            return slice_

    def cached_slice_uids(self) -> Tuple[int, ...]:
        """Failing uids with a memoized slice, in first-request order."""
        with self._lock:
            return tuple(dict.fromkeys(k[0] for k in self._slices))

    # -- on-disk cache ---------------------------------------------------------

    def _disk_path(self) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"gist-analysis-{self._module_print}.pkl"

    def _load_disk(self) -> None:
        path = self._disk_path()
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except Exception:
            return  # a corrupt or alien cache file is just a cold start
        if not isinstance(payload, dict) or \
                payload.get("version") != _DISK_VERSION or \
                payload.get("fingerprint") != self._module_print:
            return
        self._disk = payload

    def save(self) -> Optional[Path]:
        """Persist every currently materialized artifact; returns the cache
        file path, or None when no ``cache_dir`` was configured."""
        if self.cache_dir is None:
            return None
        with self._lock:
            self._validate()
            payload: Dict[str, Any] = {
                "version": _DISK_VERSION,
                "fingerprint": self._module_print,
                "func": {}, "module": {},
                "slices": {key: dict(s.depth)
                           for key, s in self._slices.items()},
            }
            # Fold previously loaded disk entries back in so repeated runs
            # only ever grow the cache.
            if self._disk is not None:
                for section in ("func", "module", "slices"):
                    payload[section].update(self._disk.get(section, {}))
                payload["slices"].update(
                    {key: dict(s.depth) for key, s in self._slices.items()})
            for (kind, func), art in self._func_artifacts.items():
                data = _encode_func_artifact(kind, art)
                if data is not None:
                    payload["func"][(kind, func)] = data
            for kind, art in self._module_artifacts.items():
                data = _encode_module_artifact(kind, art)
                if data is not None:
                    payload["module"][kind] = data
            # The disk cache is an optimization: an unwritable cache_dir
            # must not lose the analysis results it was meant to speed up.
            try:
                self.cache_dir.mkdir(parents=True, exist_ok=True)
                path = self._disk_path()
                tmp = path.with_suffix(".tmp")
                with open(tmp, "wb") as handle:
                    pickle.dump(payload, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except OSError:
                return None
            self._disk = payload
            return path

    def _decode_disk_func(self, kind: str, func: str) -> Any:
        if self._disk is None:
            return None
        data = self._disk.get("func", {}).get((kind, func))
        if data is None:
            return None
        return _decode_func_artifact(self, kind, func, data)

    def _decode_disk_module(self, kind: str) -> Any:
        if self._disk is None:
            return None
        data = self._disk.get("module", {}).get(kind)
        if data is None:
            return None
        return _decode_module_artifact(self, kind, data)


# ---------------------------------------------------------------------------
# Disk codecs: artifacts <-> rebindable plain data
# ---------------------------------------------------------------------------
# Live artifacts reference IR objects (Function, Instr); pickling those
# would duplicate the whole module and produce objects distinct from the
# consuming process's module.  Instead only label/uid-level data is stored
# and decoded against the *current* module — sound because the payload is
# keyed by the exact content fingerprint (uids included).


def _encode_func_artifact(kind: str, art: Any) -> Any:
    if kind == "cfg":
        return {"preds": {k: list(v) for k, v in art.preds.items()},
                "succs": {k: list(v) for k, v in art.succs.items()}}
    if kind in ("domtree", "postdomtree"):
        return {"idom": dict(art.idom), "root": art.root}
    if kind == "reaching_defs":
        return {"reach_in": dict(art.reach_in),
                "by_register": {k: set(v)
                                for k, v in art.by_register.items()}}
    if kind == "stores":
        return [ins.uid for ins in art]
    return None


def _decode_func_artifact(ctx: AnalysisContext, kind: str, func: str,
                          data: Any) -> Any:
    if kind == "cfg":
        return FunctionCFG(function=ctx.module.functions[func],
                           preds={k: list(v)
                                  for k, v in data["preds"].items()},
                           succs={k: list(v)
                                  for k, v in data["succs"].items()})
    if kind in ("domtree", "postdomtree"):
        return DomTree(dict(data["idom"]), data["root"])
    if kind == "reaching_defs":
        return ReachingDefs(reach_in=dict(data["reach_in"]),
                            by_register={k: set(v)
                                         for k, v in
                                         data["by_register"].items()})
    if kind == "stores":
        return [ctx.module.instr(uid) for uid in data]
    return None


def _encode_module_artifact(kind: str, art: Any) -> Any:
    if kind == "callgraph":
        return {"callees": {k: sorted(v) for k, v in art.callees.items()},
                "callers": {k: sorted(v) for k, v in art.callers.items()},
                "call_sites": [(cs.caller, cs.instr.uid, cs.callee,
                                cs.is_spawn) for cs in art.call_sites]}
    if kind in ("icfg", "ticfg"):
        return {"succs": {k: list(v) for k, v in art.succs.items()},
                "preds": {k: list(v) for k, v in art.preds.items()},
                "has_thread_edges": art.has_thread_edges}
    if kind == "store_symbols":
        return [(ins.uid, sym) for ins, sym in art]
    return None


def _decode_module_artifact(ctx: AnalysisContext, kind: str,
                            data: Any) -> Any:
    if kind == "callgraph":
        return CallGraph(
            module=ctx.module,
            callees={k: set(v) for k, v in data["callees"].items()},
            callers={k: set(v) for k, v in data["callers"].items()},
            call_sites=[CallSite(caller, ctx.module.instr(uid), callee,
                                 is_spawn)
                        for caller, uid, callee, is_spawn
                        in data["call_sites"]])
    if kind in ("icfg", "ticfg"):
        return ICFG(module=ctx.module,
                    has_thread_edges=data["has_thread_edges"],
                    succs={k: [tuple(e) for e in v]
                           for k, v in data["succs"].items()},
                    preds={k: [tuple(e) for e in v]
                           for k, v in data["preds"].items()})
    if kind == "store_symbols":
        return [(ctx.module.instr(uid), sym) for uid, sym in data]
    return None
