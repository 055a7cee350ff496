"""Failure predictor extraction (§3.3).

A failure predictor is "a predicate that, when true, predicts that a failure
will occur".  Gist extracts three families from each monitored run and later
correlates them with run outcomes:

- **Branch predictors** — a conditional branch in the tracked region taking
  a particular direction (sequential bugs, e.g. Curl's unbalanced-brace
  loop).  These are the PT decoder's TNT facts
  (:attr:`repro.pt.decoder.DecodedTrace.branches`), taken as they are.
- **Value predictors** — a tracked memory location holding a particular
  value at a particular statement (e.g. ``urls->current == 0``,
  ``obj->refcnt == 0``).
- **Concurrency-pattern predictors** — the single-variable atomicity
  violation patterns RWR / WWR / RWW / WRW and the data-race / order
  patterns WW / WR / RW (Fig. 5), matched over the *globally ordered*
  watchpoint access log, per address.

Predictor identity is structural (instruction uids + pattern shape), never
raw addresses, so the same predictor matches across runs whose heap layout
differs — this is what lets statistics accumulate across a fleet of
endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from .refinement import MonitoredRun

ATOMICITY_PATTERNS = ("RWR", "WWR", "RWW", "WRW")
RACE_PATTERNS = ("WW", "WR", "RW")


@dataclass(frozen=True)
class Predictor:
    """One failure predictor.

    ``kind`` ∈ {"branch", "value", "order"}; ``detail`` is the
    kind-specific identity:

    - branch: ``(branch_uid, taken)``
    - value:  ``(access_uid, value)``
    - order:  ``(pattern, (uid1, uid2[, uid3]))``
    """

    kind: str
    detail: Tuple

    def describe(self, module=None) -> str:
        if self.kind == "branch":
            uid, taken = self.detail
            arm = "taken" if taken else "not taken"
            where = _where(module, uid)
            return f"branch@{uid}{where} {arm}"
        if self.kind == "value":
            uid, value = self.detail
            where = _where(module, uid)
            return f"value@{uid}{where} == {value}"
        if self.kind == "vrange":
            uid, relation = self.detail
            where = _where(module, uid)
            return f"value@{uid}{where} {relation}"
        pattern, uids = self.detail
        chain = " -> ".join(str(u) for u in uids)
        return f"{pattern}({chain})"


def _where(module, uid: int) -> str:
    if module is None:
        return ""
    ins = module.instr(uid)
    return f" ({ins.func_name}:{ins.line})"


# ---------------------------------------------------------------------------
# Wire form
# ---------------------------------------------------------------------------
# Predictor identity is pure structure (strings, ints, bools, nested
# tuples), so it maps onto JSON directly: tuples become lists on the way
# out and come back as tuples.  The set form is *canonical* — sorted by
# kind then detail — so equal predictor sets always encode to identical
# bytes, preserving the wire layer's content-digest idempotency.


def _detail_to_jsonable(value):
    if isinstance(value, tuple):
        return [_detail_to_jsonable(v) for v in value]
    return value


def _detail_from_jsonable(value):
    if isinstance(value, list):
        return tuple(_detail_from_jsonable(v) for v in value)
    return value


def predictor_sort_key(predictor: "Predictor") -> Tuple[str, str]:
    """Deterministic total order over predictors (for canonical encoding)."""
    return (predictor.kind, repr(predictor.detail))


def predictors_to_body(predictors) -> List[List]:
    """Canonical JSON body of a predictor set: sorted [kind, detail] pairs."""
    ordered = sorted(predictors, key=predictor_sort_key)
    return [[p.kind, _detail_to_jsonable(p.detail)] for p in ordered]


def predictors_from_body(body: List[List]) -> frozenset:
    """Decode :func:`predictors_to_body` output back into a frozenset.

    Raises ``ValueError`` on malformed entries (the wire layer converts
    that into its own :class:`~repro.fleet.wire.WireError`).
    """
    out = set()
    for entry in body:
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[0], str)
                and isinstance(entry[1], list)):
            raise ValueError("malformed predictor entry")
        out.add(Predictor(entry[0], _detail_from_jsonable(entry[1])))
    return frozenset(out)


def predictor_counts_to_body(counts: Dict["Predictor", int]) -> List[List]:
    """Canonical JSON body of a predictor→count map: sorted
    ``[kind, detail, count]`` triples — how a shard's partial ranker
    counts travel over the wire for cross-shard merging."""
    ordered = sorted(counts, key=predictor_sort_key)
    return [[p.kind, _detail_to_jsonable(p.detail), counts[p]]
            for p in ordered]


def predictor_counts_from_body(body: List[List]) -> Dict["Predictor", int]:
    """Decode :func:`predictor_counts_to_body` output.  Raises
    ``ValueError`` on malformed entries."""
    out: Dict[Predictor, int] = {}
    for entry in body:
        if not (isinstance(entry, list) and len(entry) == 3
                and isinstance(entry[0], str)
                and isinstance(entry[1], list)
                and isinstance(entry[2], int)
                and not isinstance(entry[2], bool)):
            raise ValueError("malformed predictor count entry")
        out[Predictor(entry[0], _detail_from_jsonable(entry[1]))] = entry[2]
    return out


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def extract_value_predictors(run: MonitoredRun) -> Set[Predictor]:
    """(access_uid, value) facts from watchpoint traps."""
    return {Predictor("value", (trap.pc, trap.value))
            for trap in run.traps}


#: Derived relations for extended value predicates (§6: "we plan to track
#: range and inequality predicates in Gist").  Each maps a value to a
#: boolean; a predictor is emitted only for relations that hold.
VALUE_RELATIONS: Tuple[Tuple[str, object], ...] = (
    ("== 0", lambda v: v == 0),
    ("< 0", lambda v: v < 0),
    ("> 0", lambda v: v > 0),
    ("odd", lambda v: v % 2 == 1),
    ("even", lambda v: v % 2 == 0),
)


def extract_range_predictors(run: MonitoredRun) -> Set[Predictor]:
    """Inequality/range predicates over tracked values (§6 future work).

    Where plain value predictors need the exact failing value to recur
    (``refcnt == 0``), range predicates generalize across runs whose values
    differ but share the failure-relevant property (``version is odd``,
    ``len < 0``).  Identity: ``("vrange", (uid, relation))``.
    """
    out: Set[Predictor] = set()
    for trap in run.traps:
        for name, holds in VALUE_RELATIONS:
            if holds(trap.value):
                out.add(Predictor("vrange", (trap.pc, name)))
    return out


def extract_order_predictors(run: MonitoredRun) -> Set[Predictor]:
    """Concurrency patterns from the per-address global access order.

    For every watched address, consecutive access pairs from different
    threads yield WW/WR/RW race patterns; consecutive triples whose outer
    accesses share a thread and whose middle access comes from another
    thread yield the four atomicity-violation patterns (Fig. 5/6).
    """
    out: Set[Predictor] = set()
    by_addr: Dict[int, List] = {}
    for trap in sorted(run.traps, key=lambda t: t.seq):
        by_addr.setdefault(trap.address, []).append(trap)
    for accesses in by_addr.values():
        for a, b in zip(accesses, accesses[1:]):
            if a.tid != b.tid:
                pattern = _letter(a) + _letter(b)
                if pattern in RACE_PATTERNS:  # RR is not a race
                    out.add(Predictor("order", (pattern, (a.pc, b.pc))))
        for a, b, c in zip(accesses, accesses[1:], accesses[2:]):
            if a.tid == c.tid and a.tid != b.tid:
                pattern = _letter(a) + _letter(b) + _letter(c)
                if pattern in ATOMICITY_PATTERNS:
                    out.add(Predictor("order", (pattern, (a.pc, b.pc, c.pc))))
    return out


def _letter(trap) -> str:
    return "W" if trap.is_write else "R"


def extract_all(run: MonitoredRun, branches: Iterable[Tuple[int, bool]],
                extended: bool = False) -> Set[Predictor]:
    """Every predictor present in one run: ``branches`` — the PT decoder's
    ``(branch uid, taken)`` facts for the run's threads — plus the
    predictors of ``run``'s traps.

    ``extended`` additionally emits the §6 range/inequality predicates.
    """
    out = {Predictor("branch", fact) for fact in branches}
    out |= extract_value_predictors(run)
    out |= extract_order_predictors(run)
    if extended:
        out |= extract_range_predictors(run)
    return out
