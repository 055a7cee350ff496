"""Client-side data anonymization (§6).

The paper flags the privacy cost of shipping data values from user
endpoints: "We plan to investigate ways to quantify and anonymize the
amount of information Gist ships from production runs."  This module
implements that future-work item as a client-side *value policy* applied to
the watchpoint trap log before a :class:`MonitoredRun` leaves the endpoint.

Three policies:

- ``RAW`` — ship exact values (data-center deployments, where "all the data
  that programs operate on is already within the data center").
- ``BUCKET`` — replace each value with a coarse, *deterministic* bucket
  (sign + magnitude class).  Deterministic matters: the same value buckets
  identically on every endpoint, so predictor statistics still aggregate
  across the fleet; only precision of the reported value is lost.
- ``HASH`` — replace each value with a salted, truncated hash.  Equality is
  preserved per deployment salt (so ``value == X`` predictors still
  correlate), but magnitude, sign, and orderings are destroyed and the
  original value cannot be recovered without the salt.

Zero keeps a distinguished bucket/hash in every policy: NULL-ness is the
single most diagnostic value property (Fig. 7's ``urls->current == 0``),
and anonymizing it away would gut sequential-bug diagnosis.
"""

from __future__ import annotations

import enum
import hashlib

from ..hw.watchpoints import TrapRecord
from .predictors import extract_range_predictors, extract_value_predictors
from .refinement import MonitoredRun


class ValuePolicy(enum.Enum):
    """How trap values are transformed before leaving an endpoint."""
    RAW = "raw"
    BUCKET = "bucket"
    HASH = "hash"


#: Magnitude class boundaries for the BUCKET policy.
_BUCKETS = (1, 10, 100, 1_000, 1_000_000)


def bucket_value(value: int) -> int:
    """Deterministic coarse bucket: 0 stays 0; otherwise sign * class.

    Classes: 1 → |v| < 10, 2 → |v| < 100, 3 → |v| < 1000,
    4 → |v| < 1e6, 5 → larger.
    """
    if value == 0:
        return 0
    magnitude = abs(value)
    for i, bound in enumerate(_BUCKETS[1:], start=1):
        if magnitude < bound:
            cls = i
            break
    else:
        cls = len(_BUCKETS)
    return cls if value > 0 else -cls


def hash_value(value: int, salt: bytes) -> int:
    """Salted 31-bit hash; 0 maps to 0 (NULL-ness survives)."""
    if value == 0:
        return 0
    digest = hashlib.sha256(salt + value.to_bytes(16, "little",
                                                  signed=True)).digest()
    hashed = int.from_bytes(digest[:4], "little") & 0x7FFFFFFF
    return hashed or 1  # never collide with the distinguished zero


class Anonymizer:
    """Applies a value policy to outbound monitored runs."""

    def __init__(self, policy: ValuePolicy = ValuePolicy.RAW,
                 salt: bytes = b"gist-deployment") -> None:
        self.policy = policy
        self.salt = salt

    def anonymize_value(self, value: int) -> int:
        if self.policy is ValuePolicy.RAW:
            return value
        if self.policy is ValuePolicy.BUCKET:
            return bucket_value(value)
        return hash_value(value, self.salt)

    def anonymize_trap(self, trap: TrapRecord) -> TrapRecord:
        new_value = self.anonymize_value(trap.value)
        if new_value == trap.value:
            return trap
        return TrapRecord(seq=trap.seq, tid=trap.tid, pc=trap.pc,
                          address=trap.address, is_write=trap.is_write,
                          value=new_value, slot=trap.slot)

    def anonymize_run(self, run: MonitoredRun) -> MonitoredRun:
        """A copy of ``run`` with its trap values transformed.

        Control flow, ordering (sequence numbers), addresses-as-grouping,
        and the failure report are untouched: the paper's concurrency
        diagnosis needs orders, not raw payloads.  The value-derived
        predictors (``value``, and ``vrange`` when the run has any) are
        re-derived from the anonymized traps, so no predictor computed
        from a raw value leaves the endpoint; branch and order predictors
        carry over unchanged.
        """
        if self.policy is ValuePolicy.RAW:
            return run
        out = MonitoredRun(
            run_id=run.run_id,
            endpoint_id=run.endpoint_id,
            failed=run.failed,
            failure=run.failure,
            executed={tid: list(seq) for tid, seq in run.executed.items()},
            traps=[self.anonymize_trap(t) for t in run.traps],
            overhead=run.overhead,
            trace_bytes=run.trace_bytes,
            cohort=run.cohort,
        )
        predictors = {p for p in run.predictors
                      if p.kind not in ("value", "vrange")}
        predictors |= extract_value_predictors(out)
        if any(p.kind == "vrange" for p in run.predictors):
            predictors |= extract_range_predictors(out)
        out.predictors = frozenset(predictors)
        return out


def information_shipped(run: MonitoredRun) -> int:
    """A crude §6-style quantification: bits of value payload in the run.

    Counts distinct (pc, value) pairs times a 64-bit value width; policies
    reduce it by collapsing values into buckets/hash classes.
    """
    distinct = {(t.pc, t.value) for t in run.traps}
    return 64 * len(distinct)
