"""The failure-class detection subsystem.

Gist's event streams already carry everything several *more* failure
classes need — this package turns them into first-class detectors that
plug into the interpreter's :class:`~repro.runtime.events.Tracer`
subscriber machinery:

- :mod:`repro.detect.vectorclock` — the immutable vector-clock algebra
  (the property-tested specification of happens-before);
- :mod:`repro.detect.races` — the online happens-before data-race
  detector (``FailureKind.DATA_RACE``);
- :mod:`repro.detect.nullorigin` — Casper-style null-origin causality
  chains (``FailureKind.NULL_DEREF``);
- :mod:`repro.detect.offline` — the same detectors over recorded replay
  logs, byte-identical to online detection;
- :mod:`repro.detect.invariants` — the error-invariants ranking engine
  (``--ranker invariants``), a drop-in alternative to F-measure.

Detectors are named so they can ride job descriptors across process
boundaries: a :class:`~repro.core.client.GistClient` (or a pool worker
rebuilding one from a :class:`~repro.fleet.executors.RunJob`) turns the
names back into tracers with :func:`make_detectors` and folds their
verdicts into the run's outcome with :func:`apply_detectors`.
"""

from __future__ import annotations

from typing import List, Sequence

from ..runtime.events import Tracer
from ..runtime.failures import RunOutcome
from .invariants import RANKER_KINDS, error_invariant_score, make_ranker
from .nullorigin import NullOriginTracer
from .races import RaceDetector
from .vectorclock import VectorClock

#: Detector names accepted on the wire, in CLI flags, and in BugSpecs.
DETECTOR_KINDS = ("races", "nullorigin")

_FACTORIES = {
    "races": RaceDetector,
    "nullorigin": NullOriginTracer,
}


def validate_detectors(kinds: Sequence[str]) -> tuple:
    """Normalize a detector-name sequence to a canonical ordered tuple."""
    for kind in kinds:
        if kind not in _FACTORIES:
            raise ValueError(f"unknown detector {kind!r} "
                             f"(expected one of {DETECTOR_KINDS})")
    # Canonical order: amendment precedence must not depend on flag order.
    return tuple(k for k in DETECTOR_KINDS if k in kinds)


def make_detectors(kinds: Sequence[str]) -> List[Tracer]:
    """Instantiate detector tracers for one run, in canonical order."""
    return [_FACTORIES[k]() for k in validate_detectors(kinds)]


def apply_detectors(outcome: RunOutcome,
                    detectors: Sequence[Tracer]) -> RunOutcome:
    """Fold every detector's verdict into a finished run's outcome.

    Null-origin reclassification runs before race promotion (a real crash
    always outranks a race diagnosis; ``RaceDetector.amend`` only fires on
    runs that did not otherwise fail), and the fold order is the canonical
    detector order, so the amended outcome is deterministic however the
    detector list was spelled.
    """
    for detector in sorted(detectors,
                           key=lambda d: isinstance(d, RaceDetector)):
        amend = getattr(detector, "amend", None)
        if amend is not None:
            outcome = amend(outcome)
    return outcome


__all__ = [
    "DETECTOR_KINDS",
    "RANKER_KINDS",
    "NullOriginTracer",
    "RaceDetector",
    "VectorClock",
    "apply_detectors",
    "error_invariant_score",
    "make_detectors",
    "make_ranker",
    "validate_detectors",
]
