"""Pluggable fleet execution engines.

A cooperative campaign spends almost all of its wall-clock time executing
client runs, and those runs are embarrassingly parallel: each gets its own
interpreter, PT driver, and watchpoint unit.  This module defines the
**execution engine** boundary the deployment schedules them through:

- :class:`ThreadExecutor` — the original ``ThreadPoolExecutor`` batching.
  Threads share the module and patches by reference (zero serialization),
  but the pure-Python interpreter is GIL-serialized, so this engine
  overlaps only the tiny I/O slices of a run.  At one worker it runs
  every item inline, in order: the reference engine.
- :class:`~repro.fleet.procpool.ProcessExecutor` — warm worker
  *processes* (see :mod:`repro.fleet.procpool`).  True CPU parallelism;
  jobs and results cross the process boundary as the canonical wire
  envelopes of :mod:`repro.fleet.wire` — the same codecs fleet traffic
  already uses, so there is no second serialization format to keep
  honest.

Engines differ **only in where the work runs**.  The deployment draws run
descriptors sequentially, executes one batch through the engine, then
aggregates results in run-id order on the server thread — so for a fixed
seed every engine consumes the identical run stream and produces
byte-identical campaign statistics and sketches (see
``tests/fleet/test_executors.py`` and ``BENCH_fleet_parallel.json``).

The local engine (threads) executes arbitrary closures via
:meth:`FleetExecutor.map`.  Remote engines (``remote = True``) cannot ship
closures; the deployment hands them picklable :class:`RunJob` descriptors
instead and gets :class:`JobResult` envelopes back via
:meth:`FleetExecutor.run_jobs`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

#: The engine names the CLI exposes (``--executor``).
EXECUTOR_KINDS = ("threads", "processes")


@dataclass(frozen=True)
class RunJob:
    """One monitored-run job, fully described in picklable terms.

    The patch — when any — is the **encoded wire envelope** produced by
    :func:`repro.fleet.wire.encode_patch`; the worker decodes (and caches)
    it exactly like a networked endpoint would.  The module rides along as
    a pickled blob keyed by ``module_digest`` so a warm worker that
    already holds this program skips deserialization entirely.
    """

    run_id: int
    endpoint_id: int
    workload: object
    module_digest: str
    module_blob: bytes
    patch_blob: Optional[bytes] = None
    patch_epoch: Optional[int] = None
    ptwrite: bool = False
    extended: bool = False
    #: Cohort multiplicity, resolved main-side: the worker stamps it onto
    #: the monitored run before encoding so the envelope carries it.
    cohort: int = 1
    #: Campaign routing key; the worker tags its outbound envelopes with
    #: it so results route back to the owning campaign.
    campaign_key: Optional[str] = None
    #: Detector names (:data:`repro.detect.DETECTOR_KINDS`) the worker
    #: attaches to the run — plain strings, so the descriptor stays
    #: picklable and engine-agnostic.
    detectors: tuple = ()


@dataclass(frozen=True)
class JobResult:
    """What one job sends back: the run's one uplink envelope.

    ``uplink`` is the ``(msg_type, payload)`` pair
    :func:`repro.fleet.endpoint.encode_uplink` built in the worker, or
    None for a run that sends nothing.
    """

    run_id: int
    uplink: Optional[Tuple[str, bytes]] = None


class FleetExecutor:
    """Common engine interface (see module docstring)."""

    kind: str = "abstract"
    #: True when jobs execute in another process: the deployment must go
    #: through :meth:`run_jobs` with picklable :class:`RunJob` objects.
    remote: bool = False

    def map(self, fn: Callable, items: Iterable) -> List:
        """Execute ``fn`` over ``items``; results in input order."""
        raise NotImplementedError

    def run_jobs(self, jobs: Sequence[RunJob]) -> List[JobResult]:
        """Execute job descriptors; results in input order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release worker threads/processes (idempotent)."""

    @property
    def live_pool(self):
        """The underlying executor pool, or None when not started/closed."""
        return None

    def __enter__(self) -> "FleetExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ThreadExecutor(FleetExecutor):
    """Thread-pool batching (the default engine).

    With ``jobs == 1`` nothing is ever spawned and execution is inline,
    in input order — the reference every other engine must match.
    """

    kind = "threads"

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError("need at least one worker")
        self.jobs = jobs
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.jobs, thread_name_prefix="gist-fleet")
        return self._pool

    def map(self, fn: Callable, items: Iterable) -> List:
        items = list(items)
        if self.jobs <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(fn, items))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    @property
    def live_pool(self):
        return self._pool


def make_executor(kind: str, jobs: int = 1) -> FleetExecutor:
    """Build an engine by CLI name (``threads``/``processes``)."""
    if kind == "threads":
        return ThreadExecutor(jobs)
    if kind == "processes":
        from .procpool import ProcessExecutor

        return ProcessExecutor(jobs)
    raise ValueError(f"executor must be one of {EXECUTOR_KINDS}")
