"""Pluggable fleet execution engines.

A cooperative campaign spends almost all of its wall-clock time executing
client runs, and those runs are embarrassingly parallel: each gets its own
interpreter, PT driver, and watchpoint unit.  This module defines the
**execution engine** boundary the deployment schedules them through:

- :class:`ThreadExecutor` — ``ThreadPoolExecutor`` batching.  Threads
  share the module and patches by reference (zero serialization), but
  the pure-Python interpreter is GIL-serialized, so this engine overlaps
  only the tiny I/O slices of a run.  At one worker it runs every run
  inline, in order: the reference engine.
- :class:`~repro.fleet.procpool.ProcessExecutor` — warm worker
  *processes* (see :mod:`repro.fleet.procpool`).  True CPU parallelism;
  runs cross the process boundary as picklable :class:`RunJob`
  descriptors whose patch is the canonical wire envelope of
  :mod:`repro.fleet.wire` — the same codecs fleet traffic already uses,
  so there is no second serialization format to keep honest.

Engines differ **only in where the work runs**.  The deployment draws
runs sequentially and plans each one main-side with
:meth:`FleetEndpoint.plan_run <repro.fleet.endpoint.FleetEndpoint.plan_run>`;
every engine then takes the same planned batch through
:meth:`FleetExecutor.run` and returns each run's one uplink envelope
(:func:`~repro.fleet.endpoint.encode_uplink`), which the deployment
transmits in run-id order on the server thread — so for a fixed seed
every engine consumes the identical run stream and produces
byte-identical campaign statistics and sketches (see
``tests/fleet/test_executors.py`` and ``BENCH_fleet_parallel.json``).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from .endpoint import Uplink, encode_uplink

if TYPE_CHECKING:
    from ..core.client import GistClient
    from ..core.workload import Workload
    from .endpoint import RunPlan

#: The engine names the CLI exposes (``--executor``).
EXECUTOR_KINDS = ("threads", "processes")

#: One fault-free run of a planned batch: the client that executes it, its
#: :class:`~repro.fleet.endpoint.RunPlan`, its workload, and its run id.
PlannedRun = Tuple["GistClient", "RunPlan", "Workload", int]


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


def _run_planned(run: PlannedRun,
                 campaign: Optional[str]) -> Optional[Uplink]:
    """Execute one planned run in this process; return its uplink."""
    client, plan, workload, run_id = run
    result = client.run(workload, patch=plan.patch, run_id=run_id)
    return encode_uplink(result, plan.patch_epoch, campaign, plan.cohort)


class FleetExecutor:
    """Common engine interface (see module docstring)."""

    kind: str = "abstract"

    def run(self, runs: Sequence[PlannedRun],
            campaign: Optional[str]) -> List[Optional[Uplink]]:
        """Execute a planned batch; each run's uplink envelope (None for a
        run that sends nothing), in input order.  ``campaign`` tags the
        envelopes with their campaign's routing key."""
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

    def run(self, runs: Sequence[PlannedRun],
            campaign: Optional[str]) -> List[Optional[Uplink]]:
        one = partial(_run_planned, campaign=campaign)
        if self.jobs <= 1 or len(runs) <= 1:
            return [one(run) for run in runs]
        return list(self._ensure_pool().map(one, runs))

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
