"""Process-pool fleet execution: warm workers, wire-envelope jobs.

The thread engine cannot speed up a campaign — the simulated endpoints
are pure Python, so the GIL serializes them.  This engine ships each
monitored-run job to a pool of **warm worker processes** instead:

- Workers are warm in the sense that matters for this workload: the
  program module is unpickled once per worker and cached by content
  digest, and instrumentation patches are decoded once per worker and
  cached by their encoded wire bytes.  The interpreter's pre-decoded
  instruction streams key off the module object, so a warm worker also
  reuses those across every run of the campaign.
- Everything crossing the process boundary is either a tiny pickled
  descriptor (:class:`~repro.fleet.executors.RunJob`) or a **canonical
  wire envelope** from :mod:`repro.fleet.wire` — the exact bytes a
  networked endpoint would transmit.  The parent decodes results with the
  same codecs the wire transport uses, so the process boundary cannot
  introduce a representation of its own.
- Workers extract failure predictors client-side (that happens inside
  :meth:`GistClient.run <repro.core.client.GistClient.run>`), so the
  expensive trace walk parallelizes and the server's single aggregation
  thread ingests ready-made predictor sets off the envelope.

Determinism: a worker computes a pure function of its job descriptor —
the workload factory, fault plan, and patch choice were all resolved by
the deployment before the job was built — and the deployment aggregates
results in run-id order.  A fixed seed therefore yields byte-identical
campaigns for 1 or N workers, processes or threads or serial.

The pool prefers the ``fork`` start method when the platform offers it
(workers inherit the loaded code instantly); elsewhere it falls back to
the platform default (``spawn`` on Windows/macOS), which only costs a
slower first job per worker.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from .executors import FleetExecutor, JobResult, RunJob
from . import wire


def module_payload(module) -> Tuple[str, bytes]:
    """Pickle a module for shipping; digest identifies it in worker caches."""
    blob = pickle.dumps(module, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).hexdigest()[:16], blob


# ---------------------------------------------------------------------------
# Worker side.  Module-level state: each worker process keeps its own warm
# caches, populated on first use and reused for every subsequent job.
# ---------------------------------------------------------------------------

_MODULE_CACHE: Dict[str, object] = {}
_PATCH_CACHE: Dict[Tuple[str, bytes], object] = {}


def _worker_module(job: RunJob):
    module = _MODULE_CACHE.get(job.module_digest)
    if module is None:
        module = pickle.loads(job.module_blob)
        _MODULE_CACHE[job.module_digest] = module
    return module


def _worker_patch(job: RunJob):
    if job.patch_blob is None:
        return None
    key = (job.module_digest, job.patch_blob)
    patch = _PATCH_CACHE.get(key)
    if patch is None:
        patch = wire.decode_message(job.patch_blob).payload
        _PATCH_CACHE[key] = patch
    return patch


def _worker_run(job: RunJob) -> JobResult:
    """Execute one job in a worker process; reply in wire envelopes."""
    from ..core.client import GistClient

    module = _worker_module(job)
    patch = _worker_patch(job)
    client = GistClient(module, endpoint_id=job.endpoint_id,
                        ptwrite=job.ptwrite,
                        extended_predicates=job.extended,
                        interp_mode=job.interp_mode,
                        detectors=job.detectors)
    result = client.run(job.workload, patch=patch, run_id=job.run_id)
    failure_blob = None
    if result.outcome.failed and result.outcome.failure is not None:
        failure_blob = wire.encode_failure_report(
            result.outcome.failure, campaign=job.campaign_key)
    monitored_blob = None
    if result.monitored is not None:
        if job.cohort > 1:
            result.monitored.cohort = job.cohort
        monitored_blob = wire.encode_monitored_run(
            result.monitored, epoch=job.patch_epoch,
            campaign=job.campaign_key)
    return JobResult(run_id=job.run_id, failed=result.outcome.failed,
                     failure_blob=failure_blob,
                     monitored_blob=monitored_blob)


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------


def _pool_context():
    """Prefer ``fork`` — workers inherit loaded code and start warm."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class ProcessExecutor(FleetExecutor):
    """Warm process-pool engine (``--executor processes``).

    Lazily spawns a :class:`~concurrent.futures.ProcessPoolExecutor` on
    the first batch; because jobs carry the module blob and workers cache
    it by digest, one engine instance can serve any number of campaigns,
    modules, and deployments back to back — which is exactly how the
    fleet-scaling benchmark amortizes pool start-up.
    """

    kind = "processes"
    remote = True

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError("need at least one worker")
        self.jobs = jobs
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=_pool_context())
        return self._pool

    def run_jobs(self, jobs: Sequence[RunJob]) -> List[JobResult]:
        jobs = list(jobs)
        if not jobs:
            return []
        return list(self._ensure_pool().map(_worker_run, jobs))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    @property
    def live_pool(self):
        return self._pool
