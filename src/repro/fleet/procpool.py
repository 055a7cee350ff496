"""Process-pool fleet execution: warm workers, wire-envelope jobs.

The thread engine cannot speed up a campaign — the simulated endpoints
are pure Python, so the GIL serializes them.  This engine ships each
planned run to a pool of **warm worker processes** instead:

- :meth:`ProcessExecutor.run` turns each planned run into a picklable
  :class:`~repro.fleet.executors.RunJob`: the patch after the client's
  ``prepare_patch``, as its wire envelope, and the module's pickled
  payload (:func:`module_payload`).
- Workers are warm in the sense that matters for this workload: the
  program module is unpickled once per worker and cached by content
  digest, and instrumentation patches are decoded once per worker and
  cached by their encoded wire bytes.  Workers always run the compiled
  tier, whose generated program is cached by module object
  (``compiled_program``), so a warm worker compiles a module once and
  reuses that program across every run of the campaign.
- A worker replies with the run's uplink envelope from
  :func:`~repro.fleet.endpoint.encode_uplink`, the exact bytes the thread
  engine and a networked endpoint produce, so the process boundary
  cannot introduce a representation of its own.
- Workers extract failure predictors client-side (that happens inside
  :meth:`GistClient.run <repro.core.client.GistClient.run>`), so the
  expensive trace walk parallelizes and the server's single aggregation
  thread ingests ready-made predictor sets off the envelope.

Determinism: a worker computes a pure function of its job descriptor —
the workload factory, fault plan, and patch choice were all resolved by
the deployment before the job was built — and the deployment aggregates
results in run-id order.  A fixed seed therefore yields byte-identical
campaigns for 1 or N workers, processes or threads.

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
from weakref import WeakKeyDictionary

from .endpoint import Uplink, encode_uplink
from .executors import FleetExecutor, PlannedRun, RunJob
from . import wire

_PAYLOADS: "WeakKeyDictionary[object, Tuple[int, str, bytes]]" = \
    WeakKeyDictionary()


def module_payload(module) -> Tuple[str, bytes]:
    """A module pickled for shipping, and the digest worker caches key it
    by.  Cached per module object; a bumped ``analysis_epoch``
    (re-finalize) re-pickles it."""
    cached = _PAYLOADS.get(module)
    if cached is None or cached[0] != module.analysis_epoch:
        blob = pickle.dumps(module, protocol=pickle.HIGHEST_PROTOCOL)
        cached = (module.analysis_epoch,
                  hashlib.sha256(blob).hexdigest()[:16], blob)
        _PAYLOADS[module] = cached
    return cached[1], cached[2]


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


def _worker_run(job: RunJob) -> Optional[Uplink]:
    """Execute one job in a worker process; reply with its uplink."""
    from ..core.client import GistClient

    module = _worker_module(job)
    patch = _worker_patch(job)
    client = GistClient(module, endpoint_id=job.endpoint_id,
                        ptwrite=job.ptwrite,
                        extended_predicates=job.extended,
                        detectors=job.detectors)
    result = client.run(job.workload, patch=patch, run_id=job.run_id)
    return encode_uplink(result, job.patch_epoch, job.campaign_key,
                         job.cohort)


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------


def _job(run: PlannedRun, campaign: Optional[str]) -> RunJob:
    """The picklable descriptor of one planned run."""
    client, plan, workload, run_id = run
    digest, blob = module_payload(client.module)
    patch = client.prepare_patch(plan.patch)
    return RunJob(
        run_id=run_id, endpoint_id=client.endpoint_id, workload=workload,
        module_digest=digest, module_blob=blob,
        patch_blob=(wire.encode_patch(patch)
                    if patch is not None else None),
        patch_epoch=plan.patch_epoch, ptwrite=client.ptwrite,
        extended=client.extended_predicates, detectors=client.detectors,
        cohort=plan.cohort, campaign_key=campaign)


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

    def run(self, runs: Sequence[PlannedRun],
            campaign: Optional[str]) -> List[Optional[Uplink]]:
        if not runs:
            return []
        jobs = [_job(run, campaign) for run in runs]
        return list(self._ensure_pool().map(_worker_run, jobs))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    @property
    def live_pool(self):
        return self._pool
