"""Gist's server side: slicing, patch generation, trace aggregation.

The server (Fig. 2's offline half) owns the static analyses and the
statistics.  One :class:`DiagnosisCampaign` tracks one failure identity from
the first report to the finished sketch:

① a failure report arrives → compute the static backward slice;
② plan instrumentation for the current AsT window and cut patches
   (splitting watchpoint candidates across clients when the window needs
   more than the 4 debug registers — §3.2.3's cooperative approach);
③ monitored runs stream back; matching failures count as recurrences;
④ refinement + predictor statistics;
⑤ a failure sketch per iteration; AsT doubles σ until the sketch satisfies
   the stop criterion.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..analysis.context import AnalysisContext
from ..analysis.slicing import StaticSlice
from ..detect.invariants import RANKER_KINDS, make_ranker
from ..hw.watchpoints import NUM_DEBUG_REGISTERS
from ..instrument.patch import Patch
from ..instrument.planner import InstrumentationPlan, InstrumentationPlanner
from ..lang.ir import Module
from ..runtime.failures import FailureReport
from .adaptive import AdaptiveSliceTracker, AstIteration, DEFAULT_SIGMA
from .refinement import (MonitoredRun, RefinementResult, RunningRefinement,
                         refine)
from .sketch import FailureSketch, build_sketch
from .stats import PredictorRanker
from .streaming import DEFAULT_WINDOWS, STATS_KINDS


@dataclass
class IterationResult:
    """Everything one AsT iteration produced."""

    iteration: int
    sigma: int
    plan: InstrumentationPlan
    refinement: RefinementResult
    sketch: Optional[FailureSketch]
    failing_runs: int
    successful_runs: int


class DiagnosisCampaign:
    """Server-side state for diagnosing one failure identity."""

    def __init__(self, server: "GistServer", bug: str,
                 first_report: FailureReport,
                 initial_sigma: int = DEFAULT_SIGMA,
                 key: Optional[str] = None,
                 stripes: int = 1) -> None:
        if stripes < 1:
            raise ValueError("need at least one ingest stripe")
        self.server = server
        self.bug = bug
        self.first_report = first_report
        self.identity = first_report.identity()
        #: The key exactly as the caller passed it (``None`` for solo
        #: campaigns).  Wire envelopes and journal records carry *this*
        #: value, so a journal replayed into a fresh server routes
        #: messages identically; ``self.key`` below is the display/cluster
        #: key with the default filled in.
        self.wire_key = key
        #: The campaign's failure-cluster key — what the control plane
        #: consistent-hashes across shards and what wire envelopes carry in
        #: their ``campaign`` field.  Defaults to the clusterer's site key.
        self.key = key if key is not None \
            else f"{first_report.kind.value}@{first_report.pc}"
        # Served by the shared context: a second campaign (or a second
        # whole diagnosis) for the same failing pc reuses the slice.
        self.slice: StaticSlice = server.context.slice_from(first_report.pc)
        self.tracker = AdaptiveSliceTracker(self.slice, initial_sigma)
        self.iterations: List[IterationResult] = []
        self.total_failure_recurrences = 1  # the bootstrap failure
        self._current: Optional[AstIteration] = None
        self._current_plan: Optional[InstrumentationPlan] = None
        #: What refinement reads of the current iteration's runs, folded in
        #: as they are ingested (reset at every iteration).
        self._evidence = RunningRefinement()
        #: Predictor statistics for the whole campaign, maintained
        #: *incrementally*: every ingested run's predictor set is added
        #: exactly once and carries over across AsT iterations (predictor
        #: identity is structural, so facts observed under a σ=2 window
        #: stay valid when the window doubles).  The paper leans on exactly
        #: this accumulation — "Gist's refinement uses multiple failure
        #: recurrences" — and ``tests/golden/rankers.json`` pins the result
        #: for every corpus bug.
        #:
        #: The counts live in ``stripes`` partial rankers, one per ingest
        #: shard: a sharded control plane distributes monitored-run
        #: ingestion by endpoint, and :meth:`ranker` folds the partials
        #: through :class:`PredictorRanker.merge` — whose commutativity is
        #: what makes campaign results independent of the shard count.
        #: With ``stripes=1`` (the default, and the whole single-campaign
        #: path) there is exactly one partial and merge is the identity.
        self.stripes = stripes
        #: Statistics mode, inherited from the server.  It picks two
        #: things: the count store — the bounded sketch ranker in
        #: ``"streaming"`` mode — and the recurrence total the budget
        #: scheduler reads (:meth:`windowed_recurrences`).
        self.stats_kind = server.stats_kind
        self._stripe_rankers = [self._new_ranker() for _ in range(stripes)]
        self._merged_ranker: Optional[PredictorRanker] = None
        #: Streaming mode's recurrence windows: failing-run totals of the
        #: last AsT iterations (the open one last), and how many windows
        #: have aged out of the ring.
        self.recent: Optional[Deque[int]] = (
            deque([0], maxlen=DEFAULT_WINDOWS)
            if self.stats_kind == "streaming" else None)
        self.windows_dropped = 0
        #: High-water mark of :meth:`tracked_state_bytes` across ingests.
        self.peak_tracked_bytes = 0
        self._last_failing_run: Optional[MonitoredRun] = None
        # -- wire-facing hardening state (fleet transport) -----------------
        #: The patch epoch currently being monitored (== iteration number).
        self.epoch = 0
        #: Content digests of every monitored run already ingested: a
        #: duplicated message is a set lookup away from being a no-op.
        self._seen_digests: Set[str] = set()
        #: Endpoints that acknowledged the current epoch's patch.
        self.acked_endpoints: Set[int] = set()
        self.stale_runs_discarded = 0
        self.duplicate_runs_ignored = 0
        self.unmonitored_reports = 0

    # -- iteration lifecycle --------------------------------------------------

    def begin_iteration(self) -> Tuple[AstIteration, InstrumentationPlan]:
        if self.server.journal is not None:
            self.server.journal.append_begin_iteration(self.wire_key)
        self._current = self.tracker.begin_iteration()
        self._current_plan = self.server.planner.plan_window(
            self.slice, self._current.window_uids)
        self._evidence = RunningRefinement()
        # The ranker deliberately survives: predictor statistics carry
        # over across iterations instead of being rebuilt from scratch,
        # so runs ingested under earlier windows keep contributing.
        self._last_failing_run = None
        self.epoch = self._current.number
        self.acked_endpoints = set()
        return self._current, self._current_plan

    def make_patches(self, n_variants: int = 1) -> List[Patch]:
        """Cut patch variants for the current iteration.

        When the window has more watch candidates than debug registers, the
        candidates are split round-robin into ≤4-sized assignments, one per
        patch variant; the deployment hands different variants to different
        endpoints so that collectively everything is watched (§3.2.3).
        """
        assert self._current_plan is not None, "begin_iteration first"
        plan = self._current_plan
        # Every patch carries the static slice, so endpoints slice their
        # evidence client-side before reporting.
        slice_uids = tuple(self.slice.uids)
        candidates = plan.watch_candidates
        if len(candidates) <= NUM_DEBUG_REGISTERS:
            return [Patch.from_plan(self.server.module.name, plan,
                                    slice_uids=slice_uids)]
        groups: List[List[int]] = []
        for i in range(0, len(candidates), NUM_DEBUG_REGISTERS):
            groups.append(candidates[i:i + NUM_DEBUG_REGISTERS])
        variants = [Patch.from_plan(self.server.module.name, plan, group,
                                    slice_uids=slice_uids)
                    for group in groups]
        if n_variants > len(variants):
            # Repeat variants so each endpoint gets one.
            variants = [variants[i % len(variants)]
                        for i in range(n_variants)]
        return variants

    def ingest(self, run: MonitoredRun) -> bool:
        """Absorb one monitored run.  Returns True when the run recurs the
        campaign's failure (same identity, §3 footnote 1).

        Predictor statistics add the run's *client-extracted* predictor
        set, ``run.predictors``; the server never re-extracts (the shipped
        executed sequences are pruned to the slice, so it could not).

        ``run.cohort`` is the cohort multiplicity: the run stands for that
        many real clients, and the statistics (recurrence totals, predictor
        counts) fold it in, while trace-shaped state (refinement evidence,
        last failing run) counts the representative execution once.
        """
        assert self._current is not None, "begin_iteration first"
        weight = max(1, run.cohort)
        self._evidence.add(run)
        recurrence = bool(
            run.failed and run.failure is not None
            and run.failure.identity() == self.identity)
        if recurrence:
            self._current.failing_runs_seen += weight
            self.total_failure_recurrences += weight
            self._last_failing_run = run
            if self.recent is not None:
                self.recent[-1] += weight
        elif not run.failed:
            self._current.successful_runs_seen += weight
        stripe = run.endpoint_id % self.stripes
        self._stripe_rankers[stripe].add_run(run.predictors,
                                             failed=recurrence,
                                             weight=weight)
        self._merged_ranker = None
        self.peak_tracked_bytes = max(self.peak_tracked_bytes,
                                      self.tracked_state_bytes())
        return recurrence

    def _new_ranker(self) -> PredictorRanker:
        return make_ranker(self.server.ranker_kind, self.stats_kind,
                           failure_pc=self.first_report.pc)

    def ranker(self) -> PredictorRanker:
        """The campaign's predictor statistics: the stripe partials folded
        through :meth:`PredictorRanker.merge` (cached until the next
        ingest).  One stripe short-circuits to the partial itself."""
        if self.stripes == 1:
            return self._stripe_rankers[0]
        if self._merged_ranker is None:
            merged = self._new_ranker()
            for partial in self._stripe_rankers:
                merged.merge(partial)
            self._merged_ranker = merged
        return self._merged_ranker

    def stripe_states(self) -> List[Dict]:
        """Each ingest stripe's partial-ranker snapshot, in stripe order —
        what a shard exports over the wire for cross-shard merging."""
        return [r.state() for r in self._stripe_rankers]

    # -- bounded-memory accounting -------------------------------------------

    def tracked_state_bytes(self) -> int:
        """Rough footprint of the tracked statistics and refinement
        evidence — O(stripes) to ask, so it can run on every ingest to
        maintain :attr:`peak_tracked_bytes`."""
        return (sum(r.tracked_bytes() for r in self._stripe_rankers)
                + self._evidence.tracked_bytes())

    def windowed_recurrences(self) -> int:
        """Failure recurrences over the rolling recency window (streaming
        mode) — what the budget scheduler's infogain signal weighs, so a
        campaign whose failure stopped recurring ages out of the budget
        instead of coasting on lifetime totals.  Falls back to the exact
        lifetime total outside streaming mode.  The bootstrap report
        counts while no window has aged out yet (mirroring the lifetime
        total's starting value of 1)."""
        if self.recent is None:
            return self.total_failure_recurrences
        bootstrap = 1 if self.windows_dropped == 0 else 0
        return sum(self.recent) + bootstrap

    def ingest_wire(self, message) -> Optional[Tuple[bool, MonitoredRun]]:
        """Epoch and idempotency gate in front of :meth:`ingest`.

        ``message`` is a decoded :class:`repro.fleet.wire.Message` carrying
        a :class:`MonitoredRun`.  Returns ``None`` when the run is
        discarded — its patch epoch is not the one being monitored (a
        stale or straggling client must not poison refinement, §3.2.3's
        cooperative invariant) or its content digest was already ingested
        (a duplicated message is a no-op) — else ``(recurrence, run)``.

        When the server carries a write-ahead journal, the run's canonical
        envelope bytes are appended *after* both gates pass and *before*
        the ingest mutates campaign state — so the journal records exactly
        the applied-envelope stream, and replaying it folds up the same
        state (see :mod:`repro.fleet.journal`).
        """
        if message.epoch != self.epoch:
            self.stale_runs_discarded += 1
            return None
        if message.digest in self._seen_digests:
            self.duplicate_runs_ignored += 1
            return None
        run = message.payload
        if self.server.journal is not None:
            from ..fleet import wire  # local import: fleet ↔ core layering

            # WAL ordering: the journal append must precede every in-memory
            # mutation (including the digest gate) — if the append raises,
            # the client's retry of the same envelope must not be dropped
            # as a duplicate.
            self.server.journal.append_ingest(
                message.digest,
                wire.encode_monitored_run(run, epoch=message.epoch,
                                          campaign=message.campaign))
        self._seen_digests.add(message.digest)
        self.server.ingests_applied += 1
        return self.ingest(run), run

    def note_ack(self, endpoint_id: int, epoch: Optional[int]) -> None:
        """Record a patch acknowledgement for the current epoch."""
        if epoch == self.epoch:
            self.acked_endpoints.add(endpoint_id)

    def note_unmonitored_report(self, report: FailureReport) -> None:
        """A failure report from an unpatched (crashed/stale) client during
        an iteration: counted, never fed into refinement."""
        self.unmonitored_reports += 1

    def finish_iteration(self) -> IterationResult:
        assert self._current is not None and self._current_plan is not None
        if self.server.journal is not None:
            # Iteration boundaries are the journal's durability points:
            # this append also fsyncs everything buffered so far.
            self.server.journal.append_finish_iteration(self.wire_key)
        refinement = refine(self._current.window_uids, self._evidence,
                            slice_uids=self.slice.uids)
        sketch: Optional[FailureSketch] = None
        if self._last_failing_run is not None:
            sketch = build_sketch(
                module=self.server.module,
                bug=self.bug,
                failure=self._last_failing_run.failure or self.first_report,
                refinement=refinement,
                failing_run=self._last_failing_run,
                best_predictors=self.ranker().best_per_kind(),
                sigma=self._current.sigma,
                iterations=self._current.number,
                failure_recurrences=self.total_failure_recurrences,
            )
        result = IterationResult(
            iteration=self._current.number,
            sigma=self._current.sigma,
            plan=self._current_plan,
            refinement=refinement,
            sketch=sketch,
            failing_runs=self._current.failing_runs_seen,
            successful_runs=self._current.successful_runs_seen,
        )
        self.iterations.append(result)
        if self.recent is not None:
            # One recency window per AsT iteration; appending to a full
            # ring drops its oldest window.
            if len(self.recent) == self.recent.maxlen:
                self.windows_dropped += 1
            self.recent.append(0)
        return result

    def grow(self) -> int:
        if self.server.journal is not None:
            self.server.journal.append_grow(self.wire_key)
        return self.tracker.grow()

    @property
    def exhausted(self) -> bool:
        return self.tracker.exhausted

    def latest_sketch(self) -> Optional[FailureSketch]:
        for result in reversed(self.iterations):
            if result.sketch is not None:
                return result.sketch
        return None


@dataclass(frozen=True)
class QuarantineRecord:
    """One undecodable message the server refused to act on."""

    reason: str
    size: int
    prefix: bytes  # first bytes of the payload, for post-mortems


#: How many quarantined payloads the server keeps around for inspection.
QUARANTINE_KEEP = 32


class GistServer:
    """The centralized (or distributable) analysis side of Gist."""

    def __init__(self, module: Module,
                 context: Optional[AnalysisContext] = None,
                 stripes: int = 1,
                 ranker: str = "fmeasure",
                 stats: str = "exact") -> None:
        if ranker not in RANKER_KINDS:
            raise ValueError(f"unknown ranker kind {ranker!r} "
                             f"(expected one of {tuple(RANKER_KINDS)})")
        if stats not in STATS_KINDS:
            raise ValueError(f"unknown stats kind {stats!r} "
                             f"(expected one of {STATS_KINDS})")
        self.module = module
        #: Ranking engine every campaign on this server scores with
        #: (``fmeasure`` | ``invariants`` — see :mod:`repro.detect.
        #: invariants`).  A plain string so job descriptors and journal
        #: recovery can carry it across process boundaries.
        self.ranker_kind = ranker
        #: Statistics mode: ``"exact"`` (unbounded count store, lifetime
        #: recurrences) or ``"streaming"`` (bounded count store, windowed
        #: recurrences — see :mod:`repro.core.streaming`).
        self.stats_kind = stats
        #: All static artifacts live here; pass one context to many servers
        #: (or many diagnoses) and nothing is ever rebuilt.
        self.context = context or AnalysisContext(module)
        self.slicer = self.context.slicer()
        self.planner = self.context.planner()
        self.campaigns: Dict[str, DiagnosisCampaign] = {}
        #: Ingest stripes for every campaign this server starts: a sharded
        #: control plane sets this to its shard count so predictor
        #: statistics accumulate in per-shard partials (merged on demand).
        self.stripes = stripes
        self.offline_analysis_seconds = 0.0
        #: Wire front door accounting: payloads that failed to decode or
        #: failed their digest check are quarantined, never parsed further.
        self.messages_received = 0
        self.quarantined_count = 0
        self.quarantine: List[QuarantineRecord] = []
        #: Optional write-ahead journal (:class:`repro.fleet.journal.
        #: CampaignJournal`): when attached, every state-mutating campaign
        #: transition is appended before it is applied, so a crashed
        #: server resumes by replaying the journal.  ``None`` (the
        #: default) journals nothing; a server built by
        #: :func:`~repro.fleet.journal.recover_server` also replays with
        #: ``journal=None`` so replayed records are never re-appended.
        self.journal = None
        #: Lifetime count of *applied* monitored-run ingests (rejected
        #: traffic excluded).  Journal replay reconstructs it, which is
        #: what keeps a seeded ``server_crash_every`` fault schedule
        #: stable across the very recoveries it triggers.
        self.ingests_applied = 0

    def receive(self, blob: bytes):
        """Decode one payload from the uplink.

        Returns the decoded :class:`repro.fleet.wire.Message`, or ``None``
        after quarantining a payload that failed decode or digest check —
        a lossy fleet must never be able to crash the server or smuggle a
        half-parsed object into a campaign.
        """
        from ..fleet import wire  # local import: fleet ↔ core layering

        try:
            message = wire.decode_message(blob)
        except wire.WireError as err:
            self.quarantined_count += 1
            if len(self.quarantine) < QUARANTINE_KEEP:
                self.quarantine.append(QuarantineRecord(
                    reason=str(err), size=len(blob), prefix=blob[:48]))
            return None
        self.messages_received += 1
        return message

    def handle_failure_report(self, bug: str, report: FailureReport,
                              initial_sigma: int = DEFAULT_SIGMA,
                              key: Optional[str] = None
                              ) -> DiagnosisCampaign:
        """Start (or return) the campaign for this failure identity.
        Slicing time is accounted as offline analysis time (Table 1)."""
        identity = report.identity()
        if identity in self.campaigns:
            return self.campaigns[identity]
        if self.journal is not None:
            from ..fleet import wire  # local import: fleet ↔ core layering

            self.journal.append_campaign_start(
                bug, key, initial_sigma, self.stripes,
                wire.encode_failure_report(report, campaign=key))
        started = time.perf_counter()
        campaign = DiagnosisCampaign(self, bug, report, initial_sigma,
                                     key=key, stripes=self.stripes)
        self.offline_analysis_seconds += time.perf_counter() - started
        self.campaigns[identity] = campaign
        return campaign
