"""Bounded-memory streaming statistics tests (repro.core.streaming).

Pins the contracts the streaming mode rests on: sketch-vs-exact agreement
below capacity, Space-Saving error bounds past it, shard-merge
commutativity, the score argument on both count stores, recurrence-window
aging, evidence-slicing soundness, and bounded clustering.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Predictor, PredictorRanker
from repro.analysis import BackwardSlicer
from repro.core.client import GistClient, evidence_keep
from repro.core.clustering import FailureClusterer
from repro.core.refinement import MonitoredRun, RunningRefinement, refine
from repro.core.streaming import (
    DEFAULT_WINDOWS,
    CountMinSketch,
    SketchRanker,
    predictor_key_bytes,
    ranker_from_state,
)
from repro.detect.invariants import error_invariant_score, make_ranker
from repro.corpus import get_bug
from repro.fleet import wire
from repro.hw.watchpoints import TrapRecord
from repro.instrument import InstrumentationPlanner
from repro.instrument.patch import Patch
from repro.instrument.planner import HookSpec
from repro.runtime.failures import FailureKind, FailureReport, \
    StackFrameInfo


def P(uid, val=0):
    return Predictor("value", (uid, val))


#: One simulated run: (set of predictor uids, failed?, weight).
runs_strategy = st.lists(
    st.tuples(st.sets(st.integers(0, 30), max_size=6), st.booleans(),
              st.integers(1, 3)),
    min_size=1, max_size=40)


def _feed(ranker, runs):
    for uids, failed, weight in runs:
        ranker.add_run({P(u) for u in uids}, failed=failed, weight=weight)


class TestCountMinSketch:
    def test_never_underestimates(self):
        sketch = CountMinSketch(width=8, depth=2)
        truth = {}
        rng = random.Random(7)
        for _ in range(500):
            key = f"k{rng.randrange(40)}".encode()
            sketch.add(key)
            truth[key] = truth.get(key, 0) + 1
        for key, count in truth.items():
            assert sketch.estimate(key) >= count

    def test_merge_equals_combined_stream(self):
        a, b, combined = (CountMinSketch(width=16, depth=3)
                          for _ in range(3))
        for i in range(50):
            key = f"k{i % 9}".encode()
            (a if i % 2 else b).add(key)
            combined.add(key)
        a.merge(b)
        assert a.state() == combined.state()

    def test_merge_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=8).merge(CountMinSketch(width=16))

    def test_state_round_trip(self):
        sketch = CountMinSketch(width=8, depth=2)
        for i in range(20):
            sketch.add(f"k{i % 5}".encode(), i + 1)
        clone = CountMinSketch.from_state(sketch.state())
        assert clone.state() == sketch.state()

    def test_key_bytes_stable(self):
        # crc32-over-repr, not builtin hash: PYTHONHASHSEED-independent.
        assert predictor_key_bytes(P(3, 1)) == b"value:(3, 1)"


class TestSketchRankerBelowCapacity:
    """With fewer distinct predictors than capacity there is never an
    eviction, so the sketch ranker must be *identical* to the exact one."""

    @given(runs_strategy)
    @settings(max_examples=60, deadline=None)
    def test_counts_and_ranking_match_exact(self, runs):
        exact = PredictorRanker()
        sketch = SketchRanker(capacity=64)  # 31 possible > never evicts
        _feed(exact, runs)
        _feed(sketch, runs)
        assert sketch.error_bound() == 0
        assert dict(sketch._failing_counts) == dict(exact._failing_counts)
        assert dict(sketch._successful_counts) == \
            dict(exact._successful_counts)
        exact_ranked = exact.ranked()
        sketch_ranked = sketch.ranked()
        assert [r.predictor for r in sketch_ranked] == \
            [r.predictor for r in exact_ranked]
        if exact_ranked:
            assert sketch.best().predictor == exact.best().predictor
            assert sketch.best().f_measure == exact.best().f_measure


class TestSketchRankerEvictionRegime:
    @given(runs_strategy)
    @settings(max_examples=60, deadline=None)
    def test_estimates_never_underestimate(self, runs):
        sketch = SketchRanker(capacity=4)
        truth = {}
        for uids, failed, weight in runs:
            preds = {P(u) for u in uids}
            sketch.add_run(preds, failed=failed, weight=weight)
            for p in preds:
                truth[p] = truth.get(p, 0) + weight
        assert len(sketch._error) <= 4
        bound = sketch.error_bound()
        for p, true_total in truth.items():
            estimate = sketch.estimate_total(p)
            assert estimate >= true_total
            if p in sketch._error:
                assert estimate <= true_total + bound

    def test_exact_totals_survive_eviction(self):
        sketch = SketchRanker(capacity=2)
        for i in range(10):
            sketch.add_run({P(i)}, failed=True)
            sketch.add_run({P(i + 100)}, failed=False, weight=2)
        assert sketch.total_failing == 10
        assert sketch.total_successful == 20

    def test_heavy_hitter_stays_resident(self):
        sketch = SketchRanker(capacity=3)
        heavy = P(999)
        for i in range(60):
            sketch.add_run({heavy, P(i)}, failed=True)
        assert heavy in sketch._error
        assert sketch.estimate_total(heavy) >= 60


class TestSketchRankerMerge:
    @given(runs_strategy, runs_strategy)
    @settings(max_examples=40, deadline=None)
    def test_merge_commutative(self, runs_a, runs_b):
        def build(runs):
            ranker = SketchRanker(capacity=8)
            _feed(ranker, runs)
            return ranker

        ab = build(runs_a)
        ab.merge(build(runs_b))
        ba = build(runs_b)
        ba.merge(build(runs_a))
        assert ab.state() == ba.state()

    @given(runs_strategy, runs_strategy)
    @settings(max_examples=40, deadline=None)
    def test_merge_below_capacity_equals_combined_stream(self, runs_a,
                                                         runs_b):
        merged = SketchRanker(capacity=64)
        _feed(merged, runs_a)
        other = SketchRanker(capacity=64)
        _feed(other, runs_b)
        merged.merge(other)
        combined = SketchRanker(capacity=64)
        _feed(combined, runs_a)
        _feed(combined, runs_b)
        # Below capacity the fold loses nothing: counts equal the
        # single-stream run (sketch cells add, so those match too).
        assert merged.state() == combined.state()

    def test_merge_rejects_exact_ranker(self):
        with pytest.raises(ValueError):
            SketchRanker().merge(PredictorRanker())

    def test_merge_rejects_capacity_mismatch(self):
        with pytest.raises(ValueError):
            SketchRanker(capacity=4).merge(SketchRanker(capacity=8))

    @pytest.mark.parametrize("stats", ("exact", "streaming"))
    def test_merge_rejects_score_mismatch(self, stats):
        with pytest.raises(ValueError, match="score"):
            make_ranker("fmeasure", stats).merge(
                make_ranker("invariants", stats))


class TestStateDispatch:
    def test_round_trip_preserves_state(self):
        sketch = SketchRanker(capacity=4)
        for i in range(12):
            sketch.add_run({P(i % 6)}, failed=(i % 3 == 0))
        clone = ranker_from_state(sketch.state())
        assert isinstance(clone, SketchRanker)
        assert clone.state() == sketch.state()

    def test_exact_state_has_no_kind_and_dispatches_exact(self):
        exact = PredictorRanker()
        exact.add_run({P(1)}, failed=True)
        state = exact.state()
        assert "kind" not in state  # legacy wire shape preserved
        clone = ranker_from_state(state)
        assert type(clone) is PredictorRanker

    def test_wire_codec_round_trip(self):
        from repro.fleet.wire import ranker_state_from_body, \
            ranker_state_to_body

        sketch = SketchRanker(capacity=4)
        for i in range(9):
            sketch.add_run({P(i % 5, i % 2)}, failed=(i % 2 == 0))
        body = ranker_state_to_body(sketch.state())
        restored = ranker_state_from_body(body)
        assert SketchRanker.from_state(restored).state() == sketch.state()

    def test_make_stream_ranker_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_ranker("bogus", "streaming")
        with pytest.raises(ValueError):
            make_ranker("fmeasure", "bogus")


class TestScoreArgument:
    """The score is a constructor argument of both count stores.

    10 failing and 10 successful runs: A holds in 10 failing and 5
    successful runs, B in 4 failing and none.  F0.5 favours B's precision
    (1.0 against 0.67); recall x specificity favours A's coverage (0.5
    against 0.4)."""

    A, B = P(1), P(2)

    def _ranker(self, kind, stats):
        ranker = make_ranker(kind, stats, failure_pc=0)
        for i in range(10):
            ranker.add_run({self.A} | ({self.B} if i < 4 else set()),
                           failed=True)
            ranker.add_run({self.A} if i < 5 else set(), failed=False)
        return ranker

    @pytest.mark.parametrize("stats", ("exact", "streaming"))
    def test_scores_order_two_predictors_oppositely(self, stats):
        fmeasure = self._ranker("fmeasure", stats)
        invariants = self._ranker("invariants", stats)
        store = SketchRanker if stats == "streaming" else PredictorRanker
        assert type(fmeasure) is store and type(invariants) is store
        assert invariants.score is error_invariant_score
        assert [s.predictor for s in fmeasure.ranked()] == [self.B, self.A]
        assert [s.predictor for s in invariants.ranked()] == \
            [self.A, self.B]
        assert invariants.stats_for(self.A).f_measure == \
            pytest.approx(0.5)
        assert invariants.stats_for(self.B).f_measure == \
            pytest.approx(0.4)

    @pytest.mark.parametrize("stats", ("exact", "streaming"))
    def test_score_survives_state_round_trip(self, stats):
        ranker = self._ranker("invariants", stats)
        clone = ranker_from_state(ranker.state(), score=ranker.score)
        assert clone.state() == ranker.state()
        assert clone.ranked() == ranker.ranked()


class TestRollingWindowStats:
    """The recurrence-window ring behind ``windowed_recurrences``."""

    def test_aging_drops_old_windows(self):
        from repro.core import GistServer, MonitoredRun, Workload
        from repro.lang import compile_source
        from tests.core.test_server_cooperative import MANY_VARS, bootstrap

        module = compile_source(MANY_VARS)
        report = bootstrap(module, Workload(args=(100,)))
        campaign = GistServer(module, stats="streaming") \
            .handle_failure_report("bug", report)
        for run_id in range(DEFAULT_WINDOWS):
            campaign.begin_iteration()
            campaign.ingest(MonitoredRun(run_id=run_id, failed=True,
                                         failure=report,
                                         predictors=frozenset()))
            campaign.finish_iteration()
        # The ring now holds the last DEFAULT_WINDOWS - 1 sealed windows
        # and a fresh one; the first window has aged out.
        assert campaign.windows_dropped == 1
        assert sum(campaign.recent) == DEFAULT_WINDOWS - 1


def _random_run(rng, run_id):
    executed = {tid: [rng.randrange(50) for _ in range(rng.randrange(1, 12))]
                for tid in range(rng.randrange(1, 3))}
    traps = [TrapRecord(seq=s, tid=0, pc=rng.randrange(60),
                        address=4096 + rng.randrange(4),
                        is_write=bool(rng.getrandbits(1)),
                        value=rng.randrange(5), slot=0)
             for s in range(rng.randrange(3))]
    return MonitoredRun(run_id=run_id, executed=executed, traps=traps)


def _evidence(*runs):
    evidence = RunningRefinement()
    for run in runs:
        evidence.add(run)
    return evidence


class TestEvidenceSlicing:
    def _patch(self, slice_uids, hook_uids=()):
        hooks = tuple(HookSpec(uid, "watch", "t") for uid in hook_uids)
        return Patch(program="", hooks=hooks,
                     slice_uids=frozenset(slice_uids))

    def test_refinement_invariant_under_slicing(self):
        rng = random.Random(11)
        for trial in range(20):
            run = _random_run(rng, trial)
            slice_uids = set(rng.sample(range(50), 15))
            window = set(rng.sample(sorted(slice_uids), 6))
            patch = self._patch(slice_uids, hook_uids=(1, 2))
            keep = evidence_keep(patch, run.traps)
            assert keep == slice_uids | {1, 2} | {t.pc for t in run.traps}
            sliced = MonitoredRun(
                run_id=run.run_id,
                executed={tid: [uid for uid in seq if uid in keep]
                          for tid, seq in run.executed.items()},
                traps=list(run.traps))
            # The AsT window is always a subset of the slice, so the only
            # executed-set reads refine() performs are unchanged.
            assert refine(window, _evidence(sliced),
                          slice_uids=slice_uids).refined_uids() == \
                refine(window, _evidence(run),
                       slice_uids=slice_uids).refined_uids()
        # A sliceless patch keeps everything.
        assert evidence_keep(self._patch(()), run.traps) is None

    def test_predictors_survive_slicing(self):
        # Predictors feed the ranker and the rendered sketch verbatim —
        # including ones anchored outside the slice: they come from the
        # decoder's branch facts over the full trace and from the traps,
        # so the walk that prunes the shipped evidence must not lose them.
        spec = get_bug("pbzip2-1")
        module = spec.module()
        slicer = BackwardSlicer(module)
        workload = spec.failing_probe or spec.workload_factory(0)
        client = GistClient(module)
        failure = client.run(workload).outcome.failure
        assert failure is not None
        slice_ = slicer.slice_from(failure.pc)
        plan = InstrumentationPlanner(module, slicer).plan_window(
            slice_, slice_.window(4))
        sliced = Patch.from_plan(module.name, plan,
                                 slice_uids=slice_.uids)
        full = Patch.from_plan(module.name, plan)
        kept = client.run(workload, sliced).monitored
        shipped = client.run(workload, full).monitored
        assert kept.predictors == shipped.predictors
        assert any(p.kind == "branch" for p in kept.predictors)
        assert kept.traps == shipped.traps  # traps never pruned
        keep = evidence_keep(sliced, shipped.traps)
        assert kept.executed == {
            tid: [uid for uid in seq if uid in keep]
            for tid, seq in shipped.executed.items()}
        assert sum(map(len, kept.executed.values())) < \
            sum(map(len, shipped.executed.values()))

    def test_patch_slice_round_trip_and_legacy_bytes(self):
        decoded = wire.decode_message(
            wire.encode_patch(self._patch({5, 3, 8}))).payload
        assert decoded.slice_uids == frozenset({3, 5, 8})
        # The slice section is a pure addition: a sliceless patch's body is
        # the legacy body (the sliced body of the same patch merely adds a
        # "slice" key), and legacy bodies decode with an empty slice.
        plain = Patch(program="p", hooks=(HookSpec(1, "watch", "x"),))
        sliced = Patch(program="p", hooks=plain.hooks,
                       slice_uids=frozenset({4}))
        plain_body = wire.patch_to_body(plain)
        sliced_body = wire.patch_to_body(sliced)
        assert "slice" not in plain_body
        assert {k: v for k, v in sliced_body.items() if k != "slice"} == \
            plain_body
        assert len(wire.encode_patch(sliced)) > len(wire.encode_patch(plain))
        assert wire.patch_from_body(plain_body).slice_uids == frozenset()


def _report(identity, pc=7):
    return FailureReport(kind=FailureKind.ASSERTION, pc=pc, tid=0,
                         message=f"m{identity}",
                         stack=(StackFrameInfo(f"f{identity}", pc),))


class TestBoundedClustering:
    def test_trim_caps_identities_and_counts_overflow(self):
        clusterer = FailureClusterer(max_identities=3)
        for i in range(10):
            clusterer.add(_report(i))
        (bucket,) = clusterer.buckets()
        assert bucket.count == 10
        assert len(bucket.exact_identities) == 3
        assert bucket.identity_overflow == 7
        assert clusterer.total_reports == 10

    def test_unbounded_stays_exact_and_state_compatible(self):
        clusterer = FailureClusterer()
        for i in range(10):
            clusterer.add(_report(i))
        (bucket,) = clusterer.buckets()
        assert len(bucket.exact_identities) == 10
        assert bucket.identity_overflow == 0
        # Absence-encoded: exact-mode state has no overflow key at all.
        assert "overflow" not in clusterer.state()["buckets"][0]

    def test_merge_preserves_counts_under_bounding(self):
        a = FailureClusterer(max_identities=2)
        b = FailureClusterer(max_identities=2)
        for i in range(6):
            (a if i % 2 else b).add(_report(i % 4))
        total_before = a.total_reports + b.total_reports
        a.merge(b)
        (bucket,) = a.buckets()
        assert a.total_reports == total_before
        assert len(bucket.exact_identities) <= 2
        assert bucket.count == 6
        assert sum(bucket.exact_identities.values()) \
            + bucket.identity_overflow == 6

    def test_overflow_round_trips_through_state(self):
        clusterer = FailureClusterer(max_identities=1)
        for i in range(4):
            clusterer.add(_report(i))
        restored = FailureClusterer.from_state(clusterer.state())
        (bucket,) = restored.buckets()
        assert bucket.identity_overflow == 3
        assert restored.state() == clusterer.state()
