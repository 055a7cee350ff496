"""Evaluation harness: runs the paper's experiments over the corpus.

This module encodes §5's methodology:

- :func:`evaluate_bug` — one full diagnosis campaign for one bug, scoring
  every AsT iteration's sketch against the hand-written ideal sketch and
  reporting the *best* sketch Gist computed plus the failure recurrences
  needed to reach it (Table 1's latency metric).
- Ablation ``mode``:  ``"static"`` (slicing only), ``"cf"`` (slicing +
  control-flow tracking), ``"full"`` (slicing + control flow + data flow)
  — the three bars of Fig. 10.
- :func:`overhead_for_sigma` — client overhead as a function of the tracked
  slice size (Fig. 11).
- :func:`full_tracing_overheads` — Intel PT vs software PT vs record/replay
  full-tracing costs (Fig. 13).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..analysis.context import AnalysisContext
from ..analysis.slicing import StaticSlice
from ..core.accuracy import AccuracyReport, score
from ..core.client import GistClient
from ..core.cooperative import CooperativeDeployment
from ..core.sketch import FailureSketch, SketchStep
from ..instrument.patch import Patch
from ..pt.encoder import PTConfig, PTEncoder, SoftwarePTEncoder
from ..replay.recorder import Recorder
from ..runtime.interpreter import Interpreter
from .registry import BugSpec

MODES = ("static", "cf", "full", "ptw")


def strip_watch_hooks(patch: Patch) -> Patch:
    """A patch variant with data-flow tracking disabled (the "cf" mode)."""
    hooks = tuple(h for h in patch.hooks if h.action != "watch")
    return Patch(program=patch.program, hooks=hooks,
                 watch_assignment=frozenset())


@dataclass
class IterationScore:
    """One AsT iteration's sketch, scored against the ideal."""
    iteration: int
    sigma: int
    recurrences_so_far: int
    accuracy: Optional[AccuracyReport]
    root_found: bool
    sketch: Optional[FailureSketch]


@dataclass
class BugEvaluation:
    """Everything Table 1 / Figs. 9, 10, 12 read for one bug."""

    bug_id: str
    mode: str = "full"
    found: bool = False
    slice_loc: int = 0
    slice_ir: int = 0
    ideal_loc: int = 0
    ideal_ir: int = 0
    sketch_loc: int = 0
    sketch_ir: int = 0
    recurrences: int = 0
    total_runs: int = 0
    iterations_used: int = 0
    relevance: float = 0.0
    ordering: float = 0.0
    avg_overhead_percent: float = 0.0
    wall_seconds: float = 0.0
    offline_seconds: float = 0.0
    best: Optional[IterationScore] = None
    per_iteration: List[IterationScore] = field(default_factory=list)

    @property
    def overall_accuracy(self) -> float:
        return (self.relevance + self.ordering) / 2.0


class _ModeClient(GistClient):
    """A client whose patches are filtered per the ablation mode."""

    def __init__(self, module, endpoint_id: int, mode: str,
                 detectors=()) -> None:
        super().__init__(module, endpoint_id, ptwrite=(mode == "ptw"),
                         detectors=detectors)
        self.mode = mode

    def prepare_patch(self, patch):
        # Implemented as a patch transform (not a run() override) so remote
        # execution engines apply the ablation before a job ships out.
        if patch is not None and self.mode == "cf":
            patch = strip_watch_hooks(patch)
        return patch


def _static_only_sketch(spec: BugSpec, slice_: StaticSlice,
                        sigma: int) -> FailureSketch:
    """The "static slicing only" sketch of Fig. 10: the σ-window of the
    slice, in slice order, with no runtime information at all."""
    module = spec.module()
    window = slice_.window(sigma)
    steps: List[SketchStep] = []
    seen: set = set()
    for ins in slice_.instructions():
        if ins.uid not in window:
            continue
        key = (ins.func_name, ins.line)
        if key in seen:
            continue
        seen.add(key)
        steps.append(SketchStep(
            order=len(steps) + 1, tid=0, uid=ins.uid, func=ins.func_name,
            line=ins.line, source=module.source_line(ins.line)))
    # Static analysis can only guess program-text order for accesses.
    access_order = [(s.func, s.line) for s in steps]
    return FailureSketch(
        bug=spec.bug_id,
        failure_type="static slice (no runtime refinement)",
        module_name=module.name,
        failing_uid=slice_.failing_uid,
        threads=[0],
        steps=steps,
        statement_uids=set(window),
        access_order=access_order,
        sigma=sigma,
    )


def evaluate_bug(
    spec: BugSpec,
    mode: str = "full",
    endpoints: int = 4,
    initial_sigma: int = 2,
    max_iterations: int = 8,
    max_runs_per_iteration: int = 120,
    max_bootstrap_runs: int = 400,
    context: Optional["AnalysisContext"] = None,
    fleet_workers: int = 1,
    executor: str = "threads",
    engine=None,
    transport: str = "wire",
    fault_plan=None,
    ranker: str = "fmeasure",
) -> BugEvaluation:
    """Run one diagnosis campaign and score it against the ideal sketch.

    Mirrors §5.1's methodology: AsT keeps iterating; the evaluation reports
    the best sketch Gist computed and the number of failure recurrences
    needed to reach it.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    module = spec.module()
    ideal = spec.ideal_sketch()
    roots = spec.root_cause_statements()
    result = BugEvaluation(bug_id=spec.bug_id, mode=mode,
                           ideal_loc=ideal.size_loc, ideal_ir=ideal.size_ir)
    t0 = time.perf_counter()

    deployment = CooperativeDeployment(module, spec.workload_factory,
                                       endpoints=endpoints, bug=spec.bug_id,
                                       context=context,
                                       fleet_workers=fleet_workers,
                                       executor=executor,
                                       engine=engine,
                                       transport=transport,
                                       fault_plan=fault_plan,
                                       detectors=spec.detectors,
                                       ranker=ranker)
    if mode in ("cf", "ptw"):
        deployment.clients = [_ModeClient(module, i, mode,
                                          detectors=spec.detectors)
                              for i in range(endpoints)]
    stats = deployment.run_campaign(
        initial_sigma=initial_sigma,
        stop_when=(lambda sketch: False),  # explore; select best post hoc
        max_iterations=max_iterations,
        max_runs_per_iteration=max_runs_per_iteration,
        max_bootstrap_runs=max_bootstrap_runs,
    )
    result.total_runs = stats.total_runs
    result.avg_overhead_percent = stats.avg_overhead_percent
    result.offline_seconds = stats.offline_seconds

    campaigns = list(deployment.server.campaigns.values())
    if not campaigns:
        result.wall_seconds = time.perf_counter() - t0
        return result
    campaign = campaigns[0]
    result.slice_loc = campaign.slice.size_loc()
    result.slice_ir = campaign.slice.size_ir()

    recurrences = 1  # the bootstrap failure
    for it in stats.iteration_results:
        recurrences += it.failing_runs
        sketch = it.sketch
        if mode == "static" and sketch is not None:
            sketch = _static_only_sketch(spec, campaign.slice, it.sigma)
        if sketch is None:
            continue
        acc = score(sketch, ideal)
        result.per_iteration.append(IterationScore(
            iteration=it.iteration, sigma=it.sigma,
            recurrences_so_far=recurrences,
            accuracy=acc,
            root_found=spec.sketch_has_root(sketch),
            sketch=sketch))

    best = _select_best(result.per_iteration)
    if best is not None and best.sketch is not None:
        result.best = best
        result.found = best.root_found
        result.recurrences = best.recurrences_so_far
        result.iterations_used = best.iteration
        result.sketch_loc = best.sketch.size_loc()
        result.sketch_ir = best.sketch.size_ir()
        assert best.accuracy is not None
        result.relevance = best.accuracy.relevance
        result.ordering = best.accuracy.ordering
    result.wall_seconds = time.perf_counter() - t0
    return result


def _select_best(scores: Sequence[IterationScore]) -> Optional[IterationScore]:
    """The paper reports "the best sketch that Gist can compute": prefer
    sketches containing the root cause, then highest overall accuracy, then
    the earliest (lowest-latency) iteration."""
    ranked = [s for s in scores if s.accuracy is not None]
    if not ranked:
        return None
    return max(ranked, key=lambda s: (
        s.root_found,
        s.accuracy.overall,           # type: ignore[union-attr]
        -s.recurrences_so_far,
    ))


# ---------------------------------------------------------------------------
# Fig. 11: overhead vs tracked slice size
# ---------------------------------------------------------------------------


def overhead_for_sigma(spec: BugSpec, sigma: int,
                       runs: int = 8) -> float:
    """Average client overhead (%) when tracking a σ-statement window."""
    module = spec.module()
    client = GistClient(module)
    # Build the slice from the bug's failing probe (one bootstrap failure).
    probe = spec.failing_probe or spec.workload_factory(0)
    report = None
    for attempt in range(200):
        out = client.run(spec.workload_factory(attempt)).outcome
        if out.failed:
            report = out.failure
            break
    if report is None:
        return 0.0
    from ..core.server import GistServer

    server = GistServer(module)
    campaign = server.handle_failure_report(spec.bug_id, report,
                                            initial_sigma=sigma)
    campaign.begin_iteration()
    patches = campaign.make_patches(1)
    overheads: List[float] = []
    for i in range(runs):
        workload = spec.workload_factory(1000 + i)
        res = client.run(workload, patch=patches[i % len(patches)])
        assert res.monitored is not None
        overheads.append(res.monitored.overhead)
    return 100.0 * sum(overheads) / len(overheads)


# ---------------------------------------------------------------------------
# Fig. 13: full-tracing overheads (Intel PT vs software PT vs record/replay)
# ---------------------------------------------------------------------------


@dataclass
class TracingOverheads:
    """Full-tracing overheads of one program under the three tracers."""
    bug_id: str
    intel_pt_percent: float
    software_pt_percent: float
    rr_percent: float

    @property
    def rr_over_pt(self) -> float:
        """Mozilla-rr-to-Intel-PT overhead ratio (∞ when PT ≈ free)."""
        if self.intel_pt_percent <= 0.005:
            return float("inf")
        return self.rr_percent / self.intel_pt_percent


def full_tracing_overheads(spec: BugSpec, runs: int = 5) -> TracingOverheads:
    """Measure full-program tracing costs for one corpus program."""
    module = spec.module()

    def measure(make_tracer) -> float:
        total = 0.0
        for i in range(runs):
            workload = spec.workload_factory(i)
            tracer = make_tracer()
            interp = Interpreter(module, args=list(workload.args),
                                 scheduler=workload.make_scheduler(),
                                 tracers=[tracer],
                                 max_steps=workload.max_steps)
            out = interp.run()
            total += out.overhead
        return 100.0 * total / runs

    return TracingOverheads(
        bug_id=spec.bug_id,
        intel_pt_percent=measure(
            lambda: PTEncoder(PTConfig(), trace_on_start=True)),
        software_pt_percent=measure(
            lambda: SoftwarePTEncoder(PTConfig(), trace_on_start=True)),
        rr_percent=measure(
            lambda: Recorder(module.name)),
    )
