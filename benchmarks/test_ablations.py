"""Ablations of Gist's design choices (beyond the paper's Fig. 10).

Three choices the paper motivates but does not ablate in isolation; each
ablation here shows the choice earning its keep:

1. **F-measure β = 0.5** (§3.3): precision-favouring ranking.  On real
   campaign data, a recall-favouring β = 2 promotes noisier predictors.
2. **Control dependences in the slice**: dropping them loses the governing
   branches the sketches display (e.g. Fig. 8's ``if (!obj->refcnt)``).
3. **Syntactic must-alias linking**: without it, static slices lose the
   cross-function/cross-thread stores (the root-cause statements of most
   concurrency bugs in the corpus) — which is exactly the gap the paper's
   runtime data-flow tracking exists to fill.
"""

import pytest

from repro.analysis import BackwardSlicer
from repro.core import (
    GistClient,
    GistServer,
    PredictorRanker,
)
from repro.corpus import get_bug

from _shared import bench_bug_ids, emit


def _first_failure(spec, budget=300):
    client = GistClient(spec.module())
    for i in range(budget):
        out = client.run(spec.workload_factory(i)).outcome
        if out.failed:
            return out.failure
    raise AssertionError(f"{spec.bug_id}: no failure in {budget} runs")


# ---------------------------------------------------------------------------
# 1. beta ablation
# ---------------------------------------------------------------------------


def _collect_runs(spec, n_failing=3, n_successful=6, budget=400):
    """Monitored runs from a real σ=8 deployment of one bug."""
    module = spec.module()
    client = GistClient(module)
    report = _first_failure(spec)
    server = GistServer(module)
    campaign = server.handle_failure_report(spec.bug_id, report,
                                            initial_sigma=8)
    campaign.begin_iteration()
    patches = campaign.make_patches(1)
    failing, successful = [], []
    for i in range(budget):
        res = client.run(spec.workload_factory(1000 + i),
                         patch=patches[i % len(patches)])
        run = res.monitored
        if run.failed and run.failure.identity() == report.identity():
            failing.append(run)
        elif not run.failed:
            successful.append(run)
        if len(failing) >= n_failing and len(successful) >= n_successful:
            break
    return module, failing, successful


@pytest.mark.benchmark(group="ablation")
def test_ablation_beta_favours_precision(benchmark):
    spec = get_bug("sqlite-1672")

    def compute():
        module, failing, successful = _collect_runs(spec)
        rankers = {}
        for beta in (0.5, 1.0, 2.0):
            ranker = PredictorRanker(beta=beta)
            for run in failing:
                ranker.add_run(run.predictors, failed=True)
            for run in successful:
                ranker.add_run(run.predictors, failed=False)
            rankers[beta] = ranker
        return rankers

    rankers = benchmark.pedantic(compute, rounds=1, iterations=1)

    lines = ["Ablation: F-measure beta (predictor ranking on sqlite-1672)",
             "=" * 66]
    for beta, ranker in rankers.items():
        tops = ranker.ranked()[:3]
        lines.append(f"beta={beta}:")
        for stats in tops:
            lines.append(f"   F={stats.f_measure:.3f} P={stats.precision:.2f} "
                         f"R={stats.recall:.2f}  "
                         f"{stats.predictor.describe()}")
    emit("ablation_beta", "\n".join(lines))

    # The paper's choice: at beta=0.5 the top predictor is perfectly
    # precise (no successful run exhibits it).
    top_05 = rankers[0.5].ranked()[0]
    assert top_05.precision == pytest.approx(1.0), \
        "beta=0.5 must never promote a false-positive-prone predictor"
    # Recall-heavy ranking tolerates lower precision at the top.
    top_20 = rankers[2.0].ranked()[0]
    assert top_20.recall >= top_05.recall - 1e-9


# ---------------------------------------------------------------------------
# 2. control-dependence ablation
# ---------------------------------------------------------------------------


@pytest.mark.benchmark(group="ablation")
def test_ablation_control_dependences(benchmark):
    def compute():
        rows = {}
        for bug_id in bench_bug_ids():
            spec = get_bug(bug_id)
            module = spec.module()
            report = _first_failure(spec)
            slicer = BackwardSlicer(module)
            with_cd = slicer.slice_from(report.pc,
                                        include_control_deps=True)
            without_cd = slicer.slice_from(report.pc,
                                           include_control_deps=False)
            rows[bug_id] = (with_cd, without_cd)
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)

    lines = ["Ablation: control dependences in the static slice",
             "=" * 64,
             f"{'Bug':<18} {'with (stmts)':>13} {'without':>9} {'lost':>6}"]
    total_lost = 0
    for bug_id, (with_cd, without_cd) in rows.items():
        lost = with_cd.size_loc() - without_cd.size_loc()
        total_lost += lost
        lines.append(f"{bug_id:<18} {with_cd.size_loc():>13} "
                     f"{without_cd.size_loc():>9} {lost:>6}")
    emit("ablation_control_deps", "\n".join(lines))

    for bug_id, (with_cd, without_cd) in rows.items():
        assert without_cd.uids <= with_cd.uids, bug_id
    assert total_lost > 0, \
        "control dependences must contribute statements somewhere"


# ---------------------------------------------------------------------------
# 3. must-alias ablation
# ---------------------------------------------------------------------------


@pytest.mark.benchmark(group="ablation")
def test_ablation_must_alias_linking(benchmark):
    def compute():
        rows = {}
        for bug_id in bench_bug_ids():
            spec = get_bug(bug_id)
            module = spec.module()
            report = _first_failure(spec)
            full = BackwardSlicer(module).slice_from(report.pc)
            bare = BackwardSlicer(
                module, use_must_alias=False).slice_from(report.pc)
            ideal = spec.ideal_sketch()
            def coverage(slice_):
                stmts = set(slice_.statements())
                root = ideal.root_cause or set()
                return (len(stmts & ideal.statements),
                        bool(root) and root <= stmts)
            rows[bug_id] = (full, bare, coverage(full), coverage(bare))
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)

    lines = ["Ablation: syntactic must-alias store linking",
             "=" * 70,
             f"{'Bug':<18} {'slice':>6} {'bare':>6} "
             f"{'ideal-hit':>10} {'bare-hit':>9} {'root':>5} {'bare':>5}"]
    regressions = 0
    for bug_id, (full, bare, cov_full, cov_bare) in rows.items():
        lines.append(f"{bug_id:<18} {full.size_loc():>6} "
                     f"{bare.size_loc():>6} {cov_full[0]:>10} "
                     f"{cov_bare[0]:>9} {str(cov_full[1]):>5} "
                     f"{str(cov_bare[1]):>5}")
        if cov_bare[0] < cov_full[0]:
            regressions += 1
    emit("ablation_must_alias", "\n".join(lines))

    # Without must-alias, slices shrink and lose ideal statements for a
    # majority of bugs — the gap watchpoint discovery must then fill.
    assert regressions >= len(rows) // 2, \
        f"expected must-alias to matter widely, regressions={regressions}"
    # Flagship case: pbzip2's root store leaves the slice entirely.
    if "pbzip2-1" in rows:
        _full, bare, cov_full, cov_bare = rows["pbzip2-1"]
        assert cov_full[1] and not cov_bare[1]
