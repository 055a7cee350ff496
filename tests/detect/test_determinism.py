"""Detector determinism across execution engines.

Detectors ride :class:`RunJob` descriptors as plain names and are
re-instantiated inside whatever engine runs the job — so a campaign over
a detection bug must produce identical trajectories and byte-identical
sketches under the inline (one thread), thread-pool, and process-pool
executors (process workers rebuild the detectors from the names on the
far side of a pickle boundary).
"""

import pytest

from repro.core import CooperativeDeployment, render_sketch
from repro.core.serialize import sketch_to_json
from repro.corpus import get_bug

#: (executor, workers) matrix — mirrors tests/fleet/test_executors.py;
#: the first runs inline and is the reference.
ENGINES = [("threads", 1), ("threads", 4), ("processes", 2)]


def run_campaign(bug_id, executor, workers):
    spec = get_bug(bug_id)
    deployment = CooperativeDeployment(
        spec.module(), spec.workload_factory,
        endpoints=4, bug=spec.bug_id, fleet_workers=workers,
        executor=executor, detectors=spec.detectors)
    with deployment:
        stats = deployment.run_campaign(stop_when=spec.sketch_has_root,
                                        max_iterations=3)
    return stats


@pytest.fixture(scope="module")
def race_by_engine():
    return {engine: run_campaign("evloop-1", *engine) for engine in ENGINES}


def test_race_campaign_stats_identical(race_by_engine):
    inline = race_by_engine[ENGINES[0]]
    assert inline.failure_recurrences > 0
    for engine in ENGINES[1:]:
        stats = race_by_engine[engine]
        assert stats.found == inline.found
        assert stats.iterations == inline.iterations
        assert stats.failure_recurrences == inline.failure_recurrences
        assert stats.total_runs == inline.total_runs


def test_race_sketch_byte_identical(race_by_engine):
    reference = race_by_engine[ENGINES[0]].sketch
    assert reference.race_steps  # the sketch carries the racing accesses
    for engine in ENGINES[1:]:
        sketch = race_by_engine[engine].sketch
        assert render_sketch(sketch) == render_sketch(reference)
        assert sketch_to_json(sketch) == sketch_to_json(reference)


def test_nullorigin_campaign_identical_across_engines():
    results = {engine: run_campaign("tpqueue-1", *engine)
               for engine in ENGINES}
    reference = results[ENGINES[0]]
    assert reference.failure_recurrences > 0
    assert reference.sketch.origin_steps
    for engine in ENGINES[1:]:
        stats = results[engine]
        assert stats.failure_recurrences == reference.failure_recurrences
        assert sketch_to_json(stats.sketch) == sketch_to_json(
            reference.sketch)
