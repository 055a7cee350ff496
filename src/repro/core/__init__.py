"""The paper's contribution: failure sketching (Gist).

Modules map to the paper's design sections:

- :mod:`repro.core.adaptive` — Adaptive Slice Tracking (§3.2.1)
- :mod:`repro.core.refinement` — slice refinement (§3.2.2, §3.2.3)
- :mod:`repro.core.predictors` / :mod:`repro.core.stats` — root cause
  identification (§3.3)
- :mod:`repro.core.sketch` / :mod:`repro.core.render` — the artifact
- :mod:`repro.core.accuracy` — §5.2's metrics
- :mod:`repro.core.server` / :mod:`repro.core.client` /
  :mod:`repro.core.cooperative` — the cooperative deployment (Fig. 2)
- :mod:`repro.core.gist` — the one-call facade
"""

from .accuracy import AccuracyReport, IdealSketch, kendall_tau_distance, score
from .clustering import FailureBucket, FailureClusterer
from .adaptive import DEFAULT_SIGMA, AdaptiveSliceTracker, AstIteration
from .client import ClientRunResult, GistClient
from .cooperative import CampaignStats, CooperativeDeployment
from .gist import DiagnosisResult, Gist
from .html import render_html
from .predictors import (
    ATOMICITY_PATTERNS,
    Predictor,
    RACE_PATTERNS,
    VALUE_RELATIONS,
    extract_all,
    extract_order_predictors,
    extract_range_predictors,
    extract_value_predictors,
)
from .privacy import Anonymizer, ValuePolicy, information_shipped
from .serialize import sketch_from_json, sketch_to_json
from .refinement import (
    MonitoredRun,
    OrderedEvent,
    RefinementResult,
    RunningRefinement,
    global_event_order,
    refine,
)
from .render import render_compact, render_sketch
from .server import DiagnosisCampaign, GistServer, IterationResult
from .sketch import FailureSketch, SketchStep, build_sketch
from .stats import DEFAULT_BETA, PredictorRanker, PredictorStats, f_measure
from .workload import Workload, WorkloadFactory, constant_factory, mixed_factory

__all__ = [
    "ATOMICITY_PATTERNS",
    "AccuracyReport",
    "AdaptiveSliceTracker",
    "AstIteration",
    "CampaignStats",
    "ClientRunResult",
    "CooperativeDeployment",
    "DEFAULT_BETA",
    "DEFAULT_SIGMA",
    "DiagnosisCampaign",
    "DiagnosisResult",
    "FailureSketch",
    "Gist",
    "GistClient",
    "GistServer",
    "IdealSketch",
    "IterationResult",
    "MonitoredRun",
    "OrderedEvent",
    "Predictor",
    "PredictorRanker",
    "PredictorStats",
    "RACE_PATTERNS",
    "RefinementResult",
    "SketchStep",
    "Workload",
    "WorkloadFactory",
    "build_sketch",
    "constant_factory",
    "extract_all",
    "extract_order_predictors",
    "extract_range_predictors",
    "extract_value_predictors",
    "f_measure",
    "global_event_order",
    "kendall_tau_distance",
    "mixed_factory",
    "refine",
    "RunningRefinement",
    "render_compact",
    "render_html",
    "render_sketch",
    "score",
    "sketch_from_json",
    "sketch_to_json",
    "Anonymizer",
    "FailureBucket",
    "FailureClusterer",
    "VALUE_RELATIONS",
    "ValuePolicy",
    "information_shipped",
]
