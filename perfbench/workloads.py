"""The benchmark's three workloads.

Each is a closed loop in one process: one operation in flight at a time,
issued from the main thread (the ``threads`` engine with one worker runs
client runs inline).  A workload runs a fixed number of rounds; a round
visits all 15 registered corpus bugs in registry order, one operation per
bug, so a slow spell of the host touches every bug a little instead of one
bug a lot.  Run-id offsets are added to the run ids each bug's own
``workload_factory`` receives; the seed picks them (see :mod:`perfbench`,
"Inputs").

``corpus-diagnose``
    One diagnosis (``CooperativeDeployment.run_campaign`` plus the rendered
    sketch, as ``repro corpus diagnose`` does) per bug per round, with a
    fresh offset from the fixed panel each round.  Set-up compiles each
    module, builds its ``AnalysisContext`` and runs one cold diagnosis per
    bug on the unshifted run stream.  It is the ROADMAP's unit of work and
    the only workload where monitored interpretation, PT decode, predictor
    extraction and wire encode do the work; cold costs (GIR-to-Python
    compile, slicing) land in its ``setup_s``.  A diagnosis fails when it
    produces no sketch or ``BugSpec.sketch_has_root`` rejects the sketch.

``fleet-plain``
    One uninstrumented production run (``GistClient.run`` with no patch, the
    bug's declared detectors attached) per bug per round.  Set-up is the
    front-end and GIR-to-Python compile of every module, plus a seeded
    sample of the measured runs re-run on the decoded tier
    (``GistClient(interp_mode="decoded")``, the independent interpreter).
    Every user pays for these runs all the time, yet they are a few percent
    of a diagnosis: a change that speeds monitored runs but slows plain ones
    would hide inside ``corpus-diagnose``.  A run fails when it raises, or
    when it is in the sample and its outcome or failure identity differs
    from the decoded tier's.

``server-replay``
    Set-up records each bug's uplink envelopes (failure reports, patch acks,
    monitored runs) and iteration boundaries from one live diagnosis at the
    panel's first offset, with its rendered sketch.  Each operation replays
    one recorded campaign into a fresh ``GistServer`` sharing the bug's warm
    ``AnalysisContext``: ``receive``, ``handle_failure_report``,
    ``begin_iteration`` / ``make_patches``, ``ingest_wire``,
    ``finish_iteration``, ``render_sketch``.  Server layers are a few
    percent of a diagnosis but all of what a server thread spends per fleet
    report, and decode runs here at a rate ``corpus-diagnose`` never
    reaches.  A replay fails when it meets a quarantined, stale or duplicate
    envelope, or when its sketch text differs from the live one.

The diagnosis defaults are those of ``repro corpus diagnose``: 4
endpoints, at most 6 AsT iterations, the ``threads`` engine with 1 worker,
the ``wire`` transport, exact statistics and the F-measure ranker,
stopping at the first sketch for which ``sketch_has_root`` holds.
``control`` (shards and cohorts), ``replay``, the socket transport and the
journal are off this path and out of scope.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.context import AnalysisContext
from repro.core import render
from repro.core.adaptive import DEFAULT_SIGMA
from repro.core.client import GistClient
from repro.core.cooperative import CooperativeDeployment
from repro.core.server import DiagnosisCampaign, GistServer
from repro.fleet import wire
from repro.runtime import interpreter

from .spans import Wrapped
from .summary import offsets, panel_offsets

ENDPOINTS = 4
MAX_ITERATIONS = 6

#: The run-id offsets every seed diagnoses, per bug.  A diagnosis's cost
#: varies up to a hundredfold across offsets, so a panel drawn blindly can
#: be far from typical (the first one tried made rounds nearly twice as
#: long).  Each bug's three offsets are those, among 28 drawn as
#: ``10_000 * randrange(1000)`` from ``random.Random(7)`` and
#: ``random.Random(11)``, whose diagnoses needed the number of client runs
#: closest to that bug's median over the 28; all 28 found the root cause.
PANEL: Dict[str, Tuple[int, ...]] = {
    "apache-21285": (2_190_000, 4_630_000, 6_160_000),
    "apache-21287": (360_000, 3_380_000, 3_500_000),
    "apache-25520": (880_000, 7_420_000, 2_760_000),
    "apache-45605": (470_000, 740_000, 1_470_000),
    "cppcheck-2782": (170_000, 4_280_000, 5_000_000),
    "cppcheck-3238": (1_110_000, 1_370_000, 1_950_000),
    "curl-965": (740_000, 2_030_000, 2_180_000),
    "evloop-1": (0, 920_000, 3_060_000),
    "memcached-127": (150_000, 2_940_000, 1_870_000),
    "pbzip2-1": (920_000, 2_080_000, 3_340_000),
    "pbzip2-cv": (610_000, 740_000, 1_340_000),
    "ringbuf-1": (890_000, 1_290_000, 3_180_000),
    "sqlite-1672": (700_000, 1_910_000, 2_330_000),
    "tpqueue-1": (3_400_000, 5_950_000, 1_260_000),
    "transmission-1818": (1_680_000, 1_810_000, 4_210_000),
}


def _panel(specs) -> List[Tuple[int, ...]]:
    missing = [spec.bug_id for spec in specs if spec.bug_id not in PANEL]
    if missing:
        raise ValueError(f"no offset panel for {missing}; add them to "
                         f"perfbench.workloads.PANEL")
    return [PANEL[spec.bug_id] for spec in specs]


@dataclass
class Checked:
    """What the loop keeps of one operation once it has been checked."""

    ok: bool
    #: Client runs the operation processed: executed (``corpus-diagnose``,
    #: ``fleet-plain``) or ingested as monitored runs (``server-replay``).
    runs: int
    #: Deterministic counts; each repeats exactly for one seed.
    counts: Dict[str, int] = field(default_factory=dict)


class CorpusDiagnose:
    name = "corpus-diagnose"
    #: Rounds are sized from ``--seconds`` with this nominal round time;
    #: three rounds at least, so each bug's median has three samples and
    #: p75 has ten diagnoses beyond it.  Rounds beyond the panel's three
    #: revisit it.
    round_s = 11.0
    min_rounds = 3

    def __init__(self, specs, seed: int, rounds: int) -> None:
        self.specs = specs
        self.offsets = panel_offsets(seed, rounds, _panel(specs))
        self.contexts: List[AnalysisContext] = []

    def setup(self) -> None:
        self.contexts = [AnalysisContext(spec.module())
                         for spec in self.specs]
        for i in range(len(self.specs)):
            self.op(i, 0)

    def input(self, r: int, i: int) -> int:
        return self.offsets[r][i]

    def op(self, i: int, offset: int):
        spec = self.specs[i]
        factory = spec.workload_factory
        with CooperativeDeployment(
                spec.module(), lambda run_id: factory(run_id + offset),
                endpoints=ENDPOINTS, bug=spec.bug_id,
                context=self.contexts[i], fleet_workers=1,
                executor="threads", transport="wire",
                detectors=spec.detectors, ranker="fmeasure",
                stats="exact") as deployment:
            stats = deployment.run_campaign(
                stop_when=spec.sketch_has_root,
                max_iterations=MAX_ITERATIONS)
        text = (render.render_sketch(stats.sketch)
                if stats.sketch is not None else None)
        return stats, text

    def check(self, r: int, i: int, result) -> Checked:
        stats, _text = result
        ok = (stats.sketch is not None
              and self.specs[i].sketch_has_root(stats.sketch))
        fleet = stats.fleet or {}
        return Checked(ok, stats.total_runs, {
            "recurrences": stats.failure_recurrences,
            "client_runs": stats.total_runs,
            "monitored_runs": stats.monitored_runs,
            "iterations": stats.iterations,
            "quarantined": fleet.get("quarantined", 0),
            "stale": fleet.get("stale_discarded", 0),
            "duplicates": fleet.get("duplicates_ignored", 0),
        })


def _signature(outcome) -> Tuple:
    identity = (outcome.failure.identity()
                if outcome.failure is not None else None)
    return (outcome.failed, identity, outcome.exit_value, outcome.steps,
            tuple(outcome.stdout))


class FleetPlain:
    name = "fleet-plain"
    round_s = 0.15
    min_rounds = 1
    #: Measured runs per bug that set-up re-runs on the decoded tier.
    SAMPLE_PER_BUG = 3

    def __init__(self, specs, seed: int, rounds: int) -> None:
        self.specs = specs
        # Each bug's runs are consecutive run ids from a seeded start, as a
        # deployment draws them, so the inputs a factory cycles through by
        # run id come up equally often for every seed.
        self.starts = offsets(seed, len(specs))
        rng = random.Random(f"{seed}/decoded-sample")
        per_bug = min(self.SAMPLE_PER_BUG, rounds)
        self.sample = {(r, i) for i in range(len(specs))
                       for r in rng.sample(range(rounds), per_bug)}
        self.reference: Dict[Tuple[int, int], Tuple] = {}
        self.clients: List[GistClient] = []

    def setup(self) -> None:
        for spec in self.specs:
            interpreter.compiled_program(spec.module())
            self.clients.append(GistClient(spec.module(),
                                           detectors=spec.detectors))
        for r, i in sorted(self.sample):
            spec = self.specs[i]
            decoded = GistClient(spec.module(), interp_mode="decoded",
                                 detectors=spec.detectors)
            self.reference[(r, i)] = _signature(
                decoded.run(self.input(r, i)).outcome)

    def input(self, r: int, i: int):
        return self.specs[i].workload_factory(self.starts[i] + r)

    def op(self, i: int, workload):
        return self.clients[i].run(workload)

    def check(self, r: int, i: int, result) -> Checked:
        signature = _signature(result.outcome)
        ok = self.reference.get((r, i), signature) == signature
        digest = hashlib.sha256(repr(signature).encode()).digest()
        return Checked(ok, 1, {
            "steps": result.outcome.steps,
            "failing_runs": int(result.outcome.failed),
            "outcome_digest": int.from_bytes(digest[:4], "big"),
        })


# Recorded campaign events: an uplink payload, or an iteration boundary.
BLOB, BEGIN, FINISH, GROW = "blob", "begin", "finish", "grow"


@dataclass
class Recording:
    log: List[Tuple[str, Optional[bytes]]]
    sketch_text: Optional[str]


class ServerReplay:
    name = "server-replay"
    round_s = 0.6
    min_rounds = 1

    def __init__(self, specs, seed: int, rounds: int) -> None:
        self.specs = specs
        # One recording per bug is all set-up can afford, so every seed
        # replays the same campaigns.
        self.live_offsets = [panel[0] for panel in _panel(specs)]
        self.contexts: List[AnalysisContext] = []
        self.recordings: List[Recording] = []

    def setup(self) -> None:
        self.contexts = [AnalysisContext(spec.module())
                         for spec in self.specs]
        live = CorpusDiagnose(self.specs, 0, 1)
        live.contexts = self.contexts
        for i, offset in enumerate(self.live_offsets):
            log: List[Tuple[str, Optional[bytes]]] = []
            wrapped = _record_into(log)
            try:
                _stats, text = live.op(i, offset)
            finally:
                wrapped.restore()
            self.recordings.append(Recording(log, text))

    def input(self, r: int, i: int) -> Recording:
        return self.recordings[i]

    def op(self, i: int, recording: Recording):
        spec = self.specs[i]
        server = GistServer(spec.module(), context=self.contexts[i],
                            ranker="fmeasure", stats="exact")
        campaign: Optional[DiagnosisCampaign] = None
        sketch = None
        ingested = 0
        for kind, blob in recording.log:
            if kind == BLOB:
                message = server.receive(blob)
                if message is None:
                    continue  # quarantined; counted by the server
                if message.type == wire.MSG_FAILURE_REPORT:
                    if campaign is None:
                        campaign = server.handle_failure_report(
                            spec.bug_id, message.payload, DEFAULT_SIGMA)
                    else:
                        campaign.note_unmonitored_report(message.payload)
                elif campaign is None:
                    continue  # nothing to route to yet, as live
                elif message.type == wire.MSG_PATCH_ACK:
                    campaign.note_ack(message.payload["endpoint_id"],
                                      message.epoch)
                elif message.type == wire.MSG_MONITORED_RUN:
                    if campaign.ingest_wire(message) is not None:
                        ingested += 1
            elif kind == BEGIN:
                campaign.begin_iteration()
                campaign.make_patches(ENDPOINTS)
            elif kind == FINISH:
                result = campaign.finish_iteration()
                if result.sketch is not None:
                    sketch = result.sketch
            elif kind == GROW:
                campaign.grow()
        text = render.render_sketch(sketch) if sketch is not None else None
        return server, campaign, ingested, text

    def check(self, r: int, i: int, result) -> Checked:
        server, campaign, ingested, text = result
        counts = {
            "envelopes": sum(1 for kind, _ in self.recordings[i].log
                             if kind == BLOB),
            "ingested": ingested,
            "iterations": len(campaign.iterations),
            "recurrences": campaign.total_failure_recurrences,
            "quarantined": server.quarantined_count,
            "stale": campaign.stale_runs_discarded,
            "duplicates": campaign.duplicate_runs_ignored,
        }
        ok = (text is not None and text == self.recordings[i].sketch_text
              and counts["quarantined"] == counts["stale"]
              == counts["duplicates"] == 0)
        return Checked(ok, ingested, counts)


def _record_into(log: List) -> Wrapped:
    """Log every uplink payload the server receives and every iteration
    boundary, in order, until ``restore()``."""
    wrapped = Wrapped()

    def receive(fn):
        def wrapper(server, blob):
            log.append((BLOB, bytes(blob)))
            return fn(server, blob)
        return wrapper

    def boundary(kind):
        def make(fn):
            def wrapper(campaign, *args, **kwargs):
                log.append((kind, None))
                return fn(campaign, *args, **kwargs)
            return wrapper
        return make

    wrapped.wrap(GistServer, "receive", receive)
    wrapped.wrap(DiagnosisCampaign, "begin_iteration", boundary(BEGIN))
    wrapped.wrap(DiagnosisCampaign, "finish_iteration", boundary(FINISH))
    wrapped.wrap(DiagnosisCampaign, "grow", boundary(GROW))
    return wrapped


WORKLOADS = {cls.name: cls for cls in (CorpusDiagnose, FleetPlain,
                                       ServerReplay)}
