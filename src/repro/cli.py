"""The ``repro`` command-line interface.

A developer-facing front door to the whole pipeline::

    python -m repro compile  prog.minic            # dump GIR
    python -m repro run      prog.minic 4 --seed 7 # execute once
    python -m repro trace    prog.minic 4          # full-PT trace a run
    python -m repro diagnose prog.minic 4 --switch-prob 0.05 \\
                             --html sketch.html    # run Gist end-to-end
    python -m repro corpus list                    # the 11 Table-1 bugs
    python -m repro corpus show pbzip2-1           # sources + ideal sketch
    python -m repro corpus diagnose pbzip2-1       # campaign on one bug
    python -m repro corpus campaign pbzip2-1 curl-965 memcached-127 \\
                             --shards 2 --cohort-size 1000 \\
                             --scheduler infogain # concurrent campaigns

Program arguments after the file are parsed as integers when possible and
passed as strings otherwise (so ``run curl.minic '{}{' 400`` works).
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from typing import List, Optional, Sequence

from .analysis import compute_slice
from .core import (
    CooperativeDeployment,
    Gist,
    Workload,
    constant_factory,
    render_sketch,
    score,
)
from .core.html import render_html
from .core.serialize import sketch_to_json
from .core.streaming import STATS_KINDS
from .lang import compile_source, verify
from .pt import PTConfig, PTDecoder, PTEncoder
from .runtime import Interpreter, RandomScheduler


def _parse_args_values(raw: Sequence[str]) -> List:
    out: List = []
    for token in raw:
        try:
            out.append(int(token, 0))
        except ValueError:
            out.append(token)
    return out


def _load_module(path: str):
    with open(path) as handle:
        source = handle.read()
    module = compile_source(source, module_name=path)
    verify(module)
    return module


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_compile(args: argparse.Namespace) -> int:
    """``repro compile``: dump a program's GIR assembly."""
    module = _load_module(args.program)
    print(module.format())
    print(f"\n; {module.num_instructions()} instructions, "
          f"{len(module.functions)} functions, "
          f"{len(module.globals)} globals", file=sys.stderr)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: execute a program once and report the outcome."""
    module = _load_module(args.program)
    scheduler = (RandomScheduler(args.seed, args.switch_prob)
                 if args.seed is not None else None)
    interp = Interpreter(module, args=_parse_args_values(args.args),
                         scheduler=scheduler, max_steps=args.max_steps)
    if args.profile_run:
        profiler = cProfile.Profile()
        outcome = profiler.runcall(interp.run)
    else:
        outcome = interp.run()
    for line in outcome.stdout:
        print(line)
    if args.profile_run:
        pstats.Stats(profiler, stream=sys.stderr).sort_stats(
            pstats.SortKey.TIME).print_stats(15)
    if outcome.failed:
        print(outcome.failure.format(), file=sys.stderr)
        return 1
    print(f"exit={outcome.exit_value} steps={outcome.steps} "
          f"cycles={outcome.base_cost}", file=sys.stderr)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: run under full PT tracing and decode the stream."""
    module = _load_module(args.program)
    encoder = PTEncoder(PTConfig(), trace_on_start=True)
    scheduler = (RandomScheduler(args.seed, args.switch_prob)
                 if args.seed is not None else None)
    interp = Interpreter(module, args=_parse_args_values(args.args),
                         scheduler=scheduler, tracers=[encoder],
                         max_steps=args.max_steps)
    outcome = interp.run()
    decoder = PTDecoder(module)
    print(f"run: {'FAILED' if outcome.failed else 'ok'}, "
          f"{outcome.steps} instructions")
    for tid in sorted(encoder.buffers):
        raw = encoder.raw_trace(tid)
        trace = decoder.decode(raw)
        seq = trace.executed_sequence()
        print(f"thread {tid}: {len(raw)} trace bytes, "
              f"{len(trace.windows)} windows, {len(seq)} instructions "
              f"decoded "
              f"({8 * len(raw) / max(len(seq), 1):.2f} bits/instr)")
        if args.verbose:
            for uid in seq:
                ins = module.instr(uid)
                print(f"  T{tid} #{uid:<5} {ins.func_name}:{ins.line} "
                      f"{ins.format()}")
    print(f"full-trace overhead: {100 * outcome.overhead:.2f}%")
    return 0


def cmd_coverage(args: argparse.Namespace) -> int:
    """``repro coverage``: accumulate PT-based coverage over N runs."""
    from .analysis.coverage import coverage_from_traces

    module = _load_module(args.program)
    decoder = PTDecoder(module)
    traces = []
    base_seed = args.seed if args.seed is not None else 0
    for run_index in range(args.runs):
        encoder = PTEncoder(PTConfig(), trace_on_start=True)
        scheduler = RandomScheduler(base_seed + run_index,
                                    args.switch_prob)
        interp = Interpreter(module, args=_parse_args_values(args.args),
                             scheduler=scheduler, tracers=[encoder],
                             max_steps=args.max_steps)
        interp.run()
        for tid in sorted(encoder.buffers):
            traces.append(decoder.decode(encoder.raw_trace(tid)))
    report = coverage_from_traces(module, traces)
    print(report.format())
    return 0


def cmd_slice(args: argparse.Namespace) -> int:
    """``repro slice``: print the static backward slice from a uid."""
    module = _load_module(args.program)
    slice_ = compute_slice(module, args.uid)
    print(slice_.format())
    return 0


def _detectors(args: argparse.Namespace, spec=None) -> tuple:
    """Detector names for a run: ``--detectors`` wins; corpus bugs fall
    back to the detectors their spec declares."""
    from .detect import validate_detectors

    raw = getattr(args, "detectors", None)
    if raw is None:
        return tuple(spec.detectors) if spec is not None else ()
    if raw in ("", "none"):
        return ()
    return validate_detectors(raw.split(","))


def cmd_diagnose(args: argparse.Namespace) -> int:
    """``repro diagnose``: run a full Gist campaign on a program."""
    module = _load_module(args.program)
    gist = Gist(module, bug=args.bug or args.program,
                endpoints=args.endpoints, ptwrite=args.ptwrite,
                detectors=_detectors(args),
                ranker=args.ranker,
                stats=args.stats,
                fleet_workers=args.fleet_workers,
                executor=args.executor,
                analysis_cache_dir=args.cache_dir,
                transport=args.fleet_transport,
                fault_plan=args.fault_plan,
                shards=args.shards,
                cohort_size=args.cohort_size,
                cohort_share=args.cohort_share,
                scheduler=args.scheduler,
                quantum=args.quantum,
                journal_dir=args.journal_dir,
                batch_bytes=args.batch_bytes,
                batch_ms=args.batch_ms)
    workload = Workload(args=tuple(_parse_args_values(args.args)),
                        switch_prob=args.switch_prob,
                        max_steps=args.max_steps)
    result = gist.diagnose(constant_factory(workload),
                           initial_sigma=args.sigma,
                           max_iterations=args.max_iterations)
    if result.sketch is None:
        print("no failure observed; nothing to diagnose", file=sys.stderr)
        return 1
    print(result.rendered())
    _export(result.sketch, args)
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    """``repro corpus``: list/show/diagnose the evaluation corpus."""
    from .corpus import all_bugs, get_bug

    if args.corpus_command == "list":
        specs = all_bugs(include_extra=True)
        if args.kind:
            specs = [spec for spec in specs
                     if spec.failure_kind.value == args.kind]
        for spec in specs:
            marker = "extra" if spec.extra else "T1"
            detectors = ",".join(spec.detectors) or "-"
            print(f"{spec.bug_id:<18} {spec.software[:24]:<24} "
                  f"{spec.kind:<12} {spec.failure_kind.value:<18} "
                  f"{marker:<6} {detectors:<18} "
                  f"{spec.description[:48]}")
        if not specs:
            print(f"no corpus bugs with failure kind {args.kind!r}",
                  file=sys.stderr)
            return 1
        return 0

    if args.corpus_command == "campaign":
        return _cmd_corpus_campaign(args)

    spec = get_bug(args.bug_id)
    if args.corpus_command == "show":
        print(f"# {spec.bug_id}: {spec.description}\n")
        print(spec.source)
        ideal = spec.ideal_sketch()
        print(f"# ideal sketch: {sorted(ideal.statements)}")
        print(f"# root cause  : {sorted(ideal.root_cause)} "
              f"{ideal.value_roots}")
        return 0

    if args.corpus_command == "diagnose":
        from .analysis.context import AnalysisContext

        module = spec.module()
        context = AnalysisContext(module, cache_dir=args.cache_dir)
        with CooperativeDeployment(
                module, spec.workload_factory,
                endpoints=args.endpoints, bug=spec.bug_id,
                context=context, fleet_workers=args.fleet_workers,
                executor=args.executor,
                transport=args.fleet_transport,
                fault_plan=args.fault_plan,
                journal_dir=args.journal_dir,
                batch_bytes=args.batch_bytes,
                batch_ms=args.batch_ms,
                detectors=_detectors(args, spec),
                ranker=args.ranker,
                stats=args.stats) as deployment:
            stats = deployment.run_campaign(
                stop_when=spec.sketch_has_root,
                max_iterations=args.max_iterations)
        context.save()
        if stats.sketch is None:
            print("failure never recurred", file=sys.stderr)
            return 1
        print(render_sketch(stats.sketch))
        accuracy = score(stats.sketch, spec.ideal_sketch())
        print(f"\naccuracy: relevance {accuracy.relevance:.0f}%, "
              f"ordering {accuracy.ordering:.0f}%, "
              f"overall {accuracy.overall:.0f}%")
        _export(stats.sketch, args)
        return 0

    raise AssertionError(f"unknown corpus command {args.corpus_command}")


def _cmd_corpus_campaign(args: argparse.Namespace) -> int:
    """``repro corpus campaign``: N concurrent campaigns, shared fleet."""
    from .analysis.context import AnalysisContext
    from .control import CampaignSpec, ControlPlane
    from .corpus import all_bug_ids, get_bug

    bug_ids = list(args.bug_ids)
    if bug_ids == ["all"]:
        bug_ids = all_bug_ids()
    specs = []
    contexts = []
    for bug_id in bug_ids:
        spec = get_bug(bug_id)
        module = spec.module()
        context = AnalysisContext(module, cache_dir=args.cache_dir)
        contexts.append(context)
        specs.append(CampaignSpec(bug=spec.bug_id, module=module,
                                  workload_factory=spec.workload_factory,
                                  stop_when=spec.sketch_has_root,
                                  context=context,
                                  detectors=_detectors(args, spec)))
    plane = ControlPlane(specs, shards=args.shards,
                         endpoints=args.endpoints,
                         cohort_size=args.cohort_size,
                         cohort_share=args.cohort_share,
                         scheduler=args.scheduler, quantum=args.quantum,
                         fleet_workers=args.fleet_workers,
                         executor=args.executor,
                         fault_plan=args.fault_plan,
                         transport=args.fleet_transport,
                         journal_dir=args.journal_dir,
                         max_iterations=args.max_iterations,
                         ranker=args.ranker, stats=args.stats)
    result = plane.run()
    for context in contexts:
        context.save()

    print(f"control plane: {len(specs)} campaigns, {args.shards} shard(s), "
          f"{args.endpoints} endpoints x cohort {args.cohort_size} "
          f"= {result.fleet_scale:,} modeled clients")
    print(f"scheduler: {args.scheduler}, {result.rounds} rounds, "
          f"round budget {result.round_budget} runs "
          f"(peak round used {result.max_round_runs}), "
          f"{result.total_runs} total runs, {result.wall_seconds:.2f}s")
    print(f"cross-shard merge verified: {result.merge_verified}")
    if args.stats == "streaming":
        peak = max((s.peak_tracked_bytes for s in result.stats.values()),
                   default=0)
        print(f"streaming stats: peak state {peak:,} bytes")
    all_found = True
    for bug_id in bug_ids:
        stats = result.stats[bug_id]
        cluster_key = result.cluster_key_of.get(bug_id, "?")
        shard = result.shard_of.get(cluster_key, "?")
        status = "found" if stats.found else \
            ("sketched" if stats.sketch is not None else "no sketch")
        all_found = all_found and stats.found
        print(f"  {bug_id:<18} shard {shard}  "
              f"runs {result.runs_of[bug_id]:<5} "
              f"iterations {stats.iterations}  {status}")
        if stats.sketch is not None:
            accuracy = score(stats.sketch, get_bug(bug_id).ideal_sketch())
            print(f"  {'':<18} accuracy {accuracy.overall:.0f}% "
                  f"(relevance {accuracy.relevance:.0f}%, "
                  f"ordering {accuracy.ordering:.0f}%)")
        if args.show_sketches and stats.sketch is not None:
            print()
            print(render_sketch(stats.sketch))
            print()
    return 0 if all_found else 1


def cmd_fleet(args: argparse.Namespace) -> int:
    """``repro fleet serve|client``: a diagnosis as separate processes."""
    from .fleet.serve import client_main, serve_main

    batch = dict(batch_messages=args.batch_messages,
                 batch_ms=args.batch_ms if args.batch_ms is not None
                 else 0.0)
    if args.batch_bytes is not None:
        batch["batch_bytes"] = args.batch_bytes
    if args.fleet_command == "serve":
        return serve_main(
            args.bug_id, args.socket,
            journal_dir=args.journal_dir,
            initial_sigma=args.sigma,
            max_iterations=args.max_iterations,
            timeout=args.timeout, **batch)
    return client_main(
        args.bug_id, args.socket,
        endpoints=args.endpoints, base=args.base,
        timeout=args.timeout, **batch)


def _export(sketch, args: argparse.Namespace) -> None:
    if getattr(args, "html", None):
        with open(args.html, "w") as handle:
            handle.write(render_html(sketch))
        print(f"wrote {args.html}", file=sys.stderr)
    if getattr(args, "json", None):
        with open(args.json, "w") as handle:
            handle.write(sketch_to_json(sketch))
        print(f"wrote {args.json}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Failure sketching (Gist, SOSP 2015) — reproduction")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_run_flags(p):
        p.add_argument("args", nargs="*", help="program arguments")
        p.add_argument("--seed", type=int, default=None,
                       help="random-scheduler seed")
        p.add_argument("--switch-prob", type=float, default=0.02)
        p.add_argument("--max-steps", type=int, default=500_000)

    p = sub.add_parser("compile", help="compile MiniC and dump GIR")
    p.add_argument("program")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="execute a MiniC program once")
    p.add_argument("program")
    common_run_flags(p)
    p.add_argument("--profile-run", action="store_true",
                   help="profile the run with cProfile and print the 15 "
                        "functions with the most internal time to stderr "
                        "(generated GIR functions show as _fn_<name>)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("trace", help="run under full Intel-PT tracing")
    p.add_argument("program")
    common_run_flags(p)
    p.add_argument("--verbose", action="store_true",
                   help="dump the decoded instruction stream")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("coverage",
                       help="statement/branch coverage from PT traces")
    p.add_argument("program")
    common_run_flags(p)
    p.add_argument("--runs", type=int, default=1,
                   help="accumulate coverage over N runs")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("slice", help="print the backward slice from a uid")
    p.add_argument("program")
    p.add_argument("uid", type=int)
    p.set_defaults(func=cmd_slice)

    def positive_int(value: str) -> int:
        n = int(value)
        if n < 1:
            raise argparse.ArgumentTypeError("must be a positive integer")
        return n

    def frame_bytes(value: str) -> int:
        from .fleet.socket_transport import MAX_FRAME_BYTES

        n = positive_int(value)
        if n > MAX_FRAME_BYTES:
            raise argparse.ArgumentTypeError(
                f"must be at most {MAX_FRAME_BYTES} (the frame cap)")
        return n

    def fault_plan(value: str):
        from .fleet import parse_fault_plan

        try:
            return parse_fault_plan(value)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err))

    def fleet_flags(p):
        from .fleet.executors import EXECUTOR_KINDS

        p.add_argument("--fleet-workers", type=positive_int, default=1,
                       help="concurrent client runs per fleet batch "
                            "(results are deterministic for any value)")
        p.add_argument("--executor", choices=EXECUTOR_KINDS,
                       default="threads",
                       help="execution engine for client runs: 'threads' "
                            "(default; inline at one worker) or "
                            "'processes' (warm worker pool — true "
                            "parallelism; results are byte-identical "
                            "across engines)")
        p.add_argument("--cache-dir", default=None,
                       help="directory for the on-disk analysis-artifact "
                            "cache (repeat invocations skip cold analysis)")
        p.add_argument("--fleet-transport",
                       choices=("wire", "socket"),
                       default="wire",
                       help="'wire' (encoded-bytes fleet transport, "
                            "default) or 'socket' (the same bytes over a "
                            "real Unix socket with batching and "
                            "backpressure)")
        p.add_argument("--fault-plan", type=fault_plan, default=None,
                       metavar="SPEC",
                       help="inject transport/client/server faults: "
                            "'lossy', 'lossy:SEED', or 'drop=0.05,"
                            "corrupt=0.02,crashes=1,server_crash_every=40,"
                            "ack_delay=0.1,seed=7' (server_crash_every "
                            "needs --journal-dir)")
        p.add_argument("--journal-dir", default=None, metavar="DIR",
                       help="write-ahead campaign journal directory: every "
                            "campaign transition is journaled before apply "
                            "so a killed server resumes mid-campaign")
        p.add_argument("--batch-bytes", type=frame_bytes, default=None,
                       metavar="N",
                       help="socket transport: coalesce up to N payload "
                            "bytes per write (default 262144)")
        p.add_argument("--batch-ms", type=float, default=None,
                       metavar="MS",
                       help="socket transport: linger up to MS ms filling "
                            "a batch before writing (default 0)")

    def detect_flags(p):
        from .detect.invariants import RANKER_KINDS

        p.add_argument("--detectors", default=None, metavar="KINDS",
                       help="comma-separated detection tracers to attach "
                            "to every endpoint run: 'races' (happens-"
                            "before data-race detector), 'nullorigin' "
                            "(null-origin causality tracer), or 'none'; "
                            "corpus bugs default to their declared "
                            "detectors")
        p.add_argument("--ranker", choices=RANKER_KINDS,
                       default="fmeasure",
                       help="predictor ranking engine: 'fmeasure' (the "
                            "paper's F-measure, default) or 'invariants' "
                            "(error-invariant recall x specificity)")
        p.add_argument("--stats", choices=STATS_KINDS, default="exact",
                       help="statistics mode: 'exact' (unbounded "
                            "predictor counts, default) or 'streaming' "
                            "(bounded memory — sketched predictor counts, "
                            "windowed recurrences for the budget "
                            "scheduler, capped failure-identity "
                            "histograms)")

    def control_flags(p):
        from .control import SCHEDULER_KINDS

        p.add_argument("--shards", type=positive_int, default=1,
                       help="control-plane shard servers; campaigns are "
                            "consistent-hashed onto shards by failure-"
                            "cluster key (1 = classic single-server path)")
        p.add_argument("--cohort-size", type=positive_int, default=1,
                       metavar="K",
                       help="each simulated endpoint stands in for K real "
                            "clients; recurrence/predictor counts are "
                            "weighted by cohort multiplicity")
        p.add_argument("--cohort-share", type=float, default=1.0,
                       help="fraction of each cohort participating per "
                            "run (1.0 = whole cohort, ranking-invariant)")
        p.add_argument("--scheduler", choices=SCHEDULER_KINDS,
                       default="infogain",
                       help="per-round fleet-budget policy: 'infogain' "
                            "(weight by expected evidence; starve "
                            "converged campaigns) or 'fair' (even split)")
        p.add_argument("--quantum", type=positive_int, default=8,
                       help="runs each endpoint affords per scheduler "
                            "round (round budget = endpoints x quantum)")

    p = sub.add_parser("diagnose",
                       help="run a full Gist campaign on a program")
    p.add_argument("program")
    common_run_flags(p)
    p.add_argument("--bug", default=None, help="bug name for the sketch")
    p.add_argument("--endpoints", type=int, default=4)
    fleet_flags(p)
    control_flags(p)
    detect_flags(p)
    p.add_argument("--sigma", type=int, default=2,
                   help="initial AsT window (paper default: 2)")
    p.add_argument("--max-iterations", type=int, default=6)
    p.add_argument("--html", default=None, help="export sketch as HTML")
    p.add_argument("--json", default=None, help="export sketch as JSON")
    p.add_argument("--ptwrite", action="store_true",
                   help="future-hardware mode: data flow rides in the PT "
                        "stream, no watchpoints (paper section 6)")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("corpus", help="work with the 11-bug corpus")
    csub = p.add_subparsers(dest="corpus_command", required=True)
    cp = csub.add_parser("list", help="list the corpus bugs")
    cp.add_argument("--kind", default=None, metavar="FAILURE_KIND",
                    help="only bugs of this failure class (e.g. "
                         "'data race', 'null dereference', 'segfault')")
    cp.set_defaults(func=cmd_corpus)
    cp = csub.add_parser("show", help="print a bug's source + ideal sketch")
    cp.add_argument("bug_id")
    cp.set_defaults(func=cmd_corpus)
    cp = csub.add_parser("diagnose", help="run a campaign on a corpus bug")
    cp.add_argument("bug_id")
    cp.add_argument("--endpoints", type=int, default=4)
    cp.add_argument("--max-iterations", type=int, default=6)
    cp.add_argument("--html", default=None)
    cp.add_argument("--json", default=None)
    fleet_flags(cp)
    detect_flags(cp)
    cp.set_defaults(func=cmd_corpus)
    cp = csub.add_parser("campaign",
                         help="run several corpus bugs as concurrent "
                              "campaigns over one shared fleet")
    cp.add_argument("bug_ids", nargs="+",
                    help="corpus bug ids (or the single word 'all')")
    cp.add_argument("--endpoints", type=int, default=4)
    cp.add_argument("--max-iterations", type=int, default=6)
    cp.add_argument("--show-sketches", action="store_true",
                    help="print every campaign's failure sketch")
    fleet_flags(cp)
    control_flags(cp)
    detect_flags(cp)
    cp.set_defaults(func=cmd_corpus)

    p = sub.add_parser("fleet",
                       help="run server and fleet clients as separate OS "
                            "processes over a real socket")
    fsub = p.add_subparsers(dest="fleet_command", required=True)

    def fleet_proc_flags(fp):
        fp.add_argument("bug_id", help="corpus bug id to diagnose")
        fp.add_argument("--socket", required=True, metavar="ADDR",
                        help="unix:/path, tcp:HOST:PORT, or a bare Unix "
                             "socket path")
        fp.add_argument("--timeout", type=float, default=300.0,
                        help="overall wall-clock budget in seconds")
        fp.add_argument("--batch-messages", type=positive_int, default=256,
                        help="coalesce up to N envelopes per socket write "
                             "(1 = unbatched)")
        fp.add_argument("--batch-bytes", type=frame_bytes, default=None,
                        metavar="N", help="batch payload-byte cap")
        fp.add_argument("--batch-ms", type=float, default=None,
                        metavar="MS", help="batch linger window in ms")

    fp = fsub.add_parser("serve",
                         help="host the GistServer behind a socket")
    fleet_proc_flags(fp)
    fp.add_argument("--journal-dir", default=None, metavar="DIR",
                    help="write-ahead journal directory; restart on the "
                         "same journal to resume after a kill")
    fp.add_argument("--sigma", type=int, default=2)
    fp.add_argument("--max-iterations", type=int, default=10)
    fp.set_defaults(func=cmd_fleet)

    fp = fsub.add_parser("client",
                         help="run N fleet endpoints against a server")
    fleet_proc_flags(fp)
    fp.add_argument("--endpoints", type=positive_int, default=2,
                    help="endpoints this client process simulates")
    fp.add_argument("--base", type=int, default=0,
                    help="first endpoint id (processes must not overlap)")
    fp.set_defaults(func=cmd_fleet)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
