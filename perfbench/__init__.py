"""End-to-end diagnosis benchmark with an outside-in layer trace.

One command runs one workload for one seed, checks the program's outputs
and prints every metric by name with its unit::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Workloads (:mod:`perfbench.workloads` says why each exists and what counts
as a failed operation):

- ``corpus-diagnose`` -- one diagnosis per corpus bug per round;
- ``fleet-plain`` -- one uninstrumented production run per bug per round;
- ``server-replay`` -- one recorded campaign replayed into a fresh server
  per bug per round.  It runs with the same command but is not listed in
  ``BENCHMARK.json``: its set-up alone is 15 live cold diagnoses (about
  24 s on a 2-vCPU KVM guest), and with it a full set of benchmark runs
  no longer fits the benchmark's time budget with room for a slow host.
  With fixed recordings its end-to-end times spread 1-5% over five
  processes.

All three run over the 15 registered corpus bugs (the 11 Table-1 bugs plus
``evloop-1``, ``pbzip2-cv``, ``ringbuf-1`` and ``tpqueue-1``), through
public APIs only, at the ``repro corpus diagnose`` defaults.  The number
of rounds is fixed by ``--seconds`` and the workload's nominal round time
(``corpus-diagnose`` always runs at least three rounds, about 35 s), so
every count the program makes (runs, recurrences, envelopes, steps, traps,
predictors) repeats exactly for one seed; the detail line prints them.

End-to-end metrics (``--trace 0``)
----------------------------------
Every workload reports every end-to-end metric; an *operation* is a
diagnosis, a plain run or a campaign replay.

``setup_s``
    Process start to the end of set-up, scaled like every time below.  It
    is where cold costs land (front-end and GIR-to-Python compile,
    slicing, the cold diagnoses of ``corpus-diagnose``), so work moved
    into set-up shows.  It is the one timing taken as a single total: a
    cold set-up cannot be repeated inside a process that has already
    warmed every cache.
``corpus_s``
    Sum over bugs of each bug's median operation time across rounds.  On
    ``corpus-diagnose`` this is the ROADMAP's full-corpus diagnosis time.
``op_ms.p50``, ``op_ms.p75``
    Time per operation.  p75 needs 40 operations per run, and every
    workload has at least 45; the detail line adds the highest percentile
    with ten samples beyond it (p99 for ``fleet-plain``).
``runs_per_s``
    Client runs per second of operation time: runs executed by diagnoses
    or plain runs, monitored-run envelopes ingested by replays.
``peak_rss_mb``
    ``ru_maxrss`` at the end of the run.

Each operation is timed on its own; garbage is collected before it, and a
fixed pure-Python loop is timed right after it.  Operation times are scaled
by the median of those loop times in the operation's round to the reference
loop time (:data:`perfbench.summary.CALIBRATION_REF_S`).  On a 2-vCPU KVM
guest the host's speed changed by up to 1.7x within minutes, which no
number of samples inside one run removes; over five runs of one seed the
scaling cut the spread of ``fleet-plain``'s times from 10-16% to 2-3%.  It
does less for ``corpus-diagnose``: one identical diagnosis repeated in one
process spread by 9% (interquartile range over median) without the loop
following it.  Over ten seeds, the end-to-end spreads were 1-5% on
``fleet-plain`` and 3-11% on ``corpus-diagnose`` (``op_ms.p75`` the
widest), which is what the bounds in ``BENCHMARK.json`` allow
for.  ``setup_s`` has no operations to sample between, so it is scaled by
the measured phase's median loop time: that narrowed its range over runs in
fast and slow spells from +-30% to +-15%.  Raw times are in the detail
line, with the loop times.

Failed operations count into ``failed`` and ``error_rate``.  The error
rate is a per-layer metric because a bounded metric must never read 0.

Per-layer metrics (``--trace 1``)
---------------------------------
A separate run with the same seed wraps each layer's public entry points
(:mod:`perfbench.spans`) and reports, per layer, busy time as summed self
time, work done as counts, and wasted work.  ``lang.compile_s``,
``analysis.slice_s`` and ``runtime.compile_s`` are set-up numbers; all
others come from the measured phase.  The self times of the measured phase
plus ``core.unattributed_s`` add up to ``trace.wall_s``, the summed
duration of the traced operations.  ``trace.overhead`` is the traced time
of the first quarter of the rounds over the same operations run untraced,
averaged over one pass just before and one just after the traced phase.
Layers a workload does not exercise read 0.

Which end-to-end metric each layer should move:

=============================  ==============================================
layer metrics                  should move
=============================  ==============================================
``lang.*``                     ``setup_s`` on every workload
``analysis.*``                 ``setup_s`` on ``corpus-diagnose`` (a few
                               percent of a cold pass); ``hit_rate`` should
                               stay 1.0 after set-up
``instrument.*``               under 1% of ``corpus_s``; ``runs_per_s`` on
                               ``server-replay`` (about a tenth of a replay)
``runtime.compile_s``          ``setup_s`` on ``corpus-diagnose`` and
                               ``fleet-plain``
``runtime.plain_*``            every end-to-end time of ``fleet-plain``
                               (nearly all of it); a few percent of
                               ``corpus_s``
``runtime.monitored_*``        ``corpus_s``, ``op_ms.*`` and ``runs_per_s``
                               on ``corpus-diagnose`` (about four fifths).
                               PT encode, watchpoints and detectors run
                               inside it
``pt.*``, ``hw.traps``         ``corpus_s`` (decode is about 2%); traps are a
                               count only
``detect.runs``                count only; detector time is inside
                               ``runtime.*``
``core.predictors*``           ``corpus_s`` (about 2%)
``core.ingest*``               ``runs_per_s`` on ``server-replay``
``core.refine_s``,             about 2% of ``corpus_s``; ``core.close_ms.*``
``core.sketch_s``,             and ``op_ms.*`` on ``server-replay``
``core.render_s``,
``core.close_*``
``core.client_self_s``,        glue code; should stay small
``core.unattributed_s``
``fleet.encode_s``             ``corpus_s`` (about 2%)
``fleet.decode_s``             about 2% of ``corpus_s``; half of a replay on
                               ``server-replay``
``fleet.*`` counts             wasted work (quarantined, stale, duplicate);
                               feeds ``error_rate``
``trace.*``                    nothing; the price of tracing
=============================  ==============================================

Inputs
------
The seed picks run-id offsets that are added to the run ids each bug's own
``workload_factory`` receives.  ``fleet-plain`` draws a start per bug and
runs consecutive run ids from it, as a deployment draws them, so the
inputs a factory cycles through by run id come up equally often for every
seed.  A diagnosis's cost varies up to a hundredfold across offsets
(``pbzip2-1`` took 0.56 s to 72 s over 28 offsets), which three rounds
cannot average out: with free offsets, ten seeds would spread
``corpus_s`` by about 25%.  So
``corpus-diagnose`` gives every bug a fixed panel of three offsets chosen
to be typical of it (:data:`perfbench.workloads.PANEL`) and the seed only
picks the order, and ``server-replay`` records every bug at its panel's
first offset.  A claim checked on another seed therefore sees other plain
runs but the same diagnoses.

Rules learned from an earlier attempt that was rejected as too noisy
--------------------------------------------------------------------
- No timing from a single total, except ``setup_s`` as explained above:
  medians of per-operation samples spread bug by bug over the run.
- No percentile without ten samples beyond it
  (:func:`perfbench.summary.percentile` refuses one).
- No metric reported under two names.
- No set-up that dwarfs the measured phase without saying so: the set-up
  of ``corpus-diagnose`` (15 cold diagnoses) takes about a third as long
  as its measured phase; that of ``server-replay`` takes longer than its
  measured phase, which is why it is not in ``BENCHMARK.json``.

Self-tests of the benchmark's helpers: ``python3 -m unittest
perfbench.test_perfbench`` from the root of a checkout.
"""
