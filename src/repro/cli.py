"""Command-line interface: ``python -m repro <command>``.

Subcommands:

``dataset``   generate a syr2k performance table and write it as CSV;
``predict``   run one LLM surrogate prediction against the dataset;
``grid``      run a (reduced or full) experiment grid and print the
              Section IV-A summary report;
``tune``      compare autotuners on a syr2k task;
``sessions``  run/status/resume multi-tenant autotuning campaigns through
              the shared serving stack (:mod:`repro.sessions`): fair-share
              scheduling, admission control, JSONL event-log resume;
``table1``    print the GBT baseline metrics for a list of training sizes;
``serve-bench``  drive a repeated-prompt workload through the
              :mod:`repro.serve` inference service and print its
              :class:`~repro.serve.ServiceStats` with and without caching;
``loadtest``  replay a seeded arrival schedule (:mod:`repro.loadgen`)
              open- or closed-loop against the service and gate the
              resulting SLO report (latency quantiles, goodput, shed /
              error / degraded rates, per-tenant slices) on a
              declarative policy — the CI nightly-soak entry point;
``chaos``     run a seeded fault schedule (:mod:`repro.faults`) against a
              live resilient service and print the availability /
              p95-under-faults report; ``--disk`` drills the durability
              layer instead (kill -9 under torn writes / bitflips /
              ENOSPC, fsck, resume, bit-identical history);
``fsck``      verify or repair any persistent artifact (probe snapshots,
              grid checkpoints, event journals — telemetry timelines and
              trace files included): CRC + sequence check,
              salvage/quarantine rewrite with ``--repair``;
``trace``     analyze a span trace written by ``serve-bench --trace`` or
              ``loadtest --trace``: ``summarize`` reconstructs the
              (cross-process stitched) span tree and prints the
              per-stage latency breakdown; ``flame`` exports folded
              stacks and a speedscope JSON profile;
``top``       render the operator dashboard from a telemetry timeline
              (``loadtest --telemetry``): qps, latency and queue-wait
              percentiles, hit rates, breaker/shard health, fairness,
              SLO burn alerts — live refresh or ``--once``.

Every command is deterministic given ``--seed`` — including ``chaos``,
whose injected faults, retries, and degradations reproduce bit-for-bit.
The drills behind ``chaos`` and ``loadtest`` live in :mod:`repro.drills`
(one determinism harness for all of them); their commands here only
parse arguments, call the drill, and render its results.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro.analysis import score_predictions
from repro.core import build_report, paper_grid, run_grid
from repro.core.surrogate import DiscriminativeSurrogate
from repro.dataset import Syr2kTask, generate_dataset
from repro.dataset.io import save_dataset_csv
from repro.dataset.splits import disjoint_example_sets, train_test_split
from repro.dataset.syr2k import SIZE_NAMES, syr2k_space
from repro.gbt import (
    BoostingParams,
    FeatureEncoder,
    GradientBoostingRegressor,
    TargetTransform,
)
from repro.loadgen.arrivals import ARRIVAL_KINDS
from repro.utils.tables import Table

__all__ = ["build_parser", "main"]


def _positive_int(text: str) -> int:
    """argparse type for arguments that must be >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction toolkit for 'Is In-Context Learning Feasible "
            "for HPC Performance Autotuning?'"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dataset", help="generate a syr2k dataset CSV")
    p.add_argument("--size", choices=SIZE_NAMES, default="SM")
    p.add_argument("--output", required=True, help="CSV output path")
    p.add_argument("--seed", type=int, default=20250705)

    p = sub.add_parser("predict", help="one LLM surrogate prediction")
    p.add_argument("--size", choices=SIZE_NAMES, default="SM")
    p.add_argument("--n-icl", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("grid", help="run an experiment grid + report")
    p.add_argument("--sizes", nargs="+", choices=SIZE_NAMES, default=["SM", "XL"])
    p.add_argument(
        "--icl", nargs="+", type=int, default=[1, 5, 20, 50],
        help="ICL example counts",
    )
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    p.add_argument("--queries", type=int, default=3)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument(
        "--prefix-cache", action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse prepared prompt-prefix snapshots across the probes "
        "of each cell (bit-identical results; --no-prefix-cache runs "
        "the cold path)",
    )
    p.add_argument(
        "--serve", action="store_true",
        help="execute through the repro.serve PredictionService "
        "(microbatching + caches) instead of the process pool",
    )
    p.add_argument(
        "--shards", type=int, default=0,
        help="serve through N worker processes (implies --serve; "
        "0 keeps the in-process backend — bit-identical results "
        "either way)",
    )
    p.add_argument(
        "--save", default=None, metavar="PATH",
        help="also save the probes as JSONL for later `repro report`",
    )
    p.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="append completed cells to this JSONL file as the run "
        "progresses, so a killed run can be resumed",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint: skip cells already complete "
        "there and run only the rest",
    )

    p = sub.add_parser(
        "report", help="full analysis report from saved probes"
    )
    p.add_argument("probes", help="JSONL file written by `repro grid --save`")

    p = sub.add_parser("tune", help="compare autotuners")
    p.add_argument("--size", choices=SIZE_NAMES, default="SM")
    p.add_argument("--budget", type=int, default=50)
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser(
        "sessions", help="multi-tenant autotuning campaigns"
    )
    p.add_argument(
        "action", choices=["run", "status", "resume"],
        help="run fresh campaigns, inspect an event log, or resume one",
    )
    p.add_argument(
        "--log", default=None, metavar="PATH",
        help="session event-log JSONL (required for status/resume; "
        "enables crash-resume for run)",
    )
    p.add_argument("--size", choices=SIZE_NAMES, default="SM")
    p.add_argument(
        "--tenants", type=_positive_int, default=3,
        help="number of tenants (one session each)",
    )
    p.add_argument(
        "--budget", type=_positive_int, default=12,
        help="evaluations per campaign",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--tuner", choices=["random", "hill-climb"], default="random"
    )
    p.add_argument(
        "--priorities", nargs="+", type=_positive_int, default=None,
        help="per-tenant fair-share weights (cycled over tenants)",
    )
    p.add_argument(
        "--shared-trajectory", action=argparse.BooleanOptionalAction,
        default=True,
        help="tenants share one tuner seed, so identical prompts ride "
        "one lockstep prefix-group decode (--no-shared-trajectory "
        "gives each tenant an independent search)",
    )
    p.add_argument(
        "--max-inflight", type=_positive_int, default=8,
        help="admission controller's load-shedding ceiling",
    )
    p.add_argument(
        "--quota", type=_positive_int, default=None,
        help="per-tenant lifetime evaluation quota",
    )
    p.add_argument(
        "--rate", type=float, default=None,
        help="per-tenant token-bucket rate (evaluations/s)",
    )
    p.add_argument(
        "--deadline", type=float, default=None,
        help="per-campaign wall-clock deadline in seconds",
    )
    p.add_argument("--batch-size", type=_positive_int, default=8)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument(
        "--shards", type=int, default=0,
        help="host campaigns on a sharded multi-process backend "
        "(0 = in-process)",
    )
    p.add_argument(
        "--max-evaluations", type=_positive_int, default=None,
        help="stop after this many completed evaluations (campaigns "
        "are PAUSED and can be resumed from --log)",
    )
    p.add_argument(
        "--resilient", action="store_true",
        help="drive through ResilientService (retry/breaker/fallback)",
    )
    p.add_argument(
        "--min-fairness", type=float, default=None,
        help="exit 1 if the per-tenant Jain's index ends below this",
    )
    p.add_argument(
        "--metrics", action="store_true",
        help="also print the sessions metrics-registry snapshot",
    )

    p = sub.add_parser(
        "serve-bench", help="benchmark the surrogate serving layer"
    )
    p.add_argument("--size", choices=SIZE_NAMES, default="SM")
    p.add_argument("--n-icl", type=_positive_int, default=5)
    p.add_argument(
        "--unique", type=_positive_int, default=8,
        help="distinct probes in the workload",
    )
    p.add_argument(
        "--repeats", type=_positive_int, default=6,
        help="times each distinct probe recurs",
    )
    p.add_argument("--batch-size", type=_positive_int, default=8)
    p.add_argument(
        "--max-wait", type=float, default=0.005,
        help="upper bound in seconds on a partial batch's wait; it "
        "binds only while every batch worker is busy or a burst is "
        "still being admitted (an idle worker flushes at once)",
    )
    p.add_argument("--workers", type=int, default=None)
    p.add_argument(
        "--shards", type=int, default=0,
        help="benchmark the sharded multi-process backend with N "
        "worker replicas (0 = in-process default)",
    )
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--prefix-cache", action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse prepared prompt-prefix snapshots and group "
        "same-prompt requests into lockstep batch decodes "
        "(--no-prefix-cache measures the cold per-request path)",
    )
    p.add_argument(
        "--no-baseline", action="store_true",
        help="skip the caches-disabled comparison run",
    )
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record spans for the caches-on run and export them as "
        "JSONL to PATH (read back with `repro trace summarize PATH`)",
    )
    p.add_argument(
        "--metrics", action="store_true",
        help="also print the unified metrics-registry snapshot "
        "(repro.obs) for the caches-on run",
    )

    p = sub.add_parser(
        "loadtest",
        help="deterministic load generation + SLO conformance check",
    )
    p.add_argument(
        "--arrival", choices=list(ARRIVAL_KINDS), default="poisson",
        help="arrival process shaping when requests are offered",
    )
    p.add_argument(
        "--rps", type=float, default=50.0,
        help="mean offered rate in requests/second",
    )
    p.add_argument(
        "--duration", type=float, default=5.0,
        help="schedule horizon in seconds",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--mode", choices=["open", "closed"], default="open",
        help="open loop (arrival-clocked, coordinated-omission-free "
        "latency) or closed loop (fixed virtual-client pool)",
    )
    p.add_argument(
        "--concurrency", type=_positive_int, default=8,
        help="closed-loop virtual clients (ignored open-loop)",
    )
    p.add_argument(
        "--on-fraction", type=float, default=0.5,
        help="onoff arrivals: fraction of each period that bursts",
    )
    p.add_argument(
        "--period", type=float, default=2.0,
        help="onoff arrivals: burst cycle length in seconds",
    )
    p.add_argument("--size", choices=SIZE_NAMES, default="SM")
    p.add_argument("--n-icl", type=_positive_int, default=4)
    p.add_argument(
        "--unique", type=_positive_int, default=8,
        help="distinct prompts in the workload population",
    )
    p.add_argument(
        "--skew", type=float, default=1.1,
        help="Zipf exponent over prompt popularity (0 = uniform)",
    )
    p.add_argument(
        "--tenants", type=_positive_int, default=3,
        help="tenants arrivals are attributed to (per-tenant SLO slice)",
    )
    p.add_argument(
        "--seed-lanes", type=_positive_int, default=4,
        help="distinct sampling seeds each prompt is replayed under",
    )
    p.add_argument(
        "--timeout", type=float, default=None,
        help="per-request deadline in seconds (missed = SLO timeout)",
    )
    p.add_argument(
        "--shards", type=int, default=0,
        help="target the sharded multi-process backend with N worker "
        "replicas (0 = in-process service)",
    )
    p.add_argument("--batch-size", type=_positive_int, default=8)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument(
        "--sessions", type=int, default=0, metavar="N",
        help="also host N autotuning campaigns (one per tenant, "
        "round-robin) on the same service while the load runs — the "
        "report gains a sessions section with completions + fairness",
    )
    p.add_argument(
        "--session-budget", type=_positive_int, default=8,
        help="evaluations per ride-along campaign (with --sessions)",
    )
    p.add_argument(
        "--slo", default="default", metavar="POLICY",
        help="SLO policy: 'default' (committed gate), 'off' (report "
        "only), or a JSON file of SLOPolicy fields; violations exit 1",
    )
    p.add_argument(
        "--report-json", default=None, metavar="PATH",
        help="write the full SLO report as canonical JSON to PATH "
        "(the bench report-source consumed by repro.bench.regression)",
    )
    p.add_argument(
        "--warmup", action=argparse.BooleanOptionalAction, default=True,
        help="serve one unmeasured request per distinct prompt before "
        "the clock starts, so shard spawn / model warm / prefix "
        "preparation costs do not flood the measured window "
        "(--no-warmup measures cold-start conformance instead)",
    )
    p.add_argument(
        "--check-determinism", action="store_true",
        help="run the identical spec twice against fresh services and "
        "exit 1 unless schedules, workloads and the reports' "
        "deterministic payloads match byte-for-byte",
    )
    p.add_argument(
        "--metrics", action="store_true",
        help="also print the loadgen metrics-registry snapshot",
    )
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record loadgen + serving spans and export JSONL to PATH",
    )
    p.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="run the continuous telemetry sampler during the load and "
        "export the timeline as a CRC-framed JSONL artifact to PATH "
        "(render with `repro top PATH`, check with `repro fsck PATH`)",
    )
    p.add_argument(
        "--telemetry-interval", type=float, default=0.5,
        help="telemetry sampler cadence in seconds",
    )

    p = sub.add_parser(
        "chaos", help="fault-injection drill against the serving stack"
    )
    p.add_argument("--size", choices=SIZE_NAMES, default="SM")
    p.add_argument("--n-icl", type=_positive_int, default=5)
    p.add_argument(
        "--requests", type=_positive_int, default=60,
        help="logical requests to drive through the resilient service",
    )
    p.add_argument(
        "--unique", type=_positive_int, default=12,
        help="distinct probes the workload cycles through",
    )
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--error-rate", type=float, default=0.08,
        help="per-request transient worker-error probability",
    )
    p.add_argument(
        "--latency-rate", type=float, default=0.05,
        help="per-request latency-spike probability",
    )
    p.add_argument(
        "--latency-s", type=float, default=0.01,
        help="latency-spike duration in seconds",
    )
    p.add_argument(
        "--evict-rate", type=float, default=0.02,
        help="per-request cache-eviction-storm probability",
    )
    p.add_argument(
        "--stall-rate", type=float, default=0.05,
        help="per-flush queue-stall probability",
    )
    p.add_argument(
        "--stall-s", type=float, default=0.005,
        help="queue-stall duration in seconds",
    )
    p.add_argument(
        "--shards", type=int, default=0,
        help="drill the sharded multi-process backend with N worker "
        "replicas (0 = in-process)",
    )
    p.add_argument(
        "--kill-rate", type=float, default=0.0,
        help="per-dispatch probability of SIGKILLing the target shard "
        "before enqueue (requires --shards > 0; killed tickets fail "
        "with ShardCrashError and are retried on the respawned shard)",
    )
    p.add_argument(
        "--max-attempts", type=_positive_int, default=4,
        help="retry policy: total attempts per logical request",
    )
    p.add_argument(
        "--no-fallback", action="store_true",
        help="disable graceful degradation (final failures then raise)",
    )
    p.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="also export the drill's telemetry timeline to PATH (the "
        "sampler always runs during the service drill: the report "
        "includes its liveness check — no sample gap over twice the "
        "cadence, even while shards are being killed)",
    )
    p.add_argument(
        "--telemetry-interval", type=float, default=0.25,
        help="drill telemetry sampler cadence in seconds",
    )
    p.add_argument(
        "--telemetry-drop-rate", type=float, default=0.0,
        help="per-sample probability the exporter drops the sample "
        "(the timeline must account for every gap)",
    )
    p.add_argument(
        "--telemetry-dup-rate", type=float, default=0.0,
        help="per-sample probability the exporter writes the sample "
        "twice (loaders must dedupe by payload seq)",
    )
    p.add_argument(
        "--verify-determinism", action="store_true",
        help="re-run the schedule (plain, then with degraded cache "
        "serves interleaved) and compare counters, fault schedules, "
        "response values and the telemetry timeline's deterministic "
        "fields (exit 1 on any divergence)",
    )
    p.add_argument(
        "--sessions", action="store_true",
        help="drill the session manager instead of a raw workload: "
        "3-tenant campaigns under DEFAULT_FAULT_PLAN, asserting >= 99%% "
        "completion and an event log with no lost or duplicated "
        "evaluations (with --verify-determinism: identical histories "
        "across two runs)",
    )
    p.add_argument(
        "--disk", action="store_true",
        help="durability drill instead of a service workload: a "
        "checkpointed grid repeatedly hard-killed by injected disk "
        "faults (torn writes, bitflips-after-ack, ENOSPC, fsync "
        "failures) under DISK_FAULT_PLAN, with `repro fsck --repair` "
        "between crashes, plus the same discipline on an event "
        "journal; exits non-zero unless the recovered histories are "
        "bit-identical to an unfaulted run with all damage accounted "
        "for",
    )

    p = sub.add_parser(
        "fsck",
        help="verify or repair artifact integrity (probe snapshots, "
        "grid checkpoints, event journals)",
    )
    p.add_argument("paths", nargs="+", help="artifact JSONL files")
    p.add_argument(
        "--repair", action="store_true",
        help="rewrite each artifact from its recoverable records "
        "(damage is quarantined to <path>.quarantine; v1 files are "
        "upgraded to the checksummed v2 framing)",
    )
    p.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when any damage was found, even if it "
        "was repaired",
    )
    p.add_argument(
        "--kind", choices=["auto", "probes", "events"], default="auto",
        help="artifact type (default: detect from the header)",
    )
    p.add_argument(
        "--event-kind", default=None, metavar="KIND",
        help="assert the journal's event kind (required to salvage an "
        "event journal whose header line was destroyed; the header "
        "carries no CRC, but v2 record frames are self-verifying)",
    )
    p.add_argument(
        "--quarantine", action="store_true",
        help="copy damaged spans to the sidecar during a plain verify "
        "(--repair always quarantines)",
    )

    p = sub.add_parser(
        "trace", help="analyze a span trace (serve-bench --trace output)"
    )
    p.add_argument("action", choices=["summarize", "flame"])
    p.add_argument("path", help="JSONL trace file")
    p.add_argument(
        "--tree", type=int, default=0, metavar="N",
        help="also print the first N reconstructed span trees",
    )
    p.add_argument(
        "--folded", default=None, metavar="PATH",
        help="flame: folded-stacks output path "
        "(default <trace>.folded; flamegraph.pl input format)",
    )
    p.add_argument(
        "--speedscope", default=None, metavar="PATH",
        help="flame: speedscope JSON output path "
        "(default <trace>.speedscope.json; open at speedscope.app)",
    )

    p = sub.add_parser(
        "top",
        help="operator dashboard from a telemetry timeline "
        "(loadtest --telemetry output)",
    )
    p.add_argument("path", help="telemetry timeline JSONL file")
    p.add_argument(
        "--once", action="store_true",
        help="render the current state once and exit (CI mode)",
    )
    p.add_argument(
        "--interval", type=float, default=1.0,
        help="live-mode refresh cadence in seconds",
    )
    p.add_argument(
        "--window", type=float, default=10.0,
        help="trailing window for rate computations in seconds",
    )
    p.add_argument(
        "--refresh-limit", type=int, default=0, metavar="N",
        help="live mode: exit after N refreshes (0 = until Ctrl-C)",
    )

    p = sub.add_parser("table1", help="GBT baseline metrics (Table I)")
    p.add_argument("--sizes", nargs="+", choices=SIZE_NAMES, default=["SM", "XL"])
    p.add_argument(
        "--train", nargs="+", type=int, default=[100, 500, 1000],
        help="training-set sizes",
    )
    return parser


def _cmd_dataset(args) -> int:
    dataset = generate_dataset(args.size, seed=args.seed)
    save_dataset_csv(dataset, args.output)
    s = dataset.summary()
    print(
        f"wrote {s['rows']} rows for syr2k {args.size} to {args.output} "
        f"(runtimes {s['runtime_min']:.6f}..{s['runtime_max']:.6f} s)"
    )
    return 0


def _cmd_predict(args) -> int:
    dataset = generate_dataset(args.size)
    task = Syr2kTask(args.size)
    sets, queries = disjoint_example_sets(
        dataset, 1, args.n_icl, seed=args.seed
    )
    examples = [
        (dataset.config(int(r)), float(dataset.runtimes[int(r)]))
        for r in sets[0]
    ]
    query_row = int(queries[0])
    pred = DiscriminativeSurrogate(task).predict(
        examples, dataset.config(query_row), seed=args.seed
    )
    truth = float(dataset.runtimes[query_row])
    print(f"generated : {pred.generated_text!r}")
    print(f"parsed    : {pred.value}")
    print(f"truth     : {truth:.7f}")
    if pred.value:
        print(f"rel error : {abs(pred.value - truth) / truth:.1%}")
    print(f"ICL copy  : {pred.exact_copy}")
    return 0


def _cmd_grid(args) -> int:
    specs = paper_grid(
        sizes=tuple(args.sizes),
        icl_counts=tuple(args.icl),
        n_sets=args.sets,
        seeds=tuple(args.seeds),
        n_queries=args.queries,
    )
    print(f"running {len(specs)} experiment cells...", file=sys.stderr)
    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint", file=sys.stderr)
        return 2
    grid_kwargs = dict(
        checkpoint=args.checkpoint,
        resume=args.resume,
        prefix_cache=args.prefix_cache,
    )
    if args.serve or args.shards:
        from repro.serve import make_service

        with make_service(
            shards=args.shards,
            workers=args.workers,
            enable_prefix_cache=args.prefix_cache,
        ) as service:
            probes = run_grid(specs, service=service, **grid_kwargs)
            stats = service.stats()
        print(
            f"served {stats.n_completed} probes at "
            f"{stats.throughput_rps:.1f} req/s "
            f"(result-cache hit rate {stats.result_hit_rate:.0%})",
            file=sys.stderr,
        )
    else:
        probes = run_grid(specs, workers=args.workers, **grid_kwargs)
    if args.checkpoint:
        print(
            f"checkpointed {len(probes)} probes in {args.checkpoint}",
            file=sys.stderr,
        )
    if args.save:
        from repro.core.storage import save_probes_jsonl

        save_probes_jsonl(probes, args.save)
        print(f"saved {len(probes)} probes to {args.save}", file=sys.stderr)
    report = build_report(probes)
    for line in report.summary_lines():
        print(line)
    t = Table(["n ICL", "mean MARE"], title="error vs ICL count")
    for n, v in report.per_icl_mare.items():
        t.add_row([n, v])
    print()
    print(t.render())
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import analyze_grid
    from repro.core.storage import load_probes_jsonl

    probes = load_probes_jsonl(args.probes)
    print(f"loaded {len(probes)} probes from {args.probes}", file=sys.stderr)
    print(analyze_grid(probes).render())
    return 0


def _cmd_tune(args) -> int:
    from repro.dataset import Syr2kPerformanceModel
    from repro.tuning import (
        BayesianOptTuner,
        HillClimbTuner,
        LLMCandidateTuner,
        RandomSearchTuner,
        compare_tuners,
    )

    task = Syr2kTask(args.size)
    space = syr2k_space()
    model = Syr2kPerformanceModel(task)
    comparison = compare_tuners(
        [
            RandomSearchTuner(space, seed=args.seed),
            HillClimbTuner(space, seed=args.seed),
            BayesianOptTuner(space, seed=args.seed),
            LLMCandidateTuner(space, task, seed=args.seed),
        ],
        model,
        budget=args.budget,
        repetitions=args.repetitions,
    )
    t = Table(
        ["tuner", "mean best runtime", "regret"],
        title=f"syr2k {args.size} (optimum {comparison.global_optimum:.6f})",
    )
    for name, best in comparison.ranking():
        t.add_row([name, best, comparison.mean_regret(name)])
    print(t.render())
    return 0


def _sessions_from_log(path):
    """Rebuild campaigns from a log's ``register`` events (resume path)."""
    from repro.drills.service import SESSION_TUNERS, campaign
    from repro.sessions import replay_log

    sessions = []
    for sid, entry in replay_log(path).items():
        meta = entry["meta"]
        if meta is None or meta["tuner"] not in SESSION_TUNERS:
            why = (f"no register event in {path}" if meta is None
                   else f"unknown tuner {meta['tuner']!r}")
            print(f"skipping {sid}: {why}", file=sys.stderr)
            continue
        sessions.append(campaign(
            sid, meta["tenant"], meta["size"], meta["budget"],
            tuner=meta["tuner"], tuner_seed=meta["tuner_seed"],
            priority=meta["priority"], deadline_s=meta.get("deadline_s"),
            seed=meta["seed"], context_examples=meta["context_examples"],
        ))
    return sessions


def _render_sessions_table(rows, title):
    t = Table(
        ["session", "tenant", "state", "evals", "budget", "best"],
        title=title,
    )
    for row in rows:
        t.add_row(row)
    return t.render()


def _cmd_sessions(args) -> int:
    from repro.sessions import replay_log

    if args.action in ("status", "resume") and not args.log:
        print(f"sessions {args.action} requires --log", file=sys.stderr)
        return 2

    if args.action == "status":
        rows = []
        for sid, entry in sorted(replay_log(args.log).items()):
            meta = entry["meta"] or {}
            evals = entry["evals"]
            best = min((rt for _, _, rt in evals), default=None)
            rows.append([
                sid,
                meta.get("tenant", "?"),
                entry["state"] or "PENDING",
                len(evals),
                meta.get("budget", "?"),
                "-" if best is None else f"{best:.6f}",
            ])
        print(_render_sessions_table(rows, f"session log {args.log}"))
        return 0

    from repro.serve import ResilientService, make_service
    from repro.sessions import (
        FAILED,
        AdmissionController,
        SessionManager,
        TenantQuota,
        collect_session_metrics,
    )

    if args.action == "resume":
        sessions = _sessions_from_log(args.log)
        if not sessions:
            print(f"nothing to resume in {args.log}", file=sys.stderr)
            return 1
    else:
        from repro.drills import build_sessions

        sessions = build_sessions(
            tenants=args.tenants, budget=args.budget, seed=args.seed,
            size=args.size, tuner=args.tuner, priorities=args.priorities,
            shared_trajectory=args.shared_trajectory, deadline=args.deadline,
        )
    admission = AdmissionController(
        default_quota=TenantQuota(
            max_evaluations=args.quota, rate_per_s=args.rate
        ),
        max_inflight=args.max_inflight,
    )
    print(
        f"driving {len(sessions)} campaigns "
        f"({args.tenants} tenants, size {args.size})",
        file=sys.stderr,
    )
    service = make_service(
        shards=args.shards,
        max_batch_size=args.batch_size,
        workers=args.workers,
    )
    if args.resilient:
        service = ResilientService(service)
    with service:
        with SessionManager(
            service,
            sessions=sessions,
            admission=admission,
            log_path=args.log,
            resume=args.action == "resume",
        ) as manager:
            snapshot = manager.run(max_evaluations=args.max_evaluations)
        stats = service.stats()
    rows = [
        [
            s.session_id,
            s.tenant,
            s.state,
            len(s.history),
            s.budget.n_evaluations,
            "-"
            if len(s.history) == 0
            else f"{s.history.best_runtime:.6f}",
        ]
        for s in manager.registry
    ]
    print(_render_sessions_table(rows, "sessions"))
    fairness = snapshot["fairness_jain"]
    print(
        f"completed {snapshot['completed']} evaluations, "
        f"fairness (Jain) {fairness:.3f}, "
        f"shed {snapshot['admission']['shed']}, "
        f"mean batch occupancy {stats.batch_occupancy:.2f}"
    )
    if args.metrics:
        print()
        print(collect_session_metrics(manager).render(title="sessions"))
    failed = manager.registry.by_state(FAILED)
    for session in failed:
        print(
            f"FAILED {session.session_id}: {session.failure_reason}",
            file=sys.stderr,
        )
    if failed:
        return 1
    if args.min_fairness is not None and fairness < args.min_fairness:
        print(
            f"fairness {fairness:.3f} below required "
            f"{args.min_fairness:.3f}",
            file=sys.stderr,
        )
        return 1
    return 0


def _exported(n: int, what: str, path: str, follow_up: str) -> None:
    print(f"exported {n} {what} to {path} (`repro {follow_up}`)",
          file=sys.stderr)


def _cmd_serve_bench(args) -> int:
    from contextlib import nullcontext

    from repro.drills import repeated_workload
    from repro.obs import Tracer, collect_service_metrics, use_tracer
    from repro.serve import make_service
    from repro.utils.timing import Timer

    workload = repeated_workload(
        size=args.size, n_icl=args.n_icl, unique=args.unique,
        n_requests=args.unique * args.repeats, seed=args.seed,
    )

    def run(caches_enabled: bool, tracer=None, metrics=False):
        with make_service(
            shards=args.shards,
            max_batch_size=args.batch_size,
            max_wait_s=args.max_wait,
            workers=args.workers,
            enable_prepare_cache=caches_enabled,
            enable_result_cache=caches_enabled,
            enable_prefix_cache=args.prefix_cache,
        ) as service:
            tracing = nullcontext() if tracer is None else use_tracer(tracer)
            with tracing, Timer() as timer:
                service.submit_many(workload)
            registry = (
                collect_service_metrics(service) if metrics else None
            )
            return service.stats(), timer.elapsed, registry

    n = len(workload)
    print(
        f"replaying {n} requests ({args.unique} unique x {args.repeats} "
        f"repeats, size {args.size}, {args.n_icl} ICL examples)",
        file=sys.stderr,
    )
    tracer = Tracer() if args.trace else None
    cached, cached_t, registry = run(
        True, tracer=tracer, metrics=args.metrics
    )
    print(cached.render(title="serve-bench (caches on)"))
    if tracer is not None:
        _exported(tracer.export_jsonl(args.trace), "spans", args.trace,
                  f"trace summarize {args.trace}")
    if registry is not None:
        print()
        print(registry.render(title="metrics registry (caches on)"))
    if not args.no_baseline:
        uncached, uncached_t, _ = run(False)
        print()
        print(uncached.render(title="serve-bench (caches off)"))
        speedup = (n / cached_t) / (n / uncached_t)
        print()
        print(
            f"caching speedup: {speedup:.1f}x "
            f"({n / cached_t:.1f} vs {n / uncached_t:.1f} req/s)"
        )
    return 0


def _loadtest_spec(args):
    from repro.loadgen import LoadSpec, WorkloadMix

    return LoadSpec(
        arrival=args.arrival,
        rps=args.rps,
        duration_s=args.duration,
        seed=args.seed,
        mode=args.mode,
        concurrency=args.concurrency,
        mix=WorkloadMix(
            size=args.size,
            n_icl=args.n_icl,
            n_unique=args.unique,
            skew=args.skew,
            n_tenants=args.tenants,
            seed_lanes=args.seed_lanes,
            timeout_s=args.timeout,
        ),
        on_fraction=args.on_fraction,
        period_s=args.period,
        warmup=args.warmup,
    )


def _cmd_loadtest(args) -> int:
    from repro.drills import loadtest_drill
    from repro.loadgen import (
        DEFAULT_SLO,
        SLOPolicy,
        collect_loadgen_metrics,
    )
    from repro.obs import Tracer

    if args.slo == "default":
        policy = DEFAULT_SLO
    elif args.slo == "off":
        policy = None
    else:
        policy = SLOPolicy.from_file(args.slo)

    print(
        f"offering {args.arrival} arrivals at {args.rps:g} req/s for "
        f"{args.duration:g}s ({args.mode} loop, seed {args.seed}, "
        f"{args.shards or 'no'} shards)",
        file=sys.stderr,
    )
    tracer = Tracer() if args.trace else None
    sampler = None
    if args.telemetry:
        from repro.obs import BurnRatePolicy, TelemetrySampler

        sampler = TelemetrySampler(
            args.telemetry_interval, policy=BurnRatePolicy()
        )
    drill = loadtest_drill(
        _loadtest_spec(args), check_determinism=args.check_determinism,
        tracer=tracer, sampler=sampler, shards=args.shards,
        batch_size=args.batch_size, workers=args.workers,
        n_sessions=args.sessions, session_budget=args.session_budget,
    )
    report = drill.first

    if args.check_determinism:
        if not drill.ok:
            print("DETERMINISM VIOLATION between identical runs:\n"
                  + drill.render("across identical runs"), file=sys.stderr)
            return 1
        print(
            "determinism check passed: schedules, workloads and outcome "
            "counts identical across runs",
            file=sys.stderr,
        )

    print(report.render(title=f"loadtest ({args.mode}/{args.arrival})"))
    if args.report_json:
        with open(args.report_json, "w") as fh:
            fh.write(report.to_json())
        print(f"wrote SLO report to {args.report_json}", file=sys.stderr)
    if tracer is not None:
        _exported(tracer.export_jsonl(args.trace), "spans", args.trace,
                  f"trace summarize {args.trace}")
    if sampler is not None:
        _exported(sampler.export_jsonl(args.telemetry), "telemetry records",
                  args.telemetry, f"top {args.telemetry} --once")
    if args.metrics:
        print()
        print(collect_loadgen_metrics(report).render(title="loadgen"))

    if policy is not None:
        violations = report.check(policy)
        for v in violations:
            print(f"SLO VIOLATION {v.describe()}", file=sys.stderr)
        if violations:
            return 1
        print("SLO check passed", file=sys.stderr)
    return 0


def _cmd_chaos_sessions(args) -> int:
    import tempfile

    from repro.drills import sessions_chaos_drill

    print("driving 3-tenant session campaigns under DEFAULT_FAULT_PLAN",
          file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        drill = sessions_chaos_drill(
            tmp, verify_determinism=args.verify_determinism,
            requests=args.requests, seed=args.seed, size=args.size,
            max_attempts=args.max_attempts, fallback=not args.no_fallback,
        )
    run = drill.first
    n_evals = sum(len(ix) for ix, _ in run.histories.values())
    print(run.stats.render(title="sessions chaos report"))
    print()
    print(
        f"campaign completion: {run.completion:.2%} "
        f"({n_evals} evaluations, availability "
        f"{run.stats.availability:.2%}, {run.stats.n_degraded} degraded)"
    )
    ok = run.completion >= 0.99
    if not ok:
        print(f"completion below 99%: {run.completion:.2%}")
    for problem in run.problems:
        print(f"event-log integrity: {problem}")
    ok &= not run.problems
    if not run.problems:
        print("event log: no lost or duplicated evaluations")
    if args.verify_determinism:
        print(drill.render("histories across two chaos runs"))
        ok &= drill.ok
    return 0 if ok else 1


def _cmd_fsck(args) -> int:
    """Verify/repair artifacts.  Exit codes: 0 clean (or repaired and
    not ``--strict``), 1 damage found, 2 unrecoverable."""
    from repro.core.storage import repair_artifact, verify_artifact
    from repro.errors import ExperimentError

    kind = None if args.kind == "auto" else args.kind
    exit_code = 0
    for path in args.paths:
        try:
            if args.repair:
                report = repair_artifact(
                    path, kind=kind, event_kind=args.event_kind
                )
            else:
                report = verify_artifact(
                    path, kind=kind, event_kind=args.event_kind,
                    quarantine=args.quarantine,
                )
        except ExperimentError as exc:
            print(f"{path}: unrecoverable: {exc}")
            exit_code = max(exit_code, 2)
            continue
        title = "fsck repair" if args.repair else "fsck verify"
        print(report.render(title=title))
        if not report.clean:
            if args.repair:
                print(
                    f"repaired: kept {report.records_recovered} records, "
                    f"quarantined {report.records_quarantined} "
                    f"({report.bytes_dropped} bytes)"
                )
            if args.strict or not args.repair:
                exit_code = max(exit_code, 1)
    return exit_code


def _cmd_chaos_disk(args) -> int:
    import tempfile

    from repro.drills.disk import disk_drill, drill_specs
    from repro.faults import render_fault_counts

    n_cells = len(drill_specs(args.size, args.seed))
    print(f"disk-fault drill: {n_cells}-cell checkpointed grid under "
          f"DISK_FAULT_PLAN (size {args.size}, seed {args.seed})",
          file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        grid, journal, injected = disk_drill(tmp, size=args.size, seed=args.seed)
    ok = True
    for name, report, summary in (
        ("grid", grid, "{0.crashes} hard kills, {0.quarantined} records "
         "quarantined across repairs; resume bit-identical"),
        ("journal", journal, "{0.crashes} failed appends, {0.quarantined} "
         "records quarantined; replayed history bit-identical"),
    ):
        recovery = report.results[1]
        for problem in recovery.problems:
            print(problem)
        print(f"{name}: {summary.format(recovery)}: "
              f"{'yes' if report.ok else 'NO'}")
        if not report.ok:
            print(report.render(f"{name} history vs unfaulted run"))
        ok &= report.ok and not recovery.problems
    print()
    print(render_fault_counts(injected, title="chaos --disk: injected disk faults"))
    disk_total = sum(
        injected[k] for k in ("torn_writes", "bitflips", "enospc", "fsync_failures")
    )
    if disk_total == 0:
        print("drill invalid: no disk fault ever fired")
        ok = False
    print(
        f"\n{disk_total} disk faults injected, every corruption "
        f"accounted for and histories reproduced: {'yes' if ok else 'NO'}"
    )
    return 0 if ok else 1


def _cmd_chaos(args) -> int:
    if args.sessions:
        return _cmd_chaos_sessions(args)
    if args.disk:
        return _cmd_chaos_disk(args)
    from repro.drills import repeated_workload, service_chaos_drill
    from repro.faults import FaultPlan, render_fault_counts
    from repro.obs import max_sample_gap_s

    workload = repeated_workload(
        size=args.size, n_icl=args.n_icl, unique=args.unique,
        n_requests=args.requests, seed=args.seed,
    )
    print(f"driving {len(workload)} requests through a seeded fault plan "
          f"(size {args.size}, seed {args.seed})", file=sys.stderr)
    plan = FaultPlan(
        seed=args.seed, transient_error_rate=args.error_rate,
        latency_spike_rate=args.latency_rate, latency_spike_s=args.latency_s,
        eviction_storm_rate=args.evict_rate, queue_stall_rate=args.stall_rate,
        queue_stall_s=args.stall_s,
        shard_kill_rate=args.kill_rate if args.shards else 0.0,
        telemetry_drop_rate=args.telemetry_drop_rate,
        telemetry_dup_rate=args.telemetry_dup_rate,
    )
    drill = service_chaos_drill(
        workload, plan, verify_determinism=args.verify_determinism,
        shards=args.shards, max_attempts=args.max_attempts,
        fallback=not args.no_fallback,
        telemetry_interval=args.telemetry_interval,
    )
    stats, faults, unhandled, _, sampler = drill.first
    print(stats.render(title="chaos report (service under faults)"))
    print()
    print(render_fault_counts(faults))
    print()
    print(
        f"availability: {stats.availability:.2%}  "
        f"(p95 under faults {stats.p95_latency_s * 1000:.1f} ms, "
        f"{stats.n_degraded} degraded, {unhandled} unanswered)"
    )
    # Telemetry liveness: the sampler observed the whole drill, so a
    # gap past twice its cadence means the faults it was watching also
    # took the watcher down.
    records = sampler.records()
    gap = max_sample_gap_s(records)
    bound = 2 * args.telemetry_interval
    alive = gap <= bound
    print(
        f"telemetry liveness: {len(records)} records, max sample gap "
        f"{gap * 1000:.0f} ms (bound {bound * 1000:.0f} ms): "
        f"{'ok' if alive else 'VIOLATED'}"
    )
    if args.telemetry:
        _exported(sampler.export_jsonl(args.telemetry), "telemetry records",
                  args.telemetry, f"top {args.telemetry} --once")
    if args.verify_determinism:
        print(drill.render("across two identical runs", 1))
        print(drill.render("with degraded cache serves interleaved", 2))
    return 0 if alive and drill.ok else 1


def _cmd_trace(args) -> int:
    from repro.obs import (
        load_spans,
        render_span_tree,
        summarize_spans,
        write_folded,
        write_speedscope,
    )

    spans = load_spans(args.path)
    if not spans:
        print(f"no spans in {args.path}", file=sys.stderr)
        return 1
    if args.action == "flame":
        folded = args.folded or f"{args.path}.folded"
        speedscope = args.speedscope or f"{args.path}.speedscope.json"
        n_paths = write_folded(spans, folded)
        n_profiles = write_speedscope(spans, speedscope, name=args.path)
        print(f"wrote {n_paths} folded call paths to {folded}")
        print(
            f"wrote {n_profiles} speedscope profiles to {speedscope} "
            f"(open at https://www.speedscope.app)"
        )
        return 0
    print(summarize_spans(spans).render())
    if args.tree > 0:
        print()
        print(render_span_tree(spans, max_roots=args.tree))
    return 0


def _cmd_top(args) -> int:
    import time as _time

    from repro.obs import load_telemetry, render_dashboard

    def render() -> str:
        timeline = load_telemetry(args.path, tolerate_partial=True)
        rep = timeline.report
        body = render_dashboard(
            timeline, window_s=args.window,
            title=f"repro top — {args.path}",
        )
        footer = (
            f"timeline: {rep.n_samples} samples, {rep.n_alerts} alerts, "
            f"{rep.n_dropped} dropped, {rep.n_duplicates} duplicates, "
            f"max gap {rep.max_gap_s * 1000:.0f} ms"
        )
        return body + "\n" + footer

    try:
        if args.once:
            print(render())
            return 0
        refreshes = 0
        while True:
            # Re-read the file each refresh: ANSI home+clear, not a
            # scrollback flood.
            print("\x1b[2J\x1b[H" + render(), flush=True)
            refreshes += 1
            if args.refresh_limit and refreshes >= args.refresh_limit:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_table1(args) -> int:
    t = Table(
        ["size", "train n", "R2", "MARE", "MSRE"],
        title="GBT baseline metrics (Table I shape)",
    )
    for size in args.sizes:
        dataset = generate_dataset(size)
        train, test = train_test_split(dataset, 0.8, seed=1)
        enc = FeatureEncoder(dataset.space)
        tt = TargetTransform("log")
        x_test = enc.encode_dataset(test)
        for n in args.train:
            sub = train.subset(np.arange(min(n, len(train))))
            model = GradientBoostingRegressor(
                BoostingParams(
                    n_estimators=200, learning_rate=0.1, max_depth=6,
                    min_samples_leaf=2,
                )
            ).fit(enc.encode_dataset(sub), tt.forward(sub.runtimes))
            m = score_predictions(
                test.runtimes, tt.inverse(model.predict(x_test))
            )
            t.add_row([size, len(sub), m.r2, m.mare, m.msre])
    print(t.render())
    return 0


_COMMANDS = {
    "dataset": _cmd_dataset,
    "predict": _cmd_predict,
    "grid": _cmd_grid,
    "report": _cmd_report,
    "tune": _cmd_tune,
    "sessions": _cmd_sessions,
    "table1": _cmd_table1,
    "serve-bench": _cmd_serve_bench,
    "loadtest": _cmd_loadtest,
    "chaos": _cmd_chaos,
    "fsck": _cmd_fsck,
    "trace": _cmd_trace,
    "top": _cmd_top,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # `repro … | head` closing the pipe early is a normal exit, but
        # the interpreter would still flush stdout at shutdown — hand
        # it a pipe-less stdout so teardown stays quiet.
        sys.stdout = open(os.devnull, "w")
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
