"""Command-line interface: ``repro <experiment-id> [...]`` and ``repro VERB``.

Each verb has its own subparser and takes only the flags it reads;
``repro VERB -h`` lists them.

Examples::

    repro E3                 # regenerate Table II
    repro all                # run the full battery
    repro E7 --scale 0.25    # quarter-size quick run
    repro list               # show the experiment index
    repro E7 --trace trace.jsonl   # run with hierarchical tracing
    repro trace-summary trace.jsonl  # render an exported trace
    repro E7 --profile prof.json   # run under the sampling profiler
    repro profile-summary prof.json  # top functions, spans, self/cumul
    repro profile --url http://127.0.0.1:8080 > live.folded  # live capture
    repro perf record              # ledger entries from BENCH snapshots
    repro perf log                 # the benchmark result time series
    repro perf check               # noise-aware perf-regression gate
    repro publish cpu2006 --registry ./models   # train + register a model
    repro serve --registry ./models --port 8080 # serve it over HTTP
    repro monitor cpu2006            # stream held-out traffic, watch drift
    repro monitor cpu2006 omp2001    # cross-suite traffic -> transfer fails
    repro serve --registry ./models --shadow cand1  # champion/challenger
    repro serve --registry ./models --events events.jsonl  # + telemetry
    repro status --url http://127.0.0.1:8080        # one status snapshot
    repro status --watch                            # live terminal view
    repro serve --registry ./models --pipeline      # arm the MLOps loop
    repro pipeline run cpu2006 omp2001   # replay detect->retrain->promote
    repro promotions --registry ./models            # audit trail + verify
    repro rollback --registry ./models              # undo the last flip
    repro registry gc --registry ./models --dry-run # plan artifact cleanup
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext
from repro.experiments.registry import EXPERIMENTS, run_experiment

__all__ = ["main"]

_TITLES = {
    "E1": "Table I (metric catalog)",
    "E2": "Figure 1 (CPU2006 model tree)",
    "E3": "Table II (CPU2006 profiles)",
    "E4": "Table III (CPU2006 similarity)",
    "E5": "Figure 2 (OMP2001 model tree)",
    "E6": "Table IV (OMP2001 profiles)",
    "E7": "Section VI.A (transfer t-tests)",
    "E8": "Section VI.B (transfer metrics)",
    "E9": "Ablation (model families)",
    "E10": "Ablation (tree design / pipeline)",
    "E11": "Extension (benchmark subsetting strategies)",
    "E12": "Extension (M5' parameter tuning frontier)",
    "E13": "Extension (per-event CPI attribution)",
    "E14": "Extension (seed robustness of transferability)",
    "E15": "Extension (generational transfer: CPU2006 -> CPU2000)",
    "E16": "Extension (structural model dissimilarity)",
    "E17": "Extension (phase-detection quality)",
    "E18": "Extension (per-benchmark cross-suite error)",
    "E19": "Extension (cross-machine transferability)",
    "E20": "Extension (event-level simulation validation)",
}

#: Suites ExperimentContext can train a model on; the suite generators
#: (catalog, quality, export) also cover CPU2000.
_TRAINABLE = (ExperimentContext.CPU, ExperimentContext.OMP)
_SUITES = (*_TRAINABLE, "cpu2000")


class _Positive(argparse.Action):
    """Store a flag's number, rejecting zero and negatives."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value <= 0:
            parser.error(f"{option_string} must be positive, got {value:g}")
        setattr(namespace, self.dest, value)


def _add_suite(parser, dest: str, names: Tuple[str, ...], **kwargs) -> None:
    """A suite-name positional: any case, one of ``names``."""

    def suite(text: str) -> str:
        if text.lower() not in names:
            raise argparse.ArgumentTypeError(
                f"unknown suite {text!r}; have {list(names)}"
            )
        return text.lower()

    parser.add_argument(dest, type=suite, choices=names, **kwargs)


def _build_parsers() -> Tuple[
    argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]
]:
    """The experiment-id parser and each verb's own parser, by name."""

    def parent() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False)

    # Flags several verbs read, declared once.
    scaled = parent()
    scaled.add_argument(
        "--scale",
        type=float,
        default=1.0,
        action=_Positive,
        help="scale factor on sample counts (default 1.0)",
    )
    scaled.add_argument("--seed", type=int, help="override the master seed")
    cached = parent()
    cached.add_argument(
        "--cache-dir", help="cache generated suite data in this directory"
    )
    profiled = parent()
    profiled.add_argument(
        "--profile",
        metavar="PATH",
        help=(
            "write a CPU profile sampled at --profile-hz to PATH as JSON "
            "(inspect with 'repro profile-summary PATH')"
        ),
    )
    profiled.add_argument(
        "--profile-hz",
        type=int,
        default=99,
        metavar="HZ",
        help="sampling rate (default 99)",
    )
    registry = parent()
    registry.add_argument(
        "--registry", required=True, metavar="DIR", help="model registry dir"
    )
    url = parent()
    url.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="base URL of a running server (default %(default)s)",
    )
    audit = parent()
    audit.add_argument(
        "--audit",
        metavar="PATH",
        help="append every drift evaluation to PATH as JSONL",
    )
    stream = parent()
    stream.add_argument(
        "--window",
        type=int,
        default=256,
        metavar="N",
        help="drift window size in records (default 256)",
    )
    stream.add_argument(
        "--stream-batch",
        type=int,
        default=64,
        action=_Positive,
        metavar="N",
        help="records per replayed traffic batch (default 64)",
    )
    ledger = parent()
    ledger.add_argument(
        "--ledger",
        metavar="PATH",
        help="ledger file (default benchmarks/LEDGER.jsonl)",
    )

    # The root only names the verbs: each verb parses its own words, so
    # its usage line and its errors are its own.
    root = argparse.ArgumentParser(add_help=False, usage=argparse.SUPPRESS)
    verbs = root.add_subparsers(
        prog="repro",
        title="verbs",
        description="'repro VERB -h' lists the flags of each",
        metavar="VERB",
    )

    def verb(group, name, run, help, *parents, suites=()):
        parser = group.add_parser(
            name, help=help, description=help, parents=list(parents)
        )
        if suites:
            _add_suite(parser, "suite", suites)
        parser.set_defaults(run=run)
        return parser

    def nested(name, help):
        return verbs.add_parser(name, help=help).add_subparsers(
            dest="action", required=True
        )

    verb(
        verbs, "catalog", _catalog, "a suite's benchmark table", suites=_SUITES
    )
    verb(
        verbs,
        "describe",
        _describe,
        "one benchmark: metadata, profile, equations, neighbors",
        scaled,
    ).add_argument("benchmark", help="a benchmark name, e.g. 429.mcf")
    verb(
        verbs,
        "rules",
        _rules,
        "a suite's model tree as IF/THEN rules",
        scaled,
        suites=_TRAINABLE,
    )
    verb(
        verbs,
        "dot",
        _dot,
        "a suite's model tree as Graphviz dot",
        scaled,
        suites=_TRAINABLE,
    )
    verb(
        verbs,
        "quality",
        _quality,
        "PMU data quality of a suite's intervals",
        scaled,
        suites=_SUITES,
    )
    verb(
        verbs,
        "export",
        _export,
        "write a suite's intervals as CSV or WEKA ARFF",
        scaled,
        suites=_SUITES,
    ).add_argument("path", help="*.arff for ARFF, else CSV")
    verb(
        verbs, "trace-summary", _trace_summary, "render an exported trace"
    ).add_argument("trace", metavar="TRACE.jsonl")
    verb(
        verbs, "profile-summary", _profile_summary, "render a saved profile"
    ).add_argument("profile", metavar="PROF.json")

    verb(
        verbs,
        "publish",
        _publish,
        "train a suite's model and register it",
        scaled,
        cached,
        registry,
        suites=_TRAINABLE,
    ).add_argument(
        "--alias",
        action="append",
        metavar="NAME",
        help="alias(es) to point at the model (default: latest)",
    )
    serve = verb(
        verbs,
        "serve",
        _serve,
        "serve registered models over HTTP",
        registry,
        profiled,
        audit,
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8080, help="TCP port (0: ephemeral)"
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=256,
        metavar="N",
        help="max rows coalesced into one prediction batch",
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        metavar="MS",
        help="max time the head request waits for a batch to fill",
    )
    serve.add_argument(
        "--self-test",
        action="store_true",
        help=(
            "boot on an ephemeral port, round-trip one predict request, "
            "verify bit-identical results, exit (with --workers N, also "
            "self-test through an N-replica cluster)"
        ),
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        action=_Positive,
        metavar="N",
        help=(
            "fork N replica processes sharing the host:port; replica 0 "
            "leads the pipeline (default 1 = single process)"
        ),
    )
    serve.add_argument(
        "--admin-port",
        type=int,
        metavar="N",
        help="with --workers: serve cluster /metrics and /v1/status here",
    )
    serve.add_argument(
        "--events",
        metavar="PATH",
        help="append per-request telemetry to PATH as rotating JSONL",
    )
    serve.add_argument(
        "--no-monitor", action="store_true", help="no online drift monitor"
    )
    serve.add_argument(
        "--shadow",
        metavar="REF",
        help="evaluate this challenger model on the champion's traffic",
    )
    serve.add_argument(
        "--shadow-champion",
        default="latest",
        metavar="REF",
        help="the champion the challenger shadows (default: latest)",
    )
    serve.add_argument(
        "--pipeline",
        action="store_true",
        help="arm the retrain/shadow/promote loop on the drift monitor",
    )
    status = verb(
        verbs, "status", _status, "a running server's /v1/status", url
    )
    status.add_argument(
        "--watch", action="store_true", help="refresh the view until Ctrl-C"
    )
    status.add_argument(
        "--interval",
        type=float,
        default=2.0,
        action=_Positive,
        metavar="S",
        help="seconds between --watch refreshes (default 2)",
    )
    load = verb(
        verbs, "loadbench", _loadbench, "drive load at a running server", url
    )
    load.add_argument(
        "--mode",
        choices=("closed", "open"),
        default="closed",
        help=(
            "closed loop (K connections + think time, measures capacity) "
            "or open loop (Poisson arrivals at --rate, measures latency "
            "at an offered rate; default closed)"
        ),
    )
    load.add_argument(
        "--duration",
        type=float,
        default=10.0,
        metavar="S",
        help="seconds of load (default 10)",
    )
    load.add_argument(
        "--connections",
        type=int,
        default=4,
        metavar="K",
        help="connections (closed) or sender pool size (open; default 4)",
    )
    load.add_argument(
        "--rate",
        type=float,
        default=100.0,
        metavar="R",
        help="open loop: offered arrival rate in req/s (default 100)",
    )
    load.add_argument(
        "--think-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="closed loop: think time between requests (default 0)",
    )
    load.add_argument(
        "--batch-rows",
        type=int,
        default=64,
        metavar="N",
        help="rows per predict request (default 64)",
    )
    load.add_argument(
        "--model", metavar="REF", help="model to request (default: latest)"
    )
    verb(
        verbs,
        "profile",
        _profile_client,
        "capture a live CPU profile from a running server",
        url,
        profiled,
    ).add_argument(
        "--seconds",
        type=float,
        default=2.0,
        action=_Positive,
        metavar="S",
        help="capture window (default 2)",
    )

    monitor = verb(
        verbs,
        "monitor",
        _monitor,
        "stream a suite's data through a model and watch drift",
        scaled,
        cached,
        stream,
        audit,
    )
    _add_suite(
        monitor,
        "suite",
        _TRAINABLE,
        help="the model's suite; with --model, the traffic's",
    )
    _add_suite(
        monitor,
        "traffic_suite",
        _TRAINABLE,
        nargs="?",
        help="the traffic's suite (default: the model's)",
    )
    monitor.add_argument(
        "--registry", metavar="DIR", help="the registry --model names"
    )
    monitor.add_argument(
        "--model",
        metavar="REF",
        help="watch this registry model; the suite names the traffic",
    )
    pipeline_run = verb(
        nested("pipeline", "the MLOps loop, replayed offline"),
        "run",
        _pipeline_run,
        "replay detect -> retrain -> shadow -> promote",
        scaled,
        cached,
        stream,
    )
    _add_suite(
        pipeline_run,
        "train_suite",
        _TRAINABLE,
        help="the suite the first champion trains on",
    )
    _add_suite(
        pipeline_run,
        "traffic_suite",
        _TRAINABLE,
        help="the suite replayed as traffic",
    )
    pipeline_run.add_argument(
        "--registry",
        metavar="DIR",
        help="registry to retrain and promote in (default: a temporary one)",
    )
    pipeline_run.add_argument(
        "--max-records",
        type=int,
        default=8192,
        action=_Positive,
        metavar="N",
        help="stop the replay after N traffic records (default 8192)",
    )
    verb(verbs, "promotions", _promotions, "the promotion trail", registry)
    rollback = verb(
        verbs, "rollback", _rollback, "undo the last promotion", registry
    )
    rollback.add_argument(
        "--to",
        metavar="MODEL_ID",
        help="model to restore (default: the trail's prior model)",
    )
    rollback.add_argument(
        "--why", metavar="TEXT", help="reason recorded on the trail"
    )
    verb(
        nested("registry", "registry maintenance"),
        "gc",
        _registry_gc,
        "remove artifacts unreachable from aliases and the trail",
        registry,
    ).add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without deleting",
    )
    perf = nested("perf", "the performance ledger")
    verb(
        perf,
        "record",
        _perf_record,
        "append ledger entries from the BENCH_*.json snapshots",
        ledger,
    )
    verb(
        perf, "log", _perf_log, "the benchmark time series", ledger
    ).add_argument(
        "--last",
        type=int,
        default=10,
        action=_Positive,
        metavar="N",
        help="ledger entries to show (default 10)",
    )
    verb(
        perf, "check", _perf_check, "exit 1 on a perf regression", ledger
    ).add_argument(
        "--self-test",
        action="store_true",
        help="check that the gate flags an injected regression",
    )

    experiments = argparse.ArgumentParser(
        prog="repro",
        parents=[scaled, cached, profiled],
        description=(
            "Reproduce the tables and figures of 'Characterization of\n"
            "SPEC CPU2006 and SPEC OMP2001' (ISPASS 2008)."
        ),
        epilog=root.format_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    experiments.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT",
        help="experiment ids (E1..E20), 'all', 'list' or 'report'",
    )
    experiments.add_argument(
        "--output",
        default="repro_report.md",
        help="output path for 'report' (default repro_report.md)",
    )
    experiments.add_argument(
        "--jobs",
        type=int,
        action=_Positive,
        metavar="N",
        help=(
            "run experiments across N worker processes; stdout is "
            "byte-identical to the serial run, per-experiment timings "
            "go to stderr"
        ),
    )
    experiments.add_argument(
        "--trace",
        metavar="PATH",
        help=(
            "write spans, metrics and the run manifest to PATH as JSONL "
            "(inspect with 'repro trace-summary PATH')"
        ),
    )
    experiments.add_argument(
        "--metrics",
        action="store_true",
        help="print the process metrics registry to stderr after the run",
    )
    experiments.set_defaults(run=_run_experiments)
    return experiments, verbs.choices


def _parse(words: List[str]) -> argparse.Namespace:
    """Parse with the verb's own parser, or as experiment ids."""
    experiments, verbs = _build_parsers()
    if words and words[0].lower() in verbs:
        return verbs[words[0].lower()].parse_args(words[1:])
    return experiments.parse_args(words)


def _config_from_args(args) -> ExperimentConfig:
    """The battery configuration implied by --scale/--seed."""
    if args.seed is None:
        return ExperimentConfig().scaled(args.scale)
    return ExperimentConfig(seed=args.seed).scaled(args.scale)


def _suite_by_name(name: str):
    import repro.workloads

    return getattr(repro.workloads, f"spec_{name}")()


def _generate(args):
    """The named suite's intervals at the --scale/--seed sample count."""
    from repro.workloads.suite import SuiteGenerationConfig

    config = _config_from_args(args)
    return _suite_by_name(args.suite).generate(
        SuiteGenerationConfig(
            total_samples=config.cpu_samples, seed=config.seed
        )
    )


def _catalog(args) -> int:
    from repro.workloads.catalog import format_suite_catalog

    print(format_suite_catalog(_suite_by_name(args.suite)))
    return 0


def _dot(args) -> int:
    from repro.mtree.render import render_dot

    ctx = ExperimentContext(_config_from_args(args))
    print(render_dot(ctx.tree(args.suite), title=ctx.suite_label(args.suite)))
    return 0


def _rules(args) -> int:
    from repro.mtree.rules import render_rules

    ctx = ExperimentContext(_config_from_args(args))
    print(render_rules(ctx.tree(args.suite)))
    return 0


def _quality(args) -> int:
    from repro.pmu.collector import PmuCollector
    from repro.pmu.diagnostics import data_quality_report, format_quality_table

    report = data_quality_report(_generate(args), PmuCollector())
    print(format_quality_table(report))
    return 0


def _export(args) -> int:
    from repro.datasets import save_arff, save_csv

    data = _generate(args)
    if args.path.endswith(".arff"):
        save_arff(data, args.path)
    else:
        save_csv(data, args.path)
    print(f"wrote {len(data)} intervals to {args.path}")
    return 0


def _trace_summary(args) -> int:
    from repro.obs.summary import render_trace_summary

    try:
        print(render_trace_summary(args.trace))
    except (OSError, ValueError) as error:
        print(f"trace-summary: {error}", file=sys.stderr)
        return 2
    return 0


def _profile_summary(args) -> int:
    from repro.obs.prof import load_profile, render_profile_table

    try:
        print(render_profile_table(load_profile(args.profile)))
    except (OSError, ValueError, KeyError) as error:
        print(f"profile-summary: {error}", file=sys.stderr)
        return 2
    return 0


def _publish(args) -> int:
    from repro.serve.publish import publish_from_config
    from repro.serve.registry import ModelRegistry

    record = publish_from_config(
        ModelRegistry(args.registry),
        args.suite,
        config=_config_from_args(args),
        cache_dir=args.cache_dir,
        aliases=tuple(args.alias) if args.alias else ("latest",),
        argv=["repro", "publish", args.suite],
    )
    aliases = ", ".join(args.alias) if args.alias else "latest"
    print(
        f"published {record.model_id} ({record.n_leaves} leaves, "
        f"{record.n_features} features, suite "
        f"{record.metadata.get('suite')}) -> {aliases}"
    )
    return 0


def _profile_client(args) -> int:
    """Capture a live CPU profile from a running server.

    Fetches ``GET /v1/profile/cpu`` (JSON) and prints the folded
    stacks to stdout — pipe them straight into ``flamegraph.pl``.
    With ``--profile PATH`` the full profile JSON is saved there and a
    summary table is printed instead.
    """
    import json as _json
    import urllib.error
    import urllib.request

    from repro.obs.prof import Profile, render_profile_table

    url = (
        args.url.rstrip("/")
        + f"/v1/profile/cpu?seconds={args.seconds:g}&hz={args.profile_hz}"
    )
    try:
        with urllib.request.urlopen(
            url, timeout=args.seconds + 30.0
        ) as response:
            payload = _json.loads(response.read().decode("utf-8"))
        profile = Profile.from_dict(payload)
    except (urllib.error.URLError, OSError, ValueError, KeyError) as error:
        print(f"profile: {url}: {error}", file=sys.stderr)
        return 2
    if args.profile is not None:
        profile.save(args.profile)
        print(f"profile written to {args.profile}", file=sys.stderr)
        print(render_profile_table(profile))
    else:
        sys.stdout.write(profile.folded())
    return 0


def _ledger_path(args):
    from pathlib import Path

    from repro.obs.ledger import DEFAULT_LEDGER_PATH

    if args.ledger is None:
        return DEFAULT_LEDGER_PATH
    return Path(args.ledger)


def _perf_record(args) -> int:
    """Append ledger entries derived from the BENCH_*.json snapshots."""
    import json as _json

    from repro.obs.ledger import (
        BENCH_SNAPSHOTS,
        DEFAULT_LEDGER_PATH,
        PerfLedger,
        headline_metrics,
    )

    ledger = PerfLedger(_ledger_path(args))
    # Snapshots live next to the committed ledger regardless of
    # where --ledger points: record derives entries from what the
    # benchmark harness actually wrote.
    snapshot_dir = DEFAULT_LEDGER_PATH.parent
    recorded = 0
    for bench, filename in BENCH_SNAPSHOTS.items():
        path = snapshot_dir / filename
        if not path.exists():
            continue
        try:
            metrics = headline_metrics(bench, _json.loads(path.read_text()))
        except (ValueError, OSError) as error:
            print(f"perf record: {filename}: {error}", file=sys.stderr)
            continue
        if not metrics:
            continue
        ledger.append(bench, metrics, meta={"source": filename})
        print(f"recorded {bench}: {len(metrics)} metric(s) from {filename}")
        recorded += 1
    if not recorded:
        print(
            f"perf record: no BENCH_*.json snapshots in {snapshot_dir}",
            file=sys.stderr,
        )
        return 2
    return 0


def _perf_log(args) -> int:
    from repro.obs.ledger import PerfLedger, render_ledger_log

    print(render_ledger_log(PerfLedger(_ledger_path(args)), last=args.last))
    return 0


def _perf_check(args) -> int:
    from repro.obs.ledger import check_ledger, render_findings

    if args.self_test:
        return _perf_self_test(_ledger_path(args))
    findings = check_ledger(_ledger_path(args))
    print(render_findings(findings))
    return 1 if any(f.status == "regression" for f in findings) else 0


def _perf_self_test(committed_path) -> int:
    """Prove the regression gate works before trusting it in CI.

    Two assertions: an injected 2x ``tree_fit_s`` regression in a
    throwaway ledger IS flagged, and the committed ledger is NOT
    (no false positive).  Exits 0 only if both hold.
    """
    import tempfile
    from pathlib import Path

    from repro.obs.ledger import PerfLedger, check_ledger, render_findings

    failures = 0

    committed = check_ledger(committed_path)
    committed_clean = not any(f.status == "regression" for f in committed)
    if committed:
        print(
            f"committed ledger ({committed_path}): "
            + ("clean" if committed_clean else "REGRESSION FLAGGED")
        )
        if not committed_clean:
            print(render_findings(committed))
            failures += 1
    else:
        print(f"committed ledger ({committed_path}): empty, skipped")

    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "ledger.jsonl"
        ledger = PerfLedger(path)
        # A realistic baseline history with a few percent of jitter,
        # then a candidate entry at 2x — unambiguous at any noise
        # level the checker is configured for.
        for factor in (1.00, 0.97, 1.03, 0.99):
            ledger.append(
                "microperf",
                {
                    "tree_fit_s": 0.160 * factor,
                    "compiled_speedup_b64": 5.0 / factor,
                },
            )
        ledger.append(
            "microperf",
            {"tree_fit_s": 0.320, "compiled_speedup_b64": 5.0},
        )
        findings = check_ledger(path)
        detected = any(
            f.metric == "tree_fit_s" and f.status == "regression"
            for f in findings
        )
        print(
            "injected 2x tree_fit regression: "
            + ("detected" if detected else "MISSED")
        )
        if not detected:
            print(render_findings(findings))
            failures += 1

    print(
        "perf check --self-test: "
        + ("ok" if not failures else f"{failures} failure(s)")
    )
    return 1 if failures else 0


def _monitor(args) -> int:
    """Replay a suite's data as a traffic stream and print the verdict
    timeline — the live version of E7/E8's offline transferability
    battery.  Exits 0 while the model holds, 3 on TRANSFER_FAILED.
    """
    from repro.drift import (
        DriftMonitor,
        DriftMonitorConfig,
        DriftVerdict,
        JsonlAudit,
        ModelProfile,
    )
    from repro.stats.transfer import SampleMoments

    if args.model is not None and args.registry is None:
        print("monitor: --model requires --registry DIR", file=sys.stderr)
        return 2
    if args.model is not None and args.traffic_suite is not None:
        print(
            "monitor: with --model, give exactly one traffic suite",
            file=sys.stderr,
        )
        return 2
    try:
        monitor_config = DriftMonitorConfig(window=args.window)
    except ValueError as error:
        print(f"monitor: {error}", file=sys.stderr)
        return 2

    ctx = ExperimentContext(_config_from_args(args), cache_dir=args.cache_dir)
    if args.model is not None:
        from repro.serve.registry import ModelRegistry, RegistryError

        traffic_suite = args.suite
        try:
            record, tree = ModelRegistry(args.registry).load(args.model)
        except (RegistryError, KeyError) as error:
            print(f"monitor: {error}", file=sys.stderr)
            return 2
        profile = ModelProfile.from_record(record, tree)
        model_desc = f"registry model {record.model_id}"
        traffic = ctx.test_set(traffic_suite)
    else:
        model_suite = args.suite
        traffic_suite = args.traffic_suite or model_suite
        tree = ctx.tree(model_suite)
        train = ctx.train_set(model_suite)
        profile = ModelProfile.from_tree(
            model_suite, tree, training_y=SampleMoments.from_values(train.y)
        )
        model_desc = f"{ctx.suite_label(model_suite)} model"
        # Same split discipline as E7/E8: held-out data within suite,
        # the other suite's training-sized pool across suites.
        traffic = (
            ctx.test_set(traffic_suite)
            if traffic_suite == model_suite
            else ctx.train_set(traffic_suite)
        )

    actions = []
    if args.audit is not None:
        actions.append(JsonlAudit(args.audit))
    monitor = DriftMonitor(profile, monitor_config, actions)
    print(
        f"streaming {len(traffic)} {ctx.suite_label(traffic_suite)} "
        f"intervals through {model_desc} "
        f"(window={args.window}, batch={args.stream_batch})"
    )
    final_event = None
    batch = args.stream_batch
    # Replay drives every batch through the shared compiled evaluator
    # (predictions and leaf routing from one handle), the same backend
    # the serving engine and drift hub use.
    evaluator = tree.compiled()
    for start in range(0, len(traffic), batch):
        Xb = traffic.X[start : start + batch]
        yb = traffic.y[start : start + batch]
        event = monitor.observe(
            evaluator.predict(Xb), yb, evaluator.assign_names(Xb)
        )
        final_event = event
        if event.changed:
            detail = "; ".join(str(r) for r in event.breaches) or "clean"
            print(
                f"  record {event.records_seen:>7d}: "
                f"{event.previous_verdict.value} -> {event.verdict.value} "
                f"({detail})"
            )
    if final_event is None:
        print("monitor: traffic stream was empty", file=sys.stderr)
        return 2
    print(f"final verdict: {final_event.verdict.value}")
    for reading in final_event.readings:
        print(f"  {reading}")
    if args.audit is not None:
        print(f"audit trail: {args.audit}", file=sys.stderr)
    return 3 if final_event.verdict is DriftVerdict.TRANSFER_FAILED else 0


def _pipeline_run(args) -> int:
    """Replay the full detect -> retrain -> shadow -> promote loop.

    Exits 0 when the loop completed a promotion (the candidate took
    over the 'latest' alias and its verdict recovered), 3 otherwise —
    the remediation counterpart of ``repro monitor``'s exit 3.
    """
    import tempfile

    from repro.pipeline.replay import run_pipeline_replay
    from repro.serve.registry import ModelRegistry

    if args.window < 2:
        print(f"pipeline: --window must be >= 2, got {args.window}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        registry = ModelRegistry(
            args.registry if args.registry is not None else scratch
        )
        result = run_pipeline_replay(
            registry,
            args.train_suite,
            args.traffic_suite,
            config=_config_from_args(args),
            cache_dir=args.cache_dir,
            window=args.window,
            stream_batch=args.stream_batch,
            max_records=args.max_records,
        )
    return 0 if result["promoted"] else 3


def _promotions(args) -> int:
    """Print the promotion trail and verify its hash chain."""
    from repro.pipeline.promotions import PromotionChainError, PromotionLog
    from repro.serve.registry import ModelRegistry

    registry = ModelRegistry(args.registry)
    log = PromotionLog(registry.root / "promotions.jsonl")
    entries = log.entries()
    if not entries:
        print(f"no promotions recorded in {log.path}")
        return 0
    for entry in entries:
        import time as _time

        stamp = _time.strftime(
            "%Y-%m-%d %H:%M:%S",
            _time.localtime(float(entry.get("unix_time", 0))),
        )
        print(
            f"#{entry.get('seq')} {stamp} {entry.get('action')}: "
            f"{entry.get('alias')} {entry.get('from')} -> {entry.get('to')} "
            f"[{entry.get('actor')}] {entry.get('why')}"
        )
    try:
        count = log.verify()
    except PromotionChainError as error:
        print(f"hash chain BROKEN: {error}", file=sys.stderr)
        return 1
    print(f"hash chain verified ({count} entries)")
    return 0


def _rollback(args) -> int:
    """Restore the 'latest' alias to a prior model from the trail."""
    from repro.pipeline.promotions import (
        PromotionChainError,
        PromotionLog,
        perform_rollback,
    )
    from repro.serve.registry import ModelNotFound, ModelRegistry

    registry = ModelRegistry(args.registry)
    log = PromotionLog(registry.root / "promotions.jsonl")
    try:
        entry = perform_rollback(
            registry,
            log,
            to=args.to,
            why=args.why,
            actor="cli",
        )
    except (PromotionChainError, ModelNotFound) as error:
        print(f"rollback: {error}", file=sys.stderr)
        return 1
    print(
        f"rolled back 'latest': {entry.get('from')} -> {entry.get('to')} "
        f"(recorded as promotion-trail entry #{entry.get('seq')})"
    )
    return 0


def _registry_gc(args) -> int:
    """Collect registry artifacts unreachable from aliases or the trail."""
    from repro.pipeline.gc import collect_garbage
    from repro.serve.registry import ModelRegistry

    registry = ModelRegistry(args.registry)
    report = collect_garbage(registry, dry_run=args.dry_run)
    verb = "would remove" if report["dry_run"] else "removed"
    for item in report["collected"]:
        print(f"{verb} {item['model_id']} ({item['bytes']} bytes)")
    print(
        f"{verb} {len(report['collected'])} of {report['models_total']} "
        f"model(s), {report['bytes_freed']} bytes"
        + (
            f"; rollback target {report['rollback_target']} kept"
            if report["rollback_target"]
            else ""
        )
    )
    return 0


def _status(args) -> int:
    """Fetch ``/v1/status`` from a running server and render it.

    ``--watch`` redraws the view every ``--interval`` seconds until
    Ctrl-C — a terminal twin of the server's ``/dashboard`` page,
    stdlib-only (urllib + ANSI clear-screen).
    """
    import json as _json
    import time as _time
    import urllib.error
    import urllib.request

    from repro.serve.status import render_status_text

    url = args.url.rstrip("/") + "/v1/status"

    def fetch():
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return _json.loads(response.read().decode("utf-8"))

    if not args.watch:
        try:
            print(render_status_text(fetch()))
        except (urllib.error.URLError, OSError, ValueError) as error:
            print(f"status: {url}: {error}", file=sys.stderr)
            return 2
        return 0
    try:
        while True:
            try:
                text = render_status_text(fetch())
            except (urllib.error.URLError, OSError, ValueError) as error:
                text = f"status: {url}: {error}"
            # ANSI clear + home keeps the view flicker-free without
            # depending on curses.
            sys.stdout.write("\x1b[2J\x1b[H" + text + "\n")
            sys.stdout.flush()
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _loadbench(args) -> int:
    """Drive closed- or open-loop load at a running server's HTTP path."""
    import urllib.error

    from repro.loadbench import LoadConfig, run_load
    from repro.loadbench.report import render_load_text

    try:
        config = LoadConfig(
            url=args.url.rstrip("/"),
            model=args.model or "latest",
            mode=args.mode,
            duration_s=args.duration,
            connections=args.connections,
            think_ms=args.think_ms,
            rate=args.rate,
            batch_rows=args.batch_rows,
        )
    except ValueError as error:
        print(f"loadbench: {error}", file=sys.stderr)
        return 2
    # Fail fast on an unreachable server instead of recording a
    # duration_s-long run of nothing but connection errors, and size
    # the payload rows from the model's actual schema — a guessed
    # width would 400 on every request.
    import json as json_module
    import urllib.request

    from dataclasses import replace

    from repro.loadbench.harness import _default_instances

    try:
        with urllib.request.urlopen(
            f"{config.url}/healthz", timeout=5.0
        ) as response:
            response.read()
        with urllib.request.urlopen(
            f"{config.url}/v1/models/{config.model}", timeout=5.0
        ) as response:
            record = json_module.loads(response.read())
    except urllib.error.HTTPError as error:
        print(
            f"loadbench: no model {config.model!r} at {config.url} "
            f"(HTTP {error.code})",
            file=sys.stderr,
        )
        return 2
    except (urllib.error.URLError, OSError) as error:
        print(f"loadbench: {config.url}: {error}", file=sys.stderr)
        return 2
    config = replace(
        config,
        instances=_default_instances(
            config.batch_rows,
            config.seed,
            len(record.get("feature_names") or ()) or 3,
        ),
    )
    result = run_load(config)
    print(render_load_text(result, config.url))
    if result.requests == 0:
        print("loadbench: no successful requests", file=sys.stderr)
        return 1
    return 0


def _serve_cluster(args, batch) -> int:
    """Run an N-replica cluster until SIGTERM/SIGINT, then drain."""
    import signal

    from repro.cluster import ClusterConfig, ClusterSupervisor

    try:
        supervisor = ClusterSupervisor(
            ClusterConfig(
                registry_dir=args.registry,
                workers=args.workers,
                host=args.host,
                port=args.port,
                batch=batch,
                monitor=not args.no_monitor,
                pipeline=args.pipeline,
                events_path=args.events,
                admin_port=args.admin_port,
                extra_server_kwargs={
                    "shadow": args.shadow,
                    "shadow_champion": args.shadow_champion,
                    "audit_path": args.audit,
                },
            )
        ).start()
    except (OSError, ValueError) as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2

    def _drain(signum, frame) -> None:
        supervisor.request_stop()

    previous = {
        sig: signal.signal(sig, _drain)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    admin = (
        f", admin http://{args.host}:{supervisor.admin_port}"
        if supervisor.admin_port is not None
        else ""
    )
    print(
        f"serving on http://{args.host}:{supervisor.port} with "
        f"{args.workers} worker(s) ({supervisor.socket_mode} mode, "
        f"replica 0 leads{admin}; SIGTERM/Ctrl-C drains and exits)",
        file=sys.stderr,
    )
    try:
        supervisor.serve_forever()
        print("draining workers...", file=sys.stderr)
        unclean = supervisor.shutdown()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    restarts = sum(supervisor.restart_counts())
    print(
        f"cluster stopped ({restarts} restart(s), "
        f"{unclean} unclean exit(s)); bye",
        file=sys.stderr,
    )
    return 1 if unclean else 0


def _serve(args) -> int:
    """Run the model server until SIGTERM/SIGINT, then drain and exit."""
    from repro.serve.engine import BatchConfig

    try:
        batch = BatchConfig(
            max_batch=args.max_batch, max_wait_s=args.max_wait_ms / 1000.0
        )
    except ValueError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2

    if args.self_test:
        from repro.serve.selftest import run_self_test

        return run_self_test(
            args.registry, batch=batch, workers=args.workers
        )

    if args.workers > 1:
        if args.profile is not None:
            print(
                "serve: --profile samples one process; with --workers "
                "use 'repro profile' against a replica instead",
                file=sys.stderr,
            )
            return 2
        return _serve_cluster(args, batch)

    import signal
    import threading

    from repro.obs.metrics import get_registry
    from repro.serve.api import ModelServer
    from repro.serve.registry import ModelRegistry

    if args.pipeline and args.no_monitor:
        print(
            "serve: --pipeline requires drift monitoring "
            "(drop --no-monitor)",
            file=sys.stderr,
        )
        return 2
    registry = ModelRegistry(args.registry)
    try:
        server = ModelServer(
            registry,
            host=args.host,
            port=args.port,
            batch=batch,
            monitor=not args.no_monitor,
            shadow=args.shadow,
            shadow_champion=args.shadow_champion,
            audit_path=args.audit,
            events_path=args.events,
            pipeline=args.pipeline,
        )
    except KeyError as error:  # e.g. --shadow ref not in the registry
        print(f"serve: {error}", file=sys.stderr)
        return 2
    stop = threading.Event()

    def _drain(signum, frame) -> None:
        stop.set()

    previous = {
        sig: signal.signal(sig, _drain)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    profiler = None
    if args.profile is not None:
        from repro.obs.prof import SamplingProfiler

        try:
            profiler = SamplingProfiler(hz=args.profile_hz).start()
        except ValueError as error:
            print(f"serve: --profile: {error}", file=sys.stderr)
            return 2
    server.start()
    host, port = server.address
    print(
        f"serving {len(registry)} model(s) on http://{host}:{port} "
        f"(max_batch={batch.max_batch}, max_wait="
        f"{batch.max_wait_s * 1e3:g}ms; SIGTERM/Ctrl-C drains and exits)",
        file=sys.stderr,
    )
    try:
        stop.wait()
        print("draining...", file=sys.stderr)
        server.shutdown()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        if profiler is not None:
            server_profile = profiler.stop()
            server_profile.save(args.profile)
            print(
                f"profile written to {args.profile} "
                f"({server_profile.samples} passes at "
                f"{server_profile.hz} Hz)",
                file=sys.stderr,
            )
    served = get_registry().counter("serve.http.requests").value
    print(f"served {served} request(s); bye", file=sys.stderr)
    return 0


def _describe(args) -> int:
    """Full per-benchmark page: metadata, profile, equations, neighbors."""
    from repro.characterization.profile import profile_sample_set
    from repro.characterization.similarity import similarity_matrix
    from repro.workloads.catalog import format_benchmark_detail

    name = args.benchmark
    ctx = ExperimentContext(_config_from_args(args))
    for which in ("cpu2006", "omp2001"):
        suite = ctx.suite(which)
        try:
            suite.benchmark(name)
        except KeyError:
            continue
        print(format_benchmark_detail(suite, name))
        profile = profile_sample_set(ctx.tree(which), ctx.data(which))
        bench = profile.benchmark(name)
        print(f"\naverage CPI: {bench.mean_cpi:.2f} "
              f"(suite: {ctx.data(which).y.mean():.2f})")
        print("dominant linear models:")
        tree = ctx.tree(which)
        for lm, share in bench.dominant(4):
            print(f"  {lm} ({share:.1f}%): {tree.leaf(lm).model.equation()}")
        matrix = similarity_matrix(profile)
        ranked = sorted(
            (
                (other.benchmark, matrix.distance(name, other.benchmark))
                for other in profile.benchmarks
                if other.benchmark != name
            ),
            key=lambda item: item[1],
        )
        print("most similar benchmarks (Eq. 4):")
        for other, distance in ranked[:4]:
            print(f"  {other:20s} {distance:5.1f}%")
        print(f"distance from suite profile: "
              f"{matrix.suite_distance(name):.1f}%")
        return 0
    print(f"unknown benchmark {name!r} (try 'repro catalog cpu2006')",
          file=sys.stderr)
    return 2


def _run_experiments(args) -> int:
    """Run the requested experiments (and 'list', 'all', 'report')."""
    requested = [e.upper() for e in args.experiments]

    if "LIST" in requested:
        for key in sorted(EXPERIMENTS, key=lambda k: int(k[1:])):
            print(f"{key:5s} {_TITLES[key]}")
        return 0

    ran_all = "ALL" in requested
    if ran_all:
        requested = sorted(EXPERIMENTS, key=lambda k: int(k[1:]))

    want_report = "REPORT" in requested
    requested = [e for e in requested if e != "REPORT"]

    unknown = [e for e in requested if e not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s) {unknown}; run 'repro list'",
            file=sys.stderr,
        )
        return 2

    config = _config_from_args(args)

    tracer = None
    if args.trace is not None:
        from repro.obs.trace import Tracer, set_tracer

        tracer = Tracer()
        set_tracer(tracer)

    profiler = None
    profile = None
    if args.profile is not None:
        from repro.obs.prof import SamplingProfiler

        try:
            profiler = SamplingProfiler(hz=args.profile_hz).start()
        except ValueError as error:
            print(f"--profile: {error}", file=sys.stderr)
            return 2

    ctx: Optional[ExperimentContext] = None
    try:
        if args.jobs is not None and requested:
            from repro.experiments.runner import ParallelRunner

            runner = ParallelRunner(
                config, jobs=args.jobs, cache_dir=args.cache_dir
            )
            battery = runner.run(requested)
            for _, text in battery.texts:
                print(text)
                print()
            print(battery.summary(), file=sys.stderr)
        else:
            ctx = ExperimentContext(config, cache_dir=args.cache_dir)
            for key in requested:
                print(run_experiment(key, ctx))
                print()
            if ran_all and requested:
                from repro.datasets.cache import format_cache_stats

                print("dataset cache:", file=sys.stderr)
                print(format_cache_stats(ctx.cache.stats), file=sys.stderr)
        if want_report:
            from repro.experiments.report_gen import generate_report

            if ctx is None:
                ctx = ExperimentContext(config, cache_dir=args.cache_dir)
            generate_report(ctx, path=args.output)
            print(f"report written to {args.output}")
    finally:
        if tracer is not None:
            from repro.obs.trace import set_tracer

            set_tracer(None)
        if profiler is not None:
            profile = profiler.stop()

    if profile is not None:
        profile.save(args.profile)
        print(
            f"profile written to {args.profile} "
            f"({profile.samples} passes at {profile.hz} Hz, "
            f"{profile.attributed_fraction() * 100:.0f}% span-attributed)",
            file=sys.stderr,
        )
    if tracer is not None:
        from repro.obs.manifest import build_manifest
        from repro.obs.metrics import get_registry

        manifest = build_manifest(
            config,
            experiments=requested,
            argv=args.argv,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            extra={"scale": args.scale, "trace_path": args.trace},
        )
        tracer.write_jsonl(
            args.trace,
            manifest=manifest,
            metrics=get_registry().as_records(),
        )
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.metrics:
        from repro.obs.metrics import get_registry
        from repro.obs.summary import format_metrics_table

        print("metrics:", file=sys.stderr)
        print(
            format_metrics_table(get_registry().as_records()),
            file=sys.stderr,
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    words = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(words)
    except SystemExit as stop:  # argparse: 2 on a usage error, 0 on -h
        return stop.code
    args.argv = ["repro", *words]  # recorded in a trace's run manifest
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
