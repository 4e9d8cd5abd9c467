"""Command-line interface: ``python -m repro``.

Subcommands::

    python -m repro run pr --enhancements full        # one simulation
    python -m repro run pr --metrics out.json         # ... observed
    python -m repro run pr --trace t.json             # ... span-traced
    python -m repro figure fig14                      # regenerate a figure
    python -m repro figure fig1 fig4 fig14 --jobs 8   # parallel + memoised
    python -m repro stats out.json                    # render an export
    python -m repro stats a.json b.json               # diff two runs
    python -m repro trace summary t.json              # trace breakdowns
    python -m repro trace render t.json --perfetto p.json
    python -m repro trace diff base.json enh.json     # cycle attribution
    python -m repro bench                             # perf benchmark matrix
    python -m repro scenario list                     # traffic-mix library
    python -m repro scenario validate --all           # lint the library
    python -m repro scenario run SYN-01-STLB-THRASH   # simulate a scenario
    python -m repro serve                             # HTTP sweep service
    python -m repro submit run pr --enhancements full --wait
    python -m repro status <job-id>                   # job status
    python -m repro result <job-id>                   # job payload
    python -m repro cancel <job-id>                   # cancel pending job
    python -m repro top                               # live dashboard
    python -m repro list                              # what's available

Figures come from the decorator registry
(:mod:`repro.experiments.registry`); ``figure`` fans independent runs
out over ``--jobs`` worker processes and memoises results under
``~/.cache/repro-runs`` (``--no-cache`` to disable; the cache
auto-invalidates when the simulator code changes).  ``--metrics``
exports machine-readable ``repro.obs/v1`` documents (see
``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import sys

from repro import api

# ``repro.api`` is the only supported programmatic surface; the CLI is a
# thin shell over it and deliberately imports nothing deeper.


def _positive_int(value: str) -> int:
    """Argparse type: a strictly positive integer (``--jobs 0`` and
    ``--sample-interval -5`` must fail at the parser, not deep in a
    simulation)."""
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {value!r}") from None
    if number <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {number}")
    return number


def _enable_checking() -> None:
    # Via the environment so parallel worker processes inherit it.
    import os
    os.environ["REPRO_CHECK"] = "1"


def _cmd_run(args) -> int:
    if args.check:
        _enable_checking()
    cfg = api.build_config(args.scale, enhancements=args.enhancements)
    if args.l2c_prefetcher != "none":
        cfg = cfg.with_(l2c_prefetcher=args.l2c_prefetcher)
    if args.backend != "python":
        cfg = cfg.with_(backend=args.backend)
    result = api.run(args.benchmark, config=cfg,
                     instructions=args.instructions, warmup=args.warmup,
                     scale=args.scale, seed=args.seed,
                     metrics=args.metrics,
                     sample_interval=args.sample_interval,
                     trace=args.trace, trace_sample=args.trace_sample)
    print(f"benchmark      : {result.benchmark}")
    print(f"enhancements   : {args.enhancements}")
    print(f"instructions   : {result.instructions}")
    print(f"cycles         : {result.cycles}")
    print(f"IPC            : {result.ipc:.4f}")
    for key, value in result.summary().items():
        if key in ("ipc", "cycles"):
            continue
        print(f"{key:<15}: {value:.3f}")
    checker = result.hierarchy.checker
    if checker is not None:
        print(f"validation     : OK ({checker.events} events checked, "
              f"0 violations)")
    if args.metrics:
        print(f"metrics        : {args.metrics} "
              f"({len(result.intervals)} intervals, schema-validated)")
    if args.trace:
        t = result.tracer
        print(f"trace          : {args.trace} "
              f"({t.sampled_requests} requests / {t.span_count} spans, "
              f"1/{t.sample_every} sampling, schema-validated)")
    return 0


def _cmd_trace(args) -> int:
    from repro.obs.trace.cli import cmd_trace
    return cmd_trace(args)


def _progress(event) -> None:
    tag = "cache" if event.source == "cache" else f"{event.wall_time:.1f}s"
    print(f"  [{event.done}/{event.total}] {event.key.benchmark} "
          f"cfg={event.key.config_hash[:8]} ({tag})", file=sys.stderr)


def _cmd_figure(args) -> int:
    from repro.obs import (Heartbeat, batch_document, build_batch_manifest,
                           export_json, validate_strict)

    if args.check:
        # Memoised results would skip simulation (and thus validation),
        # so --check forces every run to execute.
        _enable_checking()
        args.no_cache = True
    heartbeat = Heartbeat(args.heartbeat) \
        if (args.metrics or args.heartbeat) else None

    def on_progress(event) -> None:
        if heartbeat is not None:
            heartbeat.emit(event)
        if args.verbose:
            _progress(event)

    runner = api.configure_parallel(
        jobs=args.jobs, use_cache=not args.no_cache,
        progress=on_progress if (args.verbose or heartbeat) else None)
    for name in args.names:
        spec = api.figure_spec(name)
        kwargs = {"instructions": args.instructions, "warmup": args.warmup}
        if args.benchmarks and spec.takes_benchmarks:
            kwargs["benchmarks"] = args.benchmarks
        print(spec(**kwargs))
    m = runner.metrics
    print(f"runs: {m.executed} executed, {m.cache_hits} from cache, "
          f"{m.retries} retried, {m.total_wall_time:.1f}s simulated",
          file=sys.stderr)
    if args.check:
        print("validation: all runs passed invariant + oracle checks",
              file=sys.stderr)
    if heartbeat is not None:
        heartbeat.close(runner_metrics=m)
        if args.metrics:
            doc = validate_strict(batch_document(
                build_batch_manifest(args.names, runner_metrics=m),
                heartbeat.events))
            export_json(args.metrics, doc)
            print(f"metrics: {args.metrics} ({len(heartbeat.events)} "
                  f"events, schema-validated)", file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    from repro.obs.stats_cli import cmd_stats
    return cmd_stats(args)


def _cmd_bench(args) -> int:
    from repro.bench import cmd_bench
    return cmd_bench(args)


def _cmd_scenario(args) -> int:
    from repro.scenarios.cli import cmd_scenario
    return cmd_scenario(args)


def _cmd_service(args) -> int:
    # The job-service subcommands (serve/submit/status/result/cancel)
    # carry their body in repro.service.cli, imported lazily like the
    # scenario tree.
    return args.service_func(args)


def _cmd_list(_args) -> int:
    print("benchmarks :", " ".join(api.list_benchmarks()))
    specs = api.figure_spec(None)
    paper = [s.name for s in specs if s.paper]
    extra = [s.name for s in specs if not s.paper]
    print("figures    :", " ".join(paper))
    print("studies    :", " ".join(extra))
    print("enhancement presets:", " ".join(api.ENHANCEMENT_PRESET_NAMES))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ISPASS'22 translation-conscious caching reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one benchmark or scenario")
    p_run.add_argument("benchmark", metavar="benchmark",
                       choices=api.list_benchmarks() + api.list_scenarios())
    p_run.add_argument("--enhancements", default="none",
                       choices=sorted(api.ENHANCEMENT_PRESET_NAMES))
    p_run.add_argument("--l2c-prefetcher", default="none",
                       choices=["none", "spp", "bingo", "isb", "next_line"])
    p_run.add_argument("--instructions", type=int,
                       default=api.DEFAULT_INSTRUCTIONS)
    p_run.add_argument("--warmup", type=int, default=api.DEFAULT_WARMUP)
    p_run.add_argument("--scale", type=int, default=api.DEFAULT_SCALE)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--backend", default="python",
                       choices=list(api.BACKENDS),
                       help="execution backend: the scalar reference "
                            "core or the bit-identical vectorized batch "
                            "core (see docs/performance.md)")
    p_run.add_argument("--metrics", metavar="PATH", default=None,
                       help="export manifest + interval time-series as "
                            "repro.obs/v1 JSON (see docs/observability.md)")
    p_run.add_argument("--sample-interval", type=_positive_int,
                       default=None, metavar="N",
                       help="sample the hierarchy every N retired "
                            "instructions (default with --metrics: "
                            f"{api.DEFAULT_SAMPLE_INTERVAL})")
    p_run.add_argument("--trace", metavar="PATH", default=None,
                       help="export the request span trace as "
                            "repro.obs/trace-v1 JSON (see "
                            "docs/observability.md)")
    p_run.add_argument("--trace-sample", type=_positive_int, default=None,
                       metavar="N",
                       help="trace 1 in N requests (default with "
                            "--trace: 1, i.e. every request)")
    p_run.add_argument("--check", action="store_true",
                       help="run with runtime invariant checkers and the "
                            "differential oracle attached (see "
                            "docs/validation.md)")
    p_run.set_defaults(func=_cmd_run)

    p_fig = sub.add_parser("figure", help="regenerate paper figures")
    p_fig.add_argument("names", nargs="+", choices=api.list_figures(),
                       metavar="name")
    p_fig.add_argument("--benchmarks", nargs="*", default=None)
    p_fig.add_argument("--instructions", type=int,
                       default=api.DEFAULT_INSTRUCTIONS)
    p_fig.add_argument("--warmup", type=int, default=api.DEFAULT_WARMUP)
    p_fig.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes for independent runs")
    p_fig.add_argument("--no-cache", action="store_true",
                       help="skip the on-disk result memo "
                            "(~/.cache/repro-runs)")
    p_fig.add_argument("--verbose", action="store_true",
                       help="per-run progress on stderr")
    p_fig.add_argument("--metrics", metavar="PATH", default=None,
                       help="export the batch manifest + per-run "
                            "heartbeat events as repro.obs/v1 JSON")
    p_fig.add_argument("--heartbeat", metavar="PATH", default=None,
                       help="stream one JSON line per completed run "
                            "(tail -f friendly)")
    p_fig.add_argument("--check", action="store_true",
                       help="validate every run (implies --no-cache: "
                            "memoised results would skip the checkers)")
    p_fig.set_defaults(func=_cmd_figure)

    p_stats = sub.add_parser(
        "stats", help="summarise / validate / diff metrics exports")
    p_stats.add_argument("paths", nargs="+",
                         help="one export renders it; two run exports "
                              "diff their summaries")
    p_stats.add_argument("--validate", action="store_true",
                         help="check documents against the repro.obs/v1 "
                              "schema and exit non-zero on problems")
    p_stats.add_argument("--csv", metavar="PATH", default=None,
                         help="also write a run export's interval "
                              "time-series as CSV")
    p_stats.set_defaults(func=_cmd_stats)

    p_trace = sub.add_parser(
        "trace", help="render / summarise / diff span-trace exports")
    trace_sub = p_trace.add_subparsers(dest="trace_cmd", required=True)
    t_render = trace_sub.add_parser(
        "render", help="print the span tree of a trace export")
    t_render.add_argument("path")
    t_render.add_argument("--limit", type=int, default=None, metavar="N",
                          help="only the first N requests")
    t_render.add_argument("--perfetto", metavar="PATH", default=None,
                          help="also convert to Chrome Trace Event "
                               "Format JSON (loadable in Perfetto)")
    t_render.set_defaults(func=_cmd_trace)
    t_summary = trace_sub.add_parser(
        "summary", help="latency breakdowns, hotspots, walk matrix")
    t_summary.add_argument("path")
    t_summary.set_defaults(func=_cmd_trace)
    t_diff = trace_sub.add_parser(
        "diff", help="attribute the cycle delta between two traced runs")
    t_diff.add_argument("baseline")
    t_diff.add_argument("enhanced")
    t_diff.set_defaults(func=_cmd_trace)

    p_bench = sub.add_parser(
        "bench", help="run the pinned performance-benchmark matrix")
    from repro.bench import add_arguments as _bench_arguments
    _bench_arguments(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    # The scenario subcommand's argument tree lives with its
    # implementation (repro.scenarios.cli); only the registration hook is
    # imported here, at parser-build time like the bench arguments above.
    from repro.scenarios.cli import add_scenario_parser
    add_scenario_parser(sub)
    sub.choices["scenario"].set_defaults(func=_cmd_scenario)

    # Job-service subcommands (docs/service.md), same lazy pattern.
    from repro.service.cli import add_service_parsers
    add_service_parsers(sub)
    for name in ("serve", "submit", "status", "result", "cancel", "top"):
        sub.choices[name].set_defaults(func=_cmd_service)

    p_list = sub.add_parser("list", help="list benchmarks and figures")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
