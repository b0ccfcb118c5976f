"""Command-line interface: ``grayscott <command>``.

Commands:

- ``run <settings.json>`` — run the end-to-end workflow from a settings
  file (the artifact's usage pattern) and print the provenance report;
  ``--trace-out``/``--metrics-out`` capture a Chrome/Perfetto trace and
  a metrics JSON through :mod:`repro.observe`; ``--virtual-ranks N``
  [``--overlap``] switches to the modeled SPMD mode
  (:mod:`repro.core.virtual` on the epoch recurrences of
  :mod:`repro.sched`: thousands of ranks, no threads);
- ``trace <trace.json>`` — summarize a trace written by
  ``run --trace-out`` (per-category totals, lanes, ASCII timeline);
- ``observe <tail|summary|merge-shards|flamegraph>`` — work with
  *streamed* telemetry (:mod:`repro.observe.stream`): tail the last
  spans of a shard stream, summarize it, merge shards back into one
  Chrome JSON, or render a sim-profiler folded profile;
- ``lint <settings.json>`` — statically analyze the run the settings
  describe (kernel bounds/races/type stability, exchange-plan deadlock
  and matching, ADIOS step protocol and coverage) without executing it;
  exits nonzero on error-severity diagnostics (``--format json`` emits
  a SARIF-like record, ``--rules`` selects rule ids);
- ``analyze <dataset.bp>`` — summarize a dataset and render the centre
  V slice as an ASCII heatmap (the Figure 9 session, in a terminal);
- ``bpls <dataset.bp>`` — the Listing 1 provenance record;
- ``bench <target>`` — regenerate a paper table/figure (table1-3,
  fig5-8, listing1/4), the strong-scaling extension (``strong``), or
  the machine-readable JSON of everything (``report``);
- ``campaign <base.json> --regimes a,b`` — Pearson-regime sweeps
  (``--jobs N`` fans members over worker processes, byte-identical to
  serial; exit codes follow the lint 0/1/2 contract);
- ``serve <base.json> --smoke|--load N`` — the simulator as an
  always-on cached service (:mod:`repro.serve`): repeated settings are
  answered from the canonical-hash cache byte-identically, ``--load``
  replays synthetic concurrent clients and reports p50/p99 latency;
- ``compare <a.bp> <b.bp> [--strict]`` — dataset diffs (max/RMS/PSNR).
"""

from __future__ import annotations

import argparse
import sys


def _trace_mode(path: str) -> str:
    """How ``--trace-out`` should write: streamed or monolithic.

    A ``.jsonl`` suffix streams to a single JSONL shard; a directory —
    existing, trailing-separator, or suffixless — streams rotating
    shards plus a manifest; anything else is the monolithic Chrome
    JSON dump.
    """
    import os
    from pathlib import Path

    p = Path(path)
    if p.suffix == ".jsonl":
        return "jsonl"
    if p.is_dir() or path.endswith(os.sep) or p.suffix == "":
        return "dir"
    return "mono"


def _probe_trace_out(path: str, mode: str) -> str | None:
    """An error message if ``--trace-out`` cannot be written, else None.

    Probed before the run starts, so an unwritable destination fails in
    seconds instead of after the workflow has finished (the old
    behavior: the exit-time dump raised with the whole run already
    spent).
    """
    import os
    from pathlib import Path

    p = Path(path)
    if mode == "dir":
        try:
            p.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return f"cannot create trace directory {p}: {exc}"
        if not os.access(p, os.W_OK):
            return f"trace directory {p} is not writable"
        return None
    parent = p.parent if str(p.parent) else Path(".")
    if not parent.is_dir():
        return (
            f"trace output directory {parent} does not exist "
            f"(cannot write {p})"
        )
    if not os.access(parent, os.W_OK):
        return f"trace output directory {parent} is not writable"
    if p.exists() and not os.access(p, os.W_OK):
        return f"trace output {p} is not writable"
    return None


def _streaming_tracer(trace_out: str):
    """A retain-nothing tracer streaming to ``trace_out`` shards."""
    from repro.observe.stream import ShardedPerfettoWriter
    from repro.observe.trace import Tracer

    writer = ShardedPerfettoWriter(trace_out)
    return Tracer(sinks=[writer], retain=False), writer


def _finish_observe_outputs(args, tracer, stream_writer) -> None:
    """Finish ``--trace-out`` (streamed or monolithic), write ``--metrics-out``."""
    trace_out = args.trace_out
    if stream_writer is not None:
        tracer.close()
        kind = (
            "shard" if stream_writer.single_file
            else f"shards in {trace_out.rstrip('/')}/"
        )
        print(
            f"streamed {stream_writer.total_spans} spans to "
            f"{stream_writer.target} ({kind}; merge with "
            f"'grayscott observe merge-shards {trace_out}')"
        )
    elif trace_out:
        from repro.observe.export import write_chrome_trace

        write_chrome_trace(tracer, trace_out)
        print(f"chrome trace written to {trace_out} "
              "(load it at https://ui.perfetto.dev)")
    if args.metrics_out:
        from repro.observe.export import write_metrics_json

        write_metrics_json(tracer.metrics, args.metrics_out)
        print(f"metrics written to {args.metrics_out}")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core.execute import JobSpec, execute_job
    from repro.core.settings import GrayScottSettings
    from repro.observe import trace as observe
    from repro.util.errors import ConfigError

    try:
        settings = GrayScottSettings.load(args.settings)
        if args.ranks is not None:
            settings = settings.with_overrides(ranks=args.ranks)
    except (ConfigError, OSError) as exc:
        print(f"grayscott: {exc}", file=sys.stderr)
        return 2
    if args.virtual_ranks is not None:
        needs = "a functional run"
        misplaced = (("--trace", args.trace), ("--timings", args.timings))
    else:
        needs = "--virtual-ranks"
        misplaced = (
            ("--sim-profile", args.sim_profile), ("--overlap", args.overlap),
            ("--nic-contention", args.nic_contention), ("--jobs", args.jobs != 1),
        )
    for flag, given in misplaced:
        if given:
            print(f"grayscott: {flag} requires {needs}", file=sys.stderr)
            return 2

    trace_mode = _trace_mode(args.trace_out) if args.trace_out else None
    if args.trace_out:
        problem = _probe_trace_out(args.trace_out, trace_mode)
        if problem is not None:
            print(f"grayscott: {problem}", file=sys.stderr)
            return 2
    if args.jit_cache:
        from repro.gpu import jitcache

        try:
            cache = jitcache.configure(args.jit_cache)
        except jitcache.JitCacheError as exc:
            print(f"grayscott: {exc}", file=sys.stderr)
            return 2
        print(f"jit cache: {cache.stats()['objects']} compiled kernel(s) in "
              f"{args.jit_cache}")

    if args.virtual_ranks is not None:
        return _run_virtual(args, settings, trace_mode)

    if args.trace and settings.backend == "cpu":
        print("grayscott: --trace needs a GPU backend (julia/hip)",
              file=sys.stderr)
        return 2

    spec = JobSpec(settings=settings)

    tracer = stream_writer = None
    if args.trace_out or args.metrics_out or args.trace or args.timings:
        session_tracer = None
        if args.trace_out and trace_mode != "mono":
            session_tracer, stream_writer = _streaming_tracer(args.trace_out)
        with observe.session(session_tracer) as tracer:
            result = execute_job(spec)
    else:
        result = execute_job(spec)
    print(result.render())
    _finish_observe_outputs(args, tracer, stream_writer)
    if args.trace or args.timings:
        if stream_writer is not None:
            from repro.observe.stream import rebuild_tracer

            spans = rebuild_tracer(stream_writer.target).spans
        else:
            spans = tracer.spans
        if args.timings:
            print(_step_sections(spans))
        if args.trace:
            from pathlib import Path

            from repro.gpu.rocprof import to_csv

            Path(args.trace).write_text(to_csv(spans) + "\n")
            print(f"rocprof-style trace written to {args.trace}")
    return 0


def _step_sections(spans) -> str:
    """Rank 0's wall-time table of the solver's step sections."""
    from repro.util.tables import Table

    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for span in spans:
        if span.process == "rank0" and span.name in (
            "step.exchange", "step.compute"
        ):
            section = span.name.removeprefix("step.")
            totals[section] = totals.get(section, 0.0) + span.seconds
            counts[section] = counts.get(section, 0) + 1
    table = Table(["section", "calls", "total (s)", "mean (ms)"],
                  title="wall-time sections")
    for name in sorted(totals, key=totals.get, reverse=True):
        table.add_row([
            name, counts[name], f"{totals[name]:.4f}",
            f"{totals[name] / counts[name] * 1e3:.3f}",
        ])
    return table.render()


def _run_virtual(args: argparse.Namespace, settings, trace_mode=None) -> int:
    """``run --virtual-ranks N``: event-driven modeled SPMD execution."""
    from repro.core.execute import JobSpec, execute_job

    tracer = None
    stream_writer = None
    if args.trace_out and trace_mode != "mono":
        tracer, stream_writer = _streaming_tracer(args.trace_out)
    elif args.trace_out or args.metrics_out:
        from repro.observe.trace import Tracer

        tracer = Tracer()
    profiler = None
    if args.sim_profile:
        from repro.sched import SimProfiler

        profiler = SimProfiler(args.sim_profile_interval)
    spec = JobSpec(
        settings=settings,
        mode="virtual",
        virtual_ranks=args.virtual_ranks,
        overlap=args.overlap,
        nic_contention=args.nic_contention,
    )
    result = execute_job(
        spec, jobs=args.jobs, tracer=tracer, profiler=profiler
    )
    print(result.render())
    _finish_observe_outputs(args, tracer, stream_writer)
    if profiler is not None:
        profiler.write_folded(args.sim_profile)
        print(f"sim profile ({profiler.samples_taken} samples) written to "
              f"{args.sim_profile} (render with 'grayscott observe "
              f"flamegraph {args.sim_profile}')")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """``grayscott lint``: exit 0 clean, 1 on errors, 2 on usage/IO."""
    import json

    from repro.core.settings import GrayScottSettings
    from repro.lint import check_rule_ids, exit_code, render_text, to_sarif
    from repro.lint.runner import lint_workflow
    from repro.util.errors import ConfigError, IrError, LintError

    rules = None
    if args.rules:
        try:
            rules = check_rule_ids(
                r.strip() for r in args.rules.split(",") if r.strip()
            )
        except LintError as exc:
            print(f"grayscott: {exc}", file=sys.stderr)
            return 2

    if args.passes:
        from repro.ir.passes import parse_pipeline

        try:
            parse_pipeline(args.passes)
        except IrError as exc:
            print(f"grayscott: {exc}", file=sys.stderr)
            return 2

    try:
        settings = GrayScottSettings.load(args.settings)
    except (ConfigError, OSError) as exc:
        print(f"grayscott: {exc}", file=sys.stderr)
        return 2
    report = lint_workflow(settings, rules=rules, passes=args.passes)

    if args.format in ("json", "sarif"):
        text = json.dumps(to_sarif(report), indent=2)
    else:
        text = render_text(report, title=f"lint: {args.settings}")
    if args.out:
        from repro.util.files import atomic_write_text

        try:
            atomic_write_text(args.out, text + "\n")
        except OSError as exc:
            print(f"grayscott: cannot write {args.out}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"lint report written to {args.out}")
    else:
        print(text)
    return exit_code(report)


def _parse_shape(text: str) -> tuple[int, int, int]:
    from repro.util.errors import IrError

    parts = [p for p in text.lower().replace(",", "x").split("x") if p]
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise IrError(f"malformed shape {text!r}; expected NxNxN") from None
    if len(dims) == 1:
        dims = dims * 3
    if len(dims) != 3 or any(d < 4 for d in dims):
        raise IrError(
            f"shape {text!r} must have 3 extents of at least 4"
        )
    return dims


def _ir_module(args):
    """The stencil-IR module an ``ir`` subcommand operates on."""
    from repro.core.settings import GrayScottSettings
    from repro.ir.build import workflow_module
    from repro.util.errors import IrError

    settings = (
        GrayScottSettings.load(args.settings) if args.settings else None
    )
    module = workflow_module(settings)
    if args.kernel:
        names = [f.name for f in module.funcs]
        if args.kernel not in names:
            raise IrError(
                f"unknown kernel {args.kernel!r}; module has: "
                + ", ".join(names)
            )
        module = module.with_funcs(
            [f for f in module.funcs if f.name == args.kernel]
        )
    return module


def _emit(text: str, out: str | None, what: str) -> int:
    if out:
        from repro.util.files import atomic_write_text

        try:
            atomic_write_text(out, text + "\n")
        except OSError as exc:
            print(f"grayscott: cannot write {out}: {exc}", file=sys.stderr)
            return 2
        print(f"{what} written to {out}")
    else:
        print(text)
    return 0


def _cmd_ir(args: argparse.Namespace) -> int:
    """``grayscott ir <dump|verify|optimize>`` over the workflow module.

    Exit codes follow the lint contract: 0 on success/clean, 1 when
    ``verify`` finds problems, 2 on usage or IO errors.
    """
    import json

    from repro.util.errors import ConfigError, IrError

    try:
        module = _ir_module(args)
    except (ConfigError, IrError, OSError) as exc:
        print(f"grayscott: {exc}", file=sys.stderr)
        return 2

    if args.ir_command == "dump":
        if args.format == "json":
            text = json.dumps(module.to_json(), indent=2)
        else:
            text = module.render()
        return _emit(text, args.out, "IR dump")

    if args.ir_command == "verify":
        from repro.ir.analysis import AnalysisContext
        from repro.lint import check_ir_func, render_text, to_sarif
        from repro.lint.diagnostics import LintReport
        from repro.lint.kernels import analyze_ir_func

        problems = module.verify()
        if problems:
            for problem in problems:
                print(f"grayscott: invalid IR: {problem}", file=sys.stderr)
            return 1
        report = LintReport()
        for func in module.funcs:
            ctx = AnalysisContext(func)
            analyze_ir_func(func, report=report, ctx=ctx)
            check_ir_func(func, report=report, ctx=ctx)
        if args.format in ("json", "sarif"):
            text = json.dumps(to_sarif(report), indent=2)
        else:
            text = render_text(report, title=f"ir verify: {module.name}")
        code = _emit(text, args.out, "IR verify report")
        if code:
            return code
        from repro.lint import exit_code

        return exit_code(report)

    # optimize
    from repro.ir.passes import parse_pipeline
    from repro.ir.perfmodel import counterfactual

    if args.capacity_bytes is not None and not args.exact:
        print("grayscott: --capacity-bytes requires --exact", file=sys.stderr)
        return 2
    try:
        pipeline = parse_pipeline(args.passes)
        shape = _parse_shape(args.shape)
    except IrError as exc:
        print(f"grayscott: {exc}", file=sys.stderr)
        return 2
    result = counterfactual(
        module,
        shape=shape,
        passes=pipeline,
        exact=args.exact,
        capacity_bytes=args.capacity_bytes,
    )
    if args.format == "json":
        text = json.dumps(result.to_json(), indent=2)
    else:
        text = result.render()
    return _emit(text, args.out, "IR optimize report")


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.observe.export import load_chrome_trace, summarize_chrome_trace

    obj = load_chrome_trace(args.trace)
    print(summarize_chrome_trace(obj, width=args.width))
    return 0


def _cmd_observe_tail(args: argparse.Namespace) -> int:
    from repro.observe.stream import tail_spans

    records = tail_spans(args.source, args.lines)
    if not records:
        print("(empty stream)")
        return 0
    for rec in records:
        extra = ""
        if rec["args"]:
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(rec["args"].items()))
            extra = f"  [{pairs}]"
        print(
            f"[{rec['clock']}] {rec['process']}/{rec['thread']} "
            f"{rec['start']:.6f}s +{rec['seconds']:.6f}s "
            f"{rec['cat']}:{rec['name']}{extra}"
        )
    return 0


def _cmd_observe_summary(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.observe.export import load_chrome_trace, summarize_chrome_trace
    from repro.observe.stream import is_shard_source, load_manifest

    source = Path(args.source)
    if is_shard_source(source) and source.suffix != ".jsonl":
        manifest = load_manifest(source)
        print(
            f"shard stream: {manifest['spans']} spans in "
            f"{len(manifest['shards'])} shard(s)"
        )
        print()
    obj = load_chrome_trace(args.source)
    print(summarize_chrome_trace(obj, width=args.width))
    return 0


def _cmd_observe_merge(args: argparse.Namespace) -> int:
    from repro.observe.stream import write_merged

    out = write_merged(args.source, args.out)
    print(f"merged trace written to {out} "
          "(load it at https://ui.perfetto.dev)")
    return 0


def _cmd_observe_flamegraph(args: argparse.Namespace) -> int:
    from repro.sched.profiler import load_folded, render_stacks

    print(render_stacks(load_folded(args.profile), width=args.width))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.reader import GrayScottDataset
    from repro.analysis.render import ascii_heatmap
    from repro.analysis.stats import classify_pattern

    ds = GrayScottDataset(args.dataset)
    print(f"dataset: {args.dataset}")
    print(f"shape: {ds.shape}, output steps: {len(ds.steps)}")
    for name in ds.FIELDS:
        lo, hi = ds.minmax(name)
        print(f"  {name}: min/max {lo:g} / {hi:g}")
    plane = ds.slice2d("V", axis=2)
    print(ascii_heatmap(plane, title="V centre slice (last step)", width=args.width))
    print(f"pattern: {classify_pattern(plane)}")
    if args.images:
        from repro.analysis.imageio import snapshot_dataset

        written = snapshot_dataset(ds, args.images)
        print(f"wrote {len(written)} frames to {args.images}/")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    """``grayscott campaign``: exit 0 ok, 1 member failure, 2 usage/IO.

    The lint exit-code contract: a campaign whose members all succeed
    exits 0; one or more failed member runs (captured per variant, the
    others still complete) exit 1; a bad invocation — unknown regime,
    unreadable settings, bad ``--jobs`` — exits 2 before any run.
    """
    from repro.core.campaign import Campaign
    from repro.core.params import PEARSON_REGIMES
    from repro.core.settings import GrayScottSettings
    from repro.util.errors import ConfigError, ParError

    try:
        base = GrayScottSettings.load(args.settings)
    except (ConfigError, OSError) as exc:
        print(f"grayscott: {exc}", file=sys.stderr)
        return 2
    campaign = Campaign(base, workdir=args.workdir)
    for name in args.regimes.split(","):
        name = name.strip()
        if name not in PEARSON_REGIMES:
            print(
                f"grayscott: unknown regime {name!r}; "
                f"available: {', '.join(sorted(PEARSON_REGIMES))}",
                file=sys.stderr,
            )
            return 2
        F, k = PEARSON_REGIMES[name]
        campaign.add(name, F=F, k=k)
    try:
        result = campaign.run(jobs=args.jobs)
    except (ConfigError, ParError) as exc:
        print(f"grayscott: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    for name, failure in result.failures.items():
        last = (failure.strip().splitlines() or ["no traceback"])[-1]
        print(f"grayscott: campaign member {name} failed: {last}", file=sys.stderr)
    if args.provenance:
        try:
            result.save_provenance(args.provenance)
        except OSError as exc:
            print(f"grayscott: cannot write {args.provenance}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"provenance written to {args.provenance}")
    return 0 if result.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """``grayscott serve``: the simulator as an always-on cached service.

    ``--smoke`` runs the CI self-check (hit + miss + byte-identity +
    clean shutdown; exit 0 pass, 1 fail); ``--load N`` replays N
    synthetic concurrent clients and prints the latency/throughput
    report. One of the two is required (the CLI has no daemon mode);
    invoking without either — or with a bad settings file — exits 2.
    """
    import asyncio
    import tempfile

    from repro.core.settings import GrayScottSettings
    from repro.util.errors import ConfigError, ServeError

    if not args.smoke and args.load is None:
        print("grayscott: serve needs --smoke or --load N", file=sys.stderr)
        return 2
    try:
        settings = GrayScottSettings.load(args.settings)
    except (ConfigError, OSError) as exc:
        print(f"grayscott: {exc}", file=sys.stderr)
        return 2
    if args.mode == "virtual" and settings.backend == "cpu":
        print("grayscott: --mode virtual needs a GPU backend (julia/hip) "
              "in the settings", file=sys.stderr)
        return 2
    if args.warm_cache:
        from repro.gpu.jitcache import JitCacheError, JitDiskCache

        try:
            JitDiskCache(args.warm_cache)
        except JitCacheError as exc:
            print(f"grayscott: {exc}", file=sys.stderr)
            return 2

    with tempfile.TemporaryDirectory(prefix="grayscott-serve-") as scratch:
        workdir = args.workdir or scratch
        try:
            if args.smoke:
                return _serve_smoke(args, settings, workdir)
            return _serve_load(args, settings, workdir)
        except (ServeError, ConfigError) as exc:
            print(f"grayscott: {exc}", file=sys.stderr)
            return 2
        except asyncio.CancelledError:  # pragma: no cover - ^C
            return 1


def _serve_smoke(args: argparse.Namespace, settings, workdir: str) -> int:
    """Self-checking service round trip (the CI serve-smoke job)."""
    import asyncio

    from repro.serve.loadgen import generate_specs
    from repro.serve.service import SimService

    specs = generate_specs(
        settings, 2, mode=args.mode,
        virtual_ranks=args.virtual_ranks if args.mode == "virtual" else 0,
    )

    async def smoke():
        async with SimService(
            workers=args.workers, backend=args.backend,
            workdir=workdir, stream=args.stream,
            jit_cache=args.warm_cache,
        ) as service:
            cold = await service.run(specs[0])
            hot = await service.run(specs[0])
            miss = await service.run(specs[1])
            return [
                ("cold run executes (not cached)", not cold.cached),
                ("repeat answered from cache", hot.cached),
                ("cache hit is byte-identical", hot.rendered == cold.rendered),
                ("different settings miss", not miss.cached),
                ("cache hit count == 1",
                 service.stats_counters.cache_hits == 1),
                ("no failures", service.stats_counters.failed == 0),
            ], service.render_stats()

    checks, stats = asyncio.run(smoke())
    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
    print(stats)
    if failed:
        print(f"grayscott: serve smoke failed: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    print("serve smoke: all checks passed, service shut down cleanly")
    return 0


def _serve_load(args: argparse.Namespace, settings, workdir: str) -> int:
    """Synthetic-client load replay against a fresh service."""
    from repro.serve.loadgen import run_load

    report, stats = run_load(
        settings,
        clients=args.load,
        requests=args.requests,
        hit_fraction=args.hit_fraction,
        workers=args.workers,
        backend=args.backend,
        mode=args.mode,
        virtual_ranks=args.virtual_ranks if args.mode == "virtual" else 0,
        pace=args.pace,
        workdir=workdir,
        stream=args.stream,
        jit_cache=args.warm_cache,
    )
    print(report.render())
    print()
    print(f"service cache: {stats['cache_hits']} hits / "
          f"{stats['cache_misses']} misses, "
          f"{stats['coalesced']} coalesced, "
          f"{stats['store']['entries']} entries")
    return 1 if report.failed else 0


def _cmd_jitcache(args: argparse.Namespace) -> int:
    """``grayscott jit-cache <stats|clear> DIR``: manage compiled kernels.

    Exit codes follow the usage contract: 0 on success, 2 when the
    directory does not exist or cannot be used as a cache.
    """
    from pathlib import Path

    from repro.gpu.jitcache import JitCacheError, JitDiskCache
    from repro.util.tables import Table

    p = Path(args.path)
    if not p.is_dir():
        print(f"grayscott: jit cache directory {p} does not exist",
              file=sys.stderr)
        return 2
    try:
        cache = JitDiskCache(p)
    except JitCacheError as exc:
        print(f"grayscott: {exc}", file=sys.stderr)
        return 2

    if args.jitcache_command == "clear":
        removed = cache.clear()
        print(f"jit cache cleared: {removed} compiled kernel(s) removed from {p}")
        return 0

    stats = cache.stats()
    table = Table(["quantity", "value"], title=f"jit cache: {p}")
    table.add_row(["compiled kernels", stats["objects"]])
    table.add_row(["bytes", stats["bytes"]])
    table.add_row(["max entries", stats["cap"]])
    for entry in cache.entries():
        table.add_row([entry["file"], entry["bytes"]])
    print(table.render())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.compare import compare_datasets, render_comparison

    deltas = compare_datasets(args.dataset_a, args.dataset_b)
    print(render_comparison(deltas))
    if args.strict and any(not d.identical for d in deltas):
        return 1
    return 0


def _cmd_bpls(args: argparse.Namespace) -> int:
    from repro.adios.bpls import bpls

    print(bpls(args.dataset))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    target = args.target
    if target == "table1":
        from repro.bench import table1

        print(table1.render(table1.run()))
    elif target == "table2":
        from repro.bench import table2

        print(table2.render(table2.run()))
    elif target == "table3":
        from repro.bench import table3

        print(table3.render(table3.run()))
    elif target == "fig5":
        from repro.bench import fig5

        print(fig5.render(fig5.run()))
        print()
        print(fig5.render_virtual(fig5.run_virtual()))
    elif target == "fig6":
        from repro.bench import fig6

        print(fig6.render_frontier(fig6.run_frontier()))
        print()
        print(fig6.render_mini(fig6.run_mini()))
    elif target == "fig7":
        from repro.bench import fig7

        print(fig7.render(fig7.run()))
        print()
        print(fig7.render_warm(*fig7.run_warm_comparison()))
    elif target == "fig8":
        from repro.bench import fig8

        print(fig8.render_frontier(fig8.run_frontier()))
        print()
        print(fig8.render_mini(fig8.run_mini()))
    elif target == "listing1":
        from repro.bench import listings

        print(listings.run_listing1().listing)
    elif target == "listing4":
        from repro.bench import listings

        print(listings.run_listing4().ir)
    elif target == "strong":
        from repro.mpi.strongscaling import StrongScalingModel

        model = StrongScalingModel()
        print(model.render(model.run()))
    elif target == "report":
        import json

        from repro.bench import report

        print(json.dumps(report.collect(), indent=2))
    else:  # pragma: no cover - argparse choices guard this
        raise SystemExit(f"unknown bench target {target!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grayscott",
        description="Gray-Scott end-to-end HPC workflow reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a workflow from a settings file")
    p_run.add_argument("settings", help="path to a JSON settings file")
    p_run.add_argument(
        "--trace", metavar="CSV",
        help="write a rocprof-style results.csv (GPU backends only)",
    )
    p_run.add_argument(
        "--trace-out", metavar="PATH",
        help="write a Chrome/Perfetto trace of the whole run; a .jsonl "
             "suffix or a directory path streams bounded-memory shards "
             "instead of buffering (see 'observe merge-shards')",
    )
    p_run.add_argument(
        "--metrics-out", metavar="JSON",
        help="write the collected metrics registry as JSON",
    )
    p_run.add_argument(
        "--ranks", type=int, metavar="N",
        help="override settings.ranks (simulated MPI ranks; 0/1 = serial)",
    )
    p_run.add_argument(
        "--virtual-ranks", type=int, metavar="N",
        help="run N *modeled* ranks on the epoch recurrences instead "
             "of executing the solver (thousands of ranks, no threads)",
    )
    p_run.add_argument(
        "--overlap", action="store_true",
        help="with --virtual-ranks: model the nonblocking halo exchange "
             "and BP5 async drain (comm/I/O overlap compute)",
    )
    p_run.add_argument(
        "--nic-contention", action="store_true",
        help="with --virtual-ranks: halo traffic queues on the node's "
             "4 shared Slingshot NICs instead of a private per-rank link",
    )
    p_run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="with --virtual-ranks: shard the modeled ranks over N worker "
             "processes (0 = all cores); results are bit-identical to "
             "--jobs 1",
    )
    p_run.add_argument(
        "--jit-cache", metavar="DIR",
        help="keep compiled kernels under DIR and load any already "
             "there instead of compiling (see docs/PERFORMANCE.md)",
    )
    p_run.add_argument(
        "--timings", action="store_true",
        help="print rank 0's wall-time table of the solver's step "
             "sections (exchange, compute)",
    )
    p_run.add_argument(
        "--sim-profile", metavar="FOLDED",
        help="with --virtual-ranks: count the rank states at virtual-time "
             "samples and write flame-graph folded stacks here",
    )
    p_run.add_argument(
        "--sim-profile-interval", type=float, default=1e-3, metavar="SEC",
        help="virtual seconds between sim-profiler samples (default: 1e-3)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_lint = sub.add_parser(
        "lint", help="statically analyze the kernels/exchange/writer of a run"
    )
    p_lint.add_argument("settings", help="path to a JSON settings file")
    p_lint.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="report format: human text or SARIF JSON ('json' and "
             "'sarif' are synonyms)",
    )
    p_lint.add_argument(
        "--rules", metavar="ID,ID,...",
        help="only report these rule ids (see docs/LINTING.md)",
    )
    p_lint.add_argument(
        "--passes", metavar="P,P,...",
        help="also run this stencil-IR pass pipeline (e.g. fuse,rle,cse) "
             "over the workflow module and report missed optimizations "
             "(IR-FUSION-MISSED, IR-CSE)",
    )
    p_lint.add_argument(
        "--out", metavar="FILE", help="write the report here instead of stdout"
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_ir = sub.add_parser(
        "ir", help="dump/verify/optimize the workflow's stencil IR"
    )
    ir_sub = p_ir.add_subparsers(dest="ir_command", required=True)

    def _ir_common(p):
        p.add_argument(
            "settings", nargs="?", default=None,
            help="optional JSON settings file (defaults to the built-in "
                 "Gray-Scott configuration)",
        )
        p.add_argument(
            "--kernel", metavar="NAME",
            help="restrict to one kernel of the module",
        )
        p.add_argument(
            "--format", choices=["text", "json", "sarif"], default="text",
            help="output format",
        )
        p.add_argument(
            "--out", metavar="FILE",
            help="write the output here instead of stdout",
        )

    i_dump = ir_sub.add_parser(
        "dump", help="print the module's MLIR-flavored text (or JSON) form"
    )
    _ir_common(i_dump)
    i_dump.set_defaults(func=_cmd_ir)
    i_verify = ir_sub.add_parser(
        "verify",
        help="verify SSA well-formedness and lint the IR (KRN-* plus the "
             "optimizer-backed IR-* rules)",
    )
    _ir_common(i_verify)
    i_verify.set_defaults(func=_cmd_ir)
    i_opt = ir_sub.add_parser(
        "optimize",
        help="run a pass pipeline and report the predicted traffic delta",
    )
    _ir_common(i_opt)
    i_opt.add_argument(
        "--passes", default="fuse,rle,cse,dse", metavar="P,P,...",
        help="pass pipeline (fuse, rle, cse, dse, tile=TxTxT); "
             "default: fuse,rle,cse,dse",
    )
    i_opt.add_argument(
        "--shape", default="256x256x256", metavar="NxNxN",
        help="grid shape the traffic model prices (default: 256x256x256)",
    )
    i_opt.add_argument(
        "--exact", action="store_true",
        help="use the exact LRU cache simulator instead of the analytic "
             "streaming model (small shapes only)",
    )
    i_opt.add_argument(
        "--capacity-bytes", type=int, default=None, metavar="B",
        help="with --exact: cache capacity in bytes (default: the GCD's "
             "8 MiB TCC)",
    )
    i_opt.set_defaults(func=_cmd_ir)

    p_tr = sub.add_parser("trace", help="summarize a Chrome trace JSON file")
    p_tr.add_argument("trace", help="path to a trace written by run --trace-out")
    p_tr.add_argument("--width", type=int, default=72)
    p_tr.set_defaults(func=_cmd_trace)

    p_obs = sub.add_parser(
        "observe", help="work with streamed telemetry (shards, profiles)"
    )
    obs_sub = p_obs.add_subparsers(dest="observe_command", required=True)
    o_tail = obs_sub.add_parser(
        "tail", help="print the last spans of a shard stream"
    )
    o_tail.add_argument(
        "source", help="shard directory, manifest.json, or .jsonl shard"
    )
    o_tail.add_argument("-n", "--lines", type=int, default=20)
    o_tail.set_defaults(func=_cmd_observe_tail)
    o_sum = obs_sub.add_parser(
        "summary", help="summarize a streamed (or monolithic) trace"
    )
    o_sum.add_argument(
        "source", help="shard directory, manifest.json, .jsonl, or trace JSON"
    )
    o_sum.add_argument("--width", type=int, default=72)
    o_sum.set_defaults(func=_cmd_observe_summary)
    o_merge = obs_sub.add_parser(
        "merge-shards",
        help="reassemble streamed shards into one Chrome trace JSON",
    )
    o_merge.add_argument(
        "source", help="shard directory, manifest.json, or .jsonl shard"
    )
    o_merge.add_argument(
        "-o", "--out", required=True, metavar="JSON",
        help="path of the merged Chrome trace (byte-identical to the "
             "monolithic --trace-out export of the same run)",
    )
    o_merge.set_defaults(func=_cmd_observe_merge)
    o_flame = obs_sub.add_parser(
        "flamegraph",
        help="render a sim-profiler folded profile as ASCII occupancy bars",
    )
    o_flame.add_argument(
        "profile", help="folded stacks written by run --sim-profile"
    )
    o_flame.add_argument("--width", type=int, default=40)
    o_flame.set_defaults(func=_cmd_observe_flamegraph)

    p_an = sub.add_parser("analyze", help="summarize + render a dataset")
    p_an.add_argument("dataset", help="path to a .bp dataset")
    p_an.add_argument("--width", type=int, default=64)
    p_an.add_argument(
        "--images", metavar="DIR",
        help="also write one PPM frame per output step into DIR",
    )
    p_an.set_defaults(func=_cmd_analyze)

    p_ls = sub.add_parser("bpls", help="list a dataset's provenance record")
    p_ls.add_argument("dataset", help="path to a .bp dataset")
    p_ls.set_defaults(func=_cmd_bpls)

    p_camp = sub.add_parser(
        "campaign", help="sweep Pearson regimes from a base settings file"
    )
    p_camp.add_argument("settings", help="base JSON settings file")
    p_camp.add_argument(
        "--regimes", default="paper,alpha,epsilon",
        help="comma-separated Pearson regime names",
    )
    p_camp.add_argument("--workdir", default=".", help="output directory")
    p_camp.add_argument("--provenance", help="write campaign provenance JSON here")
    p_camp.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run campaign members across N worker processes (0 = all "
             "cores); reports and datasets are byte-identical to --jobs 1",
    )
    p_camp.set_defaults(func=_cmd_campaign)

    p_serve = sub.add_parser(
        "serve", help="run the simulator as an always-on cached service"
    )
    p_serve.add_argument("settings", help="base JSON settings file")
    p_serve.add_argument(
        "--smoke", action="store_true",
        help="self-checking round trip: cold run, cached repeat "
             "(byte-identical), distinct miss, clean shutdown; exit 0/1",
    )
    p_serve.add_argument(
        "--load", type=int, metavar="N",
        help="replay N concurrent synthetic clients and print the "
             "hit/miss latency and throughput report",
    )
    p_serve.add_argument(
        "--requests", type=int, default=8, metavar="R",
        help="with --load: requests per client (default: 8)",
    )
    p_serve.add_argument(
        "--hit-fraction", type=float, default=0.75, metavar="F",
        help="with --load: fraction of requests repeating the hot "
             "configuration (default: 0.75)",
    )
    p_serve.add_argument(
        "--pace", type=float, default=0.0, metavar="SEC",
        help="with --load: bursty inter-arrival scale in seconds "
             "(default: 0 = closed-loop saturation)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="compute workers behind the queue (default: 2)",
    )
    p_serve.add_argument(
        "--backend", choices=["process", "thread", "inline"],
        default="thread",
        help="compute backend: a repro.par-style process pool, an "
             "executor thread per worker, or inline on the event loop",
    )
    p_serve.add_argument(
        "--mode", choices=["workflow", "virtual"], default="workflow",
        help="what each job executes: the real solver or the "
             "discrete-event virtual SPMD model",
    )
    p_serve.add_argument(
        "--virtual-ranks", type=int, default=8, metavar="N",
        help="with --mode virtual: modeled ranks per job (default: 8)",
    )
    p_serve.add_argument(
        "--workdir", metavar="DIR",
        help="sandbox job datasets under DIR, keyed by canonical hash "
             "(default: a temporary directory)",
    )
    p_serve.add_argument(
        "--stream", metavar="NAME",
        help="publish job lifecycle events on this adios.sst stream "
             "(lossy: dropped, never blocking, when no reader keeps up)",
    )
    p_serve.add_argument(
        "--warm-cache", metavar="DIR",
        help="load compiled kernels in every worker from the JIT "
             "cache under DIR (populate it with 'run --jit-cache DIR')",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_jc = sub.add_parser(
        "jit-cache", help="inspect or clear a JIT cache of compiled kernels"
    )
    jc_sub = p_jc.add_subparsers(dest="jitcache_command", required=True)
    jc_stats = jc_sub.add_parser(
        "stats", help="compiled kernel count, bytes, and each object"
    )
    jc_stats.add_argument(
        "path", help="cache directory (run --jit-cache / serve --warm-cache)"
    )
    jc_stats.set_defaults(func=_cmd_jitcache)
    jc_clear = jc_sub.add_parser(
        "clear", help="delete every compiled kernel in the cache"
    )
    jc_clear.add_argument("path", help="cache directory")
    jc_clear.set_defaults(func=_cmd_jitcache)

    p_cmp = sub.add_parser("compare", help="diff two datasets (max/RMS/PSNR)")
    p_cmp.add_argument("dataset_a")
    p_cmp.add_argument("dataset_b")
    p_cmp.add_argument(
        "--strict", action="store_true",
        help="exit nonzero unless bitwise identical",
    )
    p_cmp.set_defaults(func=_cmd_compare)

    p_bench = sub.add_parser("bench", help="regenerate a paper table/figure")
    p_bench.add_argument(
        "target",
        choices=[
            "table1", "table2", "table3",
            "fig5", "fig6", "fig7", "fig8",
            "listing1", "listing4", "report", "strong",
        ],
    )
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"grayscott: {exc}", file=sys.stderr)
        return 1
    finally:
        # Drop any process-global jit-cache configuration the command
        # made, so repeated main() calls in one process (tests) don't
        # bleed cache state into each other.
        jitcache = sys.modules.get("repro.gpu.jitcache")
        if jitcache is not None:
            jitcache.deconfigure()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
