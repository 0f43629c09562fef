"""Command-line interface.

Usage examples::

    repro-match run --graph rmat --scale 0.3 --algorithm ms-bfs-graft
    repro-match run --file path/to/matrix.mtx --algorithm hopcroft-karp
    repro-match run --graph rmat --trace-out rmat.trace.json --min-coverage 0.95
    repro-match experiment table2 --scale 0.2
    repro-match experiment all --scale 0.2 --out report.txt --run-dir reports
    repro-match analyze
    repro-match racecheck --seeds 5
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from types import ModuleType
from typing import Callable, Dict

from repro.errors import ServiceError

# Each command imports what it runs, so a start pays only for its own
# command (see docs/performance.md, "Cold start").

_SHOW_PAIRS = 5
"""Matched pairs ``run --file`` echoes in a SNAP file's original ids."""


def _open_cache(args: argparse.Namespace, telemetry=None):
    """A :class:`~repro.cache.GraphCache` when ``--cache-dir`` was given."""
    cache_dir = getattr(args, "cache_dir", None)
    if not cache_dir:
        return None
    from repro.cache import GraphCache

    return GraphCache(cache_dir, telemetry=telemetry)


def _acquire_graph(args: argparse.Namespace, telemetry=None):
    """Resolve ``run``'s graph (suite ``--graph`` or ``--file``).

    Returns ``(graph, labels, initial, cache_line)``. With ``--cache-dir``
    both sources go through the cache and the Karp-Sipser warm start comes
    from the entry too (keyed by seed), so a warm invocation skips the
    whole ingest path; ``cache_line`` is then the summary's ``cache`` line.
    ``labels`` holds a SNAP file's original ids (the cache keeps them
    beside the compacted graph); otherwise ``None``.
    """
    cache = _open_cache(args, telemetry=telemetry)
    if cache is None:
        from repro.bench.suite import get_suite_graph
        from repro.graph.readers import read_graph_file

        if args.file:
            graph, labels = read_graph_file(args.file, args.format)
            return graph, labels, None, None
        return get_suite_graph(args.graph, scale=args.scale).graph, None, None, None
    if args.file:
        prepared = cache.prepare_file(args.file, args.format)
    else:
        prepared = cache.prepare_suite(args.graph, args.scale)
    initial = cache.warm_start(prepared, args.seed)
    cache_line = (
        f"cache        : {'hit' if prepared.from_cache else 'miss'} "
        f"{prepared.key[:12]} ({cache.total_bytes:,} bytes in store)"
    )
    return prepared.graph, prepared.labels, initial, cache_line


_EXPERIMENTS: Dict[str, Callable[[ModuleType, float], object]] = {
    "table1": lambda ex, scale: ex.table1.run(),
    "table2": lambda ex, scale: ex.table2.run(scale=scale),
    "fig1": lambda ex, scale: ex.fig1.run(scale=scale),
    "fig3": lambda ex, scale: ex.fig3.run(scale=scale),
    "fig4": lambda ex, scale: ex.fig4.run(scale=scale),
    "fig5": lambda ex, scale: ex.fig5.run(scale=scale),
    "fig6": lambda ex, scale: ex.fig6.run(scale=scale),
    "fig7": lambda ex, scale: ex.fig7.run(scale=scale),
    "fig8": lambda ex, scale: ex.fig8.run(scale=scale),
    "sensitivity": lambda ex, scale: ex.sensitivity.run(scale=scale, runs=5),
    "ablation-alpha": lambda ex, scale: ex.ablation.alpha_sweep(scale=scale),
    "ablation-init": lambda ex, scale: ex.ablation.initializer_comparison(scale=scale),
    "ablation-queue": lambda ex, scale: ex.ablation.queue_capacity_sweep(scale=scale),
    "ablation-direction": lambda ex, scale: ex.ablation.direction_strategy_comparison(scale=scale),
    "serial-walltime": lambda ex, scale: ex.serial_walltime.run(scale=scale),
    "phase-dynamics": lambda ex, scale: ex.phase_dynamics.run(scale=scale),
}
"""Each experiment id's driver call on :mod:`repro.bench.experiments`, whose
modules import on first access."""


def _machine_registry():
    from repro.parallel import machine as m

    return {"mirasol": m.MIRASOL, "edison": m.EDISON,
            "laptop": m.LAPTOP, "manycore": m.MANYCORE}


def _cmd_run(args: argparse.Namespace) -> int:
    """Match one graph, certify the result and print one summary block.

    The telemetry outputs (``--metrics-out``, ``--trace-out``,
    ``--jsonl-out``, ``--min-coverage``) are the only reason to open a
    :class:`~repro.telemetry.Telemetry` session; without them the run
    carries none. They and ``--engine`` apply only to the algorithms in
    :data:`~repro.bench.runner.ENGINE_AWARE`; any other algorithm is
    refused before its graph is built.
    """
    from repro.bench.runner import ENGINE_AWARE, run_algorithm
    from repro.matching.verify import verify_maximum

    telemetry_flags = [flag for flag, value in (
        ("--metrics-out", args.metrics_out), ("--trace-out", args.trace_out),
        ("--jsonl-out", args.jsonl_out), ("--min-coverage", args.min_coverage))
        if value is not None]
    driver_flags = (["--engine"] if args.engine is not None else []) + telemetry_flags
    if driver_flags and args.algorithm not in ENGINE_AWARE:
        print(f"error: {', '.join(driver_flags)} cannot be used with --algorithm "
              f"{args.algorithm}; accepted only by {', '.join(ENGINE_AWARE)}",
              file=sys.stderr)
        return 2
    telemetry = None
    if telemetry_flags:
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
    graph, labels, initial, cache_line = _acquire_graph(args, telemetry=telemetry)
    result = run_algorithm(args.algorithm, graph, initial, seed=args.seed,
                           engine=args.engine, telemetry=telemetry,
                           emit_trace=args.report)
    verify_maximum(graph, result.matching)
    if args.file:
        name = label = args.file
        shape = f"n_rows={graph.n_x:,} n_cols={graph.n_y:,} nnz={graph.nnz:,}"
    else:
        from repro.bench.suite import suite_counterpart

        name, label = args.graph, f"{args.graph} ({suite_counterpart(args.graph)})"
        shape = f"n={graph.num_vertices:,} m={graph.num_directed_edges:,}"
    print(f"graph        : {label}; {shape}")
    if cache_line is not None:
        print(cache_line)
    if args.report:
        from repro.instrument.report import run_report

        print(run_report(result, machine=_machine_registry()[args.machine],
                         threads=args.threads))
    else:
        c = result.counters
        print(f"algorithm    : {result.algorithm}")
        print(f"|M|          : {result.cardinality:,} (maximum, certified)")
        print(f"fraction     : {result.matching.matching_fraction():.4f} of |V|")
        print(f"edges        : {c.edges_traversed:,} traversed")
        print(f"phases       : {c.phases}")
        print(f"augmentations: {c.augmentations} (avg path length "
              f"{c.avg_augmenting_path_length:.2f})")
        print(f"wall time    : {result.wall_seconds:.3f}s")
    if labels is not None:
        pairs = result.matching.pairs()
        shown = ", ".join(
            f"({labels.x_ids[x]}, {labels.y_ids[y]})" for x, y in pairs[:_SHOW_PAIRS]
        )
        suffix = ", ..." if len(pairs) > _SHOW_PAIRS else ""
        print(f"original ids : compacted from {labels.x_ids.size:,} source / "
              f"{labels.y_ids.size:,} target ids in the file")
        if shown:
            print(f"matched pairs: {shown}{suffix} (file ids)")
    if telemetry is None:
        return 0
    return _write_telemetry(args, telemetry, name, result)


def _write_telemetry(args: argparse.Namespace, telemetry, name: str, result) -> int:
    """Write ``run``'s telemetry outputs; 1 iff span coverage falls short."""
    from repro.telemetry import write_chrome_trace, write_prometheus, write_telemetry_jsonl

    if args.trace_out:
        metadata = {"graph": name, "algorithm": result.algorithm,
                    "cardinality": int(result.cardinality)}
        if not args.file:
            metadata["scale"] = args.scale
        write_chrome_trace(telemetry.tracer, args.trace_out, metadata=metadata)
        spans = [s for s in telemetry.tracer.snapshot() if not s.open]
        print(f"trace        : {args.trace_out} ({len(spans)} spans; open in "
              f"https://ui.perfetto.dev or chrome://tracing)")
    # The engine's ``run`` span is the root to score: on a cold --cache-dir
    # run the cache's ``build`` span is an earlier root with no children.
    runs = telemetry.tracer.by_name("run")
    coverage = telemetry.tracer.coverage(runs[0] if runs else None)
    if args.trace_out or args.min_coverage is not None:
        print(f"coverage     : {coverage:.1%} of the run is covered by spans")
    if args.metrics_out:
        write_prometheus(telemetry.metrics, args.metrics_out)
        print(f"metrics      : wrote {args.metrics_out} (Prometheus text format)",
              file=sys.stderr)
    if args.jsonl_out:
        n = write_telemetry_jsonl(args.jsonl_out, telemetry.tracer, telemetry.metrics)
        print(f"jsonl        : wrote {args.jsonl_out} ({n} records, "
              f"EventLog-compatible)", file=sys.stderr)
    if args.min_coverage is not None and coverage < args.min_coverage:
        print(f"trace coverage {coverage:.1%} below the required "
              f"{args.min_coverage:.1%}", file=sys.stderr)
        return 1
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    """Run one experiment (or ``all``) and render each under a header.

    With ``--run-dir`` each experiment's rendered report is checkpointed
    as ``reports/<name>.<key>.txt``, so an interrupted ``experiment all``
    resumes where it stopped instead of recomputing every figure (events
    land in the run directory's ``events.jsonl``).
    """
    from repro.bench import experiments

    names = list(_EXPERIMENTS) if args.name == "all" else [args.name]
    run_dir = None
    if args.run_dir:
        from repro.service.checkpoint import RunDirectory

        run_dir = RunDirectory(args.run_dir)
    key = f"scale={args.scale}"
    lines = []
    reused = 0
    for name in names:
        text = run_dir.cached_report(name, key) if run_dir is not None else None
        if text is None:
            text = _EXPERIMENTS[name](experiments, args.scale).render()
            if run_dir is not None:
                from repro.service.events import JOB_DONE, EventLog

                run_dir.record_report(name, key, text)
                with EventLog(run_dir.events_path) as log:
                    log.emit(JOB_DONE, f"report:{name}", stage="experiment")
        else:
            reused += 1
        lines += ["=" * 78, name, "=" * 78, text, ""]
    text = "\n".join(lines)
    if reused:
        print(f"resumed {reused}/{len(names)} experiment reports from {args.run_dir}",
              file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(names)} experiment report(s) to {args.out}")
    else:
        print(text)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    """Run a batch of matching jobs under deadlines, with checkpoint/resume."""
    from repro.instrument.report import batch_report
    from repro.service import (
        BatchExecutor,
        load_jobs_file,
        parse_faults,
        read_events,
        suite_jobs,
        summarize_events,
    )

    if args.jobs:
        jobs = load_jobs_file(args.jobs)
    else:
        jobs = suite_jobs(
            algorithm=args.algorithm,
            scale=args.scale,
            graphs=args.graphs,
            engine=args.engine,
            seed=args.seed,
            deadline_seconds=args.deadline,
        )
    telemetry = None
    if args.metrics_out:
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
    executor = BatchExecutor(
        args.run_dir,
        slow_phase_seconds=parse_faults(args.inject or []),
        default_deadline=args.deadline,
        telemetry=telemetry,
        progress=lambda line: print(line, file=sys.stderr),
        cache=_open_cache(args, telemetry=telemetry),
    )
    outcomes = executor.run_batch(jobs)
    if telemetry is not None:
        from repro.service.events import EventLog
        from repro.telemetry import export_jsonl, write_prometheus

        write_prometheus(telemetry.metrics, args.metrics_out)
        with EventLog(executor.run_dir.events_path) as log:
            export_jsonl(log, telemetry.tracer, telemetry.metrics)
        print(f"metrics: wrote {args.metrics_out}; telemetry spans appended to "
              f"events.jsonl", file=sys.stderr)
    events = read_events(executor.run_dir.events_path)
    print(batch_report(outcomes, summarize_events(events)))
    print(f"run directory: {executor.run_dir.root} "
          f"(events.jsonl, checkpoints/)")
    if all(o.succeeded for o in outcomes):
        return 0
    print("some jobs did not complete; re-run with the same --run-dir to "
          "resume the completed ones from checkpoints", file=sys.stderr)
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the online matching daemon until a client sends shutdown."""
    from repro.service.online import MatchingDaemon, OnlineConfig
    from repro.telemetry import lint_prometheus

    daemon = MatchingDaemon(
        OnlineConfig(
            socket_path=args.socket,
            max_sessions=args.max_sessions,
            default_deadline_seconds=args.deadline,
            cache_dir=args.cache_dir,
            metrics_port=args.metrics_port,
            flight_dir=args.flight_dir,
        ),
    )
    print(f"online daemon listening on {args.socket} "
          f"(max_sessions={args.max_sessions}"
          + (f", default deadline {args.deadline}s" if args.deadline else "")
          + (f", cache {args.cache_dir}" if args.cache_dir else "")
          + (f", metrics port {args.metrics_port}"
             if args.metrics_port is not None else "")
          + (f", flight dumps to {args.flight_dir}" if args.flight_dir else "")
          + ")", file=sys.stderr)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    if args.metrics_out:
        text = daemon.prometheus_exposition()  # the text a live scrape gets
        lint_prometheus(text)
        Path(args.metrics_out).write_text(text, encoding="utf-8")
        print(f"metrics: wrote {args.metrics_out}", file=sys.stderr)
    evictions = daemon.telemetry.metrics.total("repro_online_session_evictions_total")
    print(f"served {daemon.requests_served()} requests; "
          f"{int(evictions)} session evictions", file=sys.stderr)
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    """Drive a scripted session against a running daemon.

    Reads one JSON request per line (``{"cmd": ..., "session": ..., ...}``)
    from ``--script`` or stdin — the ``id`` field is assigned by the
    client — and prints each result as one JSON line. Exits non-zero on
    the first failed request.
    """
    import json

    from repro.errors import ServiceError
    from repro.service.online import OnlineClient

    if args.script:
        with open(args.script, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = sys.stdin.readlines()
    with OnlineClient(args.socket) as client:
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                print(f"script line {lineno} is not JSON: {exc}", file=sys.stderr)
                return 1
            if not isinstance(request, dict) or "cmd" not in request:
                print(f"script line {lineno} needs a 'cmd' field", file=sys.stderr)
                return 1
            cmd = request.pop("cmd")
            session = request.pop("session", None)
            try:
                result = client.request(cmd, session, **request)
            except ServiceError as exc:
                print(f"request {lineno} ({cmd}) failed: {exc}", file=sys.stderr)
                return 1
            print(json.dumps({"cmd": cmd, "result": result},
                             separators=(",", ":")))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.bench.suite import get_suite_graph
    from repro.graph.io import write_matrix_market
    from repro.graph.serialize import save_graph

    sg = get_suite_graph(args.graph, scale=args.scale)
    if args.out.endswith(".npz"):
        save_graph(sg.graph, args.out)
    else:
        write_matrix_market(sg.graph, args.out)
    print(f"wrote {args.graph} (n={sg.graph.num_vertices:,}, "
          f"m={sg.graph.num_directed_edges:,}) to {args.out}")
    return 0


def _cmd_btf(args: argparse.Namespace) -> int:
    from repro.apps.btf import block_triangular_form
    from repro.apps.dulmage_mendelsohn import dulmage_mendelsohn
    from repro.core.driver import ms_bfs_graft
    from repro.graph.io import read_matrix_market
    from repro.matching.verify import verify_maximum

    graph = read_matrix_market(args.path)
    result = ms_bfs_graft(graph)
    verify_maximum(graph, result.matching)
    dm = dulmage_mendelsohn(graph, result.matching)
    btf = block_triangular_form(graph, result.matching)
    print(f"{args.path}: n_rows={graph.n_x:,} n_cols={graph.n_y:,} nnz={graph.nnz:,}")
    print(f"structural rank: {result.cardinality:,}")
    print(dm.summary())
    print(f"square part: {btf.num_square_blocks} diagonal blocks")
    return 0


def _cmd_distributed(args: argparse.Namespace) -> int:
    from repro.bench.runner import suite_initializer
    from repro.bench.suite import get_suite_graph
    from repro.distributed import (
        BSPCostModel,
        ClusterSpec,
        distributed_ms_bfs_graft,
        distributed_ms_bfs_graft_2d,
    )
    from repro.matching.verify import verify_maximum

    engine = (
        distributed_ms_bfs_graft_2d if args.decomposition == "2d"
        else distributed_ms_bfs_graft
    )
    sg = get_suite_graph(args.graph, scale=args.scale)
    init = suite_initializer(sg.graph, seed=args.seed)
    print(f"graph {args.graph}: n={sg.graph.num_vertices:,}, "
          f"m={sg.graph.num_directed_edges:,} [{args.decomposition.upper()} decomposition]")
    for ranks in args.ranks:
        result = engine(sg.graph, init, ranks=ranks)
        verify_maximum(sg.graph, result.matching)
        total, comp, comm = BSPCostModel(
            ClusterSpec(name="cluster", ranks=ranks)
        ).decompose(result.log)
        print(f"  ranks={ranks:4d}: |M|={result.cardinality:,} "
              f"supersteps={result.log.num_supersteps} "
              f"total={total * 1e3:.3f}ms (compute {comp * 1e3:.3f}, comm {comm * 1e3:.3f})")
    return 0


def _cmd_bench_kernels(args: argparse.Namespace) -> int:
    from repro.bench.kernels_bench import (
        render_kernel_bench,
        run_kernel_bench,
        write_kernel_bench,
    )

    doc = run_kernel_bench(scale=args.scale, repeats=args.repeats, graphs=args.graphs,
                           cache=_open_cache(args))
    print(render_kernel_bench(doc))
    if args.out:
        write_kernel_bench(doc, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_perf_check(args: argparse.Namespace) -> int:
    """Compare a fresh kernel-bench run against the committed baseline."""
    from repro.bench.perf_check import parse_tolerance, run_perf_check

    tolerance = parse_tolerance(args.tolerance)
    fresh = None
    if args.fresh:
        from repro.bench.kernels_bench import load_kernel_bench

        fresh = load_kernel_bench(args.fresh)
    report = run_perf_check(
        args.baseline,
        tolerance=tolerance,
        scale=args.scale,
        repeats=args.repeats,
        graphs=args.graphs,
        fresh=fresh,
    )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    """Manage the content-addressed graph-preparation cache."""
    from repro.bench.suite import suite_specs
    from repro.cache import DEFAULT_MAX_BYTES, GraphCache

    max_bytes = getattr(args, "max_bytes", None) or DEFAULT_MAX_BYTES
    cache = GraphCache(args.cache_dir, max_bytes=max_bytes)
    if args.action == "warm":
        names = args.graphs or suite_specs()
        for name in names:
            prepared = cache.prepare_suite(name, args.scale)
            for seed in args.seeds:
                cache.warm_start(prepared, seed)
            state = "hit" if prepared.from_cache else "built"
            print(f"{name:<16} {state:<5} {prepared.key[:12]} "
                  f"n={prepared.graph.num_vertices:,} nnz={prepared.graph.nnz:,} "
                  f"seeds={args.seeds}")
        print(f"store: {cache.total_bytes:,} bytes in {len(cache.entries())} "
              f"entr{'y' if len(cache.entries()) == 1 else 'ies'} at {cache.root}")
        return 0
    if args.action == "ls":
        entries = cache.entries()
        if not entries:
            print(f"{cache.root}: empty cache")
            return 0
        for e in entries:
            if "corrupt" in e:
                print(f"{e['key'][:12]}  CORRUPT: {e['corrupt']}")
                continue
            seeds = f" ks-seeds={e['warm_seeds']}" if e.get("warm_seeds") else ""
            print(f"{e['key'][:12]}  {e['bytes']:>12,} B  "
                  f"{e['kind']}: {e['source']} (n_x={e['n_x']:,} n_y={e['n_y']:,} "
                  f"nnz={e['nnz']:,}){seeds}")
        print(f"total: {cache.total_bytes:,} bytes in {len(entries)} entries, "
              f"least recently used first (cap {cache.max_bytes:,})")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} from {cache.root}")
        return 0
    # verify: deep checksum and warm-start pass
    problems = cache.verify()
    checked = len(cache.entries())
    for key, problem in problems:
        print(f"{key[:12]}: {problem}")
    if problems:
        print(f"{len(problems)}/{checked} entries corrupt", file=sys.stderr)
        return 1
    print(f"verified {checked} entr{'y' if checked == 1 else 'ies'}: "
          f"all checksums match, all warm starts valid")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.phasecheck import (
        DEFAULT_ROOT,
        format_json,
        format_sarif,
        format_text,
        run_analyze,
        summarize_findings,
    )

    root = Path(args.root) if args.root else DEFAULT_ROOT
    if not root.exists():
        print(f"analyze: no such path: {root}", file=sys.stderr)
        return 2
    try:
        findings = run_analyze(root, args.select, args.ignore)
    except ValueError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        report = format_json(findings, str(root))
    elif args.format == "sarif":
        report = format_sarif(findings)
    else:
        report = format_text(findings)
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
    else:
        print(report)
    if args.format != "text" or args.output:
        print(summarize_findings(findings), file=sys.stderr)
    return 1 if findings else 0


def _cmd_racecheck(args: argparse.Namespace) -> int:
    from repro.analysis.racecheck import run_racecheck
    from repro.bench.suite import get_suite_graph
    from repro.graph.generators import random_bipartite
    from repro.matching.greedy import greedy_matching

    if args.graph is not None:
        sg = get_suite_graph(args.graph, scale=args.scale)
        graph = sg.graph
        label = f"{args.graph} (scale {args.scale})"
    else:
        # Default instance: contended enough that several threads extend the
        # same alternating tree, so the benign leaf race actually fires.
        graph = random_bipartite(30, 30, 120, seed=42)
        label = "random-bipartite n=30x30 m=120"
    init = greedy_matching(graph, shuffle=True, seed=1).matching
    faults = (args.inject,) if args.inject else ()
    if args.engine == "numpy":
        # The vectorized engine is deterministic: one audit, no seed sweep.
        seeds = range(args.seed, args.seed + 1)
        print(f"racecheck: {label}, engine=numpy (bulk-kernel audit)")
    else:
        seeds = range(args.seed, args.seed + args.seeds)
        print(f"racecheck: {label}, threads={args.threads}, "
              f"seeds {args.seed}..{args.seed + args.seeds - 1}"
              + (f", fault={args.inject}" if args.inject else ""))
    benign_total = harmful_total = 0
    for s in seeds:
        outcome = run_racecheck(
            graph, init, threads=args.threads, seed=s, fault_injection=faults,
            engine=args.engine,
        )
        report = outcome.report
        benign_total += len(report.benign)
        harmful_total += len(report.harmful)
        status = f"|M|={outcome.result.cardinality}" if outcome.result else "aborted"
        print(f"  seed {s}: {report.events} accesses in {report.regions} parallel "
              f"regions, {len(report.benign)} benign / {len(report.harmful)} harmful "
              f"race(s), {outcome.invariant_checks} invariant sweeps, {status}")
        if report.error:
            print(f"    run aborted: {report.error}")
        for race in report.harmful:
            print(f"    {race.render()}")
    print(f"total: {benign_total} benign race(s) "
          f"(whitelisted leaf/root_x semantics), {harmful_total} harmful")
    if harmful_total:
        print("HARMFUL data races detected", file=sys.stderr)
        return 1
    print("no harmful data races: visited claims are atomic, "
          "remaining races are the paper's benign ones")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro-match argument parser."""
    from repro.bench.runner import ALGORITHMS
    from repro.bench.suite import suite_specs
    from repro.core.driver import ENGINES
    from repro.graph.readers import GRAPH_FORMATS

    parser = argparse.ArgumentParser(
        prog="repro-match",
        description="MS-BFS-Graft maximum bipartite matching (IPDPS 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run",
        help="match one suite graph or graph file, certify it, and summarise",
    )
    source = p_run.add_mutually_exclusive_group()
    source.add_argument("--graph", choices=suite_specs(), default="rmat",
                        help="suite graph to generate (default: rmat)")
    source.add_argument("--file", default=None, metavar="PATH",
                        help="graph file to read instead (MatrixMarket, SNAP, "
                             "DIMACS or .npz)")
    p_run.add_argument("--format", choices=["auto", *GRAPH_FORMATS], default="auto",
                       help="--file format (default: by suffix)")
    p_run.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="ms-bfs-graft")
    p_run.add_argument("--scale", type=float, default=0.3)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--engine", choices=ENGINES, default=None,
                       help="override the backend dispatcher (MS-BFS-Graft "
                            "family only; default: cost-model auto-dispatch)")
    p_run.add_argument("--cache-dir", default=None,
                       help="content-addressed graph cache directory; warm "
                            "entries skip generator/ingest work entirely "
                            "(see 'repro-match cache')")
    p_run.add_argument("--report", action="store_true",
                       help="print the full instrumented run report")
    p_run.add_argument("--machine", choices=["mirasol", "edison", "laptop", "manycore"],
                       default="mirasol",
                       help="simulated machine for the --report cost model "
                            "(default: the paper's Mirasol)")
    p_run.add_argument("--threads", type=int, default=40,
                       help="simulated thread count for the --report cost "
                            "model (default: 40, the paper's Mirasol runs)")
    p_run.add_argument("--metrics-out", default=None,
                       help="write run metrics here in Prometheus text "
                            "exposition format")
    p_run.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write a chrome://tracing / Perfetto trace here")
    p_run.add_argument("--jsonl-out", default=None,
                       help="write spans+metrics as EventLog-compatible JSONL")
    p_run.add_argument("--min-coverage", type=float, default=None,
                       help="fail (exit 1) if spans cover less than this "
                            "fraction of the run (e.g. 0.95)")
    p_run.set_defaults(fn=_cmd_run)

    p_exp = sub.add_parser(
        "experiment",
        help="run a paper experiment by id (or all of them) into one report",
    )
    p_exp.add_argument("name", choices=[*_EXPERIMENTS, "all"])
    p_exp.add_argument("--scale", type=float, default=0.2)
    p_exp.add_argument("--out", default=None,
                       help="write the report here instead of stdout")
    p_exp.add_argument("--run-dir", default=None,
                       help="checkpoint each experiment's report here so an "
                            "interrupted run resumes instead of recomputing")
    p_exp.set_defaults(fn=_cmd_experiment)

    p_batch = sub.add_parser(
        "batch",
        help="batch of matching jobs (deadlines, checkpoint/resume)",
    )
    p_batch.add_argument("--run-dir", required=True,
                         help="run directory (events.jsonl, checkpoints/); "
                              "re-running with the same directory resumes it")
    p_batch.add_argument("--jobs", default=None,
                         help="JSON job-queue file (list of job specs); default: "
                              "the Table II suite as one job per graph")
    p_batch.add_argument("--graphs", nargs="+", default=None, choices=suite_specs(),
                         help="subset of suite graphs (ignored with --jobs)")
    p_batch.add_argument("--algorithm", choices=sorted(ALGORITHMS),
                         default="ms-bfs-graft")
    p_batch.add_argument("--scale", type=float, default=0.2)
    p_batch.add_argument("--seed", type=int, default=0)
    p_batch.add_argument("--engine", choices=ENGINES, default=None)
    p_batch.add_argument("--deadline", type=float, default=None,
                         help="per-job soft deadline in seconds (checked at "
                              "engine phase boundaries)")
    p_batch.add_argument("--inject", nargs="+", default=None,
                         metavar="FAULT[:VALUE]",
                         help="deterministic fault injection: "
                              "slow-phase[:seconds]")
    p_batch.add_argument("--metrics-out", default=None,
                         help="write batch metrics (job counters + engine "
                              "metrics) here in Prometheus text format; also "
                              "appends telemetry spans to the run directory's "
                              "events.jsonl")
    p_batch.add_argument("--cache-dir", default=None,
                         help="resolve job graphs through this "
                              "content-addressed cache directory")
    p_batch.set_defaults(fn=_cmd_batch)

    p_serve = sub.add_parser(
        "serve",
        help="online matching daemon (sessions + streaming edge updates "
             "over a local socket)",
    )
    p_serve.add_argument("--socket", required=True,
                         help="Unix socket path to listen on")
    p_serve.add_argument("--max-sessions", type=int, default=16,
                         help="LRU cap on resident sessions (default 16)")
    p_serve.add_argument("--deadline", type=float, default=None,
                         help="default per-request repair deadline in seconds "
                              "(requests may override with deadline_seconds)")
    p_serve.add_argument("--cache-dir", default=None,
                         help="content-addressed cache directory backing "
                              "snapshot/load (no cache: those commands error)")
    p_serve.add_argument("--metrics-out", default=None,
                         help="write daemon metrics here (Prometheus text "
                              "format) after shutdown")
    p_serve.add_argument("--metrics-port", type=int, default=None,
                         help="serve live metrics over HTTP GET /metrics on "
                              "this loopback port while running (0 picks an "
                              "ephemeral port)")
    p_serve.add_argument("--flight-dir", default=None,
                         help="whenever a request fails, dump the daemon's "
                              "span ring here as JSONL, the failure last")
    p_serve.set_defaults(fn=_cmd_serve)

    p_client = sub.add_parser(
        "client",
        help="drive a scripted session against a running online daemon",
    )
    p_client.add_argument("--socket", required=True,
                          help="Unix socket path of the daemon")
    p_client.add_argument("--script", default=None,
                          help="file of JSON requests, one per line "
                               "(default: stdin); '#' lines are comments")
    p_client.set_defaults(fn=_cmd_client)

    p_gen = sub.add_parser("generate", help="write a suite graph to .mtx or .npz")
    p_gen.add_argument("--graph", choices=suite_specs(), default="rmat")
    p_gen.add_argument("--scale", type=float, default=0.3)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=_cmd_generate)

    p_btf = sub.add_parser("btf", help="Dulmage-Mendelsohn/BTF report for a MatrixMarket file")
    p_btf.add_argument("path")
    p_btf.set_defaults(fn=_cmd_btf)

    p_dist = sub.add_parser("distributed", help="run distributed MS-BFS-Graft (BSP model)")
    p_dist.add_argument("--graph", choices=suite_specs(), default="copapers-like")
    p_dist.add_argument("--scale", type=float, default=0.3)
    p_dist.add_argument("--seed", type=int, default=0)
    p_dist.add_argument("--ranks", type=int, nargs="+", default=[1, 4, 16, 64])
    p_dist.add_argument("--decomposition", choices=["1d", "2d"], default="1d")
    p_dist.set_defaults(fn=_cmd_distributed)

    p_bk = sub.add_parser(
        "bench-kernels",
        help="time the python/numpy backends (BENCH_kernels.json baseline)",
    )
    p_bk.add_argument("--scale", type=float, default=1.0,
                      help="instance scale; 1.0 = the 2^14-vertex RMAT baseline")
    p_bk.add_argument("--repeats", type=int, default=3,
                      help="timed runs per (graph, engine); best + mean recorded")
    p_bk.add_argument("--graphs", nargs="+", default=None,
                      choices=["rmat", "er", "skewed"],
                      help="subset of bench inputs (default: all three)")
    p_bk.add_argument("--out", default=None,
                      help="write the validated JSON document here "
                           "(e.g. benchmarks/BENCH_kernels.json)")
    p_bk.add_argument("--cache-dir", default=None,
                      help="resolve bench inputs through this "
                           "content-addressed cache directory")
    p_bk.set_defaults(fn=_cmd_bench_kernels)

    p_pc = sub.add_parser(
        "perf-check",
        help="regression gate: fresh kernel-bench vs the committed baseline",
    )
    p_pc.add_argument("--baseline", default="benchmarks/BENCH_kernels.json",
                      help="committed baseline document to compare against")
    p_pc.add_argument("--tolerance", default="5x",
                      help="allowed per-edge slowdown factor, e.g. '5x' or '2.5' "
                           "(generous by default: the gate catches "
                           "order-of-magnitude regressions, not noise)")
    p_pc.add_argument("--scale", type=float, default=0.05,
                      help="scale of the fresh timing run (per-edge "
                           "normalisation makes scales comparable)")
    p_pc.add_argument("--repeats", type=int, default=1)
    p_pc.add_argument("--graphs", nargs="+", default=None,
                      choices=["rmat", "er", "skewed"],
                      help="subset of bench inputs to re-time")
    p_pc.add_argument("--fresh", default=None,
                      help="compare this pre-recorded benchmark document "
                           "instead of re-timing (passing the baseline itself "
                           "must exit 0)")
    p_pc.set_defaults(fn=_cmd_perf_check)

    p_cache = sub.add_parser(
        "cache",
        help="manage the content-addressed graph-preparation cache",
    )
    cache_sub = p_cache.add_subparsers(dest="action", required=True)
    cache_common = argparse.ArgumentParser(add_help=False)
    cache_common.add_argument("--cache-dir", required=True,
                              help="cache root directory")
    p_cw = cache_sub.add_parser(
        "warm", parents=[cache_common],
        help="prebuild suite graphs (and Karp-Sipser warm starts) into the cache",
    )
    p_cw.add_argument("--graphs", nargs="+", default=None, choices=suite_specs(),
                      help="suite graphs to warm (default: all)")
    p_cw.add_argument("--scale", type=float, default=0.3,
                      help="suite scale to warm (matches 'run' default)")
    p_cw.add_argument("--seeds", type=int, nargs="+", default=[0],
                      help="initialiser seeds to precompute warm starts for")
    p_cw.add_argument("--max-bytes", type=int, default=None,
                      help="LRU size cap for the store (default 512 MiB)")
    cache_sub.add_parser("ls", parents=[cache_common],
                         help="list entries, least-recently-used first")
    cache_sub.add_parser("clear", parents=[cache_common],
                         help="delete every cache entry")
    cache_sub.add_parser(
        "verify", parents=[cache_common],
        help="deep integrity pass: SHA-256 every stored array against meta.json, "
             "then check every cached warm start against its graph",
    )
    p_cache.set_defaults(fn=_cmd_cache)

    p_an = sub.add_parser(
        "analyze",
        help="static analyzer: AST and effect-inference rules for the "
             "engines' contracts (REP001-REP010); exits 1 on any finding",
    )
    p_an.add_argument("root", nargs="?", default=None,
                      help="package-shaped directory to analyze (default: src/repro)")
    p_an.add_argument("--format", choices=["text", "json", "sarif"], default="text",
                      help="report format (default: text)")
    p_an.add_argument("--select", action="append", default=None, metavar="RULE",
                      help="run only these rules (code or name; repeatable)")
    p_an.add_argument("--ignore", action="append", default=None, metavar="RULE",
                      help="skip these rules (code or name; repeatable)")
    p_an.add_argument("--output", "-o", default=None, metavar="FILE",
                      help="write the report to FILE instead of stdout")
    p_an.set_defaults(fn=_cmd_analyze)

    p_rc = sub.add_parser(
        "racecheck",
        help="dynamic race detection + invariant checking on the interleaved engine",
    )
    p_rc.add_argument("--graph", choices=suite_specs(), default=None,
                      help="suite graph to check (default: a small contended instance)")
    p_rc.add_argument("--engine", choices=["interleaved", "numpy"],
                      default="interleaved",
                      help="interleaved: simulated schedules; numpy: audit the "
                           "vectorized kernels' self-reported bulk accesses")
    p_rc.add_argument("--scale", type=float, default=0.05)
    p_rc.add_argument("--threads", type=int, default=4)
    p_rc.add_argument("--seed", type=int, default=0, help="first schedule seed")
    p_rc.add_argument("--seeds", type=int, default=5,
                      help="number of schedule seeds to sweep")
    p_rc.add_argument("--inject", choices=["non-atomic-visited"], default=None,
                      help="inject a synchronisation fault (demonstrates harmful-race "
                           "detection; expect a nonzero exit)")
    p_rc.set_defaults(fn=_cmd_racecheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A :class:`~repro.errors.ServiceError` (a bad jobs file, an unknown
    fault name, ...) is a usage error: one ``error:`` line on stderr and
    exit code 2, as argparse does for a bad flag.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
