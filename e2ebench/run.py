"""End-to-end benchmark of the MS-BFS-Graft matching system.

    python3 e2ebench/run.py [--workload W ...] [--seed N] [--seconds S] [--trace 0|1]
                            [--trace-dir DIR] [--scale K] [--out FILE]

Runs each workload (default: all four) from the checkout this file lives in,
prints every metric by name with its unit and sample count, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``. Plain runs
(``--trace 0``) report the end-to-end metrics, traced runs (``--trace 1``) the
per-layer ones; see ``e2ebench/README.md``. The exit code is non-zero when an
operation failed, an answer was wrong, or the traced run's layers did not cover
its ops.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import harness

SETUP_TIMEOUT = 90.0
RESULT_GRACE = 60.0
"""Seconds a worker may run past ``--seconds`` (its last op, the oracle, the report)."""


class BenchError(Exception):
    """A workload could not be run to the end."""


def _read_json_line(proc: subprocess.Popen, timeout: float) -> dict:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise BenchError(f"no answer from worker {proc.pid} within {timeout:.0f}s")
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"worker {proc.pid} exited with code {proc.wait()}")
    return json.loads(line)


def _send(proc: subprocess.Popen, line: str) -> None:
    proc.stdin.write(line + "\n")
    proc.stdin.flush()


def run_offline(workload: str, args: argparse.Namespace, workdir: Path, env: dict) -> dict:
    """Set a workload up in fresh worker processes, then measure in the last one."""
    setups, factors = [], []
    proc = None
    try:
        for i in range(1 if args.trace else harness.SETUPS):
            if proc is not None:
                _send(proc, "quit")
                proc.wait(timeout=RESULT_GRACE)
            cmd = [sys.executable, str(harness.BENCH_DIR / "offline.py"), workload,
                   str(args.seed), str(args.scale), str(args.seconds), str(args.trace),
                   str(workdir / f"{workload}-{i}")]
            if args.trace_dir is not None:
                cmd.append(str(args.trace_dir))
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                    text=True, env=env)
            ready = _read_json_line(proc, SETUP_TIMEOUT)
            setups.append(time.perf_counter() - started - ready["probe_s"])
            factors.append(ready["scale"])
        _send(proc, "go")
        result = _read_json_line(proc, args.seconds + RESULT_GRACE)
        proc.wait(timeout=RESULT_GRACE)
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
    if not args.trace:
        result["metrics"]["setup_s"] = harness.metric(setups, factors, "s")
    result["setup_scale"] = harness.median(factors)
    return result


def run_workload(workload: str, args: argparse.Namespace, workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(harness.SRC), env.get("PYTHONPATH")) if p)
    # Temporary files of the program (the mp engine's traces) stay in the checkout.
    env["TMPDIR"] = str(workdir / "tmp")
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    if workload in harness.OFFLINE_WORKLOADS:
        return run_offline(workload, args, workdir, env)
    import online

    return online.run(args.seed, args.scale, args.seconds, bool(args.trace),
                      workdir / workload, args.trace_dir, env)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=harness.WORKLOADS,
                        default=list(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="offsets every input generator seed")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="traced runs write a Chrome trace and a self-time table here")
    parser.add_argument("--scale", type=int, default=harness.DEFAULT_SCALE,
                        help="log2 of the X vertices of the offline graphs")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write every result, with sample counts and labels")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: {harness.SRC / 'repro'} is missing; run the benchmark from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    # A terminated run still stops its workers and the daemon on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    units = harness.PER_LAYER_UNITS if args.trace else harness.E2E_UNITS
    workdir = harness.WORK_ROOT / f"run-{os.getpid()}"
    results = {}
    try:
        for workload in args.workload:
            results[workload] = run_workload(workload, args, workdir)
    except (BenchError, RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            harness.WORK_ROOT.rmdir()
        except OSError:
            pass

    correct = True
    metrics = {}
    single = len(args.workload) == 1
    for workload, result in results.items():
        labels = " ".join(f"{k}={v}" for k, v in result["labels"].items())
        print(f"{workload}: attempted={result['attempted']} failed={result['failed']} {labels}")
        print(f"  host speed: times scaled by {result['scale']:.4f} over the run "
              f"({result['setup_scale']:.4f} over the set-ups) to reference-host time")
        for name, unit in units.items():
            value, n, raw = result["metrics"][name]
            print(f"  {name:<28}{value:>16.6g} {unit:<9} n={n:<6} measured {raw:.6g}")
            metrics[name if single else f"{workload}/{name}"] = {"value": value, "unit": unit}
            result.setdefault("reported", {})[name] = [value, n]
        if args.trace and not result.get("coverage_ok"):
            print(f"{workload}: layer self-times cover less than "
                  f"{harness.COVERAGE_MIN:.0%} of the traced ops", file=sys.stderr)
            correct = False
        correct = correct and result["failed"] == 0
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"summary": summary, "results": results}, indent=1),
                            encoding="utf-8")
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
