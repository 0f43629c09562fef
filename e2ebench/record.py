"""Record the benchmark's numbers and check its run-to-run spread.

    python3 e2ebench/record.py [--workload W ...] [--out e2ebench/baseline.json]

Runs ``run.py`` plainly ten times per workload in each of two back-to-back
sets, for ``run_seconds`` from ``BENCHMARK.json``, every run with its own
``--seed``, interleaving the workloads. For each workload and end-to-end metric it records the median,
quartiles and run count of each set, the spread (quartile distance over the
median), the same for the values as measured before host-speed scaling, how
far the second set's median moved from the first's, and the wall time of a
run. It then checks the spreads (all metrics but ``setup_s``) and the moves against the
bounds in ``BENCHMARK.json`` and exits non-zero if one is exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

RUNS = 10
"""Runs per workload in a set, each with its own seed."""
SETS = 2


def _host() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def _one_run(workload: str, seed: int, seconds: float, out: Path) -> tuple[dict, float]:
    """One plain run: its result and its wall time, interpreter start included."""
    start = time.perf_counter()
    cmd = [sys.executable, str(harness.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--out", str(out)]
    proc = subprocess.run(cmd, cwd=harness.REPO, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return (json.loads(out.read_text(encoding="utf-8"))["results"][workload],
            time.perf_counter() - start)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=harness.WORKLOADS,
                        default=list(harness.WORKLOADS))
    parser.add_argument("--out", type=Path, default=harness.BENCH_DIR / "baseline.json")
    args = parser.parse_args(argv)
    spec = json.loads((harness.REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    run_out = harness.WORK_ROOT / f"record-{os.getpid()}.json"
    sets = []
    try:
        for s in range(SETS):
            seeds = [1000 * (s + 1) + r for r in range(RUNS)]
            values = {w: {m: [] for m in metrics} for w in args.workload}
            raw = {w: {m: [] for m in metrics} for w in args.workload}
            samples = {w: [] for w in args.workload}
            walls = {w: [] for w in args.workload}
            for seed in seeds:
                for w in args.workload:
                    result, wall = _one_run(w, seed, seconds, run_out)
                    walls[w].append(wall)
                    for m in metrics:
                        values[w][m].append(result["reported"][m][0])
                        raw[w][m].append(result["metrics"][m][2])
                    samples[w].append(result["reported"]["op_ms"][1])
                    print(f"set {s + 1} seed {seed} {w}: wall={wall:.1f}s "
                          f"scale={result['scale']:.3f} " + " ".join(
                        f"{m}={result['reported'][m][0]:.4g}" for m in metrics), flush=True)
            sets.append({"seeds": seeds, "workloads": {
                w: {"ops_per_run_median": statistics.median(samples[w]),
                    "run_wall_s": {"median": statistics.median(walls[w]), "max": max(walls[w])},
                    **{m: dict(_summary(values[w][m]), measured=_summary(raw[w][m]))
                       for m in metrics}}
                for w in args.workload}})
    finally:
        run_out.unlink(missing_ok=True)
        try:
            harness.WORK_ROOT.rmdir()
        except OSError:
            pass

    ok = True
    moves = {}
    for w in args.workload:
        moves[w] = {}
        for m, info in metrics.items():
            for i, st in enumerate(sets):
                cell = st["workloads"][w][m]
                if m != "setup_s" and cell["spread"] > info["bound"]:
                    ok = False
                    print(f"SPREAD set {i + 1} {w} {m}: {cell['spread']:.3f} > {info['bound']}")
            if len(sets) > 1:
                first = sets[0]["workloads"][w][m]["median"]
                last = sets[-1]["workloads"][w][m]["median"]
                worse = (last / first - 1) if info["better"] == "lower" else (first / last - 1)
                moves[w][m] = worse
                if worse > info["bound"]:
                    ok = False
                    print(f"MOVE {w} {m}: second set worse by {worse:.3f} > {info['bound']}")
    record = {
        "about": "Medians, quartiles and spreads of the end-to-end metrics; see README.md.",
        "host": _host(),
        "run_seconds": seconds,
        "sets": sets,
        "second_set_worse_by": moves,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for w in args.workload:
        for m in metrics:
            cells = [st["workloads"][w][m] for st in sets]
            print(f"{w:<13} {m:<12} " + "  ".join(
                f"median={c['median']:.4g} spread={c['spread']:.3f} "
                f"(measured {c['measured']['spread']:.3f})" for c in cells)
                + (f"  moved={moves[w][m]:+.3f}" if m in moves.get(w, {}) else ""))
    print("within bounds" if ok else "OUT OF BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
