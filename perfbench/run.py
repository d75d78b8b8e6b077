"""rotwalk benchmark: one workload per run, end-to-end or traced per layer.

    python3 perfbench/run.py --workload {pipeline,walk,coloring}
        [--seed N] [--seconds S] [--trace 0|1] [--size full|small]

Run it from the root of a source checkout; it imports rotwalk from
``src/`` there and writes scratch files under ``.perfbench_work/``,
which it removes before it exits.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, measured with
no tracing; with ``--trace 1`` they are the per-layer ones, from a
separate traced run.  Lines before it, each starting with ``#``, give
the same numbers under the workload-specific names, the output checks
and the machine context.  README.md beside this file says what each
metric means on each workload.
"""

from __future__ import annotations

import os

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One BLAS/OpenMP thread: runs must not compete for the two cores, and
# the walk's d x d coin products are too small to gain from threads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# name, unit.  Every workload reports every one of these.
END_TO_END = (
    ("setup_s", "s"),
    ("timed_s", "s"),
    ("stage1_s", "s"),
    ("stage2_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)

# name, unit.  A metric whose layer the workload never reaches reads 0.
PER_LAYER = (
    ("cli.gen_s", "s"),
    ("cli.rotmap_s", "s"),
    ("cli.check_s", "s"),
    ("cli.solve_s", "s"),
    ("cli.check_solved_s", "s"),
    ("cli.walk_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("graphs.random_regular_graph_s", "s"),
    ("graphs.parse_graph_s", "s"),
    ("graphs.serialize_graph_s", "s"),
    ("graphs.edges_s", "s"),
    ("graphs.peak_traced_mb", "MB"),
    ("graphs.self_s", "s"),
    ("rotmap.parse_rotation_s", "s"),
    ("rotmap.serialize_rotation_s", "s"),
    ("rotmap.check_permutation_s", "s"),
    ("rotmap.check_permutation_inconsistent_s", "s"),
    ("rotmap.violations", "count"),
    ("rotmap.validate_against_graph_s", "s"),
    ("rotmap.self_s", "s"),
    ("operators.build_shift_s", "s"),
    ("operators.unitarity_defect_s", "s"),
    ("operators.defect", "count"),
    ("operators.self_s", "s"),
    ("walk.step_s", "s"),
    ("walk.step_inconsistent_s", "s"),
    ("walk.distribution_s", "s"),
    ("walk.run_self_s", "s"),
    ("walk.records_peak_mb", "MB"),
    ("walk.to_csv_text_s", "s"),
    ("walk.norm_drift_max", "ratio"),
    ("walk.step_bytes_computed", "bytes"),
    ("walk.step_flops_computed", "flop"),
    ("walk.self_s", "s"),
    ("solvers.solve_permutation_s", "s"),
    ("solvers.matching_phases", "count"),
    ("solvers.local_search_s", "s"),
    ("solvers.local_search_iters", "count"),
    ("solvers.local_search_iters_per_s", "1/s"),
    ("solvers.local_search_best_conflicts", "count"),
    ("solvers.vizing_s", "s"),
    ("solvers.vizing_conflicts", "count"),
    ("solvers.greedy_coloring_s", "s"),
    ("solvers.greedy_coloring_conflicts", "count"),
    ("solvers.exhaustive_nodes", "count"),
    ("solvers.self_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.uncovered_s", "s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pipeline", "walk", "coloring"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time; at least one timed pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: seconds-long inputs for the self-test")
    return parser.parse_args(argv)


def measure(workload, ledger, seconds):
    """End-to-end metrics: repeated set-up, then timed passes until ``seconds``."""
    from workloads import SETUP_REPEATS

    setup_walls = []
    for _ in range(SETUP_REPEATS[workload.name]):
        state = None  # let the previous set-up's memory go first
        state, wall = ledger.attempt("setup", workload.setup, workload.check_setup)
        if state is None:
            raise RuntimeError("set-up failed; see the failures line")
        setup_walls.append(wall)

    # No pass starts that would, at the last pass's pace, end after the
    # deadline.
    units = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        walls = workload.unit(state, ledger)
        if walls is not None:
            units.append(walls)
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break
    if not units:
        raise RuntimeError("no timed unit completed; see the failures line")
    # A time is the mean over the run's passes: the run's total time in that
    # stage over its work.  The host's speed drifts between a fast and a
    # slow mode that last from seconds to minutes, so a median of a few
    # passes jumps between the two speeds, while the mean follows the share
    # of slow time.
    means = {key: statistics.fmean([u[key] for u in units]) for key in units[0]}
    who = resource.RUSAGE_CHILDREN if getattr(workload, "rss_of_children", False) else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setup_walls),
        **means,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "ok_frac": (ledger.attempted - ledger.failed) / ledger.attempted,
    }
    named = {"setup_s": (metrics["setup_s"], "s"), **workload.summary(means),
             "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
             "failed_frac": (ledger.failed / ledger.attempted, "ratio")}
    notes = {"setup samples": len(setup_walls), "timed units": len(units),
             "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()}}
    return metrics, notes


def computed_step_cost(n, d):
    """Bytes and flops one coin-then-shift step must touch, from array sizes
    (computed, not measured): the coin reads and writes the d*n complex128
    state and does a d x d complex product per vertex (8 flops per complex
    multiply-add); the shift reads the state and the int64 index table and
    writes the state, with one complex add per arc."""
    state_bytes = 16 * n * d
    return 2 * state_bytes + 2 * state_bytes + 8 * n * d, 8 * d * d * n + 2 * n * d


def per_layer(workload, ledger):
    untraced, traced, tr, mem, extras = workload.trace_passes(ledger)
    inc = "bench.run_inconsistent"

    def consistent_only(name):
        return sum(s.duration for s in tr.named(name) if inc not in tr.ancestors(s))

    def attr_sum(name, key, **match):
        return sum(s.attrs.get(key, 0) for s in tr.named(name, **match))

    search = tr.total("solvers.solve", method="local-search")
    iters = attr_sum("solvers.solve", "iterations", method="local-search")
    out = {name: 0.0 for name, _ in PER_LAYER}
    out.update({
        "graphs.random_regular_graph_s": tr.total("graphs.random_regular_graph"),
        "graphs.parse_graph_s": tr.total("graphs.parse_graph"),
        "graphs.serialize_graph_s": tr.total("graphs.serialize_graph"),
        "graphs.edges_s": tr.total("graphs.RegularGraph.edges"),
        "graphs.peak_traced_mb": mem.peak_mb("graphs.random_regular_graph", "graphs.parse_graph"),
        "rotmap.parse_rotation_s": tr.total("rotmap.parse_rotation"),
        "rotmap.serialize_rotation_s": tr.total("rotmap.serialize_rotation"),
        "rotmap.check_permutation_s": tr.total("rotmap.check_permutation_consistent", consistent=True),
        "rotmap.check_permutation_inconsistent_s":
            tr.total("rotmap.check_permutation_consistent", consistent=False),
        "rotmap.violations":
            attr_sum("rotmap.check_permutation_consistent", "violations", consistent=False),
        "rotmap.validate_against_graph_s": tr.total("rotmap.validate_against_graph"),
        "operators.build_shift_s": tr.total("operators.build_shift"),
        "operators.unitarity_defect_s": tr.total("operators.unitarity_defect"),
        "operators.defect": max((s.attrs["defect"] for s in tr.named("operators.unitarity_defect")
                                 if "defect" in s.attrs), default=0),
        "walk.step_s": consistent_only("walk.step"),
        "walk.step_inconsistent_s": tr.total("walk.step", under=inc),
        "walk.distribution_s": consistent_only("walk.distribution") + consistent_only("walk.WalkState.norm2"),
        "walk.run_self_s": sum(s.self_s for s in tr.named("walk.run") if inc not in tr.ancestors(s)),
        "walk.records_peak_mb": mem.peak_mb("walk.run"),
        "walk.to_csv_text_s": tr.total("walk.WalkTrajectory.to_csv_text"),
        "solvers.solve_permutation_s": tr.total("solvers.solve_permutation"),
        "solvers.matching_phases": attr_sum("solvers.solve_permutation", "iterations"),
        "solvers.local_search_s": search,
        "solvers.local_search_iters": iters,
        "solvers.local_search_iters_per_s": iters / search if search else 0.0,
        "solvers.local_search_best_conflicts": attr_sum("solvers.solve", "best_conflicts", method="local-search"),
        "solvers.vizing_s": tr.total("solvers.solve", method="vizing"),
        "solvers.vizing_conflicts": attr_sum("solvers.solve", "best_conflicts", method="vizing"),
        "solvers.greedy_coloring_s": tr.total("solvers.solve", method="greedy-coloring"),
        "solvers.greedy_coloring_conflicts": attr_sum("solvers.solve", "best_conflicts", method="greedy-coloring"),
        "solvers.exhaustive_nodes": attr_sum("solvers.solve", "iterations", method="exhaustive"),
    })
    if tr.named("walk.step"):
        n, d = workload.p["n"], workload.p["d"]
        out["walk.step_bytes_computed"], out["walk.step_flops_computed"] = computed_step_cost(n, d)
    layer_self = tr.self_by_layer()
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_s"] = seconds
    out.update({k: v for k, v in extras.items() if v is not None})
    out.update({
        "trace.untraced_s": untraced,
        "trace.traced_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.uncovered_s": traced - sum(layer_self.values()),
    })
    notes = {
        "spans": len(tr.spans),
        "overhead_frac": round((traced - untraced) / untraced, 4),
        "uncovered_frac": round(out["trace.uncovered_s"] / traced, 4),
    }
    return out, notes


def machine_context():
    import numpy
    import scipy

    caches = {}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True).stdout
    except OSError:
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()] = value.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        **caches,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # Before NumPy is first imported; the CLI processes inherit it.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "rotwalk" / "__init__.py").is_file():
        print(f"error: no rotwalk sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import rotwalk

    if Path(rotwalk.__file__).resolve().parent != (src / "rotwalk").resolve():
        print(f"error: imported rotwalk from {rotwalk.__file__}, not {src}", file=sys.stderr)
        return 2

    from workloads import SIZES, WORKLOADS, Ledger

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    workload = WORKLOADS[args.workload](ROOT, work, args.seed, args.size)
    try:
        if args.trace:
            metrics, notes = per_layer(workload, ledger)
            units = dict(PER_LAYER)
        else:
            metrics, notes = measure(workload, ledger, args.seconds)
            units = dict(END_TO_END)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for name, reason in ledger.failures.items():
            print(f"error: {name}: {reason}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    failed_frac = ledger.failed / ledger.attempted
    print(f"# workload={args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"problem={json.dumps(SIZES[args.size][args.workload])}")
    print(f"# machine {json.dumps(machine_context())}")
    named = notes.pop("named", None)
    if named is not None:
        print(f"# named {json.dumps(named)}")
    print(f"# {json.dumps(notes)}")
    print(f"# attempted={ledger.attempted} failed={ledger.failed} failed_frac={failed_frac:.6f} "
          f"wrong_outputs={ledger.wrong} checks_passed={json.dumps(ledger.passed)}")
    for name, reason in ledger.failures.items():
        print(f"# FAILED {name}: {reason}")
    result = {
        "correct": ledger.wrong == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
