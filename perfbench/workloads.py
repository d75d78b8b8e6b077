"""The three benchmark workloads: inputs, timed units, output checks.

Every workload exposes

* ``setup()`` and ``check_setup(state)``: the work before the timed part
  (timed several times per run), and its check;
* ``unit(state, ledger)``: one timed pass, returning its stage walls;
* ``trace_passes(ledger)``: an untraced reference pass, a traced pass and
  a memory pass for the per-layer breakdown.

Operations go through a ``Ledger`` that counts attempts and failures.  An
operation fails if it raises, exits with a code the benchmark did not
expect, or produces output that fails its check.  The checks of CLI
outputs are the benchmark's own and do not call rotwalk.  Library
results are checked with rotwalk's checkers where those are the contract
being verified (``validate_against_graph`` and the consistency
checkers), otherwise from first principles.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import Tracer, instrument, traced_memory

# Problem sizes.  "full" is the benchmark; "small" is the self-test mode.
# The 3001-cycle is the same in both: it is the known exhaustive-search
# recursion defect and must stay in the benchmark at the size that shows it.
SIZES = {
    "full": {
        "pipeline": {"n": 20000, "d": 8, "steps": 20},
        "walk": {"n": 20000, "d": 8, "steps": 1000, "greedy_steps": 300},
        "coloring": {"n": 2000, "d": 8, "max_iterations": 1500, "max_restarts": 2, "cycle_n": 3001},
    },
    "small": {
        "pipeline": {"n": 400, "d": 4, "steps": 5},
        "walk": {"n": 400, "d": 4, "steps": 50, "greedy_steps": 20},
        "coloring": {"n": 100, "d": 4, "max_iterations": 50, "max_restarts": 2, "cycle_n": 3001},
    },
}

# Set-up repetitions per run; setup_s is their median.
SETUP_REPEATS = {"pipeline": 7, "walk": 3, "coloring": 9}

# Greedy-map runs per walk pass, so that the greedy map gets about as much
# of the run's time as the consistent one.
GREEDY_REPEATS = 3

NORM_DRIFT_LIMIT = 1e-9
# time_budget far above the iteration caps, so the caps always bind and
# the work is fixed.
NO_TIME_LIMIT = 1e6
CYCLE_CEILING = 1_000_000
# One round of the constructive and exhaustive solves takes 0.1-0.2 s at
# full size, shorter than the host's bursts of slow execution, so a single
# round reads either fast or slow.  A pass takes the mean of 15 rounds, a
# few seconds of work, which varies with the share of slow time as the
# local search does; a median of rounds would jump between the two speeds.
CONSTRUCT_ROUNDS = 15

PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
]


class Ledger:
    """Attempted and failed operations, the result of every check, and
    ``busy_s``, the summed wall time of the operations themselves.

    ``checking=False`` skips output checks, for the traced pass: its
    checks would call instrumented code and their spans would count as
    layer time.  The untraced pass of the same run has checked the same
    outputs.
    """

    def __init__(self, checking: bool = True):
        self.checking = checking
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: dict[str, str] = {}
        self.passed: dict[str, int] = {}

    def attempt(self, name, fn, check=None):
        """Run one operation; return (output or None, wall seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # any raise is a failed operation; keep going
            wall = time.perf_counter() - start
            self.busy_s += wall
            self._fail(name, f"raised {type(exc).__name__}: {str(exc)[:160]}")
            return None, wall
        wall = time.perf_counter() - start
        self.busy_s += wall
        try:
            problem = check(out) if check is not None and self.checking else None
        except Exception as exc:  # output too malformed for its check to finish
            problem = f"check raised {type(exc).__name__}: {str(exc)[:160]}"
        if problem:
            self.wrong += 1
            self._fail(name, problem)
        else:
            self.passed[name] = self.passed.get(name, 0) + 1
        return out, wall

    def skip(self, name, reason):
        """Count an operation that could not run because an earlier one failed."""
        self.attempted += 1
        self._fail(name, reason)

    def _fail(self, name, reason):
        self.failed += 1
        self.failures.setdefault(name, reason)


# ---------------------------------------------------------------------------
# Independent readers and checks for the CLI's text outputs.


def read_edge_list(path: Path):
    """(n, d, edges as an (m, 2) 0-based array) from an edge-list file."""
    fields = path.read_text(encoding="utf-8").split()
    n, d = int(fields[0]), int(fields[1])
    edges = np.array(fields[2:], dtype=np.int64).reshape(-1, 2) - 1
    return n, d, edges


def neighbor_table(n, d, edges) -> np.ndarray | None:
    """Row v = sorted neighbors of v, or None if the edges are not d-regular."""
    if len(edges) != n * d // 2:
        return None
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    if (np.bincount(src, minlength=n) != d).any():
        return None
    order = np.lexsort((dst, src))
    return dst[order].reshape(n, d)


def check_edge_list(path: Path, n, d):
    got_n, got_d, edges = read_edge_list(path)
    if (got_n, got_d) != (n, d):
        return f"header says {got_n} {got_d}, expected {n} {d}"
    if (edges[:, 0] >= edges[:, 1]).any() or edges.min() < 0 or edges.max() >= n:
        return "edge not written as 1 <= u < v <= n"
    if len(np.unique(edges[:, 0] * n + edges[:, 1])) != len(edges):
        return "duplicate edge"
    if neighbor_table(n, d, edges) is None:
        return "graph is not d-regular"
    return None


def read_rotation(path: Path) -> np.ndarray:
    fields = path.read_text(encoding="utf-8").split()
    n, d = int(fields[0]), int(fields[1])
    return np.array(fields[2:], dtype=np.int64).reshape(n, d) - 1


def permutation_violations(table: np.ndarray) -> tuple[int, int]:
    """(violation count, unitarity defect) of a rotation table, by column counts."""
    n, d = table.shape
    counts = np.stack([np.bincount(table[:, j], minlength=n) for j in range(d)])
    return int((counts != 1).sum()), int(np.abs(counts - 1).max())


def check_map_matches(table: np.ndarray, nbrs: np.ndarray):
    if table.shape != nbrs.shape:
        return f"map is {table.shape}, graph is {nbrs.shape}"
    if not (np.sort(table, axis=1) == nbrs).all():
        return "map rows are not the graph's neighbor sets"
    return None


def check_report(path: Path, consistent, defect, violations):
    report = json.loads(path.read_text(encoding="utf-8"))
    got = (report["consistent"], report["defect"], len(report["violations"]))
    if got != (consistent, defect, violations):
        return f"check report (consistent, defect, violations) = {got}, expected {(consistent, defect, violations)}"
    return None


def check_csv(path: Path, n, steps):
    """Row count n*(steps+1)+1, and squared norm within the drift limit."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != n * (steps + 1) + 1:
        return f"CSV has {len(lines)} lines, expected {n * (steps + 1) + 1}", None
    norms = np.array([float(line.rsplit(",", 1)[1]) for line in lines[1 :: n]])
    drift = float(np.abs(norms - 1.0).max())
    if drift > NORM_DRIFT_LIMIT:
        return f"norm drift {drift:.3e} > {NORM_DRIFT_LIMIT}", drift
    return None, drift


# ---------------------------------------------------------------------------
# pipeline: the six CLI commands as separate processes.


@dataclass
class Command:
    name: str
    argv: list[str]
    check: object  # callable() -> problem text, or None when the output is right


class Pipeline:
    name = "pipeline"

    def __init__(self, root: Path, work: Path, seed: int, size: str):
        self.work = work
        self.seed = seed
        self.p = SIZES[size]["pipeline"]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.start_vertex = random.Random(seed).randrange(self.p["n"]) + 1
        self.norm_drift = None
        self._expected = None

    # A user's shell script would call the installed ``rotwalk`` script;
    # this is the same entry point, run from the checkout's source tree.
    def _cli(self, argv):
        code = "import sys; from rotwalk.cli import run; sys.argv[0] = 'rotwalk'; run()"
        return [sys.executable, "-c", code, *argv]

    def commands(self) -> list[Command]:
        n, d, w = self.p["n"], self.p["d"], self.work
        g, greedy, solved = w / "graph.edges", w / "greedy.rot", w / "solved.rot"
        return [
            Command("gen", ["gen", "random-regular", str(n), str(d), "--seed", str(self.seed),
                            "--out", str(g)], self._check_gen),
            Command("rotmap", ["rotmap", str(g), "--out", str(greedy)], self._check_rotmap),
            Command("check", ["check", str(greedy), "--out", str(w / "greedy.json")],
                    self._check_greedy_report),
            Command("solve", ["solve", str(g), "--seed", str(self.seed), "--out", str(solved),
                              "--stats", str(w / "solve.json")], self._check_solve),
            Command("check_solved", ["check", str(solved), "--out", str(w / "solved.json")],
                    lambda: check_report(w / "solved.json", True, 0, 0)),
            Command("walk", ["walk", str(g), str(solved), "--coin", "grover", "--steps",
                             str(self.p["steps"]), "--start", f"1:{self.start_vertex}",
                             "--out", str(w / "walk.csv")], self._check_walk),
        ]

    def output_files(self) -> list[Path]:
        names = ("graph.edges", "greedy.rot", "greedy.json", "solved.rot", "solve.json",
                 "solved.json", "walk.csv")
        return [self.work / name for name in names]

    def _check_gen(self):
        problem = check_edge_list(self.work / "graph.edges", self.p["n"], self.p["d"])
        if problem is None:
            n, d, edges = read_edge_list(self.work / "graph.edges")
            self._expected = neighbor_table(n, d, edges)
        return problem

    def _check_rotmap(self):
        table = read_rotation(self.work / "greedy.rot")
        if not (table == self._expected).all():
            return "greedy map rows are not the ascending neighbor lists"
        return None

    def _check_greedy_report(self):
        count, defect = permutation_violations(self._expected)
        return check_report(self.work / "greedy.json", count == 0, defect, count)

    def _check_solve(self):
        stats = json.loads((self.work / "solve.json").read_text(encoding="utf-8"))
        if stats["status"] != "solved":
            return f"solve status {stats['status']!r}"
        table = read_rotation(self.work / "solved.rot")
        problem = check_map_matches(table, self._expected)
        if problem:
            return problem
        count, _ = permutation_violations(table)
        return f"solved map has {count} permutation violations" if count else None

    def _check_walk(self):
        problem, self.norm_drift = check_csv(self.work / "walk.csv", self.p["n"], self.p["steps"])
        return problem

    def setup(self):
        """One fresh interpreter importing rotwalk.cli: what every command pays first."""
        return subprocess.run([sys.executable, "-c", "import rotwalk.cli"], env=self.env)

    @staticmethod
    def check_setup(proc):
        return f"import exited {proc.returncode}" if proc.returncode else None

    def unit(self, state, ledger):
        walls = {}
        for cmd in self.commands():
            if walls and None in walls.values():
                ledger.skip(cmd.name, "an earlier command failed")
                walls[cmd.name] = None
                continue

            def call(cmd=cmd):
                return subprocess.run(self._cli(cmd.argv), env=self.env, capture_output=True, text=True)

            def check(proc, cmd=cmd):
                if proc.returncode != 0:
                    return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
                return cmd.check()

            proc, wall = ledger.attempt(cmd.name, call, check)
            walls[cmd.name] = wall if proc is not None and proc.returncode == 0 else None
        if None in walls.values():
            return None
        self.command_walls = walls
        # Stage 1 builds and checks the greedy map; stage 2 solves, checks
        # and walks the consistent one.
        stage1 = walls["gen"] + walls["rotmap"] + walls["check"]
        stage2 = walls["solve"] + walls["check_solved"] + walls["walk"]
        return {"timed_s": stage1 + stage2, "stage1_s": stage1, "stage2_s": stage2}

    # The processes this workload runs are the CLI commands, not run.py itself.
    rss_of_children = True

    def summary(self, medians):
        return {"pipeline_s": (medians["timed_s"], "s")}

    # -- traced: the same argv in-process through rotwalk.cli.main ------

    def trace_passes(self, ledger):
        """Process walls of one untraced chain, then the same argv in-process:
        untraced, traced, and with tracemalloc over generation and a parse."""
        from rotwalk import cli  # noqa: F401  (import cost stays out of the passes)

        if self.unit(None, ledger) is None:
            raise RuntimeError("the untraced pipeline failed; see the failures line")
        extras = {f"cli.{name}_s": wall for name, wall in self.command_walls.items()}
        extras["cli.bytes_written"] = sum(path.stat().st_size for path in self.output_files())
        extras["walk.norm_drift_max"] = self.norm_drift
        start = time.perf_counter()
        self.in_process()
        untraced = time.perf_counter() - start
        tracer = Tracer()
        with instrument(tracer):
            start = time.perf_counter()
            self.in_process(tracer)
            traced = time.perf_counter() - start
        memory = Tracer(memory=True)
        with traced_memory(), instrument(memory):
            self.in_process(memory, only=("gen", "rotmap"))
        return untraced, traced, tracer, memory, extras

    def in_process(self, tracer=None, only=None):
        from rotwalk import cli

        for cmd in self.commands():
            if only is not None and cmd.name not in only:
                continue
            if tracer is None:
                code = cli.main(cmd.argv)
            else:
                with tracer.span(f"bench.{cmd.name}"):
                    code = cli.main(cmd.argv)
            if code != 0:
                raise RuntimeError(f"in-process {cmd.name} exited {code}")


# ---------------------------------------------------------------------------
# walk: library calls, consistent and greedy maps of one graph.


@dataclass
class WalkSetup:
    graph: object
    solved: object
    shift: object
    greedy_shift: object
    coin: object
    state: object


class Walk:
    name = "walk"

    def __init__(self, root: Path, work: Path, seed: int, size: str):
        self.seed = seed
        self.p = SIZES[size]["walk"]
        rng = random.Random(seed)
        self.start = (rng.randrange(self.p["d"]), rng.randrange(self.p["n"]))
        self.norm_drift = None

    def setup(self):
        from rotwalk.graphs import random_regular_graph
        from rotwalk.operators import build_coin, build_shift
        from rotwalk.rotmap import greedy_rotation
        from rotwalk.solvers import solve_permutation
        from rotwalk.walk import init_state

        n, d = self.p["n"], self.p["d"]
        graph = random_regular_graph(n, d, seed=self.seed)
        solved = solve_permutation(graph).rotation_map
        return WalkSetup(graph, solved, build_shift(solved), build_shift(greedy_rotation(graph)),
                         build_coin("grover", d), init_state(n, d, [(*self.start, 1.0)]))

    def check_setup(self, s: WalkSetup):
        from rotwalk.rotmap import check_permutation_consistent, validate_against_graph

        if validate_against_graph(s.solved, s.graph):
            return "solved map does not match the graph"
        if not check_permutation_consistent(s.solved).consistent:
            return "solved map fails the permutation checker"
        return None

    def _check_consistent(self, traj):
        if len(traj.records) != self.p["steps"] + 1:
            return f"{len(traj.records)} records, expected {self.p['steps'] + 1}"
        self.norm_drift = max(abs(x - 1.0) for x in traj.norms())
        if not self.norm_drift <= NORM_DRIFT_LIMIT:
            return f"norm drift {self.norm_drift:.3e} > {NORM_DRIFT_LIMIT}"
        return None

    def _check_greedy(self, traj):
        if len(traj.records) != self.p["greedy_steps"] + 1:
            return f"{len(traj.records)} records, expected {self.p['greedy_steps'] + 1}"
        last = traj.records[-1]
        total = float(last.probabilities.sum())
        if not (np.isfinite(total) and abs(total - last.norm2) <= 1e-9 * max(1.0, last.norm2)):
            return f"final distribution sums to {total}, squared norm is {last.norm2}"
        return None

    def unit(self, s: WalkSetup, ledger, tracer=None):
        from rotwalk.walk import run

        def timed(label, shift, steps, check):
            fn = lambda: run(s.state, s.coin, shift, steps)  # noqa: E731
            if tracer is None:
                return ledger.attempt(label, fn, check)[1]
            with tracer.span(f"bench.{label}"):
                return ledger.attempt(label, fn, check)[1]

        stage1 = timed("run_consistent", s.shift, self.p["steps"], self._check_consistent)
        greedy = [timed("run_inconsistent", s.greedy_shift, self.p["greedy_steps"], self._check_greedy)
                  for _ in range(GREEDY_REPEATS)]
        return {"timed_s": stage1 + sum(greedy), "stage1_s": stage1, "stage2_s": statistics.fmean(greedy)}

    def trace_passes(self, ledger):
        """Setup plus one unit untraced, then traced; then tracemalloc over
        graph generation and the consistent run."""
        busy = ledger.busy_s
        s, _ = ledger.attempt("setup", self.setup, self.check_setup)
        if s is None:
            raise RuntimeError("set-up failed; see the failures line")
        self.unit(s, ledger)
        untraced = ledger.busy_s - busy  # the operations only, not their checks
        del s
        tracer = Tracer()
        with instrument(tracer):
            start = time.perf_counter()
            with tracer.span("bench.setup"):
                s = self.setup()
            self.unit(s, Ledger(checking=False), tracer)
            traced = time.perf_counter() - start
        memory = Tracer(memory=True)
        with traced_memory(), instrument(memory):
            from rotwalk.graphs import random_regular_graph
            from rotwalk.walk import run

            random_regular_graph(self.p["n"], self.p["d"], seed=self.seed)
            run(s.state, s.coin, s.shift, self.p["steps"])
        return untraced, traced, tracer, memory, {"walk.norm_drift_max": self.norm_drift}

    def summary(self, medians):
        arcs = self.p["n"] * self.p["d"]
        return {
            "arc_steps_per_s": (arcs * self.p["steps"] / medians["stage1_s"], "1/s"),
            "arc_steps_per_s_inconsistent": (arcs * self.p["greedy_steps"] / medians["stage2_s"], "1/s"),
        }


# ---------------------------------------------------------------------------
# coloring: involution-criterion solvers as library calls.


@dataclass
class ColoringSetup:
    graph: object
    petersen: object
    cycle: object


class Coloring:
    name = "coloring"

    def __init__(self, root: Path, work: Path, seed: int, size: str):
        self.seed = seed
        self.p = SIZES[size]["coloring"]

    def setup(self):
        from rotwalk.graphs import RegularGraph, cycle_graph, random_regular_graph

        return ColoringSetup(
            random_regular_graph(self.p["n"], self.p["d"], seed=self.seed),
            RegularGraph.from_edges(10, PETERSEN_EDGES),
            cycle_graph(self.p["cycle_n"]),
        )

    @staticmethod
    def check_setup(s):
        return None

    def _config(self, method, **kw):
        from rotwalk.solvers import SolverConfig

        return SolverConfig(criterion="involution", method=method, seed=self.seed, **kw)

    def _check_heuristic(self, graph):
        from rotwalk.rotmap import check_involution_consistent, validate_against_graph

        def check(outcome):
            edges = graph.n * graph.d // 2
            if outcome.stats.iterations != edges:
                return f"colored {outcome.stats.iterations} edges, expected {edges}"
            if outcome.status == "solved":
                rot = outcome.rotation_map
                if validate_against_graph(rot, graph) or not check_involution_consistent(rot).consistent:
                    return "solved map fails the involution checker"
            elif outcome.status != "budget-exhausted" or outcome.stats.best_conflicts < 1:
                return f"status {outcome.status!r} with {outcome.stats.best_conflicts} conflicts"
            return None

        return check

    def _check_local_search(self, outcome):
        caps = self.p["max_iterations"] * self.p["max_restarts"]
        if outcome.status != "budget-exhausted" or outcome.stats.iterations != caps:
            return f"status {outcome.status!r} after {outcome.stats.iterations} iterations, expected the caps ({caps}) to bind"
        return None

    @staticmethod
    def _check_infeasible(outcome):
        if outcome.status != "infeasible-proven":
            return f"status {outcome.status!r}, expected 'infeasible-proven'"
        return None

    def unit(self, s: ColoringSetup, ledger, tracer=None):
        from rotwalk.solvers import solve

        def op(label, graph, config, check):
            fn = lambda: solve(graph, config)  # noqa: E731
            if tracer is None:
                return ledger.attempt(label, fn, check)[1]
            with tracer.span(f"bench.{label}"):
                return ledger.attempt(label, fn, check)[1]

        search = op("local_search", s.graph,
                    self._config("local-search", max_iterations=self.p["max_iterations"],
                                 max_restarts=self.p["max_restarts"], time_budget=NO_TIME_LIMIT),
                    self._check_local_search)
        rounds = []
        for _ in range(CONSTRUCT_ROUNDS):
            construct = op("greedy_coloring", s.graph, self._config("greedy-coloring"),
                           self._check_heuristic(s.graph))
            construct += op("vizing", s.graph, self._config("vizing"), self._check_heuristic(s.graph))
            construct += op("exhaustive_petersen", s.petersen,
                            self._config("exhaustive", time_budget=NO_TIME_LIMIT),
                            self._check_infeasible)
            construct += op("exhaustive_cycle", s.cycle,
                            self._config("exhaustive", time_budget=NO_TIME_LIMIT,
                                         exhaustive_ceiling=CYCLE_CEILING),
                            self._check_infeasible)
            rounds.append(construct)
        construct = statistics.fmean(rounds)
        return {"timed_s": search + construct, "stage1_s": search, "stage2_s": construct}

    def trace_passes(self, ledger):
        """Setup plus one unit untraced, then traced; then tracemalloc over
        graph generation."""
        busy = ledger.busy_s
        s, _ = ledger.attempt("setup", self.setup, self.check_setup)
        if s is None:
            raise RuntimeError("set-up failed; see the failures line")
        self.unit(s, ledger)
        untraced = ledger.busy_s - busy  # the operations only, not their checks
        tracer = Tracer()
        with instrument(tracer):
            start = time.perf_counter()
            with tracer.span("bench.setup"):
                s = self.setup()
            self.unit(s, Ledger(checking=False), tracer)
            traced = time.perf_counter() - start
        memory = Tracer(memory=True)
        with traced_memory(), instrument(memory):
            from rotwalk.graphs import random_regular_graph

            random_regular_graph(self.p["n"], self.p["d"], seed=self.seed)
        return untraced, traced, tracer, memory, {}

    def summary(self, medians):
        return {"search_s": (medians["stage1_s"], "s"), "construct_s": (medians["stage2_s"], "s")}


WORKLOADS = {"pipeline": Pipeline, "walk": Walk, "coloring": Coloring}
