"""Searching for consistent rotation maps on regular graphs.

Two different problems hide behind "consistent", and they have very
different difficulty:

* permutation criterion — every rotation-map column a permutation.  This
  is solvable in polynomial time for EVERY regular graph: the arcs of a
  d-regular graph form a d-regular bipartite graph (left copy of V to
  right copy of V, one edge per arc), which always decomposes into d
  perfect matchings; each matching becomes one column.  Implemented by
  the ``matching`` method, which takes each matching from SciPy's
  Hopcroft-Karp (``maximum_bipartite_matching``) on the residual arcs.

* involution criterion — every label class a perfect matching, i.e. a
  proper d-edge-coloring of a d-regular graph.  Deciding whether one
  exists is the hard "Class 1 vs Class 2" question, so this side is a
  heuristic suite: ``greedy-coloring``, ``vizing`` (Misra-Gries on a
  d+1 palette plus a pass that tries to empty the extra color class),
  and ``local-search`` (Kempe-chain moves with random restarts).

``exhaustive`` backtracking is the ground-truth oracle for either
criterion on small instances (n*d bounded by a configured ceiling).  It
is the only method allowed to claim infeasibility.

``solve`` is the one dispatcher from (criterion, method) to a solver,
and every solver returns through one outcome rule: a map means
``solved``, a certificate ``infeasible-proven``, anything else
``budget-exhausted``.  The rule runs the rotmap checker of the config's
criterion once on every map, and a map that fails it is an internal
defect: the checker, not the solver, is the source of truth.

The hand-written searches break ties by lowest vertex index then lowest
label, SciPy's matching is deterministic too, and all randomness flows
from the config seed, so identical (graph, config) inputs reproduce
identical outcomes and stats (wall-clock time aside).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from itertools import permutations, product

import numpy as np

from .errors import ConfigError, RotwalkError, ValidationError
from .graphs import RegularGraph
from .rotmap import (
    RotationMap,
    check_involution_consistent,
    check_permutation_consistent,
)
from .version import REPORT_VERSION

CRITERIA = ("permutation", "involution")
METHODS = ("matching", "greedy-coloring", "vizing", "local-search", "exhaustive")
STATUSES = ("solved", "infeasible-proven", "budget-exhausted")


@dataclass(frozen=True)
class SolverConfig:
    """Criterion, method, seed, and budgets for one solve.

    ``max_iterations`` caps each local-search restart; ``time_budget``
    (seconds) is a soft wall-clock guard checked between iterations, so
    runs whose iteration caps bind first stay fully deterministic.
    ``exhaustive_ceiling`` caps n*d for the exhaustive method.
    """

    criterion: str = "permutation"
    method: str = "matching"
    seed: int = 0
    max_iterations: int = 5000
    max_restarts: int = 10
    time_budget: float = 30.0
    exhaustive_ceiling: int = 40

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise ConfigError(f"unknown criterion {self.criterion!r}; expected one of {CRITERIA}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.max_iterations < 1 or self.max_restarts < 1:
            raise ConfigError("iteration and restart budgets must be positive")
        if not (math.isfinite(self.time_budget) and self.time_budget > 0):
            raise ConfigError(f"time budget must be positive and finite, got {self.time_budget}")
        if self.exhaustive_ceiling < 1:
            raise ConfigError("exhaustive ceiling must be positive")


@dataclass(frozen=True)
class SolverStats:
    """iterations: matchings computed (d) / edges colored / search nodes /
    local-search moves, depending on method.  conflict_trace records the
    conflict count at each local-search iteration (empty otherwise).
    best_conflicts is 0 for solved outcomes; for coloring heuristics it
    is the conflict count of the best labeling found, and for exhaustive
    outcomes the fewest unassigned slots over all partial assignments."""

    iterations: int
    restarts: int
    wall_ms: float
    best_conflicts: int
    conflict_trace: tuple[int, ...] = ()


@dataclass(frozen=True)
class SolverOutcome:
    status: str
    criterion: str
    method: str
    seed: int
    n: int
    d: int
    rotation_map: RotationMap | None
    certificate: str | None
    stats: SolverStats

    def to_report(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "status": self.status,
            "criterion": self.criterion,
            "method": self.method,
            "seed": self.seed,
            "n": self.n,
            "d": self.d,
            "iterations": self.stats.iterations,
            "restarts": self.stats.restarts,
            "best_conflicts": self.stats.best_conflicts,
            "wall_ms": self.stats.wall_ms,
        }


def solve(graph: RegularGraph, config: SolverConfig | None = None) -> SolverOutcome:
    """Dispatch to the solver matching (criterion, method)."""
    if config is None:
        config = SolverConfig()
    if config.method == "matching":
        if config.criterion != "permutation":
            raise ConfigError("the matching method solves the permutation criterion only")
        return solve_permutation(graph, config)
    if config.method == "exhaustive":
        return exhaustive_search(graph, config)
    if config.criterion != "involution":
        raise ConfigError(f"method {config.method!r} targets the involution criterion only")
    if config.method == "local-search":
        return _local_search(graph, config)
    return _color(graph, config)


def _outcome(graph, config, stats, rot=None, certificate=None) -> SolverOutcome:
    """The outcome of one solve under ``config``: a map means solved, a
    certificate infeasible-proven, anything else budget-exhausted.  A map
    that fails the checker of the config's criterion is a defect."""
    if rot is not None:
        check = (
            check_permutation_consistent if config.criterion == "permutation"
            else check_involution_consistent
        )
        if not check(rot).consistent:
            raise RotwalkError(
                f"internal defect: {config.method} output failed the {config.criterion} checker"
            )
        status = "solved"
    else:
        status = "infeasible-proven" if certificate is not None else "budget-exhausted"
    return SolverOutcome(
        status, config.criterion, config.method, config.seed, graph.n, graph.d,
        rot, certificate, stats,
    )


# ---------------------------------------------------------------------------
# Permutation criterion: matching decomposition


def solve_permutation(graph: RegularGraph, config: SolverConfig | None = None) -> SolverOutcome:
    """Decompose the arc graph into d perfect matchings; always solves.

    Column k of the output is the k-th matching.  Each matching removes
    one arc per vertex on both sides, so the residual arc graph stays
    regular and keeps a perfect matching — failure would be a defect,
    not a search miss, and raises.
    """
    # Imported here so that every other command starts without SciPy.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    config = replace(config or SolverConfig(), criterion="permutation", method="matching")
    start = time.perf_counter()
    n, d = graph.n, graph.d
    remaining = graph.neighbors.copy()
    columns = []
    for width in range(d, 0, -1):
        # Row u of the residual table lists the right vertices still joined
        # to left vertex u; every row holds `width` of them.
        indptr = np.arange(0, n * width + 1, width)
        arcs = csr_matrix((np.ones(n * width, dtype=np.int8), remaining.ravel(), indptr), (n, n))
        match = maximum_bipartite_matching(arcs, perm_type="column")
        if (match == -1).any():
            raise RotwalkError(
                "internal defect: residual arc graph lost its perfect matching"
            )
        columns.append(match)
        remaining = remaining[remaining != match[:, None]].reshape(n, width - 1)
    stats = SolverStats(len(columns), 0, (time.perf_counter() - start) * 1000.0, 0)
    return _outcome(graph, config, stats, RotationMap(np.column_stack(columns)))


# ---------------------------------------------------------------------------
# Involution criterion: edge colorings


@dataclass(frozen=True)
class EdgeColoring:
    """A proper edge coloring: labels[i] colors edges[i]; colors dense 0-based."""

    edges: tuple[tuple[int, int], ...]
    labels: tuple[int, ...]
    num_colors: int


def rotation_from_coloring(graph: RegularGraph, labels) -> RotationMap:
    """Convert a proper d-edge-coloring (labels over graph.edges() order)
    into the rotation map whose label classes are the color classes."""
    n, d = graph.n, graph.d
    edges = graph.edges()
    if len(labels) != len(edges):
        raise ValidationError(f"coloring has {len(labels)} labels for {len(edges)} edges")
    entries = np.full((n, d), -1, dtype=np.int64)
    for (u, v), c in zip(edges, labels):
        if not (0 <= c < d):
            raise ValidationError(f"color {c} out of range 0..{d - 1}")
        for x in (u, v):
            if entries[x, c] != -1:
                raise ValidationError(f"color {c} repeats at vertex {x + 1}")
        entries[u, c] = v
        entries[v, c] = u
    # m = n*d/2 edges placed without a repeat fill all n*d slots.
    return RotationMap(entries)


def greedy_coloring(graph: RegularGraph) -> EdgeColoring:
    """Smallest free color per edge, edges in sorted order, open palette."""
    edges = graph.edges()
    busy = [set() for _ in range(graph.n)]
    labels = []
    for u, v in edges:
        c = 0
        while c in busy[u] or c in busy[v]:
            c += 1
        labels.append(c)
        busy[u].add(c)
        busy[v].add(c)
    return EdgeColoring(tuple(edges), tuple(labels), len(set(labels)))


def _alternating_path(at, start, first_color, second_color):
    """Edges of the maximal path from ``start`` alternating the two colors.

    ``at[v][c]`` is the neighbor joined to v by color c (-1 if none).
    ``start`` must miss ``second_color`` so that it is a path endpoint.
    """
    path = []
    x, color = start, first_color
    while at[x][color] != -1:
        y = at[x][color]
        path.append((x, y))
        x = y
        color = second_color if color == first_color else first_color
    return path


def vizing_color(graph: RegularGraph) -> EdgeColoring:
    """Proper edge coloring with at most d+1 colors, deterministic.

    Per edge: first the smallest color free at both endpoints; when none
    exists, the fan-rotation construction on the d+1 palette (build a
    maximal fan, invert one alternating path, rotate a fan prefix).
    A final pass tries to drain the rarest color class via direct
    recolorings and single Kempe-chain inversions, which is what turns
    even cycles into 2 colors and K_4 into 3 instead of wasting the
    spare color.
    """
    n, d = graph.n, graph.d
    edges = graph.edges()
    palette = d + 1
    at = [[-1] * palette for _ in range(n)]
    color_of: dict[tuple[int, int], int] = {}

    def key(a, b):
        return (a, b) if a < b else (b, a)

    def assign(a, b, c):
        at[a][c] = b
        at[b][c] = a
        color_of[key(a, b)] = c

    def unassign(a, b):
        c = color_of.pop(key(a, b))
        at[a][c] = -1
        at[b][c] = -1
        return c

    def free(x):
        for c in range(palette):
            if at[x][c] == -1:
                return c
        raise RotwalkError("internal defect: vertex saturated a d+1 palette")

    def invert(path, first_color, second_color):
        # Two-phase so intermediate states never hold a double color.
        for a, b in path:
            unassign(a, b)
        for i, (a, b) in enumerate(path):
            assign(a, b, second_color if i % 2 == 0 else first_color)

    for u, v in edges:
        shared = next(
            (c for c in range(palette) if at[u][c] == -1 and at[v][c] == -1), -1
        )
        if shared != -1:
            assign(u, v, shared)
            continue
        # Maximal fan of u starting at v: each next spoke's color is free
        # at the previous fan vertex.
        fan = [v]
        in_fan = {v}
        while True:
            last = fan[-1]
            for c in range(palette):
                w = at[u][c]
                if at[last][c] == -1 and w != -1 and w not in in_fan:
                    fan.append(w)
                    in_fan.add(w)
                    break
            else:
                break
        cu = free(u)
        cl = free(fan[-1])
        if at[u][cl] != -1:
            invert(_alternating_path(at, u, cl, cu), cl, cu)
        # cl is now free at u; find the shortest fan prefix whose tip
        # also misses cl and which is still a fan after the inversion.
        for target in range(len(fan)):
            if at[fan[target]][cl] == -1 and all(
                at[fan[j - 1]][color_of[key(u, fan[j])]] == -1 for j in range(1, target + 1)
            ):
                break
        else:
            raise RotwalkError("internal defect: no rotatable fan prefix")
        for j in range(target):
            c = unassign(u, fan[j + 1])
            assign(u, fan[j], c)
        assign(u, fan[target], cl)

    # Drain pass: try to empty the rarest color class.
    used, counts = np.unique([color_of[key(u, v)] for u, v in edges], return_counts=True)
    if len(used) > d:
        rare = int(used[counts == counts.min()].max())
        for u, v in edges:
            if color_of.get(key(u, v)) != rare:
                continue
            unassign(u, v)
            shared = next(
                (
                    c
                    for c in range(palette)
                    if c != rare and at[u][c] == -1 and at[v][c] == -1
                ),
                -1,
            )
            if shared != -1:
                assign(u, v, shared)
                continue
            # No color is free at both ends, so a != b.  b is busy at u;
            # invert u's (b, a)-path unless it runs into v, then b is free
            # at both ends.
            free_u = [c for c in range(palette) if c != rare and at[u][c] == -1]
            free_v = [c for c in range(palette) if c != rare and at[v][c] == -1]
            for a, b in product(free_u, free_v):
                path = _alternating_path(at, u, b, a)
                if all(y != v for _, y in path):
                    invert(path, b, a)
                    assign(u, v, b)
                    break
            else:
                assign(u, v, rare)

    raw = [color_of[key(u, v)] for u, v in edges]
    dense = {c: i for i, c in enumerate(sorted(set(raw)))}
    labels = tuple(dense[c] for c in raw)
    return EdgeColoring(tuple(edges), labels, len(dense))


def _excess(counts_at) -> int:
    """Conflicts at one vertex: occurrences beyond the first of each label."""
    return sum(k - 1 for k in counts_at if k > 1)


def _cheapest_labels(counts_u, counts_v, candidates):
    """The candidate labels used by the fewest endpoints of an edge whose
    endpoints hold the label counts ``counts_u`` and ``counts_v``, in
    candidate order."""
    cost = [int(counts_u[c] > 0) + int(counts_v[c] > 0) for c in candidates]
    lowest = min(cost)
    return [c for c, k in zip(candidates, cost) if k == lowest]


def _least_damage(n, d, edges, labels, order):
    """Give every edge whose label is d or more, visited in ``order``, the
    cheapest label in 0..d-1 (ties to the lowest).  Returns the labels and
    the (n, d) per-vertex label counts."""
    labels = list(labels)
    counts = [[0] * d for _ in range(n)]
    for (u, v), c in zip(edges, labels):
        if c < d:
            counts[u][c] += 1
            counts[v][c] += 1
    for e in order:
        if labels[e] < d:
            continue
        u, v = edges[e]
        c = _cheapest_labels(counts[u], counts[v], range(d))[0]
        labels[e] = c
        counts[u][c] += 1
        counts[v][c] += 1
    return labels, counts


def _color(graph: RegularGraph, config: SolverConfig) -> SolverOutcome:
    """The greedy-coloring or vizing method: color, then force the labels
    into 0..d-1; a forced labeling with no conflict left is still solved."""
    start = time.perf_counter()
    d = graph.d
    coloring = greedy_coloring(graph) if config.method == "greedy-coloring" else vizing_color(graph)
    labels, best = coloring.labels, 0
    if coloring.num_colors > d:
        labels, counts = _least_damage(graph.n, d, coloring.edges, labels, range(len(labels)))
        best = sum(map(_excess, counts))
    rot = rotation_from_coloring(graph, labels) if best == 0 else None
    stats = SolverStats(len(coloring.edges), 0, (time.perf_counter() - start) * 1000.0, best)
    return _outcome(graph, config, stats, rot)


# ---------------------------------------------------------------------------
# Local search with Kempe-chain moves


def _local_search(graph: RegularGraph, config: SolverConfig) -> SolverOutcome:
    """Minimize the repeated-incident-label count over full d-labelings.

    Objective: sum over vertices of (occurrences - 1) for each over-used
    label; zero means a proper d-edge-coloring.  Moves: relabel one
    conflicted edge to a least-damage label (ties broken by the seeded
    rng), or with probability 1/4 invert a random two-label Kempe
    component through a conflicted edge.  Only relabels change the
    objective: a Kempe swap is a plateau move.  Fresh randomized-greedy
    labelings per restart; the best restart wins, ties to the earliest.
    """
    start = time.perf_counter()
    n, d = graph.n, graph.d
    edges = graph.edges()
    m = len(edges)
    edges_at = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        edges_at[u].append(e)
        edges_at[v].append(e)

    trace: list[int] = []
    total_iterations = 0
    restarts_run = 0
    best_conflicts = None
    best_labels = None
    timed_out = False

    for restart in range(config.max_restarts):
        if timed_out:
            break
        restarts_run += 1
        rng = random.Random(config.seed * 1_000_003 + restart)

        order = list(range(m))
        rng.shuffle(order)
        labels, counts = _least_damage(n, d, edges, [d] * m, order)
        score = np.array([_excess(row) for row in counts], dtype=np.int64)
        conflicts = int(score.sum())

        iterations = 0
        while conflicts > 0 and iterations < config.max_iterations:
            if time.perf_counter() - start > config.time_budget:
                timed_out = True
                break
            iterations += 1
            trace.append(conflicts)

            hot = np.flatnonzero(score)
            v = int(hot[rng.randrange(len(hot))])
            over = [c for c in range(d) if counts[v][c] > 1]
            a = over[rng.randrange(len(over))]
            offenders = [e for e in edges_at[v] if labels[e] == a]
            e = offenders[rng.randrange(len(offenders))]
            others = [c for c in range(d) if c != a]

            if rng.random() < 0.25:
                b = others[rng.randrange(len(others))]
                component = _kempe_component(edges, edges_at, labels, e, a, b)
                moves = [(ce, b if labels[ce] == a else a) for ce in component]
                # The component holds every a- and b-labeled edge at each
                # vertex it touches, so the swap exchanges those two counts
                # there and no vertex's excess changes.
                rescore = ()
            else:
                # Taking label a off e lowers the cost equally for every
                # candidate, so only the endpoints already using c count.
                eu, ev = rescore = edges[e]
                choices = _cheapest_labels(counts[eu], counts[ev], others)
                moves = [(e, choices[rng.randrange(len(choices))])]
            for ce, new in moves:
                old = labels[ce]
                labels[ce] = new
                for x in edges[ce]:
                    counts[x][old] -= 1
                    counts[x][new] += 1
            for x in rescore:
                excess = _excess(counts[x])
                conflicts += excess - int(score[x])
                score[x] = excess

        total_iterations += iterations
        if best_conflicts is None or conflicts < best_conflicts:
            best_conflicts = conflicts
            best_labels = list(labels)
        if best_conflicts == 0:
            break

    wall = (time.perf_counter() - start) * 1000.0
    stats = SolverStats(total_iterations, restarts_run, wall, best_conflicts, tuple(trace))
    rot = rotation_from_coloring(graph, best_labels) if best_conflicts == 0 else None
    return _outcome(graph, config, stats, rot)


def _kempe_component(edges, edges_at, labels, e0, a, b):
    """Edge ids of the connected {a, b}-labeled subgraph containing e0.

    Well-defined for improper labelings too, where the component may
    branch instead of forming a simple path or cycle.
    """
    component = {e0}
    stack = [edges[e0][0], edges[e0][1]]
    seen = set(stack)
    while stack:
        x = stack.pop()
        for e in edges_at[x]:
            if e not in component and labels[e] in (a, b):
                component.add(e)
                for y in edges[e]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
    return component


# ---------------------------------------------------------------------------
# Exhaustive oracle


def exhaustive_search(graph: RegularGraph, config: SolverConfig) -> SolverOutcome:
    """Complete backtracking for either criterion on small instances.

    The only method entitled to return infeasible-proven, and only for
    the involution criterion: every regular graph has a permutation
    labeling (solve_permutation constructs one).  Symmetry pruning fixes
    vertex 1's labels: its edges (involution) or its row (permutation)
    can always be brought to canonical order by renaming labels, so the
    restricted search is still complete.
    """
    config = replace(config, method="exhaustive")
    n, d = graph.n, graph.d
    if n * d > config.exhaustive_ceiling:
        raise ConfigError(
            f"instance has {n * d} arc slots, above the exhaustive ceiling "
            f"{config.exhaustive_ceiling}"
        )
    start = time.perf_counter()
    if config.criterion == "involution":
        rot, nodes, deepest, timed_out = _exhaustive_coloring(graph, config, start)
        total = n * d // 2
    else:
        rot, nodes, deepest, timed_out = _exhaustive_rows(graph, config, start)
        total = n
    stats = SolverStats(nodes, 0, (time.perf_counter() - start) * 1000.0, total - deepest)
    if rot is not None or timed_out:
        return _outcome(graph, config, stats, rot)
    if config.criterion == "permutation":
        raise RotwalkError("internal defect: exhaustive search missed a permutation labeling")
    certificate = (
        f"complete backtracking over {d}-label colorings of {total} edges "
        f"(vertex 1's labels fixed by symmetry) explored {nodes} assignments; "
        "no proper coloring exists"
    )
    return _outcome(graph, config, stats, certificate=certificate)


def _backtrack(first, last, options, place, lift, config, start):
    """Depth-first search placing one option per level first..last-1.

    Runs on an explicit stack, so depth is bounded by memory rather than
    the interpreter's recursion limit.  ``options(level)`` lazily yields
    the level's candidates that fit the current placement, in visit
    order; each is ``place``d in turn and the search descends, and
    ``lift`` undoes it on the way back.  Every placed option counts as a
    node; the time budget is checked every 4096 nodes.  Returns (found,
    nodes, deepest level reached, timed_out).
    """
    nodes, deepest = 0, first
    if first == last:
        return True, nodes, deepest, False
    pending = [options(first)]
    placed = []
    while pending:
        level = first + len(pending) - 1
        if len(placed) == len(pending):
            lift(level, placed.pop())
        option = next(pending[-1], None)
        if option is None:
            pending.pop()
            continue
        nodes += 1
        if nodes % 4096 == 0 and time.perf_counter() - start > config.time_budget:
            return False, nodes, deepest, True
        place(level, option)
        placed.append(option)
        deepest = max(deepest, level + 1)
        if level + 1 == last:
            return True, nodes, deepest, False
        pending.append(options(level + 1))
    return False, nodes, deepest, False


def _exhaustive_coloring(graph, config, start):
    """Backtrack proper d-edge-colorings; vertex 0's edges pinned to 0..d-1.
    Returns (map or None, nodes, deepest level, timed_out)."""
    n, d = graph.n, graph.d
    edges = graph.edges()
    busy = [[False] * d for _ in range(n)]
    labels = [-1] * len(edges)

    def options(idx):
        u, v = edges[idx]
        return (c for c in range(d) if not (busy[u][c] or busy[v][c]))

    def place(idx, c):
        u, v = edges[idx]
        labels[idx] = c
        busy[u][c] = busy[v][c] = True

    def lift(idx, c):
        u, v = edges[idx]
        labels[idx] = -1
        busy[u][c] = busy[v][c] = False

    # Sorted edges put vertex 0's d edges first, in neighbor order.
    for c in range(d):
        place(c, c)
    found, nodes, deepest, timed_out = _backtrack(
        d, len(edges), options, place, lift, config, start
    )
    return rotation_from_coloring(graph, labels) if found else None, nodes, deepest, timed_out


def _exhaustive_rows(graph, config, start):
    """Backtrack neighbor orderings per vertex; vertex 0's row pinned ascending.
    Returns (map or None, nodes, deepest level, timed_out)."""
    n, d = graph.n, graph.d
    taken = [[False] * n for _ in range(d)]
    rows = [[0] * d for _ in range(n)]

    def options(v):
        return (
            perm for perm in permutations(graph.neighbors[v])
            if not any(taken[j][w] for j, w in enumerate(perm))
        )

    def place(v, perm):
        rows[v] = [int(w) for w in perm]
        for j, w in enumerate(perm):
            taken[j][w] = True

    def lift(v, perm):
        for j, w in enumerate(perm):
            taken[j][w] = False

    place(0, graph.neighbors[0])
    found, nodes, deepest, timed_out = _backtrack(1, n, options, place, lift, config, start)
    return RotationMap(np.array(rows, dtype=np.int64)) if found else None, nodes, deepest, timed_out
