"""Searching for consistent rotation maps on regular graphs.

Two different problems hide behind "consistent", and they have very
different difficulty:

* permutation criterion — every rotation-map column a permutation.  This
  is solvable in polynomial time for EVERY regular graph: the arcs of a
  d-regular graph form a d-regular bipartite graph (left copy of V to
  right copy of V, one edge per arc), which always decomposes into d
  perfect matchings; each matching becomes one column.  Implemented by
  the ``matching`` method: an Euler partition in NumPy halves the arc
  graph whenever its degree is even (Gabow 1976), and a graph or half of
  odd degree first gives up one matching to SciPy's Hopcroft-Karp
  (``maximum_bipartite_matching``), so a power-of-two d never imports
  SciPy.

* involution criterion — every label class a perfect matching, i.e. a
  proper d-edge-coloring of a d-regular graph.  Deciding whether one
  exists is the hard "Class 1 vs Class 2" question, so this side is a
  heuristic suite: ``greedy-coloring``, ``vizing`` (Misra-Gries on a
  d+1 palette plus a pass that tries to empty the extra color class),
  and ``local-search`` (Kempe-chain moves with random restarts).

  ``exhaustive`` backtracking is the ground-truth oracle on small
  instances (n*d bounded by a configured ceiling): a complete search for
  a proper d-edge-coloring, and the only method allowed to claim
  infeasibility.

``solve`` is the one dispatcher from (criterion, method) to a solver,
and an outcome's status is one rule read from what it holds: a map
means ``solved``, a certificate ``infeasible-proven``, anything else
``budget-exhausted``.  Every solver returns through one gate that runs
the rotmap checker of the config's criterion once on every map, and a
map that fails it is an internal defect: the checker, not the solver,
is the source of truth.

The hand-written searches break ties by lowest vertex index then lowest
label, the Euler split pairs arcs in table and stable-sort order, SciPy's
matching is deterministic too, and all randomness flows from the config
seed, so identical (graph, config) inputs reproduce identical outcomes
and stats (wall-clock time aside).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .errors import ConfigError, RotwalkError
from .graphs import RegularGraph, _integers
from .rotmap import CHECKERS, CRITERIA, METHODS, RotationMap


@dataclass(frozen=True)
class SolverConfig:
    """Criterion, method, seed, and budgets for one solve.

    ``max_iterations`` caps each local-search restart; ``time_budget``
    (seconds) is a soft wall-clock guard checked between iterations, so
    runs whose iteration caps bind first stay fully deterministic.
    ``exhaustive_ceiling`` caps n*d for the exhaustive method.
    ``matching`` reads no budget: it is one whole-array polynomial kernel
    that always solves and has no partial result to stop at, so its time
    grows with the graph (14.7 s at n = 10**6, d = 8 on a 2-vCPU host).
    ``greedy-coloring`` and ``vizing`` read none either: each colors every
    edge once.
    The seed and the three counts must be integers (``operator.index``
    values, so not 2.5, NaN or a string).
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
        names = ("seed", "max_iterations", "max_restarts", "exhaustive_ceiling")
        values = _integers(
            ConfigError, "seed, max_iterations, max_restarts and exhaustive_ceiling",
            tuple(getattr(self, name) for name in names),
        )
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)  # frozen; a NumPy integer is stored as an int
        if self.max_iterations < 1 or self.max_restarts < 1:
            raise ConfigError("iteration and restart budgets must be positive")
        try:
            finite = math.isfinite(self.time_budget)  # a TypeError for "5", None or 1j
        except TypeError:
            finite = False
        if not (finite and self.time_budget > 0):
            raise ConfigError(f"time budget must be positive and finite, got {self.time_budget}")
        if self.exhaustive_ceiling < 1:
            raise ConfigError("exhaustive ceiling must be positive")


@dataclass(frozen=True)
class SolverStats:
    """iterations: matchings computed (d) / edges colored / labels placed
    by the exhaustive search / local-search moves, depending on method.
    conflict_trace records the conflict count at each local-search
    iteration (empty otherwise).  best_conflicts is 0 for solved
    outcomes; for coloring heuristics it is the conflict count of the
    best labeling found, and for exhaustive outcomes the fewest edges
    left unlabeled over all partial assignments."""

    iterations: int
    restarts: int
    wall_ms: float
    best_conflicts: int
    conflict_trace: tuple[int, ...] = ()


@dataclass(frozen=True)
class SolverOutcome:
    criterion: str
    method: str
    seed: int
    n: int
    d: int
    rotation_map: RotationMap | None
    certificate: str | None
    stats: SolverStats

    def __post_init__(self):
        # n and d are fields for the outcomes that have no map.
        rot = self.rotation_map
        if rot is not None and (rot.n, rot.d) != (self.n, self.d):
            raise ConfigError(f"rotation map is {rot.n} x {rot.d}, outcome is {self.n} x {self.d}")

    @property
    def status(self) -> str:
        """The one outcome rule: a map means solved, else a certificate
        infeasible-proven, else budget-exhausted."""
        if self.rotation_map is not None:
            return "solved"
        return "budget-exhausted" if self.certificate is None else "infeasible-proven"


def solve(graph: RegularGraph, config: SolverConfig | None = None) -> SolverOutcome:
    """Dispatch to the solver matching (criterion, method)."""
    if config is None:
        config = SolverConfig()
    if config.method == "matching":
        if config.criterion != "permutation":
            raise ConfigError("the matching method solves the permutation criterion only")
        return solve_permutation(graph, config)
    if config.criterion != "involution":
        raise ConfigError(f"method {config.method!r} targets the involution criterion only")
    if config.method == "exhaustive":
        return exhaustive_search(graph, config)
    if config.method == "local-search":
        return _local_search(graph, config)
    return _color(graph, config)


def _outcome(graph, config, stats, rot=None, certificate=None) -> SolverOutcome:
    """The outcome of one solve under ``config``.  A map that fails the
    checker of the config's criterion is a defect."""
    if rot is not None and not CHECKERS[config.criterion](rot).consistent:
        raise RotwalkError(
            f"internal defect: {config.method} output failed the {config.criterion} checker"
        )
    return SolverOutcome(
        config.criterion, config.method, config.seed, graph.n, graph.d, rot, certificate, stats,
    )


# ---------------------------------------------------------------------------
# Permutation criterion: matching decomposition


def solve_permutation(graph: RegularGraph, config: SolverConfig | None = None) -> SolverOutcome:
    """Decompose the arc graph into d perfect matchings; always solves.

    Each column of the output is one matching.  An even-width arc table
    splits into two tables of half the width along an Euler partition;
    an odd width first gives up one perfect matching.  Every piece stays
    a regular bipartite arc table, so it always decomposes — a failure
    would be a defect, not a search miss, and raises.
    """
    config = replace(config or SolverConfig(), criterion="permutation", method="matching")
    start = time.perf_counter()
    columns = _matching_columns(graph.neighbors)
    stats = SolverStats(len(columns), 0, (time.perf_counter() - start) * 1000.0, 0)
    return _outcome(graph, config, stats, RotationMap(np.column_stack(columns)))


def _matching_columns(table: np.ndarray) -> list[np.ndarray]:
    """The perfect matchings of a regular bipartite arc table, one column each.

    Row u of the (n, width) table lists the right vertices joined to left
    vertex u, and every right vertex occurs ``width`` times in all.
    """
    n, width = table.shape
    if width == 1:
        return [table[:, 0]]
    if width % 2 == 0:
        first, second = _euler_halves(table)
        return _matching_columns(first) + _matching_columns(second)
    match = _perfect_matching(table)
    return [match] + _matching_columns(table[table != match[:, None]].reshape(n, width - 1))


def _euler_halves(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split an even-width arc table into two tables of half the width.

    Pair the arcs at each left vertex (row slots 2k and 2k+1) and at each
    right vertex (consecutive arcs in a stable sort of the heads).  The
    pairs link the arcs into closed trails that alternate left and right
    pairs, so each trail has even length; giving its arcs alternately to
    the two halves leaves every vertex on both sides half its arcs in
    each (Gabow 1976).  The alternation is whole-array: the arcs two
    steps apart along a trail form one orbit of ``right[left]``, the two
    orbits of a trail are each other's left partners, and pointer
    doubling labels every orbit by its smallest arc.  An arc goes to the
    first half when its label is below its left partner's.
    """
    n, width = table.shape
    heads = table.ravel()
    # Every table stays below the stub ceiling, so arc indices fit int32.
    arcs = np.arange(n * width, dtype=np.int32)
    left = arcs ^ 1
    by_head = _stable_order(heads, n).astype(np.int32, copy=False)
    right = np.empty_like(arcs)
    right[by_head[0::2]] = by_head[1::2]
    right[by_head[1::2]] = by_head[0::2]
    jump = right.take(left)
    label = arcs
    # After k rounds a label is the smallest arc within 2**k jumps; a
    # round that changes no label leaves each orbit's minimum everywhere.
    while True:
        lower = np.minimum(label, label.take(jump))
        if (lower == label).all():
            break
        label = lower
        jump = jump.take(jump)
    first = label < label.take(left)
    return heads[first].reshape(n, width // 2), heads[~first].reshape(n, width // 2)


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative keys below
    ``bound``, as a radix sort over 16-bit digits: NumPy sorts 16-bit
    keys stably by counting, several times faster than a comparison sort."""
    order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    shift = 16
    while bound > 1 << shift:
        digit = ((keys.take(order) >> shift) & 0xFFFF).astype(np.uint16)
        order = order.take(np.argsort(digit, kind="stable"))
        shift += 16
    return order


def _perfect_matching(table: np.ndarray) -> np.ndarray:
    """One perfect matching of a regular bipartite arc table, by SciPy's
    Hopcroft-Karp: entry u is the right vertex matched to left vertex u."""
    # Imported here so that every other command, and every even width,
    # runs without SciPy.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    n, width = table.shape
    indptr = np.arange(0, n * width + 1, width)
    arcs = csr_matrix((np.ones(n * width, dtype=np.int8), table.ravel(), indptr), (n, n))
    match = maximum_bipartite_matching(arcs, perm_type="column")
    if (match == -1).any():
        raise RotwalkError("internal defect: residual arc graph lost its perfect matching")
    return match


# ---------------------------------------------------------------------------
# Involution criterion: edge colorings


def _rotation_from_coloring(graph: RegularGraph, labels) -> RotationMap:
    """The rotation map whose label classes are the color classes of a
    proper d-edge-coloring (labels over graph.edges() order): edge (u, v)
    of color c takes the slots (u, c) and (v, c).  The caller proves the
    coloring proper; ``_outcome``'s checker re-checks the map."""
    n, d = graph.n, graph.d
    pairs = graph.edges()
    # m = n*d/2 edges placed without a repeat fill all n*d slots.
    entries = np.empty(n * d, dtype=np.int64)
    entries[pairs * d + np.asarray(labels, dtype=np.int64)[:, None]] = pairs[:, ::-1]
    return RotationMap(entries.reshape(n, d))


def _greedy_coloring(graph: RegularGraph) -> np.ndarray:
    """Smallest free color per edge, edges in sorted order, open palette:
    the int64 labels over ``graph.edges()``, colors dense from 0."""
    busy = [set() for _ in range(graph.n)]
    labels = []
    for u, v in graph.edges().tolist():
        c = 0
        while c in busy[u] or c in busy[v]:
            c += 1
        labels.append(c)
        busy[u].add(c)
        busy[v].add(c)
    return np.array(labels, dtype=np.int64)


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


def _vizing_color(graph: RegularGraph) -> np.ndarray:
    """Proper edge coloring with at most d+1 colors, deterministic: the
    int64 labels over ``graph.edges()``, colors dense from 0.

    Per edge: first the smallest color free at both endpoints; when none
    exists, the fan-rotation construction on the d+1 palette (build a
    maximal fan, invert one alternating path, rotate a fan prefix).
    A final pass tries to drain the rarest color class via direct
    recolorings and single Kempe-chain inversions, which is what turns
    even cycles into 2 colors and K_4 into 3 instead of wasting the
    spare color.
    """
    n, d = graph.n, graph.d
    edges = graph.edges().tolist()
    palette = d + 1
    # at[x][c] is the neighbor joined to x by color c (-1 if none); the
    # color of edge (a, b) is at[a].index(b).
    at = [[-1] * palette for _ in range(n)]

    def assign(a, b, c):
        at[a][c] = b
        at[b][c] = a

    def unassign(a, b):
        c = at[a].index(b)
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
                at[fan[j - 1]][at[u].index(fan[j])] == -1 for j in range(1, target + 1)
            ):
                break
        else:
            raise RotwalkError("internal defect: no rotatable fan prefix")
        for j in range(target):
            c = unassign(u, fan[j + 1])
            assign(u, fan[j], c)
        assign(u, fan[target], cl)

    # Drain pass: try to empty the rarest color class.
    used, counts = np.unique([at[u].index(v) for u, v in edges], return_counts=True)
    if len(used) > d:
        rare = int(used[counts == counts.min()].max())
        for u, v in edges:
            if at[u][rare] != v:
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

    return np.unique([at[u].index(v) for u, v in edges], return_inverse=True)[1]


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
    labels = _greedy_coloring(graph) if config.method == "greedy-coloring" else _vizing_color(graph)
    best = 0
    if (labels >= d).any():
        labels, counts = _least_damage(
            graph.n, d, graph.edges().tolist(), labels.tolist(), range(len(labels))
        )
        best = int(np.maximum(np.array(counts) - 1, 0).sum())
    rot = _rotation_from_coloring(graph, labels) if best == 0 else None
    stats = SolverStats(len(labels), 0, (time.perf_counter() - start) * 1000.0, best)
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
    edge_array = graph.edges()
    edges = edge_array.tolist()
    m = len(edges)
    edges_at = _edges_at(edge_array, n)

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
        score = np.maximum(np.array(counts) - 1, 0).sum(axis=1)
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
    rot = _rotation_from_coloring(graph, best_labels) if best_conflicts == 0 else None
    return _outcome(graph, config, stats, rot)


def _edges_at(edges: np.ndarray, n: int) -> list[list[int]]:
    """Each vertex's edge ids, ascending, from an (m, 2) edge array in
    which every vertex of 0..n-1 occurs equally often: one stable sort of
    the endpoints by vertex, two endpoints per edge."""
    return (np.argsort(edges.ravel(), kind="stable") // 2).reshape(n, -1).tolist()


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
    """Complete backtracking for the involution criterion on small instances.

    Searches for a proper d-edge-coloring of the graph's edges; the only
    method that can end infeasible-proven.  The permutation criterion
    needs no search: ``solve_permutation`` always solves it (König 1916).
    Symmetry pruning fixes vertex 1's labels: its edges come first in
    ``graph.edges()`` and can always be brought to canonical order by
    renaming labels, so the restricted search is still complete.
    Edges are tried in ``graph.edges()`` order, so the labels placed
    (``stats.iterations``) depend on the vertex numbering, not only on
    the graph: renumberings of the flower snark J5 are proven infeasible
    after 595 to 8782 labels.
    """
    config = replace(config, criterion="involution", method="exhaustive")
    n, d = graph.n, graph.d
    if n * d > config.exhaustive_ceiling:
        raise ConfigError(
            f"instance has {n * d} arc slots, above the exhaustive ceiling "
            f"{config.exhaustive_ceiling}"
        )
    start = time.perf_counter()
    ends = graph.edges().tolist()
    labels, nodes, deepest, timed_out = _proper_coloring(ends, n, d, config, start)
    rot = _rotation_from_coloring(graph, labels) if labels is not None else None
    stats = SolverStats(nodes, 0, (time.perf_counter() - start) * 1000.0, len(ends) - deepest)
    if rot is not None or timed_out:
        return _outcome(graph, config, stats, rot)
    certificate = (
        f"complete backtracking over {d}-label colorings of {len(ends)} edges "
        f"(vertex 1's labels fixed by symmetry) explored {nodes} assignments; "
        "no proper coloring exists"
    )
    return _outcome(graph, config, stats, certificate=certificate)


def _proper_coloring(ends, n, d, config, start):
    """Depth-first search for a proper d-coloring of the edges ``ends``
    of an n-vertex graph (``graph.edges()`` as lists, vertex 1's first),
    with edge i < d pinned to label i.

    Every later edge tries its free labels in ascending order, on an
    explicit stack, so depth is bounded by memory rather than the
    interpreter's recursion limit.  Every placed label counts as a node;
    the time budget is checked every 4096 nodes.  Returns (labels or
    None, nodes, deepest number of edges labeled, timed_out).
    """
    m = len(ends)
    busy = [[False] * d for _ in range(n)]
    labels = list(range(d)) + [-1] * (m - d)
    for c, (u, v) in enumerate(ends[:d]):
        busy[u][c] = busy[v][c] = True
    nodes, deepest, level, c = 0, d, d, 0
    while d <= level < m:
        at_u, at_v = busy[ends[level][0]], busy[ends[level][1]]
        while c < d and (at_u[c] or at_v[c]):
            c += 1
        if c < d:
            nodes += 1
            if nodes % 4096 == 0 and time.perf_counter() - start > config.time_budget:
                return None, nodes, deepest, True
            labels[level] = c
            at_u[c] = at_v[c] = True
            level += 1
            deepest = max(deepest, level)
            c = 0
            continue
        # Every label failed here: lift the previous edge's, try its next.
        level -= 1
        if level >= d:
            u, v = ends[level]
            c = labels[level]
            busy[u][c] = busy[v][c] = False
            c += 1
    return (labels if level == m else None), nodes, deepest, False
