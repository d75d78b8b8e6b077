import hashlib
import json
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import rotwalk
from rotwalk import (
    ConfigError,
    GenerationError,
    GraphStructureError,
    RegularGraph,
    SolverConfig,
    SolverOutcome,
    SolverStats,
    ValidationError,
    WalkState,
    build_coin,
    build_shift,
    check_involution_consistent,
    check_permutation_consistent,
    circulant_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    cycle_rotation,
    exhaustive_search,
    generate_graph,
    hypercube_graph,
    init_state,
    random_regular_graph,
    run,
    solve,
    solve_permutation,
    torus_graph,
    uniform_state,
    unitarity_defect,
    validate_against_graph,
)
from rotwalk.solvers import (
    _edges_at,
    _euler_halves,
    _greedy_coloring,
    _kempe_component,
    _rotation_from_coloring,
    _stable_order,
    _vizing_color,
)

from oracles import (
    brute_force_edge_coloring,
    defect_by_dense_product,
    is_proper_edge_coloring,
    kempe_component_by_bfs,
    random_regular_by_pairing,
    rotation_from_coloring_by_loop,
)

PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
]

REPORT_KEYS = [
    "version", "status", "criterion", "method", "seed",
    "n", "d", "iterations", "restarts", "best_conflicts", "wall_ms",
]


def petersen():
    return RegularGraph.from_edges(10, PETERSEN_EDGES)


def small_regular_graphs():
    """Regular graphs with n*d <= 40: cycles, complete graphs, K_{m,m}
    (K_{3,3} among them), hypercubes, the 3x3 torus, two circulants,
    Petersen, and three random-regular seeds per (n, d)."""
    graphs = [cycle_graph(n) for n in range(3, 21)]
    graphs += [complete_graph(n) for n in range(2, 7)]
    graphs += [complete_bipartite_graph(m) for m in range(1, 5)]
    graphs += [hypercube_graph(k) for k in range(1, 4)]
    graphs += [torus_graph(3, 3), circulant_graph(10, [1, -1, 5]),
               circulant_graph(8, [1, -1, 2, -2, 4])]
    graphs += [petersen()]
    graphs += [
        random_regular_graph(n, d, seed=seed)
        for n in range(2, 41) for d in range(1, n) if n * d <= 40 and n * d % 2 == 0
        for seed in range(3)
    ]
    return graphs


class TestPermutationMatching:
    def test_solves_standard_graphs(self):
        for g in [cycle_graph(4), complete_graph(5), hypercube_graph(3),
                  complete_bipartite_graph(4), torus_graph(3, 5)]:
            outcome = solve_permutation(g)
            assert outcome.status == "solved"
            assert check_permutation_consistent(outcome.rotation_map).consistent
            validate_against_graph(outcome.rotation_map, g)
            assert unitarity_defect(outcome.rotation_map).defect == 0
            assert outcome.certificate is None

    def test_solves_random_graphs(self):
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randrange(8, 60)
            d = rng.randrange(3, 9)
            if (n * d) % 2:
                n += 1
            g = random_regular_graph(n, d, seed=rng.randrange(10**6))
            outcome = solve_permutation(g)
            assert outcome.status == "solved"
            assert check_permutation_consistent(outcome.rotation_map).consistent
            validate_against_graph(outcome.rotation_map, g)

    def test_outcome_metadata(self):
        outcome = solve_permutation(cycle_graph(4))
        assert outcome.criterion == "permutation"
        assert outcome.method == "matching"
        assert (outcome.n, outcome.d) == (4, 2)
        assert outcome.stats.iterations == 2  # one matching per label

    def test_deterministic(self):
        g = random_regular_graph(40, 5, seed=9)
        a = solve_permutation(g)
        b = solve_permutation(g)
        assert a.rotation_map == b.rotation_map
        assert a.stats.iterations == b.stats.iterations

    @pytest.mark.parametrize("d", [1, 2, 4, 8, 16, 32, 3, 5, 6, 7, 9, 10, 12])
    def test_every_degree(self, d):
        # Powers of two split by Euler partitions alone; odd and mixed
        # degrees also peel matchings at their odd widths.
        for n in (2 * d + 2, 300):
            g = random_regular_graph(n, d, seed=d)
            outcome = solve_permutation(g)
            rot = outcome.rotation_map
            assert outcome.status == "solved"
            assert outcome.stats.iterations == d
            assert check_permutation_consistent(rot).consistent
            validate_against_graph(rot, g)
            if n * d <= 600:
                assert defect_by_dense_product(rot.entries) == 0

    def test_default_config_is_matching(self):
        g = random_regular_graph(30, 4, seed=5)
        outcome = solve(g)
        assert (outcome.status, outcome.criterion, outcome.method) == ("solved", "permutation", "matching")
        assert outcome.rotation_map == solve(g, SolverConfig()).rotation_map

    def test_permutation_solves_every_small_regular_graph(self):
        # Every regular graph has a permutation labeling (König 1916), and
        # the matching method finds one on each graph of the small corpus.
        cfg = SolverConfig()
        graphs = small_regular_graphs()
        assert len(graphs) > 100
        for g in graphs:
            outcome = solve(g, cfg)
            assert outcome.status == "solved", (g.n, g.d)
            assert check_permutation_consistent(outcome.rotation_map).consistent
            validate_against_graph(outcome.rotation_map, g)
            assert outcome.stats.best_conflicts == 0

    def test_memory_is_linear(self):
        # 160 000 arcs: the int32 index arrays of one split take 0.6 MB each.
        g = random_regular_graph(20000, 8, seed=3)
        tracemalloc.start()
        try:
            solve_permutation(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_golden_graph_maps_pass_every_check(self):
        for build in GOLDEN_GRAPHS.values():
            g = build()
            rot = solve_permutation(g).rotation_map
            assert check_permutation_consistent(rot).consistent
            validate_against_graph(rot, g)
            assert defect_by_dense_product(rot.entries) == 0

    def test_report_schema(self, cli_solve):
        code, report, _ = cli_solve(cycle_graph(4))
        assert code == 0
        assert list(report) == REPORT_KEYS
        assert report["version"] == 1
        assert report["status"] == "solved"
        assert isinstance(report["wall_ms"], (int, float))


class TestEulerHalves:
    @staticmethod
    def random_tables():
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 60))
            width = 2 * int(rng.integers(1, 6))
            # Columns of random permutations: a regular bipartite multigraph.
            yield np.column_stack([rng.permutation(n) for _ in range(width)])
        for n, d, seed in [(30, 4, 1), (50, 6, 2), (64, 8, 3), (40, 10, 4)]:
            yield random_regular_graph(n, d, seed=seed).neighbors

    def test_each_vertex_keeps_half_its_arcs_on_each_side(self):
        for table in self.random_tables():
            n, width = table.shape
            halves = _euler_halves(table)
            for half in halves:
                assert half.shape == (n, width // 2)
                assert (np.bincount(half.ravel(), minlength=n) == width // 2).all()
            rejoined = np.sort(np.hstack(halves), axis=1)
            assert (rejoined == np.sort(table, axis=1)).all()

    @pytest.mark.parametrize("bound", [1, 2, 2**16 - 1, 2**16, 2**16 + 1, 2**20, 2**33, 2**50])
    def test_radix_order_is_stable_argsort(self, bound):
        keys = np.random.default_rng(bound).integers(0, bound, 3000)
        assert (_stable_order(keys, bound) == np.argsort(keys, kind="stable")).all()


# A non-integer count, size or seed (a string seed among them), which each
# library layer refuses with its own error, as generate_graph refuses a
# float parameter.
NON_INTEGER_COUNTS = {
    "exhaustive ceiling nan": (ConfigError, lambda: SolverConfig(exhaustive_ceiling=float("nan"))),
    "max_iterations 2.5": (ConfigError, lambda: SolverConfig(max_iterations=2.5)),
    "max_restarts 3.0": (ConfigError, lambda: SolverConfig(max_restarts=3.0)),
    "circulant offsets": (GenerationError, lambda: circulant_graph(5, [1.5, 3.5])),
    "circulant n": (GenerationError, lambda: circulant_graph(5.0, [1, 4])),
    "random-regular n": (GenerationError, lambda: random_regular_graph(10.0, 3)),
    "random-regular max_tries": (GenerationError, lambda: random_regular_graph(10, 3, max_tries=2.5)),
    "cycle n": (GenerationError, lambda: cycle_graph(5.5)),
    "complete n": (GenerationError, lambda: complete_graph(4.0)),
    "complete-bipartite m": (GenerationError, lambda: complete_bipartite_graph(2.0)),
    "hypercube k": (GenerationError, lambda: hypercube_graph(2.0)),
    "torus rows": (GenerationError, lambda: torus_graph(3.0, 3)),
    "walk steps": (ConfigError, lambda: run(
        uniform_state(4, 2), build_coin("grover", 2), build_shift(cycle_rotation(4)), 2.5
    )),
    "start label": (ConfigError, lambda: init_state(4, 2, [(0.5, 0, 1.0)])),
    "start vertex": (ConfigError, lambda: init_state(4, 2, [(0, np.float64(1), 1.0)])),
    "state n": (ConfigError, lambda: uniform_state(2.0, 2)),
    "solver seed 2.5": (ConfigError, lambda: SolverConfig(seed=2.5)),
    "solver seed str": (ConfigError, lambda: SolverConfig(seed="1")),
    "random-regular seed 2.5": (GenerationError, lambda: random_regular_graph(10, 3, seed=2.5)),
    "random-regular seed list": (GenerationError, lambda: random_regular_graph(10, 3, seed=[1])),
    "random-regular seed str": (GenerationError, lambda: random_regular_graph(10, 3, seed="a")),
    "family seed": (GenerationError, lambda: generate_graph("random-regular", (10, 3), seed=1.5)),
    "from_edges n float": (GraphStructureError, lambda: RegularGraph.from_edges(4.0, [(0, 1), (2, 3)])),
    "from_edges n str": (GraphStructureError, lambda: RegularGraph.from_edges("4", [(0, 1), (2, 3)])),
    "from_edges n None": (GraphStructureError, lambda: RegularGraph.from_edges(None, [(0, 1), (2, 3)])),
    "cycle rotation n": (ValidationError, lambda: cycle_rotation(4.0)),
    "coin d": (ConfigError, lambda: build_coin("grover", 2.5)),
    "walk state n": (ConfigError, lambda: WalkState(2.0, 2, [1, 0, 0, 0])),
}


@pytest.mark.parametrize("case", list(NON_INTEGER_COUNTS))
def test_non_integer_counts_refused(case):
    error, call = NON_INTEGER_COUNTS[case]
    with pytest.raises(error, match="must be integers, got"):
        call()


def test_numpy_integer_config_reports_as_json():
    config = SolverConfig(seed=np.int64(3), max_iterations=np.int64(50))
    assert type(config.seed) is int and type(config.max_iterations) is int
    outcome = solve(random_regular_graph(10, 3, seed=1), config)
    assert type(outcome.seed) is int and json.loads(json.dumps(outcome.seed)) == 3


@pytest.mark.parametrize("support, message", [
    ([(0, 0, "x")], r"^amplitude 'x' is not a number$"),
    ([(0, 0)], r"^support entry \(0, 0\) must be \(label, vertex, amplitude\)$"),
    ([5], r"^support entry 5 must be"),
])
def test_malformed_support_refused(support, message):
    with pytest.raises(ConfigError, match=message):
        init_state(4, 2, support)


class TestEdgeColoringConversion:
    def test_proper_coloring_becomes_involution_map(self):
        g = cycle_graph(6)
        rot = _rotation_from_coloring(g, _vizing_color(g))
        assert check_involution_consistent(rot).consistent
        validate_against_graph(rot, g)

    def test_scatter_matches_loop_oracle(self):
        # Proper d-colorings only: the solvers prove a coloring proper
        # before they convert it.  Vizing's colorings that fit in d colors,
        # with their colors shuffled, which keeps them proper.
        rng = random.Random(15)
        converted = 0
        for _ in range(400):
            g = random_regular_graph(2 * rng.randrange(2, 9), rng.randrange(1, 4), seed=rng.randrange(99))
            labels = _vizing_color(g)
            if labels.max() >= g.d:
                continue
            colors = list(range(g.d))
            rng.shuffle(colors)
            labels = np.array(colors)[labels].tolist()
            expected = rotation_from_coloring_by_loop(g.n, g.d, g.edges().tolist(), labels)
            assert (_rotation_from_coloring(g, labels).entries == expected).all()
            converted += 1
        assert converted > 200, converted


class TestColoringHeuristics:
    def test_greedy_even_cycle(self):
        g = cycle_graph(6)
        labels = _greedy_coloring(g)
        assert labels.max() + 1 == 2
        assert is_proper_edge_coloring(g.edges().tolist(), labels, g.n)

    def test_vizing_color_counts(self):
        # frozen counts: even cycle 2, odd cycle 3, K4 3, cube 3, K5 5
        for g, colors in [(cycle_graph(6), 2), (cycle_graph(5), 3),
                          (complete_graph(4), 3), (hypercube_graph(3), 3),
                          (complete_graph(5), 5)]:
            labels = _vizing_color(g)
            assert labels.dtype == np.int64
            assert labels.max() + 1 == colors
            assert np.unique(labels).tolist() == list(range(colors))  # dense from 0
            assert is_proper_edge_coloring(g.edges().tolist(), labels, g.n)

    def test_vizing_never_exceeds_d_plus_one(self):
        rng = random.Random(22)
        for _ in range(40):
            n = rng.randrange(6, 40)
            d = rng.randrange(3, 8)
            if (n * d) % 2:
                n += 1
            g = random_regular_graph(n, d, seed=rng.randrange(10**6))
            labels = _vizing_color(g)
            assert labels.max() + 1 <= d + 1
            assert is_proper_edge_coloring(g.edges().tolist(), labels, g.n)

    def test_greedy_method_outcome(self):
        cfg = SolverConfig(criterion="involution", method="greedy-coloring")
        assert solve(cycle_graph(6), cfg).status == "solved"
        over = solve(cycle_graph(5), cfg)
        assert over.status == "budget-exhausted"
        assert over.stats.best_conflicts >= 1
        assert over.rotation_map is None

    def test_vizing_method_outcome(self):
        cfg = SolverConfig(criterion="involution", method="vizing")
        outcome = solve(hypercube_graph(3), cfg)
        assert outcome.status == "solved"
        assert check_involution_consistent(outcome.rotation_map).consistent

    def test_collapse_without_conflicts_is_solved(self):
        # vizing leaves a d+1 coloring here whose collapse to d labels has
        # no conflict left, which is a proper d-coloring.
        cfg = SolverConfig(criterion="involution", method="vizing")
        g = RegularGraph(random_regular_by_pairing(12, 4, seed=11))
        assert _vizing_color(g).max() + 1 == 5
        outcome = solve(g, cfg)
        assert outcome.status == "solved"
        assert outcome.stats.best_conflicts == 0
        assert check_involution_consistent(outcome.rotation_map).consistent
        validate_against_graph(outcome.rotation_map, g)


class TestLocalSearch:
    def test_solves_class_one_graphs(self):
        cfg = SolverConfig(criterion="involution", method="local-search", seed=3)
        for g in [cycle_graph(4), hypercube_graph(3),
                  complete_bipartite_graph(4), torus_graph(4, 5)]:
            outcome = solve(g, cfg)
            assert outcome.status == "solved"
            assert check_involution_consistent(outcome.rotation_map).consistent
            validate_against_graph(outcome.rotation_map, g)

    def test_budget_exhausted_on_petersen(self):
        for seed in range(5):
            cfg = SolverConfig(criterion="involution", method="local-search",
                               seed=seed, max_iterations=400, max_restarts=3)
            outcome = solve(petersen(), cfg)
            assert outcome.status == "budget-exhausted"
            assert outcome.rotation_map is None
            assert outcome.stats.best_conflicts >= 1
            # running out of budget proves nothing, so no certificate
            assert outcome.certificate is None

    def test_time_budget_ends_the_search(self):
        # The clock is read before the first move, and a spent budget starts
        # no further restart.
        cfg = SolverConfig(criterion="involution", method="local-search",
                           max_restarts=3, time_budget=1e-9)
        outcome = solve(petersen(), cfg)
        assert outcome.status == "budget-exhausted" and outcome.certificate is None
        assert (outcome.stats.iterations, outcome.stats.restarts) == (0, 1)
        assert outcome.stats.conflict_trace == ()

    def test_deterministic_per_seed(self):
        cfg = SolverConfig(criterion="involution", method="local-search",
                           seed=11, max_iterations=300, max_restarts=2)
        a = solve(petersen(), cfg)
        b = solve(petersen(), cfg)
        assert a.status == b.status
        assert a.stats.iterations == b.stats.iterations
        assert a.stats.best_conflicts == b.stats.best_conflicts
        assert a.stats.conflict_trace == b.stats.conflict_trace

    def test_seed_changes_trajectory(self):
        runs = set()
        for seed in range(4):
            cfg = SolverConfig(criterion="involution", method="local-search",
                               seed=seed, max_iterations=120, max_restarts=1)
            runs.add(solve(petersen(), cfg).stats.conflict_trace)
        assert len(runs) > 1

    def test_conflict_trace_recorded(self):
        cfg = SolverConfig(criterion="involution", method="local-search",
                           seed=0, max_iterations=100, max_restarts=1)
        outcome = solve(petersen(), cfg)
        trace = outcome.stats.conflict_trace
        assert len(trace) > 0
        assert all(c >= 0 for c in trace)


def edges_at_by_loop(n, edges):
    """Each vertex's edge ids in ascending order, one append per endpoint."""
    edges_at = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        edges_at[u].append(e)
        edges_at[v].append(e)
    return edges_at


class TestEdgesAt:
    """Local search reads each vertex's edge ids from one stable argsort."""

    @pytest.mark.parametrize("n, d, seed", [(2, 1, 0), (10, 3, 0), (16, 5, 1), (30, 4, 2), (40, 7, 3),
                                            (301, 6, 4), (2000, 8, 5)])
    def test_random_graphs_equal_the_loop(self, n, d, seed):
        g = random_regular_graph(n, d, seed=seed)
        assert _edges_at(g.edges(), n) == edges_at_by_loop(n, g.edges().tolist())

    @pytest.mark.parametrize("graph", [cycle_graph(7), complete_graph(6), hypercube_graph(5),
                                       torus_graph(4, 5), complete_bipartite_graph(4)],
                             ids=["cycle", "complete", "hypercube", "torus", "bipartite"])
    def test_families_equal_the_loop(self, graph):
        assert _edges_at(graph.edges(), graph.n) == edges_at_by_loop(graph.n, graph.edges().tolist())


class TestKempeComponent:
    """Local search never rescores a Kempe swap.  That is sound only if the
    component holds every a- and b-labeled edge at each vertex it touches,
    so that the swap exchanges the two label counts there."""

    @pytest.mark.parametrize("n, d, seed", [(10, 3, 0), (16, 5, 1), (30, 4, 2), (40, 7, 3)])
    def test_swap_keeps_every_vertex_label_multiset(self, n, d, seed):
        g = random_regular_graph(n, d, seed=seed)
        edges = g.edges().tolist()
        edges_at = edges_at_by_loop(n, edges)
        rng = random.Random(seed)
        for _ in range(25):
            labels = [rng.randrange(d) for _ in edges]
            e0 = rng.randrange(len(edges))
            a = labels[e0]
            b = rng.choice([c for c in range(d) if c != a])
            component = _kempe_component(edges, edges_at, labels, e0, a, b)
            assert component == kempe_component_by_bfs(n, edges, labels, e0, a, b)
            touched = {x for e in component for x in edges[e]}
            for x in touched:
                for e in edges_at[x]:
                    assert (labels[e] in (a, b)) == (e in component)
            swapped = list(labels)
            for e in component:
                swapped[e] = b if labels[e] == a else a
            for x in range(n):
                before = sorted(Counter(labels[e] for e in edges_at[x]).values())
                after = sorted(Counter(swapped[e] for e in edges_at[x]).values())
                assert before == after


class TestExhaustive:
    def test_square_solvable_both_criteria(self):
        # The involution search solves the square; the permutation
        # criterion is the matching method's alone.
        cfg = SolverConfig(criterion="involution", method="exhaustive")
        outcome = solve(cycle_graph(4), cfg)
        assert outcome.status == "solved"
        assert check_involution_consistent(outcome.rotation_map).consistent
        with pytest.raises(ConfigError, match="method 'exhaustive' targets the involution"):
            solve(cycle_graph(4), SolverConfig(method="exhaustive"))

    def test_called_directly_searches_involutions(self):
        # The config's criterion does not matter: the search is always
        # for an involution, so Petersen (Class 2) is proven infeasible.
        outcome = exhaustive_search(petersen(), SolverConfig())
        assert (outcome.status, outcome.criterion) == ("infeasible-proven", "involution")
        assert outcome.method == "exhaustive"

    def test_petersen_infeasible_proven(self):
        cfg = SolverConfig(criterion="involution", method="exhaustive")
        outcome = solve(petersen(), cfg)
        assert outcome.status == "infeasible-proven"
        assert outcome.rotation_map is None
        assert "no proper coloring exists" in outcome.certificate

    def test_complete_graph_odd_infeasible(self):
        cfg = SolverConfig(criterion="involution", method="exhaustive")
        assert solve(complete_graph(5), cfg).status == "infeasible-proven"

    def test_matches_brute_force_oracle(self):
        rng = random.Random(23)
        cfg = SolverConfig(criterion="involution", method="exhaustive")
        seen = {"solved": 0, "infeasible-proven": 0}
        for _ in range(25):
            n = rng.choice([4, 5, 6, 7, 8])
            d = 2 if n * 3 > 24 else rng.choice([2, 3])
            if (n * d) % 2:
                n += 1
            g = random_regular_graph(n, d, seed=rng.randrange(10**6))
            outcome = solve(g, cfg)
            oracle = brute_force_edge_coloring(g.n, g.d, g.edges())
            if oracle is None:
                assert outcome.status == "infeasible-proven"
            else:
                assert outcome.status == "solved"
            seen[outcome.status] += 1
        assert seen["solved"] > 0 and seen["infeasible-proven"] > 0

    @pytest.mark.parametrize("build, ceiling, status, nodes, best", [
        (petersen, 40, "infeasible-proven", 36, 3),
        (lambda: complete_graph(5), 40, "infeasible-proven", 9, 2),
        (lambda: cycle_graph(7), 40, "infeasible-proven", 4, 1),
        (lambda: cycle_graph(3001), 10**6, "infeasible-proven", 2998, 1),
    ])
    def test_involution_search_pins(self, build, ceiling, status, nodes, best):
        # Labels placed and the fewest edges left unlabeled: the count of
        # the search itself, not only its verdict.
        cfg = SolverConfig(criterion="involution", method="exhaustive",
                           exhaustive_ceiling=ceiling)
        s = solve(build(), cfg)
        assert (s.status, s.stats.iterations, s.stats.best_conflicts) == (status, nodes, best)

    def test_time_budget_ends_the_search(self):
        # The odd cycle is proven infeasible after 4998 labels; the clock,
        # read every 4096 labels, stops a spent budget at the first reading.
        cfg = dict(criterion="involution", method="exhaustive", exhaustive_ceiling=20000)
        proven = solve(cycle_graph(5001), SolverConfig(**cfg))
        spent = solve(cycle_graph(5001), SolverConfig(**cfg, time_budget=1e-9))
        assert (proven.status, proven.stats.iterations) == ("infeasible-proven", 4998)
        assert (spent.status, spent.stats.iterations) == ("budget-exhausted", 4096)
        assert spent.rotation_map is None and spent.certificate is None

    def test_ceiling_enforced(self):
        cfg = SolverConfig(criterion="involution", method="exhaustive")
        with pytest.raises(ConfigError):
            solve(random_regular_graph(30, 4, seed=1), cfg)

    def test_ceiling_configurable(self):
        cfg = SolverConfig(criterion="involution", method="exhaustive",
                           exhaustive_ceiling=60)
        outcome = exhaustive_search(random_regular_graph(14, 4, seed=5), cfg)
        assert outcome.status in {"solved", "infeasible-proven"}


class TestConfigValidation:
    def test_matching_requires_permutation(self):
        cfg = SolverConfig(criterion="involution", method="matching")
        with pytest.raises(ConfigError):
            solve(cycle_graph(4), cfg)

    def test_coloring_methods_require_involution(self):
        for method in ["greedy-coloring", "vizing", "local-search"]:
            cfg = SolverConfig(criterion="permutation", method=method)
            with pytest.raises(ConfigError):
                solve(cycle_graph(4), cfg)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            SolverConfig(criterion="permutation", method="annealing")

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ConfigError):
            SolverConfig(criterion="bijection", method="matching")

    def test_nonpositive_budgets_rejected(self):
        with pytest.raises(ConfigError):
            SolverConfig(max_iterations=0)
        with pytest.raises(ConfigError):
            SolverConfig(time_budget=0.0)
        with pytest.raises(ConfigError, match="exhaustive ceiling must be positive"):
            SolverConfig(exhaustive_ceiling=0)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), float("-inf"), "5", None, 1j])
    def test_non_finite_time_budget_rejected(self, budget):
        with pytest.raises(ConfigError, match="finite"):
            SolverConfig(time_budget=budget)


class TestStressRun:
    def test_permutation_stress(self, cli_solve):
        code, report, _ = cli_solve(generate_graph("random-regular", (20, 4), seed=2))
        assert code == 0 and report["status"] == "solved"
        assert list(report) == REPORT_KEYS
        assert report["n"] == 20 and report["d"] == 4

    def test_involution_stress_records_outcome(self, cli_solve):
        code, report, rot = cli_solve(
            generate_graph("random-regular", (16, 4), seed=2),
            "--criterion", "involution", "--method", "local-search",
            "--seed", "0", "--max-iterations", "2000", "--max-restarts", "5",
        )
        assert report["status"] in {"solved", "budget-exhausted"}
        assert code == (0 if report["status"] == "solved" else 3)
        if report["status"] == "solved":
            assert check_involution_consistent(rot).consistent


@pytest.mark.parametrize("has_map, certificate, status", [
    (True, None, "solved"),
    (True, "odd n", "solved"),
    (False, "odd n", "infeasible-proven"),
    (False, None, "budget-exhausted"),
])
def test_status_is_read_from_map_and_certificate(has_map, certificate, status):
    # An outcome has no status argument, so "solved" always comes with a map.
    rot = cycle_rotation(4) if has_map else None
    stats = SolverStats(2, 0, 0.0, 0)
    outcome = SolverOutcome("permutation", "matching", 0, 4, 2, rot, certificate, stats)
    assert outcome.status == status
    with pytest.raises(TypeError):
        SolverOutcome("solved", "permutation", "matching", 0, 4, 2, None, None, stats)


@pytest.mark.parametrize("n, d", [(9, 7), (4, 3), (5, 2)])
def test_outcome_refuses_a_map_of_another_shape(n, d):
    # n and d stay fields for outcomes without a map; a map must agree.
    stats = SolverStats(2, 0, 0.0, 0)
    with pytest.raises(ConfigError, match=rf"^rotation map is 4 x 2, outcome is {n} x {d}$"):
        SolverOutcome("permutation", "matching", 0, n, d, cycle_rotation(4), None, stats)
    assert SolverOutcome("permutation", "matching", 0, n, d, None, None, stats).status == "budget-exhausted"


def test_every_exported_name_resolves():
    missing = [name for name in rotwalk.__all__ if not hasattr(rotwalk, name)]
    assert missing == []


# Golden outcomes: for each method, a digest of every outcome field but
# wall_ms over a fixed corpus, so that a refactor of the solvers cannot
# change what they return.  An instance above the exhaustive ceiling
# contributes its ConfigError instead.
GOLDEN_GRAPHS = {
    "petersen": petersen,
    "C5": lambda: cycle_graph(5),
    "C7": lambda: cycle_graph(7),
    "C6": lambda: cycle_graph(6),
    "C8": lambda: cycle_graph(8),
    "K4": lambda: complete_graph(4),
    "K5": lambda: complete_graph(5),
    "Q3": lambda: hypercube_graph(3),
    "rr-10-3": lambda: RegularGraph(random_regular_by_pairing(10, 3, seed=1)),
    "rr-12-3": lambda: RegularGraph(random_regular_by_pairing(12, 3, seed=2)),
    "rr-12-4": lambda: RegularGraph(random_regular_by_pairing(12, 4, seed=11)),
    "rr-16-5": lambda: RegularGraph(random_regular_by_pairing(16, 5, seed=4)),
}
GOLDEN_SEARCH = dict(max_iterations=300, max_restarts=3)
GOLDEN = {
    "matching": (SolverConfig(), "b786f28471d2af8c"),
    "greedy-coloring": (SolverConfig(criterion="involution", method="greedy-coloring"),
                        "9c331b1f0ec86a65"),
    "vizing": (SolverConfig(criterion="involution", method="vizing"), "3016e978f589819e"),
    "local-search-0": (SolverConfig(criterion="involution", method="local-search", seed=0,
                                    **GOLDEN_SEARCH), "bbf3dc798cf452d0"),
    "local-search-1": (SolverConfig(criterion="involution", method="local-search", seed=1,
                                    **GOLDEN_SEARCH), "40af8f03b4bd3447"),
    "exhaustive-involution": (SolverConfig(criterion="involution", method="exhaustive"),
                              "ca9491a4d739a75a"),
}


def outcome_digest(config):
    digest = hashlib.sha256()
    for name, build in GOLDEN_GRAPHS.items():
        try:
            o = solve(build(), config)
        except ConfigError as exc:
            fields = (name, type(exc).__name__, str(exc))
        else:
            s = o.stats
            rot = None if o.rotation_map is None else o.rotation_map.entries.tolist()
            fields = (name, o.status, o.criterion, o.method, o.seed, o.n, o.d, rot,
                      o.certificate, s.iterations, s.restarts, s.best_conflicts,
                      s.conflict_trace)
        digest.update(repr(fields).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("label", list(GOLDEN))
def test_golden_outcomes(label):
    config, expected = GOLDEN[label]
    assert outcome_digest(config) == expected
