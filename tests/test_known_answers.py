"""Known answers by construction, with no search: class-1 graphs whose
involution maps ``tests/oracles.py`` writes by formula, circulants whose
permutation maps it writes by formula, and class-2 graphs (no proper
d-edge-coloring) that the exhaustive search must prove infeasible and
the heuristics cannot solve."""

import random

import pytest

from rotwalk import (
    RegularGraph,
    RotationMap,
    SolverConfig,
    check_involution_consistent,
    check_permutation_consistent,
    circulant_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    solve,
    torus_graph,
    validate_against_graph,
)

from oracles import (
    bridged_cubic_edges,
    circulant_permutation,
    complete_bipartite_involution,
    complete_involution,
    cycle_involution,
    flower_snark_edges,
    hypercube_involution,
    petersen_edges,
    torus_involution,
)

CLASS_1 = [
    *[(f"hypercube {k}", hypercube_graph, hypercube_involution, (k,)) for k in (1, 2, 3, 5, 8)],
    *[(f"K_{{{m},{m}}}", complete_bipartite_graph, complete_bipartite_involution, (m,))
      for m in (1, 2, 3, 7, 12)],
    *[(f"K_{n}", complete_graph, complete_involution, (n,)) for n in (2, 4, 6, 10, 24)],
    *[(f"C_{n}", cycle_graph, cycle_involution, (n,)) for n in (4, 6, 10, 100)],
    *[(f"torus {a}x{b}", torus_graph, torus_involution, (a, b))
      for a, b in ((4, 4), (4, 6), (8, 4), (10, 12))],
]


@pytest.mark.parametrize("build, involution, params",
                         [case[1:] for case in CLASS_1], ids=[case[0] for case in CLASS_1])
def test_class_1_maps_by_formula(build, involution, params):
    rot = RotationMap(involution(*params))
    assert check_involution_consistent(rot).consistent
    assert validate_against_graph(rot, build(*params)) is None


CIRCULANTS = [(4, (2,)), (5, (1, 4)), (7, (1, 6, 2, 5)), (8, (1, 7, 4)), (9, (2, 7, 3, 6)),
              (12, (1, 11, 6, 5, 7)), (100, (3, 97, 10, 90, 50))]


@pytest.mark.parametrize("n, offsets", CIRCULANTS, ids=[f"C_{n}{list(s)}" for n, s in CIRCULANTS])
def test_circulant_maps_by_formula(n, offsets):
    rot = RotationMap(circulant_permutation(n, offsets))
    assert check_permutation_consistent(rot).consistent
    assert validate_against_graph(rot, circulant_graph(n, offsets)) is None
    # Following label i twice moves v by 2 * offsets[i].
    assert check_involution_consistent(rot).consistent == all(2 * s % n == 0 for s in offsets)


CLASS_2 = {
    "Petersen": (lambda: RegularGraph.from_edges(10, petersen_edges()), 40),
    "K_5": (lambda: complete_graph(5), 40),
    "J3": (lambda: RegularGraph.from_edges(12, flower_snark_edges(3)), 40),
    "J5": (lambda: RegularGraph.from_edges(20, flower_snark_edges(5)), 60),
    "bridged cubic": (lambda: RegularGraph.from_edges(10, bridged_cubic_edges()), 40),
}


@pytest.mark.parametrize("build, ceiling", CLASS_2.values(), ids=CLASS_2)
def test_class_2_graphs_proven_infeasible(build, ceiling):
    config = SolverConfig(criterion="involution", method="exhaustive", exhaustive_ceiling=ceiling)
    assert solve(build(), config).status == "infeasible-proven"


@pytest.mark.parametrize("method", ["vizing", "local-search", "greedy-coloring"])
def test_bridged_cubic_graph_exhausts_the_heuristics(method):
    graph = RegularGraph.from_edges(10, bridged_cubic_edges())
    outcome = solve(graph, SolverConfig(criterion="involution", method=method))
    assert outcome.status == "budget-exhausted" and outcome.stats.best_conflicts > 0


def test_exhaustive_node_count_depends_on_the_numbering():
    # The same graph, renumbered, is proven infeasible after a different
    # number of placed labels: the count measures the search, not the graph.
    config = SolverConfig(criterion="involution", method="exhaustive", exhaustive_ceiling=60)
    edges = flower_snark_edges(5)
    order = list(range(20))
    random.Random(0).shuffle(order)
    counts = []
    for numbering in (edges, [(order[u], order[v]) for u, v in edges]):
        outcome = solve(RegularGraph.from_edges(20, numbering), config)
        assert outcome.status == "infeasible-proven"
        counts.append(outcome.stats.iterations)
    assert counts[0] != counts[1], counts
