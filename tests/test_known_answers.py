"""Known answers by construction, with no search: class-1 graphs whose
involution maps ``tests/oracles.py`` writes by formula, and class-2
graphs (no proper d-edge-coloring) that the exhaustive search must prove
infeasible."""

import pytest

from rotwalk import (
    RegularGraph,
    RotationMap,
    SolverConfig,
    check_involution_consistent,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    solve,
    torus_graph,
    validate_against_graph,
)

from oracles import (
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


CLASS_2 = {
    "Petersen": (lambda: RegularGraph.from_edges(10, petersen_edges()), 40),
    "K_5": (lambda: complete_graph(5), 40),
    "J3": (lambda: RegularGraph.from_edges(12, flower_snark_edges(3)), 40),
    "J5": (lambda: RegularGraph.from_edges(20, flower_snark_edges(5)), 60),
}


@pytest.mark.parametrize("build, ceiling", CLASS_2.values(), ids=CLASS_2)
def test_class_2_graphs_proven_infeasible(build, ceiling):
    config = SolverConfig(criterion="involution", method="exhaustive", exhaustive_ceiling=ceiling)
    assert solve(build(), config).status == "infeasible-proven"
