import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rotwalk import (
    FamilySpec,
    FormatError,
    GenerationError,
    GraphStructureError,
    RegularGraph,
    RegularityError,
    check_regularity,
    circulant_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    generate_graph,
    hypercube_graph,
    parse_graph,
    random_regular_graph,
    serialize_graph,
    torus_graph,
)

from oracles import degrees_from_edges

SQUARE_EDGES = [(0, 1), (1, 2), (2, 3), (0, 3)]

PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
]


class TestConstruction:
    def test_from_edges_square(self):
        g = RegularGraph.from_edges(4, SQUARE_EDGES)
        assert g.n == 4
        assert g.d == 2
        assert g.neighbors.tolist() == [[1, 3], [0, 2], [1, 3], [0, 2]]

    def test_neighbors_sorted_ascending(self):
        g = RegularGraph.from_edges(4, [(3, 0), (2, 1), (1, 0), (3, 2)])
        for row in g.neighbors:
            assert list(row) == sorted(row)

    def test_neighbors_read_only(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError):
            g.neighbors[0, 0] = 2

    def test_edges_lexicographic(self):
        g = cycle_graph(5)
        edges = g.edges()
        assert edges == sorted(edges)
        assert len(edges) == 5
        assert all(u < v for u, v in edges)

    def test_from_adjacency_round_trip(self):
        g = complete_graph(5)
        again = RegularGraph.from_adjacency(g.adjacency_matrix())
        assert again == g

    def test_from_empty_adjacency_rejected(self):
        with pytest.raises(GraphStructureError, match="at least one vertex"):
            RegularGraph.from_adjacency(np.zeros((0, 0), dtype=bool))

    def test_adjacency_matrix_symmetric(self):
        g = hypercube_graph(3)
        a = g.adjacency_matrix()
        assert (a == a.T).all()
        assert a.trace() == 0
        assert (a.sum(axis=0) == 3).all()

    def test_has_edge(self):
        g = cycle_graph(4)
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_equality_and_hash(self):
        assert cycle_graph(4) == cycle_graph(4)
        assert cycle_graph(4) != cycle_graph(5)
        assert hash(cycle_graph(4)) == hash(cycle_graph(4))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphStructureError, match=r"^self-loop at vertex 1$"):
            RegularGraph.from_edges(3, [(0, 0), (1, 2), (0, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphStructureError, match=r"^duplicate edge \(1, 2\)$"):
            RegularGraph.from_edges(3, [(0, 1), (1, 0), (1, 2), (0, 2)])

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(GraphStructureError, match=r"^edge \(2, 4\) out of range for n=3$"):
            RegularGraph.from_edges(3, [(0, 1), (1, 3), (0, 2)])

    def test_first_bad_edge_in_input_order_is_named(self):
        # The repeat at index 1 comes before the out-of-range pair at index 2.
        with pytest.raises(GraphStructureError, match=r"^duplicate edge \(1, 2\)$"):
            RegularGraph.from_edges(3, [(0, 1), (1, 0), (1, 5)])
        with pytest.raises(GraphStructureError, match=r"^edge \(6, 6\) out of range for n=3$"):
            RegularGraph.from_edges(3, [(5, 5)])

    def test_duplicate_check_exact_at_huge_n(self):
        # Keys lo*n+hi wrap past int64 here: 2**24 * 2**40 + (2**24 + 5) is
        # 2**24 + 5 modulo 2**64, the key of the first pair.  With the
        # duplicate check exact, the refusal is the isolated-vertex one.
        with pytest.raises(GraphStructureError, match="some vertex would be isolated"):
            RegularGraph.from_edges(2**40, [(0, 2**24 + 5), (2**24, 2**24 + 5)])
        with pytest.raises(GraphStructureError, match=r"^duplicate edge \(1, 6\)$"):
            RegularGraph.from_edges(2**40, [(0, 5), (5, 0)])

    def test_huge_n_refused_without_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(GraphStructureError) as exc:
                RegularGraph.from_edges(10**11, [(0, 1)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (
            "100000000000 vertices but 1 edges reach at most 2: some vertex would be isolated"
        )
        assert peak < 1 << 20

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphStructureError):
            RegularGraph.from_edges(0, [])

    @pytest.mark.parametrize("neighbors", [
        [[1.5], [0.2]],
        np.array([[np.nan], [0.0]]),
        [[1.0], [np.inf]],
        [["1"], ["0"]],
        [[Fraction(1, 2)], [0]],
    ])
    def test_non_integer_entries_rejected(self, neighbors):
        with pytest.raises(GraphStructureError, match="neighbor table entries must be integers"):
            RegularGraph(neighbors)

    @pytest.mark.parametrize("neighbors", [
        [[1], [0]],
        [[1.0], [0.0]],
        [[True], [False]],
        np.array([[1], [0]], dtype=np.uint8),
        np.array([[1], [0]], dtype=object),
    ])
    def test_exact_integer_entries_accepted(self, neighbors):
        graph = RegularGraph(neighbors)
        assert graph.neighbors.tolist() == [[1], [0]]
        assert graph.neighbors.dtype == np.int64

    def test_ragged_table_rejected(self):
        with pytest.raises(GraphStructureError, match="rows must all have the same length"):
            RegularGraph([[1, 2], [0]])

    @pytest.mark.parametrize("edges, message", [
        ([(0.5, 1.0)], "edge entries must be integers"),
        ([(0, 1), (1,)], "edge rows must all have the same length"),
        ([(0, 1, 2)], r"edges must be \(u, v\) pairs"),
        ([(0, 2**70)], "edge entry out of range"),
    ])
    def test_bad_edge_entries_rejected(self, edges, message):
        with pytest.raises(GraphStructureError, match=message):
            RegularGraph.from_edges(3, edges)

    def test_from_edges_accepts_integral_floats(self):
        assert RegularGraph.from_edges(2, [(0.0, 1.0)]) == RegularGraph.from_edges(2, [(0, 1)])

    def test_asymmetric_table_rejected(self):
        # Regular (every row one entry) but 1 -> 2 -> 3 -> 1 has no reverse arcs.
        with pytest.raises(GraphStructureError, match="adjacency is not symmetric"):
            RegularGraph([[1], [2], [0]])

    def test_validation_memory_is_linear(self):
        # A dense n x n check would trace n^2 bytes (400 MB here); the
        # neighbor table itself is n*d*8 bytes (1.3 MB).
        table = random_regular_graph(20000, 8).neighbors
        tracemalloc.start()
        try:
            RegularGraph(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_irregular_rejected(self):
        with pytest.raises(RegularityError) as exc:
            RegularGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert "degree" in str(exc.value)


class TestCheckRegularity:
    def test_square_degree(self):
        g = RegularGraph.from_edges(4, SQUARE_EDGES)
        assert check_regularity(g.adjacency_matrix()) == 2

    def test_complete_degree(self):
        a = np.ones((5, 5), dtype=np.int64) - np.eye(5, dtype=np.int64)
        assert check_regularity(a) == 4

    def test_missing_edge_reports_one_based_vertices(self):
        g = RegularGraph.from_edges(4, SQUARE_EDGES)
        a = g.adjacency_matrix().copy()
        a[0, 1] = a[1, 0] = 0
        with pytest.raises(RegularityError) as exc:
            check_regularity(a)
        violations = dict(exc.value.violations)
        assert violations == {1: 1, 2: 1}
        assert "vertex 1 has degree 1" in str(exc.value)

    def test_asymmetric_rejected(self):
        a = np.zeros((3, 3), dtype=np.int64)
        a[0, 1] = 1
        with pytest.raises(GraphStructureError):
            check_regularity(a)

    def test_diagonal_rejected(self):
        a = np.eye(3, dtype=np.int64)
        with pytest.raises(GraphStructureError):
            check_regularity(a)

    def test_non_binary_rejected(self):
        a = np.zeros((3, 3), dtype=np.int64)
        a[0, 1] = a[1, 0] = 2
        with pytest.raises(GraphStructureError):
            check_regularity(a)

    def test_empty_matrix_rejected(self):
        with pytest.raises(GraphStructureError, match="at least one vertex"):
            check_regularity(np.zeros((0, 0), dtype=bool))


class TestFamilies:
    def test_cycle(self):
        g = cycle_graph(4)
        assert g == RegularGraph.from_edges(4, SQUARE_EDGES)

    def test_cycle_minimum_size(self):
        with pytest.raises(GenerationError):
            cycle_graph(2)

    def test_complete(self):
        g = complete_graph(4)
        assert g.d == 3
        assert len(g.edges()) == 6

    def test_complete_pair(self):
        g = complete_graph(2)
        assert g.n == 2
        assert g.d == 1
        assert g.neighbors.tolist() == [[1], [0]]

    def test_complete_bipartite(self):
        g = complete_bipartite_graph(3)
        assert g.n == 6
        assert g.d == 3
        for u in range(3):
            assert list(g.neighbors[u]) == [3, 4, 5]

    def test_hypercube(self):
        g = hypercube_graph(3)
        assert g.n == 8
        assert g.d == 3
        deg = degrees_from_edges(g.n, g.edges())
        assert deg == [3] * 8
        assert g.has_edge(0, 1) and g.has_edge(0, 2) and g.has_edge(0, 4)

    def test_torus(self):
        g = torus_graph(3, 4)
        assert g.n == 12
        assert g.d == 4
        with pytest.raises(GenerationError):
            torus_graph(2, 4)

    def test_circulant(self):
        g = circulant_graph(8, (1, 7, 4))
        assert g.d == 3
        assert g.has_edge(0, 4)
        with pytest.raises(GenerationError):
            circulant_graph(8, (1, 2))  # offsets not closed under negation

    def test_generate_graph_dispatch(self):
        g = generate_graph(FamilySpec("cycle", (6,)))
        assert g == cycle_graph(6)
        with pytest.raises(GenerationError):
            generate_graph(FamilySpec("cycle", (6, 7)))
        with pytest.raises(GenerationError):
            generate_graph(FamilySpec("moebius", (6,)))


class TestRandomRegular:
    def test_reproducible(self):
        a = random_regular_graph(30, 4, seed=7)
        b = random_regular_graph(30, 4, seed=7)
        assert a == b

    def test_seed_changes_output(self):
        a = random_regular_graph(30, 4, seed=1)
        b = random_regular_graph(30, 4, seed=2)
        assert a != b

    def test_valid_across_sizes(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randrange(6, 60)
            d = rng.randrange(2, 8)
            if d >= n:
                d = n - 1
            if (n * d) % 2:
                n += 1
            g = random_regular_graph(n, d, seed=rng.randrange(10**6))
            assert check_regularity(g.adjacency_matrix()) == d

    def test_odd_degree_sum_rejected(self):
        with pytest.raises(GenerationError):
            random_regular_graph(5, 3)

    def test_degree_too_large_rejected(self):
        with pytest.raises(GenerationError):
            random_regular_graph(4, 4)


class TestTextFormat:
    def test_parse_square(self):
        text = "4 2\n1 2\n2 3\n3 4\n1 4\n"
        g = parse_graph(text)
        assert g == RegularGraph.from_edges(4, SQUARE_EDGES)

    def test_parse_petersen(self):
        lines = ["10 3"]
        lines += [f"{u + 1} {v + 1}" for u, v in PETERSEN_EDGES]
        g = parse_graph("\n".join(lines) + "\n")
        assert g.n == 10
        assert g.d == 3
        assert degrees_from_edges(10, g.edges()) == [3] * 10

    def test_comments_and_blank_lines(self):
        text = "# a square\n\n4 2\n1 2\n# middle\n2 3\n3 4\n\n1 4\n"
        assert parse_graph(text) == cycle_graph(4)

    def test_round_trip(self):
        for g in [cycle_graph(5), complete_graph(4), hypercube_graph(3),
                  random_regular_graph(20, 3, seed=3)]:
            assert parse_graph(serialize_graph(g)) == g

    def test_serialized_form(self):
        assert serialize_graph(cycle_graph(4)) == "4 2\n1 2\n1 4\n2 3\n3 4\n"

    def test_missing_header(self):
        with pytest.raises(FormatError) as exc:
            parse_graph("")
        assert "header" in str(exc.value)

    def test_bad_header(self):
        with pytest.raises(FormatError) as exc:
            parse_graph("4\n1 2\n")
        assert exc.value.line == 1

    def test_bad_edge_line(self):
        with pytest.raises(FormatError) as exc:
            parse_graph("4 2\n1 2 3\n")
        assert exc.value.line == 2

    def test_self_loop_line(self):
        with pytest.raises(FormatError) as exc:
            parse_graph("4 2\n2 2\n")
        assert exc.value.line == 2

    def test_unordered_endpoints_rejected(self):
        with pytest.raises(FormatError):
            parse_graph("4 2\n2 1\n2 3\n3 4\n1 4\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(FormatError):
            parse_graph("4 2\n1 5\n")

    def test_duplicate_edge_reports_first_line(self):
        with pytest.raises(FormatError) as exc:
            parse_graph("4 2\n1 2\n2 3\n1 2\n")
        assert exc.value.line == 4
        assert "line 2" in str(exc.value)

    def test_degree_mismatch_with_header(self):
        text = "4 3\n1 2\n2 3\n3 4\n1 4\n"
        with pytest.raises(RegularityError):
            parse_graph(text)
