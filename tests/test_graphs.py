import hashlib
import random
import re
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotwalk import (
    FormatError,
    GenerationError,
    GraphStructureError,
    RegularGraph,
    RegularityError,
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
from rotwalk.graphs import _first_occurrences, _shuffled_order

from oracles import (
    adjacency_by_loop,
    common_degree,
    degrees_from_edges,
    edge_list_text,
    family_by_edges,
    random_regular_by_pairing,
    table_from_edges,
)

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
        _, cycle = family_by_edges("cycle", (5,))
        cases = [(cycle_graph(5), cycle)]
        for n, d, seed in [(10, 3, 0), (16, 5, 1), (40, 7, 2)]:
            rows = random_regular_by_pairing(n, d, seed)
            cases.append((RegularGraph(rows), [(u, v) for u, row in enumerate(rows) for v in row]))
        for g, oracle in cases:
            edges = g.edges()
            assert edges.dtype == np.int64
            assert edges.shape == (g.n * g.d // 2, 2)
            assert (edges[:, 0] < edges[:, 1]).all()
            assert list(map(tuple, edges.tolist())) == sorted({(min(e), max(e)) for e in oracle})

    def test_adjacency_matrix_symmetric(self):
        g = hypercube_graph(3)
        a = adjacency_by_loop(g.n, g.edges())
        assert (a == a.T).all()
        assert a.trace() == 0
        assert (a.sum(axis=0) == 3).all()

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
        # The largest n the stub ceiling admits: keys lo*n+hi stay below
        # 2**62, so distinct pairs never share one and repeats are found.
        # Past it, n is refused before any key is formed.
        n = 2**31 - 1
        with pytest.raises(GraphStructureError, match="some vertex would be isolated"):
            RegularGraph.from_edges(n, [(0, n - 1), (n - 2, n - 1)])
        with pytest.raises(GraphStructureError, match=r"^duplicate edge \(1, 6\)$"):
            RegularGraph.from_edges(n, [(0, 5), (5, 0)])
        with pytest.raises(GraphStructureError, match=r"\(the stub ceiling\), got n=1099511627776$"):
            RegularGraph.from_edges(2**40, [(0, 5), (5, 0)])

    def test_huge_n_refused_without_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(GraphStructureError) as exc:
                RegularGraph.from_edges(10**9, [(0, 1)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (
            "1000000000 vertices but 1 edges reach at most 2: some vertex would be isolated"
        )
        assert peak < 1 << 20

    @pytest.mark.parametrize("build, message", [
        (lambda: RegularGraph.from_edges(2**31, [(0, 1)]),
         "graph needs n*d < 2**31 (the stub ceiling), got n=2147483648"),
        (lambda: RegularGraph.from_edges(10**11, [(0, 1)]),
         "graph needs n*d < 2**31 (the stub ceiling), got n=100000000000"),
        # 2m = n*d reaches the ceiling: 2**30 edges (u, v), as a read-only
        # broadcast view of one pair, refused before the int64 copy.
        (lambda: RegularGraph.from_edges(3, np.broadcast_to(np.array([0, 1]), (2**30, 2))),
         "graph needs n*d < 2**31 (the stub ceiling), got n*d=2147483648"),
        (lambda: RegularGraph(np.broadcast_to(np.int64(1), (2**31, 1))),
         "graph needs n*d < 2**31 (the stub ceiling), got n*d=2147483648"),
        (lambda: RegularGraph(np.broadcast_to(np.int64(1), (2**30, 3))),
         "graph needs n*d < 2**31 (the stub ceiling), got n*d=3221225472"),
    ])
    def test_past_stub_ceiling_refused_without_allocating(self, build, message):
        tracemalloc.start()
        try:
            with pytest.raises(GraphStructureError) as exc:
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == message
        assert peak < 1 << 20

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphStructureError):
            RegularGraph.from_edges(0, [])
        with pytest.raises(GraphStructureError, match="3 vertices but 0 edges reach at most 0"):
            RegularGraph.from_edges(3, [])

    @pytest.mark.parametrize("neighbors", [
        [[1.5], [0.2]],
        np.array([[np.nan], [0.0]]),
        [[1.0], [np.inf]],
        [["1"], ["0"]],
        [[Fraction(1, 2)], [0]],
        # An object entry that int64 cannot cast at all.
        np.array([[1], ["a"]], dtype=object),
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
        # uint64 entries past int64 are refused before any cast can wrap them.
        (np.array([[0, 2**64 - 1]], dtype=np.uint64), "edge entry out of range"),
        (np.array([[0, 2**63]], dtype=np.uint64), "edge entry out of range"),
    ])
    def test_bad_edge_entries_rejected(self, edges, message):
        with pytest.raises(GraphStructureError, match=message):
            RegularGraph.from_edges(3, edges)

    def test_from_edges_accepts_integral_floats(self):
        assert RegularGraph.from_edges(2, [(0.0, 1.0)]) == RegularGraph.from_edges(2, [(0, 1)])

    @pytest.mark.parametrize("neighbors, message", [
        ([[1], [2], [5]], "entry 6 out of range 1..3"),
        ([[1], [1], [0]], "vertex 2 maps to itself"),
        ([[1, 2], [0, 2], [1, 1]], "row for vertex 3 has repeated entries"),
        # The first bad row is named, whichever rule it breaks.
        ([[1, 1], [0, 1], [7, 1]], "row for vertex 1 has repeated entries"),
        # No rows to name: a 1-D or an empty table.
        ([1, 0], "neighbor table must be 2-dimensional"),
        (np.zeros((0, 2)), "graph must have at least one vertex and degree >= 1"),
        (np.zeros((2, 0)), "graph must have at least one vertex and degree >= 1"),
        # Entries at int64's ends and past it, in uint64.
        (np.array([[2**64 - 1], [0]], dtype=np.uint64), "neighbor table entry out of range"),
        (np.array([[2**63 - 1], [0]], dtype=np.uint64), f"entry {2**63} out of range 1..2"),
        (np.array([[2**63 - 1], [0]]), f"entry {2**63} out of range 1..2"),
    ])
    def test_first_bad_row_named(self, neighbors, message):
        with pytest.raises(GraphStructureError, match=f"^{re.escape(message)}$"):
            RegularGraph(neighbors)

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

    def test_missing_edge_reports_one_based_vertices(self):
        # The square without its edge (0, 1): vertices 1 and 2 (1-based) have
        # degree 1; the first is named, against the modal degree 2.
        with pytest.raises(RegularityError) as exc:
            RegularGraph.from_edges(4, [(1, 2), (2, 3), (0, 3)])
        assert str(exc.value) == (
            "graph is not regular: vertex 1 has degree 1, expected 2 (2 of 4 vertices deviate)"
        )


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
        assert g.neighbors[0].tolist() == [1, 2, 4]

    def test_torus(self):
        g = torus_graph(3, 4)
        assert g.n == 12
        assert g.d == 4
        with pytest.raises(GenerationError):
            torus_graph(2, 4)

    def test_circulant(self):
        g = circulant_graph(8, (1, 7, 4))
        assert g.d == 3
        assert g.neighbors[0].tolist() == [1, 4, 7]
        with pytest.raises(GenerationError):
            circulant_graph(8, (1, 2))  # offsets not closed under negation

    def test_generate_graph_dispatch(self):
        g = generate_graph("cycle", (6,))
        assert g == cycle_graph(6)
        with pytest.raises(GenerationError):
            generate_graph("cycle", (6, 7))
        with pytest.raises(GenerationError):
            generate_graph("moebius", (6,))


# Every deterministic family on a grid of sizes, including a circulant
# with an n/2 offset (a perfect matching alongside the other offsets).
FAMILY_GRID = (
    [("cycle", (n,)) for n in range(3, 41)]
    + [("complete", (n,)) for n in range(2, 41)]
    + [("complete-bipartite", (m,)) for m in range(1, 21)]
    + [("hypercube", (k,)) for k in range(1, 13)]
    + [("torus", (r, c)) for r in range(3, 13) for c in range(3, 13)]
    + [("circulant", params) for params in [
        (8, 1, 7, 4), (12, 1, 11, 6), (10, 5), (9, 1, -1, 3, -3), (7, 1, 2, 3, 4, 5, 6),
        (12, 13, -13, 5, 7), (20, 1, 19, 4, 16, 10), (31, 2, 29, 15, 16), (40, 20, 3, 37),
    ]]
)


def _digest(table):
    assert table.dtype == np.int64
    return hashlib.sha256(np.ascontiguousarray(table).tobytes()).hexdigest()


class TestFamilyTables:
    @pytest.mark.parametrize("family", sorted({family for family, _ in FAMILY_GRID}))
    def test_tables_match_edge_list_oracle(self, family):
        for name, params in FAMILY_GRID:
            if name != family:
                continue
            n, edges = family_by_edges(name, params)
            graph = generate_graph(name, params)
            assert _digest(graph.neighbors) == _digest(table_from_edges(n, edges)), params
            assert serialize_graph(graph) == edge_list_text(n, edges), params

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.data())
    def test_families_match_oracle_or_refuse(self, data):
        family = data.draw(st.sampled_from(
            ["cycle", "complete", "complete-bipartite", "hypercube", "torus", "circulant"]
        ), label="family")
        small = st.integers(-3, 14)
        if family == "torus":
            params = (data.draw(small, label="rows"), data.draw(small, label="cols"))
        elif family == "circulant":
            n = data.draw(small, label="n")
            offsets = data.draw(st.lists(st.integers(-20, 20), min_size=1, max_size=4), label="offsets")
            if n >= 3 and data.draw(st.booleans(), label="closed"):
                # Nonzero residues closed under negation, each written as
                # some representative mod n.
                residues = {s % n for s in offsets} - {0}
                residues |= {n - s for s in residues}
                shifts = st.integers(-1, 1)
                offsets = [s + n * data.draw(shifts) for s in sorted(residues)] or offsets
            params = (n, *offsets)
        else:
            params = (data.draw(small, label="parameter"),)
        expected = family_by_edges(family, params)
        if expected is None:
            with pytest.raises(GenerationError):
                generate_graph(family, params)
            return
        n, edges = expected
        graph = generate_graph(family, params)
        assert common_degree(adjacency_by_loop(graph.n, graph.edges())) == graph.d
        assert graph == RegularGraph.from_edges(n, edges)
        assert generate_graph(family, params) == graph

    @pytest.mark.parametrize("spec, message", [
        (("cycle", (2**30,)), r"^cycle needs n\*d < 2\*\*31 \(the stub ceiling\), got n\*d=2147483648$"),
        (("cycle", (10**20,)), r"^cycle needs .*, got n\*d=200000000000000000000$"),
        (("complete", (46342,)), r"^complete needs .*, got n\*d=2147534622$"),
        (("complete", (10**6,)), r"^complete needs n\*d < 2\*\*31"),
        (("complete-bipartite", (2**15,)), r"^complete-bipartite needs .*, got n\*d=2147483648$"),
        (("hypercube", (27,)), r"^hypercube needs .*, got n\*d=3623878656$"),
        (("hypercube", (64,)), r"^hypercube needs n\*d < 2\*\*31 \(the stub ceiling\), got n=2\*\*64$"),
        (("hypercube", (10**18,)), r"^hypercube needs n\*d < 2\*\*31"),
        (("torus", (2**14, 2**15)), r"^torus needs .*, got n\*d=2147483648$"),
        (("circulant", (2**30, 1, -1)), r"^circulant needs .*, got n\*d=2147483648$"),
        (("random-regular", (2**30, 2)), r"^random-regular needs .*, got n\*d=2147483648$"),
    ])
    def test_stub_ceiling_refused_before_allocating(self, spec, message):
        tracemalloc.start()
        try:
            with pytest.raises(GenerationError, match=message):
                generate_graph(*spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("params", [(5.9,), (5.0,), ("x",), ("5",), (None,), (np.float64(6),)])
    def test_non_integer_parameters_refused(self, params):
        with pytest.raises(GenerationError, match=r"^cycle parameters must be integers"):
            generate_graph("cycle", params)

    def test_integer_like_parameters_accepted(self):
        assert generate_graph("cycle", (np.int64(5),)) == cycle_graph(5)
        assert generate_graph("torus", (np.uint8(3), 4)) == torus_graph(3, 4)

    @pytest.mark.parametrize("spec, message", [
        (("cycle", ()), r"^cycle needs parameters: n; got 0$"),
        (("torus", (3, 4, 5)), r"^torus needs parameters: rows cols; got 3$"),
        (("circulant", (8,)), r"^circulant needs parameters: n offset\.\.\.; got 1$"),
        (("random-regular", (8,)), r"^random-regular needs parameters: n d; got 1$"),
    ])
    def test_parameter_count_refused(self, spec, message):
        with pytest.raises(GenerationError, match=message):
            generate_graph(*spec)


class FixedWords(random.Random):
    """A ``random.Random`` whose draw of all the shuffle keys' bits at once
    returns ``words``; smaller draws, as ``shuffle`` makes, stay random."""

    def __init__(self, seed, words):
        super().__init__(seed)
        self.words = np.array(words, dtype="<u4")

    def getrandbits(self, k):
        if k == 32 * len(self.words):
            return int.from_bytes(self.words.tobytes(), "little")
        return super().getrandbits(k)


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
            assert common_degree(adjacency_by_loop(g.n, g.edges())) == d

    @pytest.mark.parametrize("n, d, message", [
        (0, 3, r"^random-regular needs n >= 1 and d >= 1$"),
        (6, 0, r"^random-regular needs n >= 1 and d >= 1$"),
        (-4, -2, r"^random-regular needs n >= 1 and d >= 1$"),
    ])
    def test_sizes_refused(self, n, d, message):
        with pytest.raises(GenerationError, match=message):
            random_regular_graph(n, d)

    def test_odd_degree_sum_rejected(self):
        with pytest.raises(GenerationError):
            random_regular_graph(5, 3)

    def test_degree_too_large_rejected(self):
        with pytest.raises(GenerationError):
            random_regular_graph(4, 4)

    def test_exhausted_tries_refused(self):
        with pytest.raises(GenerationError, match=r"^random-regular\(6, 4\) generation exhausted after 1 attempts"):
            random_regular_graph(6, 4, seed=0, max_tries=1)

    # d <= 8 is every degree up to n = 9 and sparse beyond: a near-complete
    # degree such as (26, 23) exhausts max_tries for about a third of seeds.
    @settings(derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_simple_regular_and_deterministic(self, data):
        n = data.draw(st.integers(2, 30), label="n")
        d = data.draw(st.integers(1, min(n - 1, 8)).filter(lambda d: n * d % 2 == 0), label="d")
        seed = data.draw(st.integers(-2**70, 2**70), label="seed")
        g = random_regular_graph(n, d, seed=seed)
        # A multi-edge would lower a row's sum of the oracle's matrix.
        assert common_degree(adjacency_by_loop(g.n, g.edges())) == d
        assert random_regular_graph(n, d, seed=seed) == g
        assert generate_graph("random-regular", (n, d), seed=seed) == g

    # The neighbor table's bytes for a seed depend only on Python's Mersenne
    # Twister stream, not on NumPy's version or sort algorithm.
    @pytest.mark.parametrize("n, d, seed, digest", [
        (20000, 8, 0, "05888f9fc7aad6eaffb36c76ce7d9289ae87ef399243de7392a758acc23666b0"),
        (30, 4, 7, "e3fafd94e5c83f282c580052ef1e4a8700d8d95348a6cc9629a6dc589ae6eb01"),
        (10, 3, 1, "50637eef48ac3bda7bc3b653604ad352a064f4fccd9221f498bc88cf7ae571a0"),
    ])
    def test_golden_tables(self, n, d, seed, digest):
        table = random_regular_graph(n, d, seed=seed).neighbors
        assert hashlib.sha256(table.astype("<i8").tobytes()).hexdigest() == digest

    def test_same_model_as_per_pair_loop(self):
        # The only cubic graphs on 6 vertices are K_{3,3}, with no triangle,
        # and the prism, with two.  Over 2000 seeds the standard error of
        # the difference of two frequencies near 0.15 is about 0.011; 0.05
        # is 4.5 of them.
        def shape(table):
            adj = np.zeros((6, 6), dtype=np.int64)
            for v, row in enumerate(table):
                adj[v, row] = 1
            return {0: "K3,3", 12: "prism"}[int(np.trace(adj @ adj @ adj))]

        seeds = range(2000)
        new = Counter(shape(random_regular_graph(6, 3, seed=s).neighbors) for s in seeds)
        old = Counter(shape(random_regular_by_pairing(6, 3, s)) for s in seeds)
        for name in ("K3,3", "prism"):
            assert abs(new[name] - old[name]) / len(seeds) < 0.05

    def test_tied_random_words_are_ordered_by_shuffle(self):
        # Words 5, 2, 5, 9, 2, 2, 1 for indices 0..6: index 6 comes first and
        # 3 last, while the runs {1, 4, 5} and {0, 2} tie and must each take
        # every order over the seeds (6 * 2 combinations, 120 seeds).
        seen = set()
        for seed in range(120):
            order = _shuffled_order(7, FixedWords(seed, [5, 2, 5, 9, 2, 2, 1])).tolist()
            assert order[0] == 6 and order[6] == 3
            assert sorted(order[1:4]) == [1, 4, 5] and sorted(order[4:6]) == [0, 2]
            seen.add(tuple(order))
        assert len(seen) == 12

    def test_all_tied_words_give_uniform_orders(self):
        orders = Counter(tuple(_shuffled_order(4, FixedWords(s, [0] * 4)).tolist()) for s in range(2400))
        assert len(orders) == 24  # 100 expected each, standard deviation about 10
        assert min(orders.values()) > 50 and max(orders.values()) < 150

    def test_first_occurrences_match_unique(self):
        rng = np.random.default_rng(5)
        for size, values in [(0, 1), (1, 1), (50, 3), (200, 150), (1000, 10**12)]:
            keys = rng.integers(0, values, size)
            expected = np.zeros(size, dtype=bool)
            expected[np.unique(keys, return_index=True)[1]] = True
            assert (_first_occurrences(keys) == expected).all()

    def test_tiny_graphs_stay_cheap(self):
        # A pairing round is a few dozen NumPy calls whatever the size, so a
        # graph at (6, 3) costs about 0.4 ms (the per-pair loop: 0.09 ms).
        # 5 ms a graph bounds that cost with room for a much slower host.
        start = time.perf_counter()
        for seed in range(1000):
            random_regular_graph(6, 3, seed=seed)
        assert time.perf_counter() - start < 5.0

    def test_stub_ceiling_refused_before_allocating(self):
        with pytest.raises(GenerationError, match=r"n\*d < 2\*\*31"):
            random_regular_graph(2**30, 2)


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
        # Three copies: the second is reported, naming the first.
        with pytest.raises(FormatError, match=r"^line 6: duplicate edge \(1, 2\), first seen on line 4$"):
            parse_graph("4 2\n2 3\n# c\n1 2\n3 4\n1 2\n1 2\n")

    def test_degree_mismatch_with_header(self):
        text = "4 3\n1 2\n2 3\n3 4\n1 4\n"
        with pytest.raises(RegularityError, match="vertex 1 has degree 2, expected 3 "):
            parse_graph(text)
