import random

import numpy as np
import pytest

from rotwalk import (
    ConfigError,
    RegularGraph,
    RotationMap,
    ShiftOperator,
    build_coin,
    build_shift,
    check_permutation_consistent,
    cycle_graph,
    cycle_rotation,
    greedy_rotation,
    random_regular_graph,
    solve_permutation,
    unitarity_defect,
)

from oracles import defect_by_dense_product, dense_shift


def random_rotation(rng, n, d):
    g = random_regular_graph(n, d, seed=rng.randrange(10**6))
    rows = [list(map(int, row)) for row in g.neighbors]
    for row in rows:
        rng.shuffle(row)
    return RotationMap(np.array(rows))


class TestShiftOperator:
    def test_canonical_square_dense(self):
        shift = build_shift(cycle_rotation(4))
        assert shift.dim == 8
        assert (shift.to_dense() == dense_shift(cycle_rotation(4).entries)).all()

    def test_basis_action_canonical(self):
        # label 1 carries vertex 1 to vertex 2: basis column 0 lands on row 1
        shift = build_shift(cycle_rotation(4))
        state = np.zeros(8, dtype=complex)
        state[0] = 1.0
        out = shift.apply(state)
        expected = np.zeros(8, dtype=complex)
        expected[1] = 1.0
        assert (out == expected).all()

    def test_basis_action_greedy(self):
        # greedy label 1 carries vertex 3 to vertex 2
        shift = build_shift(greedy_rotation(cycle_graph(4)))
        state = np.zeros(8, dtype=complex)
        state[2] = 1.0
        out = shift.apply(state)
        expected = np.zeros(8, dtype=complex)
        expected[1] = 1.0
        assert (out == expected).all()

    def test_pair_swap(self):
        rot = RotationMap(np.array([[1], [0]]))
        shift = build_shift(rot)
        assert shift.to_dense().tolist() == [[0, 1], [1, 0]]

    def test_apply_matches_dense_matmul(self):
        # Shuffled rows are mostly inconsistent (the np.add.at path); the
        # solved map of the same graph is consistent (the gather path).
        rng = random.Random(2)
        npr = np.random.default_rng(2)
        paths = set()
        for _ in range(30):
            shuffled = random_rotation(rng, rng.choice([4, 6]), rng.choice([2, 3]))
            solved = solve_permutation(RegularGraph(shuffled.entries)).rotation_map
            for rot in (shuffled, solved):
                consistent = check_permutation_consistent(rot).consistent
                paths.add(consistent)
                shift = ShiftOperator(rot)
                assert (shift._row_to_col is not None) == consistent
                vec = npr.normal(size=shift.dim) + 1j * npr.normal(size=shift.dim)
                direct = shift.to_dense().astype(complex) @ vec
                assert np.abs(shift.apply(vec) - direct).max() < 1e-12
        assert paths == {True, False}

    def test_apply_adjoint_matches_transpose(self):
        rng = random.Random(3)
        npr = np.random.default_rng(3)
        for _ in range(30):
            rot = random_rotation(rng, rng.choice([4, 6]), rng.choice([2, 3]))
            shift = build_shift(rot)
            vec = npr.normal(size=shift.dim) + 1j * npr.normal(size=shift.dim)
            direct = shift.to_dense().T.astype(complex) @ vec
            assert np.abs(shift.apply_adjoint(vec) - direct).max() < 1e-12

    def test_consistent_map_gives_permutation_matrix(self):
        shift = build_shift(cycle_rotation(6))
        dense = shift.to_dense()
        assert (dense.sum(axis=0) == 1).all()
        assert (dense.sum(axis=1) == 1).all()


class TestUnitarityDefect:
    def test_canonical_square_exact_identity(self):
        report = unitarity_defect(cycle_rotation(4))
        assert report.defect == 0
        assert (report.product == np.eye(8, dtype=np.int64)).all()

    def test_greedy_square_product(self):
        report = unitarity_defect(greedy_rotation(cycle_graph(4)))
        assert report.defect == 1
        expected = np.diag(np.array([2, 2, 0, 0, 0, 0, 2, 2], dtype=np.int64))
        assert (report.product == expected).all()

    def test_product_omitted_for_large_maps(self):
        report = unitarity_defect(cycle_rotation(40))
        assert report.product is None
        assert report.defect == 0
        assert unitarity_defect(cycle_rotation(32)).product.shape == (64, 64)
        assert unitarity_defect(cycle_rotation(33)).product is None

    def test_report_dict(self):
        payload = unitarity_defect(cycle_rotation(4)).to_dict()
        assert payload["defect"] == 0
        assert payload["n"] == 4 and payload["d"] == 2
        assert payload["product"][0][0] == 1

    def test_matches_dense_oracle(self):
        rng = random.Random(4)
        for _ in range(60):
            rot = random_rotation(rng, rng.choice([4, 5, 6]), 2)
            report = unitarity_defect(rot)
            assert report.defect == defect_by_dense_product(rot.entries)
            dense = dense_shift(rot.entries)
            assert report.product.dtype == np.int64
            assert np.array_equal(report.product, dense @ dense.T)

    def test_zero_defect_iff_consistent(self):
        rng = random.Random(6)
        for _ in range(120):
            rot = random_rotation(rng, rng.choice([3, 4, 5, 6]), 2)
            consistent = check_permutation_consistent(rot).consistent
            assert (unitarity_defect(rot).defect == 0) == consistent

    def test_product_trace_counts_arcs(self):
        # diag(S S^T) counts how many columns land on each row, so the
        # trace always equals the number of arcs n*d
        rng = random.Random(7)
        for _ in range(40):
            rot = random_rotation(rng, rng.choice([4, 6]), rng.choice([2, 3]))
            report = unitarity_defect(rot)
            assert report.product.trace() == rot.n * rot.d


class TestCoins:
    def test_hadamard_matrix(self):
        coin = build_coin("hadamard", 2)
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.abs(coin.matrix - h).max() < 1e-15

    def test_hadamard_needs_two_labels(self):
        with pytest.raises(ConfigError):
            build_coin("hadamard", 3)

    def test_grover_matrix(self):
        coin = build_coin("grover", 4)
        expected = np.full((4, 4), 0.5) - np.eye(4)
        assert np.abs(coin.matrix - expected).max() < 1e-15

    def test_dft_matrix(self):
        coin = build_coin("dft", 3)
        w = np.exp(2j * np.pi / 3)
        assert abs(coin.matrix[1, 1] - w / np.sqrt(3)) < 1e-15
        assert abs(coin.matrix[1, 2] - w**2 / np.sqrt(3)) < 1e-15

    def test_identity_matrix(self):
        coin = build_coin("identity", 5)
        assert (coin.matrix == np.eye(5)).all()

    def test_custom_coin(self):
        mat = np.array([[0, 1], [1, 0]], dtype=complex)
        coin = build_coin("custom", 2, matrix=mat)
        assert (coin.matrix == mat).all()

    def test_custom_requires_unitary(self):
        with pytest.raises(ConfigError):
            build_coin("custom", 2, matrix=np.array([[1, 1], [0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_custom_requires_finite_entries(self, bad):
        mat = np.eye(2, dtype=complex)
        mat[0, 1] = bad
        with pytest.raises(ConfigError, match="finite"):
            build_coin("custom", 2, matrix=mat)
        with pytest.raises(ConfigError, match="finite"):
            build_coin("custom", 2, matrix=np.full((2, 2), bad))

    def test_custom_overflowing_product_rejected(self):
        # Finite entries whose products overflow leave an inf or nan residual.
        for mat in ([[1e200, 0], [0, 1]], [[1e200, 1e200], [1e200, -1e200]]):
            with pytest.raises(ConfigError, match="not unitary"):
                build_coin("custom", 2, matrix=np.array(mat))

    def test_custom_requires_square_of_right_size(self):
        with pytest.raises(ConfigError):
            build_coin("custom", 3, matrix=np.eye(2))

    @pytest.mark.parametrize("d, matrix", [(1, [["a"]]), (2, [[1, 0], [0]]), (1, [[{}]]), (1, [[None]])])
    def test_custom_requires_numbers(self, d, matrix):
        with pytest.raises(ConfigError, match="array of numbers"):
            build_coin("custom", d, matrix)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_coin("fourier", 2)

    def test_catalog_unitarity(self):
        for d in range(1, 9):
            kinds = ["grover", "dft", "identity"]
            if d == 2:
                kinds.append("hadamard")
            for kind in kinds:
                coin = build_coin(kind, d)
                gram = coin.matrix.conj().T @ coin.matrix
                assert np.abs(gram - np.eye(d)).max() < 1e-12
