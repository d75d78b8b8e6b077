import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from rotwalk import (
    ConfigError,
    RegularGraph,
    RotationMap,
    COIN_KINDS,
    CoinOperator,
    ShiftOperator,
    UnitarityReport,
    WalkState,
    build_coin,
    build_shift,
    check_permutation_consistent,
    cycle_graph,
    cycle_rotation,
    greedy_rotation,
    random_regular_graph,
    solve_permutation,
    step,
    unitarity_defect,
)

from oracles import defect_by_dense_product, dense_shift


def random_rotation(rng, n, d):
    g = random_regular_graph(n, d, seed=rng.randrange(10**6))
    rows = [list(map(int, row)) for row in g.neighbors]
    for row in rows:
        rng.shuffle(row)
    return RotationMap(np.array(rows))


def shifted(shift, vec):
    """S @ vec, written by the shift kernel into a new array of vec's dtype."""
    out = np.empty_like(vec)
    shift._apply_into(vec, out)
    return out


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
        out = shifted(shift, state)
        expected = np.zeros(8, dtype=complex)
        expected[1] = 1.0
        assert (out == expected).all()

    def test_basis_action_greedy(self):
        # greedy label 1 carries vertex 3 to vertex 2
        shift = build_shift(greedy_rotation(cycle_graph(4)))
        state = np.zeros(8, dtype=complex)
        state[2] = 1.0
        out = shifted(shift, state)
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
                assert np.abs(shifted(shift, vec) - direct).max() < 1e-12
        assert paths == {True, False}

    @pytest.mark.parametrize("kind", ["solved", "greedy"])
    @pytest.mark.parametrize("dtype, out", [
        (np.float64, np.complex128), (np.complex128, np.complex128), (np.float32, np.complex128),
        (np.complex64, np.complex128), (np.int64, np.complex128),
    ])
    def test_apply_converts_every_dtype_to_complex128(self, kind, dtype, out):
        # A step with the identity coin is the shift alone.  A state of any
        # dtype is shifted and handed out as complex128, on the gather and
        # the np.add.at path alike; the integers here evolve in real
        # arithmetic and stay exact.
        g = random_regular_graph(12, 3, seed=1)
        rot = solve_permutation(g).rotation_map if kind == "solved" else greedy_rotation(g)
        shift = build_shift(rot)
        vec = np.arange(-18, 18).astype(dtype)
        result = step(WalkState(12, 3, vec), build_coin("identity", 3), shift).amplitudes
        assert result.dtype == out
        assert np.array_equal(result, shift.to_dense() @ np.arange(-18, 18))

    @pytest.fixture(scope="class")
    def large_maps(self):
        g = random_regular_graph(2000, 8, seed=1)
        return {"solved": solve_permutation(g).rotation_map, "greedy": greedy_rotation(g)}

    @pytest.mark.parametrize("kind", ["solved", "greedy"])
    @pytest.mark.parametrize("dtype", [np.complex128])
    def test_apply_allocates_only_its_output(self, large_maps, kind, dtype):
        # ndarray.take copied the read-only inverse table on every call: a
        # traced peak of 1.50x the output.
        shift = build_shift(large_maps[kind])
        vec = np.random.default_rng(1).normal(size=shift.dim).astype(dtype)
        tracemalloc.start()
        try:
            out = shifted(shift, vec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.nbytes
        expected = np.zeros_like(vec)
        np.add.at(expected, shift.col_to_row, vec)
        assert np.array_equal(out, expected)
        assert not shift.col_to_row.flags.writeable
        # take(mode="clip") would clamp a bad index silently: the private
        # inverse table must be an exact permutation, the inverse of col_to_row.
        # It stays writeable: np.take copies a read-only index on every call.
        if kind == "solved":
            assert np.array_equal(shift._row_to_col, np.argsort(shift.col_to_row))
            assert shift._row_to_col.flags.writeable
        else:
            assert shift._row_to_col is None

    @pytest.mark.parametrize("kind", ["solved", "greedy"])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_apply_into_allocates_nothing(self, large_maps, kind, dtype):
        # With a read-only index, or with mode "raise" and an output, take
        # would copy the index or the output on every call, 128 or 256 KB
        # here.  np.add.at allocates about 5 KB per call at any size.
        shift = build_shift(large_maps[kind])
        vec = np.random.default_rng(2).normal(size=shift.dim).astype(dtype)
        out = np.full_like(vec, np.nan)
        tracemalloc.start()
        try:
            shift._apply_into(vec, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (4096 if kind == "solved" else 8192)
        expected = np.zeros_like(vec)
        np.add.at(expected, shift.col_to_row, vec)
        assert np.array_equal(out, expected)

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

    def test_report_holds_only_the_counts(self):
        # The column counts are the report's one fact; the defect and the
        # product are read from them, so no write can make them disagree.
        assert [field.name for field in dataclasses.fields(UnitarityReport)] == ["counts"]
        report = unitarity_defect(greedy_rotation(cycle_graph(4)))
        assert report.counts.tolist() == [2, 2, 0, 0, 0, 0, 2, 2]
        counts = np.array([1, 3, 0, 1])
        built = UnitarityReport(counts)
        counts[1] = 1  # the report keeps a copy of its own
        assert built.defect == 2 and built.product.diagonal().tolist() == [1, 3, 0, 1]
        assert built.counts.dtype == np.int64 and not built.counts.flags.writeable

    def test_matches_dense_oracle(self):
        rng = random.Random(4)
        seen = set()
        for _ in range(60):
            rot = random_rotation(rng, rng.choice([4, 5, 6]), 2)
            report = unitarity_defect(rot)
            assert report.defect == defect_by_dense_product(rot.entries)
            dense = dense_shift(rot.entries)
            assert report.product.dtype == np.int64
            assert np.array_equal(report.product, dense @ dense.T)
            # S.S^T = I exactly when the defect is 0, and not otherwise.
            orthogonal = np.array_equal(dense @ dense.T, np.eye(2 * rot.n, dtype=np.int64))
            assert orthogonal == (report.defect == 0)
            seen.add(orthogonal)
        assert seen == {True, False}

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
        coin = CoinOperator(mat)
        assert coin.d == 2 and (coin.matrix == mat).all()

    def test_custom_requires_unitary(self):
        with pytest.raises(ConfigError):
            CoinOperator(np.array([[1, 1], [0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_custom_requires_finite_entries(self, bad):
        mat = np.eye(2, dtype=complex)
        mat[0, 1] = bad
        with pytest.raises(ConfigError, match="finite"):
            CoinOperator(mat)
        with pytest.raises(ConfigError, match="finite"):
            CoinOperator(np.full((2, 2), bad))

    def test_custom_overflowing_product_rejected(self):
        # Finite entries whose products overflow leave an inf or nan residual.
        for mat in ([[1e200, 0], [0, 1]], [[1e200, 1e200], [1e200, -1e200]]):
            with pytest.raises(ConfigError, match="not unitary"):
                CoinOperator(np.array(mat))

    def test_custom_requires_square_of_right_size(self):
        for mat in (np.ones((2, 3)), np.ones(2), np.ones((1, 1, 1)), 1.0):
            with pytest.raises(ConfigError, match=r"^coin matrix must be square, got shape"):
                CoinOperator(mat)

    @pytest.mark.parametrize("matrix", [[["a"]], [[1, 0], [0]], [[{}]], [[None]]])
    def test_custom_requires_numbers(self, matrix):
        with pytest.raises(ConfigError, match=r"^coin matrix must be a square array of numbers$"):
            CoinOperator(matrix)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_coin("fourier", 2)

    @pytest.mark.parametrize("make, message", [
        (lambda: build_coin("grover", 0), "coin dimension must be positive, got 0"),
        (lambda: build_coin("identity", -2), "coin dimension must be positive, got -2"),
        (lambda: CoinOperator(np.zeros((0, 0))), "coin dimension must be positive, got 0"),
        # A custom coin is CoinOperator(matrix); build_coin names no such kind.
        (lambda: build_coin("custom", 2),
         r"^unknown coin kind 'custom'; expected one of hadamard, grover, dft, identity$"),
    ], ids=["grover 0", "identity -2", "operator 0", "custom without matrix"])
    def test_refused(self, make, message):
        with pytest.raises(ConfigError, match=message):
            make()

    def test_equality(self):
        coin = build_coin("grover", 3)
        assert coin == build_coin("grover", 3)
        assert coin != build_coin("dft", 3)
        assert coin != build_coin("grover", 4)
        assert coin == CoinOperator(coin.matrix)
        assert CoinOperator(np.eye(2)) != CoinOperator([[0, 1], [1, 0]])
        assert coin != coin.matrix.tolist() and coin.__eq__(coin.matrix) is NotImplemented

    def test_coin_is_its_matrix(self):
        # The matrix is the coin's one fact: d is read from it, and a coin
        # built from a named coin's matrix is that coin.
        assert CoinOperator(np.eye(2)) == build_coin("identity", 2)
        assert CoinOperator(np.eye(2)) != build_coin("hadamard", 2)
        for kind in COIN_KINDS:
            coin = build_coin(kind, 2)
            assert CoinOperator(coin.matrix.tolist()) == coin
        assert CoinOperator(np.eye(5)).d == 5
        assert repr(build_coin("dft", 3)) == "CoinOperator(d=3)"
        assert CoinOperator.__slots__ == ("matrix",)

    def test_catalog_unitarity(self):
        for d in range(1, 9):
            kinds = ["grover", "dft", "identity"]
            if d == 2:
                kinds.append("hadamard")
            for kind in kinds:
                coin = build_coin(kind, d)
                gram = coin.matrix.conj().T @ coin.matrix
                assert np.abs(gram - np.eye(d)).max() < 1e-12
