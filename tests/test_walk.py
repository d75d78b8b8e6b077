import json
import os
import random
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotwalk import (
    ConfigError,
    RegularGraph,
    RotationMap,
    ShiftOperator,
    WalkState,
    WalkTrajectory,
    build_coin,
    build_shift,
    check_permutation_consistent,
    cli,
    cycle_graph,
    cycle_rotation,
    distribution,
    greedy_rotation,
    init_state,
    random_regular_graph,
    run,
    serialize_graph,
    serialize_rotation,
    solve_permutation,
    step,
    stream_records,
    uniform_state,
    unitarity_defect,
)

from rotwalk import walk
from rotwalk.textio import _float_text, _joined_rows, _kernel_tables
from rotwalk.walk import _exactly_real, _probabilities

from oracles import (
    complex_walk,
    csv_by_fstring,
    dense_step,
    dense_unwalk,
    distribution_by_loop,
    random_regular_by_pairing,
)


class TestStates:
    def test_single_point_mass(self):
        state = init_state(4, 2, [(0, 0, 1.0)])
        assert state.amplitudes[0] == 1.0
        assert abs(state.norm2() - 1.0) < 1e-15

    def test_two_term_superposition(self):
        state = init_state(4, 2, [(0, 0, 1.0), (1, 0, 1j)])
        root_half = 1 / np.sqrt(2)
        assert abs(state.amplitudes[0] - root_half) < 1e-15
        assert abs(state.amplitudes[4] - 1j * root_half) < 1e-15

    def test_duplicate_entries_add(self):
        state = init_state(4, 2, [(0, 1, 1.0), (0, 1, 1.0)])
        assert abs(state.amplitudes[1] - 1.0) < 1e-15

    def test_uniform_state(self):
        state = uniform_state(4, 2)
        assert np.abs(state.amplitudes - 1 / np.sqrt(8)).max() < 1e-15
        for n, d in [(1, 1), (5, 3), (7, 8)]:
            support = [(j, v, 1.0) for j in range(d) for v in range(n)]
            assert uniform_state(n, d).amplitudes.tobytes() == init_state(n, d, support).amplitudes.tobytes()
        with pytest.raises(ConfigError):
            uniform_state(0, 2)

    def test_repr_names_shape_and_step(self):
        state = uniform_state(4, 2)
        assert repr(state) == "WalkState(n=4, d=2, step=0)"
        stepped = step(state, build_coin("grover", 2), build_shift(cycle_rotation(4)))
        assert repr(stepped) == "WalkState(n=4, d=2, step=1)"

    def test_empty_support_rejected(self):
        with pytest.raises(ConfigError):
            init_state(4, 2, [])

    def test_cancelling_support_rejected(self):
        with pytest.raises(ConfigError):
            init_state(4, 2, [(0, 0, 1.0), (0, 0, -1.0)])

    @pytest.mark.parametrize("amplitude", [complex("nan"), complex("inf"), complex(0, -np.inf)])
    def test_non_finite_amplitude_rejected(self, amplitude):
        with pytest.raises(ConfigError, match="not finite"):
            init_state(4, 2, [(0, 0, 1.0), (1, 2, amplitude)])

    @pytest.mark.parametrize("support", [[(0, 0, 1e200)], [(0, 0, 1e308), (0, 0, 1e308)], [(0, 0, 10**400)]])
    def test_amplitudes_too_large_to_normalize_rejected(self, support):
        with pytest.raises(ConfigError, match="too large"):
            init_state(4, 2, support)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            init_state(4, 2, [(2, 0, 1.0)])
        with pytest.raises(ConfigError):
            init_state(4, 2, [(0, 4, 1.0)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_state_with_non_finite_amplitude_rejected(self, bad):
        with pytest.raises(ConfigError, match="amplitudes must be finite"):
            WalkState(2, 2, [bad, 0, 0, 0])

    @pytest.mark.parametrize("n, amplitudes", [(1, ["a"]), (2, [1, [0]]), (1, [{}]), (1, [None])])
    def test_state_with_non_numeric_amplitudes_rejected(self, n, amplitudes):
        with pytest.raises(ConfigError, match="numbers"):
            WalkState(n, 1, amplitudes)

    @pytest.mark.parametrize("make, message", [
        (lambda: WalkState(-2, -3, np.ones(6)), "state needs n >= 1 and d >= 1"),
        (lambda: WalkState(0, 2, []), "state needs n >= 1 and d >= 1"),
        (lambda: init_state(2, 0, [(0, 0, 1.0)]), "state needs n >= 1 and d >= 1"),
        (lambda: uniform_state(-1, 2), "state needs n >= 1 and d >= 1"),
        (lambda: WalkState(2, 2, [1, 0, 0]), r"amplitude vector must have length d\*n = 4"),
    ], ids=["negative", "no vertex", "init no label", "uniform negative", "wrong length"])
    def test_state_with_bad_shape_rejected(self, make, message):
        with pytest.raises(ConfigError, match=message):
            make()

    def test_overflowing_evolution_reported_as_data(self):
        # The greedy 4-cycle map doubles the mass on two vertices; from
        # finite amplitudes near the float limit, step() and run() return
        # the overflowed state and records instead of refusing them, and
        # with no warning: the kernels set the overflow policy themselves.
        state = WalkState(4, 2, np.full(8, 1e308))
        coin, shift = build_coin("identity", 2), build_shift(greedy_rotation(cycle_graph(4)))
        after = step(state, coin, shift)
        again = step(after, coin, shift)
        traj = run(state, coin, shift, 2)
        assert np.isinf(after.amplitudes).any()
        assert again.step_index == traj.final_state.step_index == 2
        assert traj.final_state.amplitudes.tobytes() == again.amplitudes.tobytes()
        assert traj.records[0].norm2 == np.inf
        assert not np.isfinite(traj.records[1].probabilities).all()

    def test_amplitudes_read_only(self):
        state = init_state(4, 2, [(0, 0, 1.0)])
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestDistribution:
    def test_point_mass(self):
        state = init_state(4, 2, [(1, 2, 1.0)])
        assert distribution(state).tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_sums_over_coin_labels(self):
        state = init_state(4, 2, [(0, 1, 1.0), (1, 1, 1.0)])
        dist = distribution(state)
        assert abs(dist[1] - 1.0) < 1e-15
        assert abs(dist.sum() - state.norm2()) < 1e-15

    def test_matches_loop_oracle(self):
        npr = np.random.default_rng(8)
        for _ in range(20):
            amps = npr.normal(size=12) + 1j * npr.normal(size=12)
            state = init_state(4, 3, [
                (j, v, amps[j * 4 + v]) for j in range(3) for v in range(4)])
            expected = distribution_by_loop(state.amplitudes, 4, 3)
            assert np.abs(distribution(state) - expected).max() < 1e-12

    def test_overflowed_state_as_silent_as_its_record(self):
        # On the greedy map of random-regular 300x6 the amplitudes grow
        # until their squares overflow: distribution() of the final state
        # carries that as data, with no warning, as run()'s last record
        # does, and with its bits.
        rot = greedy_rotation(random_regular_graph(300, 6, seed=4))
        traj = run(init_state(300, 6, [(0, 0, 1.0)]), build_coin("grover", 6), build_shift(rot), 2000)
        probabilities = distribution(traj.final_state)
        assert np.isinf(probabilities).any()
        assert probabilities.tobytes() == traj.records[-1].probabilities.tobytes()


class TestSingleSteps:
    def test_hadamard_step_canonical_square(self):
        # from (label 1, vertex 1) the mass splits evenly onto vertices 2, 4
        state = init_state(4, 2, [(0, 0, 1.0)])
        coin = build_coin("hadamard", 2)
        shift = build_shift(cycle_rotation(4))
        out = step(state, coin, shift)
        dist = distribution(out)
        assert np.abs(dist - [0.0, 0.5, 0.0, 0.5]).max() < 1e-12
        assert abs(out.norm2() - 1.0) < 1e-12
        assert out.step_index == 1

    def test_identity_coin_walks_the_cycle(self):
        state = init_state(4, 2, [(0, 0, 1.0)])
        coin = build_coin("identity", 2)
        shift = build_shift(cycle_rotation(4))
        for t in range(1, 5):
            state = step(state, coin, shift)
            expected_vertex = t % 4  # label 1 advances one vertex per step
            assert abs(distribution(state)[expected_vertex] - 1.0) < 1e-12

    def test_inconsistent_shift_preserves_basis_states(self):
        # one coined step from a basis state cannot collide: the coin
        # stays inside one vertex and each shift column has one target
        state = init_state(4, 2, [(0, 0, 1.0)])
        coin = build_coin("hadamard", 2)
        shift = build_shift(greedy_rotation(cycle_graph(4)))
        out = step(state, coin, shift)
        assert abs(out.norm2() - 1.0) < 1e-12

    def test_inconsistent_shift_doubles_uniform_mass(self):
        # both greedy columns of the 4-cycle are 2-to-1, so a single shift
        # of the flat state adds equal amplitudes pairwise: norm2 becomes 2
        # (a step with the identity coin is the shift alone)
        state = uniform_state(4, 2)
        shift = build_shift(greedy_rotation(cycle_graph(4)))
        out = step(state, build_coin("identity", 2), shift)
        assert abs(out.norm2() - 2.0) < 1e-12

    def test_step_matches_dense_oracle(self):
        rng = random.Random(12)
        npr = np.random.default_rng(12)
        for _ in range(25):
            n = rng.choice([4, 5, 6])
            g = random_regular_graph(n, 2, seed=rng.randrange(10**6))
            rows = [list(map(int, row)) for row in g.neighbors]
            for row in rows:
                rng.shuffle(row)
            rot = RotationMap(np.array(rows))
            coin = build_coin(rng.choice(["hadamard", "grover", "dft"]), 2)
            amps = npr.normal(size=2 * n) + 1j * npr.normal(size=2 * n)
            state = init_state(n, 2, [
                (j, v, amps[j * n + v]) for j in range(2) for v in range(n)])
            ours = step(state, coin, build_shift(rot)).amplitudes
            reference = dense_step(state.amplitudes, coin.matrix, rot.entries)
            assert np.abs(ours - reference).max() < 1e-12

    def test_dimension_mismatch_rejected(self):
        state = init_state(4, 2, [(0, 0, 1.0)])
        coin, shift = build_coin("grover", 2), build_shift(cycle_rotation(4))
        for bad_coin, bad_shift, message in [
            (build_coin("grover", 3), shift, r"^coin dimension 3 != state coin dimension 2$"),
            (coin, build_shift(cycle_rotation(5)), r"^shift is 2 x 5, state is 2 x 4$"),
        ]:
            with pytest.raises(ConfigError, match=message):
                step(state, bad_coin, bad_shift)

    @pytest.mark.parametrize("thread", [False, True], ids=["inline", "record-thread"])
    @pytest.mark.parametrize("imaginary", [0, 1e-300j], ids=["real", "complex"])
    def test_overflowing_steps_as_silent_as_their_records(self, request, thread, imaginary):
        # On the greedy map of random-regular 300x6 the amplitudes of the
        # Grover walk overflow at step 2445.  Chained step() calls carry
        # that as data, with no warning, as run() does, inline or on the
        # record thread; each step's distribution() is run()'s record.  A
        # 1e-300j part on every entry forces complex arithmetic.
        if thread:
            request.getfixturevalue("record_thread")
        rot = greedy_rotation(random_regular_graph(300, 6, seed=4))
        coin, shift = build_coin("grover", 6), build_shift(rot)
        state = WalkState(300, 6, uniform_state(300, 6).amplitudes + imaginary)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = run(state, coin, shift, 2600).records
            for rec in records[1:]:
                state = step(state, coin, shift)
                assert np.array_equal(distribution(state), rec.probabilities, equal_nan=True), rec.step
        assert not np.isfinite(records[-1].probabilities).any()

    def test_reversibility_on_consistent_maps(self):
        # t steps of run() are undone by t applications of U^H, the dense
        # oracle's adjoint step.  A cycle's labels are not involutions, so
        # a shift replaced by its transpose does not come back.
        rng = random.Random(13)
        maps = [cycle_rotation(5), cycle_rotation(8)]
        for _ in range(8):
            g = random_regular_graph(rng.choice([6, 8, 10]), 3, seed=rng.randrange(10**6))
            maps.append(solve_permutation(g).rotation_map)
        for rot in maps:
            coin = build_coin(rng.choice(["grover", "dft"]), rot.d)
            state = init_state(rot.n, rot.d, [(0, 0, 1.0), (rot.d - 1, 1, 1.0)])
            final = run(state, coin, build_shift(rot), 5).final_state
            assert final.step_index == 5
            back = dense_unwalk(final.amplitudes, coin.matrix, rot.entries, 5)
            assert np.abs(back - state.amplitudes).max() < 1e-9


class TestTrajectories:
    def test_run_records_initial_state(self):
        state = init_state(4, 2, [(0, 0, 1.0)])
        traj = run(state, build_coin("hadamard", 2),
                   build_shift(cycle_rotation(4)), 0)
        assert len(traj.records) == 1
        assert traj.records[0].step == 0

    def test_unitary_norm_conservation(self):
        state = init_state(4, 2, [(0, 0, 1.0)])
        traj = run(state, build_coin("hadamard", 2),
                   build_shift(cycle_rotation(4)), 50)
        assert len(traj.records) == 51
        assert max(abs(x - 1.0) for x in traj.norms()) < 1e-9

    def test_greedy_square_uniform_identity_norms(self):
        # frozen: the flat state under the identity coin and the greedy
        # 4-cycle shift jumps to squared norm 2 and stays there
        traj = run(uniform_state(4, 2), build_coin("identity", 2),
                   build_shift(greedy_rotation(cycle_graph(4))), 5)
        expected = [1.0, 2.0, 2.0, 2.0, 2.0, 2.0]
        assert np.abs(np.array(traj.norms()) - expected).max() < 1e-12

    def test_probabilities_sum_to_norm2(self):
        traj = run(uniform_state(4, 2), build_coin("grover", 2),
                   build_shift(greedy_rotation(cycle_graph(4))), 6)
        for rec in traj.records:
            assert abs(rec.probabilities.sum() - rec.norm2) < 1e-12

    def test_records_compare_hash_and_stay_read_only(self):
        traj = run(uniform_state(4, 2), build_coin("grover", 2),
                   build_shift(cycle_rotation(4)), 3)
        for rec in traj.records:
            assert rec == rec
            assert hash(rec) == hash(rec)
            with pytest.raises(ValueError, match="read-only"):
                rec.probabilities[0] = 1.0
        first, second = traj.records[:2]
        assert first != second

    def test_dimensions_are_the_final_states(self):
        traj = run(uniform_state(6, 3), build_coin("grover", 3),
                   build_shift(greedy_rotation(random_regular_graph(6, 3, seed=4))), 2)
        assert (traj.n, traj.d) == (traj.final_state.n, traj.final_state.d) == (6, 3)
        rebuilt = WalkTrajectory(traj.records, traj.final_state)
        assert (rebuilt.n, rebuilt.d) == (6, 3) and rebuilt.to_csv_text() == traj.to_csv_text()
        # n and d are not arguments, so they cannot disagree with the state.
        with pytest.raises(TypeError):
            WalkTrajectory(5, 3, traj.records, traj.final_state)

    def test_records_of_another_width_rejected(self):
        # Records of another width would otherwise fail later, inside
        # NumPy's hstack in to_csv_text.
        records = run(uniform_state(4, 2), build_coin("grover", 2), build_shift(cycle_rotation(4)), 2).records
        with pytest.raises(ConfigError, match=r"^record of step 0 has probabilities of shape \(4,\); "
                                              r"the final state has n = 6$"):
            WalkTrajectory(records, uniform_state(6, 2))
        assert WalkTrajectory([], uniform_state(6, 2)).records == []

    def test_negative_step_count_rejected(self):
        state = init_state(4, 2, [(0, 0, 1.0)])
        with pytest.raises(ConfigError):
            run(state, build_coin("hadamard", 2),
                build_shift(cycle_rotation(4)), -1)

    def test_csv_golden(self):
        rot = RotationMap(np.array([[1], [0]]))
        state = init_state(2, 1, [(0, 0, 1.0)])
        traj = run(state, build_coin("identity", 1), build_shift(rot), 1)
        assert traj.to_csv_text() == (
            "step,vertex,probability,norm2\n"
            "0,1,1.0,1.0\n"
            "0,2,0.0,1.0\n"
            "1,1,0.0,1.0\n"
            "1,2,1.0,1.0\n"
        )

    def test_csv_matches_per_vertex_loop(self):
        traj = run(uniform_state(6, 3), build_coin("dft", 3),
                   build_shift(greedy_rotation(random_regular_graph(6, 3, seed=4))), 4)
        expected = "step,vertex,probability,norm2\n" + "".join(
            f"{rec.step},{v + 1},{float(rec.probabilities[v])!r},{rec.norm2!r}\n"
            for rec in traj.records for v in range(traj.n))
        assert traj.to_csv_text() == expected

    def test_csv_byte_reproducible(self):
        def make():
            traj = run(uniform_state(4, 2), build_coin("hadamard", 2),
                       build_shift(cycle_rotation(4)), 7)
            return traj.to_csv_text()

        assert make() == make()

    def test_report_structure(self, tmp_path):
        graph, rot, out = tmp_path / "c4.edges", tmp_path / "c4.rot", tmp_path / "walk.json"
        graph.write_text(serialize_graph(cycle_graph(4)))
        rot.write_text(serialize_rotation(cycle_rotation(4)))
        argv = ["walk", str(graph), str(rot), "--coin", "hadamard", "--steps", "2",
                "--format", "json", "--out", str(out)]
        assert cli.main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["version"] == 1
        assert payload["n"] == 4 and payload["d"] == 2
        assert [s["step"] for s in payload["steps"]] == [0, 1, 2]
        assert len(payload["steps"][0]["probabilities"]) == 4


class TestKernel:
    """run() keeps bare arrays between steps; it must agree with step()."""

    @pytest.fixture(scope="class")
    def maps(self):
        g = random_regular_graph(30, 4, seed=5)
        return {"solved": solve_permutation(g).rotation_map, "greedy": greedy_rotation(g)}

    @pytest.mark.parametrize("kind, amplitude", [
        ("solved", 1j), ("greedy", 1j), ("solved", -0.5), ("greedy", -0.5),
    ], ids=["solved", "greedy", "solved-real", "greedy-real"])
    def test_run_equals_chained_steps(self, maps, kind, amplitude):
        # The solved map takes the gather path, the greedy one np.add.at; a
        # real start evolves in real arithmetic, a complex one in complex.
        assert check_permutation_consistent(maps[kind]).consistent == (kind == "solved")
        coin = build_coin("grover", 4)
        shift = build_shift(maps[kind])
        state = WalkState(30, 4, init_state(30, 4, [(1, 7, 1.0), (3, 2, amplitude)]).amplitudes, 3)
        traj = run(state, coin, shift, 12)
        current = state
        for k, rec in enumerate(traj.records):
            if k:
                current = step(current, coin, shift)
            assert rec.step == current.step_index == 3 + k
            assert rec.probabilities.tobytes() == distribution(current).tobytes()
            assert rec.norm2 == current.norm2()
        assert traj.final_state.step_index == current.step_index
        assert traj.final_state.amplitudes.tobytes() == current.amplitudes.tobytes()

    def test_input_unchanged_and_final_read_only(self, maps):
        state = init_state(30, 4, [(0, 0, 1.0)])
        before = state.amplitudes.copy()
        traj = run(state, build_coin("dft", 4), build_shift(maps["solved"]), 5)
        assert state.amplitudes.tobytes() == before.tobytes()
        assert state.step_index == 0
        with pytest.raises(ValueError):
            traj.final_state.amplitudes[0] = 0.0

    def test_run_rejects_mismatched_operators(self, maps):
        state = init_state(30, 4, [(0, 0, 1.0)])
        with pytest.raises(ConfigError):
            run(state, build_coin("grover", 3), build_shift(maps["solved"]), 2)
        with pytest.raises(ConfigError):
            run(state, build_coin("grover", 4), build_shift(cycle_rotation(30)), 2)


class TestRealArithmetic:
    """A real coin from a real start evolves in float64; its records and its
    final state must be those of a complex128 evolution, bit for bit, all
    but the squared norms, which real and complex dot products sum in
    different orders."""

    @pytest.fixture(scope="class")
    def maps(self):
        g = random_regular_graph(300, 6, seed=3)
        return {"solved": solve_permutation(g).rotation_map, "greedy": greedy_rotation(g),
                "cycle": cycle_rotation(200)}

    @staticmethod
    def assert_complex_evolution(state, coin, rot, steps, exact_norms):
        with np.errstate(over="ignore", invalid="ignore"):
            traj = run(state, coin, build_shift(rot), steps)
            probabilities, norms, final = complex_walk(state.amplitudes, coin.matrix, rot.entries, steps)
        assert [rec.probabilities.tobytes() for rec in traj.records] == [p.tobytes() for p in probabilities]
        assert traj.final_state.amplitudes.dtype == np.complex128
        assert traj.final_state.amplitudes.tobytes() == final.tobytes()
        if exact_norms:
            assert np.array(traj.norms()).tobytes() == np.array(norms).tobytes()
        else:
            np.testing.assert_allclose(traj.norms(), norms, rtol=1e-12, atol=0)
        return traj

    @pytest.mark.parametrize("kind, coin", [
        ("solved", "grover"), ("solved", "identity"), ("greedy", "grover"), ("greedy", "identity"),
        ("cycle", "hadamard"),
    ])
    def test_real_walk_equals_complex_evolution(self, maps, kind, coin):
        rot = maps[kind]
        coin = build_coin(coin, rot.d)
        state = init_state(rot.n, rot.d, [(0, 17, 1.0), (1, 120, -0.5)])
        matrix, amps = _exactly_real(coin.matrix, state.amplitudes)
        assert matrix.dtype == amps.dtype == np.float64
        self.assert_complex_evolution(state, coin, rot, 60, exact_norms=False)

    @pytest.mark.parametrize("kind, coin, amplitude", [
        ("solved", "dft", -0.5), ("greedy", "grover", 0.5j), ("cycle", "hadamard", 1 + 1e-300j),
    ])
    def test_complex_walk_unchanged(self, maps, kind, coin, amplitude):
        rot = maps[kind]
        coin = build_coin(coin, rot.d)
        state = init_state(rot.n, rot.d, [(0, 17, 1.0), (1, 120, amplitude)])
        matrix, amps = _exactly_real(coin.matrix, state.amplitudes)
        assert matrix.dtype == amps.dtype == np.complex128
        self.assert_complex_evolution(state, coin, rot, 60, exact_norms=True)

    def test_overflowing_walk_switches_to_complex(self):
        # The walk of TestCsvOracle::test_overflowing_walk: its amplitudes
        # overflow to inf, then complex products turn 0 * inf into nan.
        rot = greedy_rotation(RegularGraph(random_regular_by_pairing(6, 3, seed=10)))
        traj = self.assert_complex_evolution(
            init_state(6, 3, [(0, 0, 1.0)]), build_coin("grover", 3), rot, 1500, exact_norms=False)
        norms = np.array(traj.norms())
        assert np.isinf(norms).any() and np.isnan(norms).any()


class TestRecords:
    """The record loop squares real amplitudes without an abs pass, and
    run() collects its records; they must be the streamed records and
    those of a complex evolution, bit for bit."""

    @pytest.mark.parametrize("d", range(1, 13))
    def test_real_squares_equal_abs_then_square(self, d):
        rng = np.random.default_rng(d)
        n = 600
        wide = rng.uniform(1, 2, d * n) * np.exp2(rng.integers(-1080, 1024, d * n).astype(float))
        wide *= rng.choice([-1.0, 1.0], d * n)
        specials = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, np.inf, -np.inf, 1e154, -1.4e154]
        wide[rng.choice(d * n, 200, replace=False)] = rng.choice(specials, 200)
        with np.errstate(over="ignore", under="ignore"):
            expected = np.square(np.abs(wide.reshape(d, n))).sum(axis=0)
            assert _probabilities(wide, d).tobytes() == expected.tobytes()
            assert _probabilities(wide, d, np.empty(n)).tobytes() == expected.tobytes()
            assert _probabilities(wide.astype(np.complex128), d).tobytes() == expected.tobytes()

    @pytest.fixture(scope="class")
    def walks(self):
        g = random_regular_graph(300, 6, seed=3)
        solved, greedy = solve_permutation(g).rotation_map, greedy_rotation(g)
        overflowing = greedy_rotation(RegularGraph(random_regular_by_pairing(6, 3, seed=10)))
        return {
            "solved-real": (solved, "grover", [(0, 17, 1.0), (1, 120, -0.5)], 60),
            "greedy-real": (greedy, "grover", [(0, 17, 1.0), (1, 120, -0.5)], 60),
            "solved-complex": (solved, "dft", [(0, 17, 1.0), (1, 120, 0.5j)], 60),
            "greedy-complex": (greedy, "grover", [(0, 17, 1.0), (1, 120, 0.5j)], 60),
            "overflowing": (overflowing, "grover", [(0, 0, 1.0)], 1500),
        }

    @pytest.mark.parametrize("case", ["solved-real", "greedy-real", "solved-complex",
                                      "greedy-complex", "overflowing"])
    def test_run_equals_streamed_records_and_complex_walk(self, walks, case):
        rot, kind, support, steps = walks[case]
        state, coin, shift = init_state(rot.n, rot.d, support), build_coin(kind, rot.d), build_shift(rot)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = run(state, coin, shift, steps)
            streamed = list(stream_records(state, coin, shift, steps))
            probabilities, _, _ = complex_walk(state.amplitudes, coin.matrix, rot.entries, steps)
        assert [rec.step for rec in traj.records] == [rec.step for rec in streamed] == list(range(steps + 1))
        assert np.array(traj.norms()).tobytes() == np.array([rec.norm2 for rec in streamed]).tobytes()
        rows = [rec.probabilities.tobytes() for rec in traj.records]
        assert rows == [rec.probabilities.tobytes() for rec in streamed]
        assert rows == [p.tobytes() for p in probabilities]
        # An array of its own for each record, collected or streamed: a
        # read-only view of a base that owns exactly its memory.
        for rec in traj.records + streamed:
            assert rec.probabilities.base.base is None
            assert rec.probabilities.base.nbytes == rec.probabilities.nbytes

    @pytest.mark.parametrize("t", [0, 1, 5])
    def test_records_stay_read_only(self, t):
        traj = run(uniform_state(4, 2), build_coin("grover", 2), build_shift(cycle_rotation(4)), t)
        assert len(traj.records) == t + 1
        for rec in traj.records:
            assert not rec.probabilities.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                rec.probabilities[0] = 1.0
            with pytest.raises(ValueError, match="WRITEABLE"):
                rec.probabilities.setflags(write=True)

    @pytest.mark.parametrize("t", [-10**18, 2.5, "3", None])
    def test_bad_step_count_rejected(self, t):
        state = init_state(4, 2, [(0, 0, 1.0)])
        with pytest.raises(ConfigError, match="step count"):
            run(state, build_coin("hadamard", 2), build_shift(cycle_rotation(4)), t)


def _square_operators():
    return build_coin("grover", 2), build_shift(cycle_rotation(4))


def _square_walk(t):
    return run(uniform_state(4, 2), *_square_operators(), t)


# Every array a public type hands out, and the states each evolution
# makes: a read-only view of a read-only base, so that the array itself
# refuses setflags(write=True) (a base that owns its memory would accept
# it).  The guard is against accidental writes only: the base, reached
# through ``.base``, can still be made writeable.
HANDED_OUT = {
    "graph neighbors": lambda: cycle_graph(4).neighbors,
    "map entries": lambda: cycle_rotation(4).entries,
    "shift col_to_row": lambda: build_shift(greedy_rotation(cycle_graph(4))).col_to_row,
    "report violations": lambda: (
        check_permutation_consistent(greedy_rotation(cycle_graph(4))).violations),
    "unitarity counts": lambda: unitarity_defect(greedy_rotation(cycle_graph(4))).counts,
    "unitarity product": lambda: unitarity_defect(greedy_rotation(cycle_graph(4))).product,
    "coin matrix": lambda: build_coin("grover", 2).matrix,
    "state amplitudes": lambda: uniform_state(4, 2).amplitudes,
    "record probabilities": lambda: _square_walk(3).records[-1].probabilities,
    "run final state": lambda: _square_walk(3).final_state.amplitudes,
    "step": lambda: step(uniform_state(4, 2), *_square_operators()).amplitudes,
}


# Each type that holds one array, which gives its n and d: they, and a
# state's amplitudes, are read from it and cannot be set.
HOLDERS = {
    "graph": lambda: cycle_graph(5),
    "map": lambda: cycle_rotation(5),
    "shift": lambda: build_shift(cycle_rotation(5)),
    "state": lambda: uniform_state(5, 2),
}


class TestReadOnlyArrays:
    @pytest.mark.parametrize("name", list(HANDED_OUT))
    def test_refuses_to_become_writeable(self, name):
        array = HANDED_OUT[name]()
        assert not array.flags.writeable and array.size
        with pytest.raises(ValueError, match="WRITEABLE"):
            array.setflags(write=True)
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0

    @pytest.mark.parametrize("build", [
        lambda g: g, greedy_rotation, lambda g: build_shift(greedy_rotation(g)),
    ])
    def test_hash_is_fixed_at_construction(self, build):
        table = build(random_regular_graph(10, 3, seed=1))
        before = hash(table)
        array = getattr(table, table._TABLE)
        with pytest.raises(ValueError):
            array.setflags(write=True)
        with pytest.raises(ValueError):
            array[0] = 0
        assert hash(table) == before

    @pytest.mark.parametrize("name, attribute", [
        *((name, attribute) for name in HOLDERS for attribute in ("n", "d")),
        ("state", "amplitudes"),
    ])
    def test_refuses_assignment(self, name, attribute):
        holder = HOLDERS[name]()
        before = getattr(holder, attribute)
        with pytest.raises(AttributeError):
            setattr(holder, attribute, before * 2)
        assert (holder.n, holder.d) == (5, 2)
        assert np.array_equal(getattr(holder, attribute), before)

    def test_slots_hold_the_array_alone(self):
        assert RegularGraph.__slots__ == ("neighbors",)
        assert RotationMap.__slots__ == ("entries",)
        assert ShiftOperator.__slots__ == ("_table", "_row_to_col")
        assert WalkState.__slots__ == ("_amplitudes", "step_index")
        assert not any(hasattr(build(), "__dict__") for build in HOLDERS.values())


class TestInPlaceLoop:
    """The record loop evolves the walk in buffers it owns: a step
    allocates no array of the state's size, no record shares memory with
    the buffers, and the caller's state is never written."""

    @pytest.fixture(scope="class")
    def maps(self):
        g = random_regular_graph(2000, 8, seed=1)
        return {"solved": solve_permutation(g).rotation_map, "greedy": greedy_rotation(g)}

    WALKS = [("grover", -0.5), ("dft", 0.5j)]

    @pytest.mark.parametrize("kind", ["solved", "greedy"])
    @pytest.mark.parametrize("coin, amplitude", WALKS, ids=["real", "complex"])
    def test_streamed_steps_allocate_no_state(self, maps, kind, coin, amplitude):
        # A fresh coin product and gather output per step traced 2.0x the
        # real state's bytes on a real walk, 6.0x on a complex one.  What
        # is left is one record's probabilities, n floats, made while the
        # one before it is still held.
        rot = maps[kind]
        state = init_state(rot.n, rot.d, [(0, 17, 1.0), (1, 120, amplitude)])
        coin, shift = build_coin(coin, rot.d), build_shift(rot)
        with np.errstate(over="ignore", invalid="ignore"):
            tracemalloc.start()
            try:
                records = stream_records(state, coin, shift, 40)
                record = next(records)
                before = tracemalloc.get_traced_memory()[1]
                for _ in range(40):
                    record = next(records)
                grown = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        assert record.step == 40
        assert grown <= 0.25 * 8 * rot.n * rot.d

    @pytest.mark.parametrize("kind", ["solved", "greedy"])
    @pytest.mark.parametrize("coin, amplitude", WALKS, ids=["real", "complex"])
    def test_kept_record_holds_only_its_probabilities(self, maps, kind, coin, amplitude):
        # A record whose probabilities were a row of one (t + 1, n) array
        # would hold all 201 steps' probabilities here, about 201x.
        rot = maps[kind]
        state = init_state(rot.n, rot.d, [(0, 17, 1.0), (1, 120, amplitude)])
        coin, shift = build_coin(coin, rot.d), build_shift(rot)
        with np.errstate(over="ignore", invalid="ignore"):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                last = run(state, coin, shift, 200).records[-1]
                held = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert last.step == 200
        assert held <= 2 * last.probabilities.nbytes

    @pytest.mark.parametrize("kind", ["solved", "greedy"])
    def test_exhausted_real_walk_returns_its_buffer(self, maps, kind):
        # The loop returns its float64 state buffer as it is: a complex128
        # copy, 2x the real state's bytes, is made by run() alone.
        rot = maps[kind]
        state = init_state(rot.n, rot.d, [(0, 17, 1.0), (1, 120, -0.5)])
        coin, shift = build_coin("grover", rot.d), build_shift(rot)
        tracemalloc.start()
        try:
            records = stream_records(state, coin, shift, 20)
            for _ in range(21):
                last = next(records)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            with pytest.raises(StopIteration) as end:
                next(records)
            grown = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert last.step == 20
        assert grown <= last.probabilities.nbytes
        amps = end.value.value
        assert amps.dtype == np.float64
        final = run(state, coin, shift, 20).final_state.amplitudes
        assert final.dtype == np.complex128
        assert final.tobytes() == amps.astype(np.complex128).tobytes()

    @pytest.mark.parametrize("kind", ["solved", "greedy"])
    @pytest.mark.parametrize("coin, amplitude", WALKS, ids=["real", "complex"])
    def test_records_own_their_memory_and_input_unchanged(self, maps, kind, coin, amplitude):
        rot = maps[kind]
        state = init_state(rot.n, rot.d, [(0, 17, 1.0), (1, 120, amplitude)])
        before = state.amplitudes.tobytes()
        coin, shift = build_coin(coin, rot.d), build_shift(rot)
        with np.errstate(over="ignore", invalid="ignore"):
            streamed = list(stream_records(state, coin, shift, 30))
            traj = run(state, coin, shift, 30)
        assert state.amplitudes.tobytes() == before
        assert [rec.probabilities.tobytes() for rec in streamed] == [
            rec.probabilities.tobytes() for rec in traj.records]
        assert np.array([rec.norm2 for rec in streamed]).tobytes() == np.array(traj.norms()).tobytes()
        assert not any(np.shares_memory(rec.probabilities, traj.final_state.amplitudes)
                       for rec in traj.records)


def float_texts(values, fallback=repr):
    """The kernel's text of each value, as a list of strings."""
    return _joined_rows([_float_text(np.asarray(values, dtype=np.float64), fallback), "\n"]).split("\n")[:-1]


def float_corpus():
    """About 1.2 million deterministic doubles that stress every part of
    the float kernel: its range, its layouts, its rounding and its ties."""
    rng = np.random.default_rng(2021)
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    short = np.array([float(f"{m}e{e}") for m, e in zip(
        rng.integers(1, 10**4, 100_000).tolist(), rng.integers(-12, 19, 100_000).tolist())])
    edges = np.array([1e-6, 1e-5, 1e-4, 1e15, 1e16, 1e17, 0.5, 1.0])
    # Halfway cases: odd quarters (a tie at the 17th digit) and the doubles
    # nearest 18-digit decimals that end in 5.
    quarters = (2 * rng.integers(2**49, 2**51, 50_000) + 1) / 4.0
    halfway = np.array([float(f"{m}5e{e}") for m, e in zip(
        rng.integers(10**16, 10**17, 50_000).tolist(), rng.integers(-23, 1, 50_000).tolist())])
    parts = [
        rng.random(300_000),
        10.0 ** rng.uniform(-8, 17, 300_000),
        rng.integers(1, 10**17, 50_000).astype(np.float64),
        rng.integers(0, 2**63, 50_000, dtype=np.int64).view(np.float64),
        quarters, halfway,
    ]
    for exact in (powers, short, edges):
        parts += [exact, np.nextafter(exact, 0), np.nextafter(exact, np.inf)]
    parts.append(-parts[1][:100_000])
    parts.append(np.array([5e-324, 0.0, -0.0, np.inf, -np.inf, np.nan, 1000000000000000.25]))
    return np.concatenate(parts)


class TestFloatText:
    """The walk CSV's float kernel writes exactly repr's bytes."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return float_corpus()

    def test_corpus_equals_repr(self, corpus):
        assert len(corpus) >= 10**6
        assert float_texts(corpus) == [repr(x) for x in corpus.tolist()]

    def test_array_route_and_fallback_both_run(self, corpus):
        handed_back = []

        def fallback(x):
            handed_back.append(x)
            return repr(x)

        assert float_texts(corpus, fallback) == [repr(x) for x in corpus.tolist()]
        in_range = (np.abs(corpus) > 1e-6) & (np.abs(corpus) < 1e17)
        zero = (corpus == 0) & ~np.signbit(corpus)
        assert len(handed_back) == np.count_nonzero(~in_range & ~zero) > 0
        assert np.count_nonzero(in_range) > 10**6

    def test_digit_tables_equal_formatted_quads(self):
        quads = [b"%04d" % i for i in range(10000)]
        tables = _kernel_tables()
        assert np.array_equal(tables.quads, np.array(quads).view(np.uint32))
        bare = np.array([quad.rstrip(b"0") for quad in quads], dtype="S4").view(np.uint32)
        assert np.array_equal(tables.bare_quads, bare)

    def test_fallback_spells_non_finite_values(self):
        values = [0.25, np.nan, np.inf, -np.inf, -0.0, 1e-300]
        assert float_texts(values, json.dumps) == ["0.25", "NaN", "Infinity", "-Infinity", "-0.0", "1e-300"]

    @settings(derandomize=True, database=None)
    @given(st.lists(st.floats()))
    def test_any_floats_equal_repr(self, values):
        assert float_texts(values) == [repr(x) for x in values]

    @settings(derandomize=True, database=None)
    @given(st.lists(st.floats(min_value=-1e17, max_value=1e17), min_size=1))
    def test_kernel_range_floats_equal_repr(self, values):
        assert float_texts(values) == [repr(x) for x in values]


class TestCsvOracle:
    """The CSV writer against the row-by-row f-string writer it replaced."""

    def test_hadamard_point_mass_walk(self):
        # The front of the walk carries probabilities down to 2^-40, below
        # the kernel's range, so both routes write this CSV.
        traj = run(init_state(200, 2, [(0, 0, 1.0), (1, 0, 1j)]), build_coin("hadamard", 2),
                   build_shift(cycle_rotation(200)), 40)
        probabilities = np.concatenate([rec.probabilities for rec in traj.records])
        assert ((probabilities > 0) & (probabilities <= 1e-6)).any()
        assert traj.to_csv_text() == csv_by_fstring(traj.records)

    def test_overflowing_walk(self):
        g = RegularGraph(random_regular_by_pairing(6, 3, seed=10))
        with np.errstate(over="ignore", invalid="ignore"):
            traj = run(init_state(6, 3, [(0, 0, 1.0)]), build_coin("grover", 3),
                       build_shift(greedy_rotation(g)), 1500)
        text = traj.to_csv_text()
        assert ",inf," in text and ",nan," in text
        assert text == csv_by_fstring(traj.records)

    @pytest.mark.parametrize("n", [9, 10, 99, 100])
    def test_vertex_numbers_of_every_width(self, n):
        # The vertex column is one fixed-width block, NUL-padded: at n = 10
        # and 100 only the last vertex's number has the full width.
        traj = run(uniform_state(n, 2), build_coin("hadamard", 2), build_shift(cycle_rotation(n)), 3)
        assert traj.to_csv_text() == csv_by_fstring(traj.records)


# The walks above again, with their records made on a second thread: each
# class runs every test of the class it derives from.
@pytest.mark.usefixtures("record_thread")
class TestKernelOnTheRecordThread(TestKernel):
    pass


@pytest.mark.usefixtures("record_thread")
class TestRealArithmeticOnTheRecordThread(TestRealArithmetic):
    pass


@pytest.mark.usefixtures("record_thread")
class TestRecordsOnTheRecordThread(TestRecords):
    pass


@pytest.mark.usefixtures("record_thread")
class TestInPlaceLoopOnTheRecordThread(TestInPlaceLoop):
    pass


@pytest.mark.usefixtures("record_thread")
class TestCsvOracleOnTheRecordThread(TestCsvOracle):
    test_csv_golden = TestTrajectories.test_csv_golden


def _records_by_steps(state, coin, shift, t):
    """The probabilities and squared norm of each state of step(), chained."""
    records = []
    for k in range(t + 1):
        if k:
            state = step(state, coin, shift)
        records.append((distribution(state).tobytes(), state.norm2()))
    return records


class TestRecordThread:
    """A walk of at least walk._THREAD_ARCS arcs, in a process that may run
    on more than one CPU, makes its records on one more thread, which
    runs only while the walk does.  The last two tests, on the complex
    switch and on walks run at once, check both record paths: inline and
    on the record thread."""

    @staticmethod
    def operators(n=64, d=4, amplitude=-0.5):
        rot = solve_permutation(random_regular_graph(n, d, seed=2)).rotation_map
        return init_state(n, d, [(0, 1, 1.0), (1, 5, amplitude)]), build_coin("grover", d), build_shift(rot)

    @pytest.mark.parametrize("below, affinity, cpu_count, threads", [
        (0, {0, 1}, None, 1), (2, {0, 1}, None, 0), (0, {0}, None, 0), (0, None, 2, 1), (0, None, 1, 0),
    ], ids=["at the floor", "below the floor", "one CPU", "no affinity, two CPUs", "no affinity, one CPU"])
    def test_thread_only_from_the_floor_on_more_than_one_cpu(self, monkeypatch, below, affinity, cpu_count,
                                                              threads):
        if affinity is None:
            # Where the platform cannot say which CPUs the process may
            # run on, every CPU counts.
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(walk, "_THREAD_ARCS", 64)
        n = (64 - below) // 2
        before = threading.active_count()
        records = stream_records(uniform_state(n, 2), build_coin("grover", 2), build_shift(cycle_rotation(n)), 3)
        assert threading.active_count() == before
        assert next(records).step == 0
        assert threading.active_count() == before + threads
        assert [rec.step for rec in records] == [1, 2, 3]
        assert threading.active_count() == before

    @pytest.mark.parametrize("end", ["run", "read whole", "closed half-read", "raised on the thread",
                                     "raised on the caller"])
    def test_no_thread_outlives_a_walk(self, record_thread, monkeypatch, end):
        state, coin, shift = self.operators()
        before = threading.active_count()
        if end.startswith("raised"):
            name = "_probabilities" if end.endswith("thread") else "_step"
            real, calls = getattr(walk, name), []

            def failing(*args):
                calls.append(None)
                if len(calls) == 4:
                    raise MemoryError("")
                return real(*args)

            monkeypatch.setattr(walk, name, failing)
            with pytest.raises(MemoryError):
                run(state, coin, shift, 10)
        elif end == "run":
            assert len(run(state, coin, shift, 10).records) == 11
        else:
            records = stream_records(state, coin, shift, 10)
            if end == "read whole":
                assert len(list(records)) == 11
            else:
                assert [next(records).step for _ in range(4)] == [0, 1, 2, 3]
                assert threading.active_count() == before + 1
                records.close()
        assert threading.active_count() == before

    @staticmethod
    def walk_process(code):
        """``code`` run in a fresh interpreter, with a deadline, after the
        lines that put every walk of the cycle C6 on the record thread."""
        code = (
            "import os, threading\n"
            "from rotwalk import build_coin, build_shift, cycle_rotation, uniform_state, walk\n"
            "walk._THREAD_ARCS = 0\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "operators = uniform_state(6, 2), build_coin('grover', 2), build_shift(cycle_rotation(6))\n"
        ) + code
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        return proc.returncode, proc.stdout, proc.stderr

    def test_unclosed_stream_lets_the_process_exit(self):
        # A stream read once and never closed: its thread waits for the
        # next state and must not hold the interpreter open at exit.
        code = (
            "records = walk.stream_records(*operators, 100)\n"
            "print(next(records).step, threading.active_count())\n"
        )
        assert self.walk_process(code) == (0, "0 2\n", "")

    def test_walk_ends_with_its_records(self):
        # A stop the thread never reads, or an error it never hands back,
        # would leave the walk waiting for it: the deadline fails that.
        assert self.walk_process("print(len(walk.run(*operators, 10).records))\n") == (0, "11\n", "")
        code = (
            "def failing(*args):\n"
            "    raise MemoryError('on the record thread')\n"
            "walk._probabilities = failing\n"
            "walk.run(*operators, 10)\n"
        )
        status, out, err = self.walk_process(code)
        assert (status, out, err.splitlines()[-1]) == (1, "", "MemoryError: on the record thread")

    @pytest.mark.parametrize("thread", [False, True], ids=["inline", "record-thread"])
    def test_switch_to_complex_on_the_last_step(self, request, thread):
        # The overflowing walk of TestRealArithmetic, ended at the first
        # step whose squared norm is not finite: no step is made again.
        if thread:
            request.getfixturevalue("record_thread")
        rot = greedy_rotation(RegularGraph(random_regular_by_pairing(6, 3, seed=10)))
        state, coin = init_state(6, 3, [(0, 0, 1.0)]), build_coin("grover", 3)
        with np.errstate(over="ignore", invalid="ignore"):
            norms = run(state, coin, build_shift(rot), 1500).norms()
            last = next(k for k, norm2 in enumerate(norms) if not np.isfinite(norm2))
            traj = run(state, coin, build_shift(rot), last)
            _, _, final = complex_walk(state.amplitudes, coin.matrix, rot.entries, last)
        assert traj.norms() == norms[:last + 1]
        assert traj.final_state.amplitudes.tobytes() == final.tobytes()

    @pytest.mark.parametrize("thread", [False, True], ids=["inline", "record-thread"])
    def test_concurrent_walks_keep_their_records(self, request, thread):
        # More walks at once than CPUs, each on a thread of its own and,
        # on the record thread, with one more for its records, under a
        # short switch interval: each records its own walk.
        if thread:
            request.getfixturevalue("record_thread")
        walks = [self.operators(amplitude=a) for a in (-0.5, 0.5j, 0.25, 1.5)]
        expected = [_records_by_steps(*w, 30) for w in walks]
        got = [None] * len(walks)

        def walk_one(i):
            got[i] = [(rec.probabilities.tobytes(), rec.norm2) for rec in run(*walks[i], 30).records]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=walk_one, args=(i,)) for i in range(len(walks))]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert got == expected
