"""Invariant checks driven by seeded random sampling.

Each test states a structural fact that must hold for every instance,
then hammers it with randomized cases (fixed seeds, so failures are
reproducible) and cross-checks against the literal reference
implementations in oracles.py where a second route exists.
"""

import contextlib
import io
import json
import random
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from rotwalk import (
    CRITERIA,
    FAMILIES,
    METHODS,
    RotationMap,
    SolverConfig,
    build_coin,
    build_shift,
    check_involution_consistent,
    check_permutation_consistent,
    cli,
    cycle_graph,
    cycle_rotation,
    generate_graph,
    greedy_rotation,
    init_state,
    parse_graph,
    parse_rotation,
    random_regular_graph,
    serialize_graph,
    serialize_rotation,
    solve,
    solve_permutation,
    step,
    unitarity_defect,
    uniform_state,
    validate_against_graph,
)

from oracles import (
    adjacency_by_loop,
    common_degree,
    defect_by_dense_product,
    involution_consistent_by_following,
    permutation_consistent_by_sorting,
)


def random_graph(rng, max_n=40, max_d=8):
    n = rng.randrange(4, max_n)
    d = rng.randrange(2, max_d)
    if d >= n:
        d = n - 1
    if (n * d) % 2:
        n += 1
    return random_regular_graph(n, d, seed=rng.randrange(10**6))


def shuffled_rotation(rng, graph):
    rows = [list(map(int, row)) for row in graph.neighbors]
    for row in rows:
        rng.shuffle(row)
    return RotationMap(np.array(rows))


class TestRoundTrips:
    def test_graph_text_round_trip(self):
        rng = random.Random(31)
        for _ in range(30):
            g = random_graph(rng)
            assert parse_graph(serialize_graph(g)) == g

    def test_rotation_text_round_trip(self):
        rng = random.Random(32)
        for _ in range(30):
            rot = shuffled_rotation(rng, random_graph(rng))
            assert parse_rotation(serialize_rotation(rot)) == rot


class TestGeneration:
    def test_generated_graphs_are_regular(self):
        rng = random.Random(33)
        specs = [
            ("cycle", (rng.randrange(3, 30),)),
            ("complete", (rng.randrange(2, 12),)),
            ("complete-bipartite", (rng.randrange(1, 8),)),
            ("hypercube", (rng.randrange(1, 6),)),
            ("torus", (rng.randrange(3, 7), rng.randrange(3, 7))),
            ("circulant", (12, 1, 11, 6)),
            ("random-regular", (18, 4), rng.randrange(100)),
        ]
        for spec in specs:
            g = generate_graph(*spec)
            assert common_degree(adjacency_by_loop(g.n, g.edges())) == g.d

    def test_greedy_map_always_valid(self):
        rng = random.Random(34)
        for _ in range(20):
            g = random_graph(rng)
            validate_against_graph(greedy_rotation(g), g)


class TestConsistencyTheorem:
    def test_zero_defect_iff_permutation_consistent(self):
        # sampled form of the unitarity biconditional, three routes:
        # the library checker, sorting oracle, dense matrix product
        rng = random.Random(35)
        consistent_seen = inconsistent_seen = 0
        for _ in range(300):
            g = random_graph(rng, max_n=10, max_d=4)
            if g.n * g.d > 24:
                g = cycle_graph(rng.randrange(3, 13))
            rot = shuffled_rotation(rng, g)
            flag = check_permutation_consistent(rot).consistent
            assert flag == permutation_consistent_by_sorting(rot.entries)
            defect = unitarity_defect(rot).defect
            assert defect == defect_by_dense_product(rot.entries)
            assert (defect == 0) == flag
            consistent_seen += flag
            inconsistent_seen += not flag
        assert consistent_seen > 0 and inconsistent_seen > 0

    def test_involution_implies_permutation_on_solver_output(self):
        rng = random.Random(36)
        cfg = SolverConfig(criterion="involution", method="local-search", seed=1)
        for _ in range(10):
            n = rng.choice([6, 8, 10, 12])
            g = random_regular_graph(n, 3, seed=rng.randrange(10**6))
            outcome = solve(g, cfg)
            if outcome.status != "solved":
                continue
            rot = outcome.rotation_map
            assert check_involution_consistent(rot).consistent
            assert check_permutation_consistent(rot).consistent
            assert involution_consistent_by_following(rot.entries)

    def test_consistent_columns_invert_cleanly(self):
        rng = random.Random(37)
        for _ in range(15):
            g = random_graph(rng, max_n=30, max_d=6)
            rot = solve_permutation(g).rotation_map
            for j in range(rot.d):
                col = rot.entries[:, j]
                inv = np.argsort(col)
                assert (col[inv] == np.arange(rot.n)).all()
                assert (inv[col] == np.arange(rot.n)).all()

    def test_product_diagonal_counts_column_hits(self):
        rng = random.Random(38)
        for _ in range(40):
            g = random_graph(rng, max_n=8, max_d=3)
            if g.n * g.d > 24:
                continue
            rot = shuffled_rotation(rng, g)
            report = unitarity_defect(rot)
            shift = build_shift(rot)
            counts = np.bincount(shift.col_to_row, minlength=shift.dim)
            assert (np.diag(report.product) == counts).all()
            assert report.product.trace() == rot.n * rot.d


class TestWalkInvariants:
    def test_norm_conserved_under_consistent_maps(self):
        rng = random.Random(39)
        for _ in range(12):
            g = random_graph(rng, max_n=24, max_d=6)
            rot = solve_permutation(g).rotation_map
            kinds = ["grover", "dft", "identity"]
            if g.d == 2:
                kinds.append("hadamard")
            coin = build_coin(rng.choice(kinds), g.d)
            shift = build_shift(rot)
            state = init_state(g.n, g.d, [(0, rng.randrange(g.n), 1.0)])
            for _ in range(40):
                state = step(state, coin, shift)
            assert abs(state.norm2() - 1.0) < 1e-9

    def test_colliding_pair_distorts_in_one_shift(self):
        # whenever the defect is positive some column sends two vertices
        # to one place; the even superposition on that pair doubles its
        # squared norm after a single shift application (a step with the
        # identity coin)
        rng = random.Random(40)
        found = 0
        for _ in range(60):
            g = random_graph(rng, max_n=10, max_d=4)
            rot = shuffled_rotation(rng, g)
            if check_permutation_consistent(rot).consistent:
                continue
            found += 1
            label, u, v = next(
                (j, int(pair[0]), int(pair[1]))
                for j in range(rot.d)
                for targets in [rot.entries[:, j]]
                for pair in [np.flatnonzero(targets == np.bincount(
                    targets, minlength=rot.n).argmax())]
                if len(pair) >= 2
            )
            state = init_state(g.n, g.d, [(label, u, 1.0), (label, v, 1.0)])
            out = step(state, build_coin("identity", g.d), build_shift(rot))
            assert abs(out.norm2() - 2.0) < 1e-12
        assert found > 10

    def test_distribution_total_equals_norm2(self):
        rng = random.Random(41)
        from rotwalk import distribution, run
        for _ in range(10):
            g = random_graph(rng, max_n=12, max_d=4)
            rot = shuffled_rotation(rng, g)
            coin = build_coin("grover", g.d)
            traj = run(uniform_state(g.n, g.d), coin, build_shift(rot), 8)
            for rec in traj.records:
                assert abs(rec.probabilities.sum() - rec.norm2) < 1e-9


class TestDeterminism:
    def test_solver_reports_identical_modulo_wall_ms(self):
        g = random_regular_graph(24, 4, seed=6)
        for cfg in [
            SolverConfig(),
            SolverConfig(criterion="involution", method="local-search",
                         seed=5, max_iterations=500, max_restarts=2),
            SolverConfig(criterion="involution", method="vizing"),
        ]:
            a, b = (replace(o, stats=replace(o.stats, wall_ms=0.0))
                    for o in (solve(g, cfg), solve(g, cfg)))
            assert a == b

    def test_family_generation_deterministic(self):
        spec = ("random-regular", (30, 5), 12)
        assert generate_graph(*spec) == generate_graph(*spec)


def _supports(criterion, method):
    """Whether ``solve`` accepts the pair: matching is for the permutation
    criterion, every other method for involution."""
    return (criterion == "permutation") == (method == "matching")


class TestSolveCommand:
    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(st.data())
    def test_exit_codes_and_maps(self, data):
        n = data.draw(st.integers(2, 16), label="n")
        d = data.draw(st.integers(1, n - 1), label="d")
        n += (n * d) % 2
        seed = data.draw(st.integers(0, 10**6), label="seed")
        criterion = data.draw(st.sampled_from(CRITERIA), label="criterion")
        method = data.draw(st.sampled_from(METHODS), label="method")
        graph = random_regular_graph(n, d, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            edges, out, stats = (Path(tmp, name) for name in ("g.edges", "g.rot", "g.json"))
            edges.write_text(serialize_graph(graph))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["solve", str(edges), "--criterion", criterion,
                                 "--method", method, "--max-iterations", "50",
                                 "--max-restarts", "1", "--out", str(out),
                                 "--stats", str(stats)])
            assert code in (0, 2, 3)
            assert "Traceback" not in err.getvalue()
            refused = not _supports(criterion, method) or (method == "exhaustive" and n * d > 40)
            assert (code == 2) == refused
            if code == 2:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
                return
            status = json.loads(stats.read_text())["status"]
            assert (status == "solved") == (code == 0) == out.exists()
            if code == 0:
                rot = parse_rotation(out.read_text())
                check = (check_permutation_consistent if criterion == "permutation"
                         else check_involution_consistent)
                assert check(rot).consistent
                validate_against_graph(rot, graph)


# Family parameters stay at most 64 (hypercube k at most 12: 2**k vertices),
# or reach the 2**31 stub ceiling, which is refused before anything is
# allocated.  Nothing in between is drawn: gen complete 46341 is under the
# ceiling and asks for 17 GB.
_SMALL = {"hypercube": st.integers(-3, 12)}
_HUGE = st.integers(2**31, 2**64)

_WORD = st.one_of(
    st.integers(1, 4).map(str), st.integers(-2, 20).map(str), st.sampled_from(["up", "down", "x", ""])
)
_AMPLITUDE = st.sampled_from(["1", "0", "-0.5", "1j", "2+3j", "nan", "inf", "1e400", "x", ""])
_START = st.one_of(
    st.just("uniform"),
    st.tuples(_WORD, _WORD).map(":".join),
    st.tuples(_WORD, _WORD, _AMPLITUDE).map(":".join),
    st.text(max_size=8),
)


def _document(data, graph, label, expected):
    """The bytes of one input file: mostly the ``expected`` document of
    ``graph`` ("graph", "greedy" or "solved" map), else another (the
    5-cycle's map among them) or random bytes, non-UTF-8 ones among them;
    a quarter of the documents are truncated."""
    valid = {
        "graph": lambda: serialize_graph(graph),
        "greedy": lambda: serialize_rotation(greedy_rotation(graph)),
        "solved": lambda: serialize_rotation(solve_permutation(graph).rotation_map),
        "cycle": lambda: serialize_rotation(cycle_rotation(5)),
    }
    kind = data.draw(st.sampled_from([*expected * 4, *valid, "bytes"]), label=f"{label} kind")
    if kind == "bytes":
        return data.draw(st.binary(max_size=40), label=label)
    text = valid[kind]().encode()
    if data.draw(st.integers(0, 3), label=f"{label} truncated") == 0:
        text = text[:data.draw(st.integers(0, len(text) - 1), label=f"{label} length")]
    return text


# How many parameters each family takes (circulant: n and two offsets),
# drawn three times in four; any count from 1 to 3 otherwise.
_ARITY = {"torus": 2, "circulant": 3, "random-regular": 2}


def _gen_argv(data):
    family = data.draw(st.sampled_from(FAMILIES), label="family")
    small = _SMALL.get(family, st.integers(-3, 64))
    count = data.draw(st.sampled_from([_ARITY.get(family, 1)] * 3 + [1, 2, 3]), label="count")
    params = data.draw(st.lists(st.one_of(small, _HUGE), min_size=count, max_size=count), label="params")
    seed = data.draw(st.integers(-2**70, 2**70), label="seed")
    tries = data.draw(st.integers(-1, 3), label="max tries")
    return ["gen", family, *map(str, params), f"--seed={seed}", f"--max-tries={tries}"]


class TestOtherCommands:
    """gen, rotmap, check, shift and walk keep the exit-code contract on
    drawn arguments and input files: exit 0, 2, 3 or 4, never a traceback,
    and on exit 2 exactly one 'error:' line."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(st.data())
    def test_exit_codes(self, data):
        command = data.draw(st.sampled_from(["gen", "rotmap", "check", "shift", "walk"]), label="command")
        n = data.draw(st.integers(3, 12), label="n")
        d = data.draw(st.integers(1, min(n - 1, 5)), label="d")
        n += (n * d) % 2
        graph = random_regular_graph(n, d, seed=data.draw(st.integers(0, 10**6), label="graph seed"))
        with tempfile.TemporaryDirectory() as tmp:
            def path(name, *expected):
                file = Path(tmp, name)
                file.write_bytes(_document(data, graph, name, expected))
                return str(file)

            out = str(Path(tmp, "out"))
            if command == "gen":
                argv = _gen_argv(data)
            elif command == "rotmap":
                argv = ["rotmap", path("graph", "graph")]
                if data.draw(st.booleans(), label="--map"):
                    argv += ["--map", path("map", "greedy", "solved")]
            elif command == "check":
                criterion = data.draw(st.sampled_from(CRITERIA), label="criterion")
                argv = ["check", path("map", "greedy", "solved"), "--criterion", criterion]
                if data.draw(st.booleans(), label="--emit-product"):
                    argv.append("--emit-product")
            elif command == "shift":
                argv = ["shift", path("map", "greedy", "solved")]
            else:
                argv = ["walk", path("graph", "graph"), path("map", "greedy", "solved"),
                        "--coin", data.draw(st.sampled_from(cli.COINS), label="coin"),
                        "--steps", str(data.draw(st.integers(-1, 12), label="steps")),
                        "--format", data.draw(st.sampled_from(["csv", "json"]), label="format")]
                if data.draw(st.booleans(), label="--start"):
                    argv += [f"--start={spec}" for spec in data.draw(st.lists(_START, max_size=3), label="starts")]
                if data.draw(st.booleans(), label="--allow-inconsistent"):
                    argv.append("--allow-inconsistent")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main([*argv, "--out", out])
            stderr = err.getvalue()
            assert code in (0, 2, 3, 4)
            assert "Traceback" not in stderr
            if code == 2:
                assert re.fullmatch(r"error: [^\n]*\n", stderr)
            if code == 0 and (command in ("check", "shift") or "json" in argv):
                assert json.loads(Path(out).read_text())["version"]
