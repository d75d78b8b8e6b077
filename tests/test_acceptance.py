"""End-to-end acceptance battery.

Eight numbered criteria, each printing one PASS/FAIL line (run with
``pytest -s`` to see them as they complete).  Every criterion carries a
wall-clock ceiling and a pinned numeric tolerance; the printed line
records the measured time next to the ceiling.
"""

import json
import random
import time
from itertools import permutations, product

import numpy as np

from rotwalk import (
    FamilySpec,
    RegularGraph,
    RotationMap,
    SolverConfig,
    build_coin,
    build_shift,
    check_involution_consistent,
    check_permutation_consistent,
    cycle_graph,
    cycle_rotation,
    generate_graph,
    greedy_rotation,
    init_state,
    random_regular_graph,
    run,
    solve,
    solve_permutation,
    unitarity_defect,
    uniform_state,
    validate_against_graph,
)

from oracles import (
    brute_force_edge_coloring,
    defect_by_dense_product,
    dense_shift,
    dense_step,
    distribution_by_loop,
    permutation_consistent_by_sorting,
)

PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
]


def _report(number, ok, elapsed, limit, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number}: {status} "
          f"({elapsed:.2f}s of {limit:.0f}s budget) -- {detail}")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < limit, f"criterion {number} overran {limit}s: {elapsed:.2f}s"


def two_regular_graphs_up_to_six():
    """All 2-regular graphs on <= 6 vertices (disjoint unions of cycles)."""
    c3_pair = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    return {
        "3-cycle": cycle_graph(3),
        "4-cycle": cycle_graph(4),
        "5-cycle": cycle_graph(5),
        "6-cycle": cycle_graph(6),
        "two 3-cycles": RegularGraph.from_edges(6, c3_pair),
    }


class TestAcceptance:
    def test_criterion_1_canonical_square_shift_is_unitary(self):
        start = time.perf_counter()
        report = unitarity_defect(cycle_rotation(4))
        exact_identity = (report.product == np.eye(8, dtype=np.int64)).all()
        ok = bool(report.defect == 0 and exact_identity)
        _report(1, ok, time.perf_counter() - start, 1.0,
                "one-way/other-way 4-cycle map gives S.S^T == I_8 exactly")

    def test_criterion_2_greedy_square_defect_pattern(self):
        start = time.perf_counter()
        report = unitarity_defect(greedy_rotation(cycle_graph(4)))
        expected = np.diag(np.array([2, 2, 0, 0, 0, 0, 2, 2], dtype=np.int64))
        ok = bool(report.defect == 1 and (report.product == expected).all())
        _report(2, ok, time.perf_counter() - start, 1.0,
                "greedy 4-cycle map gives S.S^T == diag(2,2,0,0,0,0,2,2) exactly")

    def test_criterion_3_unitarity_iff_consistency(self):
        start = time.perf_counter()
        checked = consistent_seen = 0
        counterexamples = 0

        # part (a): every rotation map of every 2-regular graph on <= 6
        # vertices, via exhaustive row-ordering enumeration
        for g in two_regular_graphs_up_to_six().values():
            row_orders = [
                [list(p) for p in permutations(map(int, row))]
                for row in g.neighbors
            ]
            for rows in product(*row_orders):
                rot = RotationMap(np.array(rows))
                consistent = check_permutation_consistent(rot).consistent
                defect = unitarity_defect(rot).defect
                if (defect == 0) != consistent:
                    counterexamples += 1
                checked += 1
                consistent_seen += consistent
        exhaustive_total, exhaustive_consistent = checked, consistent_seen
        # frozen: 8+16+32+64+64 maps, of which 2+4+2+4+4 are consistent
        sizes_ok = (exhaustive_total == 184 and exhaustive_consistent == 16)

        # part (b): >= 10^4 random rotation maps with d*n <= 24, mixing
        # shuffled-row maps with known-consistent solver outputs
        rng = random.Random(314)
        shapes = ([(n, 2) for n in range(3, 13)]
                  + [(4, 3), (6, 3), (8, 3), (5, 4), (6, 4)])
        for i in range(10_000):
            n, d = rng.choice(shapes)
            g = random_regular_graph(n, d, seed=rng.randrange(10**6))
            if i % 5 == 0:
                entries = solve_permutation(g).rotation_map.entries
                order = rng.sample(range(d), d)
                rot = RotationMap(entries[:, order])
            else:
                rows = [list(map(int, row)) for row in g.neighbors]
                for row in rows:
                    rng.shuffle(row)
                rot = RotationMap(np.array(rows))
            consistent = check_permutation_consistent(rot).consistent
            if (unitarity_defect(rot).defect == 0) != consistent:
                counterexamples += 1
            checked += 1
            consistent_seen += consistent

        both_sides = (consistent_seen > 500
                      and checked - consistent_seen > 500)
        ok = bool(counterexamples == 0 and sizes_ok and both_sides)
        _report(3, ok, time.perf_counter() - start, 60.0,
                f"defect==0 iff permutation-consistent on {checked} maps "
                f"({exhaustive_total} exhaustive with {exhaustive_consistent} "
                f"consistent, {consistent_seen} consistent overall), "
                f"{counterexamples} counterexamples")

    def test_criterion_4_solver_corpus_and_infeasibility(self):
        start = time.perf_counter()
        rng = random.Random(2024)
        solved = 0
        for _ in range(500):
            n = rng.randrange(6, 201)
            d = min(rng.randrange(3, 21), n - 1)
            if (n * d) % 2:
                n += 1
            g = random_regular_graph(n, d, seed=rng.randrange(10**6))
            outcome = solve_permutation(g)
            if (outcome.status == "solved"
                    and check_permutation_consistent(outcome.rotation_map).consistent):
                validate_against_graph(outcome.rotation_map, g)
                solved += 1

        exhaustive = SolverConfig(criterion="involution", method="exhaustive")
        square_ok = solve(cycle_graph(4), exhaustive).status == "solved"
        hard = {
            "petersen": RegularGraph.from_edges(10, PETERSEN_EDGES),
            "K5": RegularGraph.from_edges(
                5, [(u, v) for u in range(5) for v in range(u + 1, 5)]),
            "5-cycle": cycle_graph(5),
            "7-cycle": cycle_graph(7),
        }
        proofs_ok = all(
            solve(g, exhaustive).status == "infeasible-proven"
            for g in hard.values()
        )
        local_never_solved = all(
            solve(g, SolverConfig(criterion="involution", method="local-search",
                                  seed=seed, max_iterations=300,
                                  max_restarts=2)).status != "solved"
            for g in hard.values()
            for seed in range(5)
        )
        ok = bool(solved == 500 and square_ok and proofs_ok and local_never_solved)
        _report(4, ok, time.perf_counter() - start, 300.0,
                f"permutation solver {solved}/500 random instances; 4-cycle "
                f"provably colorable, {len(hard)} hard graphs provably not; "
                f"local search never claimed them")

    def test_criterion_5_stress_instance(self):
        start = time.perf_counter()
        graph = generate_graph(FamilySpec("random-regular", (80, 12), seed=0))
        perm_outcome = solve(graph, SolverConfig())
        perm_ok = (
            perm_outcome.status == "solved"
            and unitarity_defect(perm_outcome.rotation_map).defect == 0
        )
        inv_cfg = SolverConfig(criterion="involution", method="local-search",
                               seed=0)
        inv_outcome = solve(graph, inv_cfg)
        inv_report = inv_outcome.to_report()
        schema = {"version", "status", "criterion", "method", "seed", "n", "d",
                  "iterations", "restarts", "best_conflicts", "wall_ms"}
        inv_ok = (
            set(inv_report.keys()) == schema
            and inv_report["status"] in {"solved", "budget-exhausted"}
            and (inv_outcome.status != "solved"
                 or check_involution_consistent(inv_outcome.rotation_map).consistent)
        )
        ok = bool(perm_ok and inv_ok)
        detail = (f"80-vertex 12-regular: permutation defect 0; involution "
                  f"search stats {json.dumps(inv_report, sort_keys=True)}")
        _report(5, ok, time.perf_counter() - start, 120.0, detail)

    def test_criterion_6_long_hadamard_walk_norm_conservation(self):
        start = time.perf_counter()
        shift = build_shift(cycle_rotation(100))
        coin = build_coin("hadamard", 2)
        state = init_state(100, 2, [(0, 0, 1.0)])
        traj = run(state, coin, shift, 1000)
        worst = max(abs(x - 1.0) for x in traj.norms())
        ok = bool(len(traj.records) == 1001 and worst <= 1e-9)
        _report(6, ok, time.perf_counter() - start, 10.0,
                f"1000 Hadamard steps on the 100-cycle: max |norm^2 - 1| = "
                f"{worst:.3e} (tolerance 1e-9)")

    def test_criterion_7_inconsistent_map_norm_drift(self):
        start = time.perf_counter()
        traj = run(uniform_state(4, 2), build_coin("identity", 2),
                   build_shift(greedy_rotation(cycle_graph(4))), 5)
        norms = traj.norms()
        drifted = all(abs(x - 1.0) > 0.5 for x in norms[1:])
        # frozen: the flat state hits squared norm 2 at t=1 and stays
        flat_ok = max(abs(x - 2.0) for x in norms[1:]) < 1e-12
        ok = bool(drifted and flat_ok)
        geometric = [float(2**t) for t in range(6)]
        _report(7, ok, time.perf_counter() - start, 1.0,
                f"greedy 4-cycle + identity coin drifts off norm 1; measured "
                f"norm^2 per step {[round(x, 12) for x in norms]} vs d^t "
                f"{geometric} (comparison reported, not asserted)")
        print("[acceptance] criterion 7 trajectory:")
        print(traj.to_csv_text(), end="")

    def test_criterion_8_oracle_agreement(self):
        start = time.perf_counter()
        worst = 0.0
        checks = 0

        def track(diff):
            nonlocal worst, checks
            worst = max(worst, float(diff))
            checks += 1

        # shift construction and unitarity products, both routes
        for rot in [cycle_rotation(4), greedy_rotation(cycle_graph(4)),
                    greedy_rotation(RegularGraph.from_edges(10, PETERSEN_EDGES)),
                    cycle_rotation(7)]:
            track(np.abs(build_shift(rot).to_dense()
                         - dense_shift(rot.entries)).max())
            report = unitarity_defect(rot)
            track(abs(report.defect - defect_by_dense_product(rot.entries)))
            if report.product is not None:
                dense = dense_shift(rot.entries)
                track(np.abs(report.product - dense @ dense.T).max())
            flag = check_permutation_consistent(rot).consistent
            track(0.0 if flag == permutation_consistent_by_sorting(rot.entries)
                  else 1.0)

        # coin matrices against their defining formulas
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        track(np.abs(build_coin("hadamard", 2).matrix - hadamard).max())
        grover4 = np.full((4, 4), 0.5) - np.eye(4)
        track(np.abs(build_coin("grover", 4).matrix - grover4).max())
        w = np.exp(2j * np.pi / 3)
        dft3 = np.array([[w ** (j * k) for k in range(3)]
                         for j in range(3)]) / np.sqrt(3)
        track(np.abs(build_coin("dft", 3).matrix - dft3).max())

        # one walk step against the dense matrix-vector route
        state = init_state(4, 2, [(0, 0, 1.0)])
        coin = build_coin("hadamard", 2)
        for rot in [cycle_rotation(4), greedy_rotation(cycle_graph(4))]:
            from rotwalk import step
            ours = step(state, coin, build_shift(rot)).amplitudes
            track(np.abs(ours - dense_step(state.amplitudes, coin.matrix,
                                           rot.entries)).max())

        # a longer evolution on the 100-cycle against repeated dense steps
        shift = build_shift(cycle_rotation(100))
        ours = init_state(100, 2, [(0, 0, 1.0)])
        reference = ours.amplitudes
        from rotwalk import distribution, step as walk_step
        for _ in range(50):
            ours = walk_step(ours, coin, shift)
            reference = dense_step(reference, coin.matrix,
                                   cycle_rotation(100).entries)
        track(np.abs(ours.amplitudes - reference).max())
        track(np.abs(distribution(ours)
                     - distribution_by_loop(ours.amplitudes, 100, 2)).max())

        # solver outputs against the brute-force coloring oracle
        import rotwalk
        exhaustive = SolverConfig(criterion="involution", method="exhaustive")
        for g in [cycle_graph(4), cycle_graph(5),
                  RegularGraph.from_edges(10, PETERSEN_EDGES),
                  rotwalk.complete_graph(5), rotwalk.hypercube_graph(3)]:
            ours_feasible = solve(g, exhaustive).status == "solved"
            oracle = brute_force_edge_coloring(g.n, g.d, g.edges())
            track(0.0 if ours_feasible == (oracle is not None) else 1.0)

        # a solved large instance stays exactly unitary
        g = random_regular_graph(20, 4, seed=3)
        rot = solve_permutation(g).rotation_map
        track(abs(unitarity_defect(rot).defect
                  - defect_by_dense_product(rot.entries)))

        ok = bool(worst <= 1e-12)
        _report(8, ok, time.perf_counter() - start, 30.0,
                f"largest implementation-vs-reference deviation {worst:.3e} "
                f"across {checks} paired checks (tolerance 1e-12)")
