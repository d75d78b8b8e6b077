import dataclasses
import hashlib
import inspect
import json
import os
import re
import signal
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rotwalk
from rotwalk import (
    COIN_KINDS,
    REPORT_VERSION,
    WITNESS_FIELDS,
    RegularGraph,
    SolverConfig,
    build_coin,
    build_shift,
    check_involution_consistent,
    check_permutation_consistent,
    cli,
    cycle_rotation,
    generate_graph,
    greedy_rotation,
    init_state,
    parse_graph,
    parse_rotation,
    random_regular_graph,
    run,
    serialize_graph,
    serialize_rotation,
    solve_permutation,
    uniform_state,
    unitarity_defect,
)

from oracles import complex_walk, edge_list_text, family_by_edges, random_regular_by_pairing

# n = 10**9, d = 2 is under the stub ceiling: refused for its missing
# lines.  n = 10**11 reaches the ceiling: refused from the header alone.
HUGE_HEADER_ERROR = (
    "error: line 1: header declares 1000000000 vertices but 0 edge lines "
    "reach at most 0: some vertex would be isolated"
)
CEILING_HEADER_ERROR = "error: line 1: header needs n*d < 2**31 (the stub ceiling), got n*d=200000000000\n"

SQUARE_TEXT = "4 2\n1 2\n1 4\n2 3\n3 4\n"
CANONICAL_TEXT = "4 2\n2 4\n3 1\n4 2\n1 3\n"
GREEDY_TEXT = "4 2\n2 4\n1 3\n2 4\n1 3\n"

PETERSEN_TEXT = "10 3\n" + "\n".join(
    f"{u} {v}" for u, v in [
        (1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
        (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
        (6, 8), (8, 10), (7, 10), (7, 9), (6, 9),
    ]
) + "\n"


@pytest.fixture
def square(tmp_path):
    path = tmp_path / "square.edges"
    path.write_text(SQUARE_TEXT)
    return str(path)


@pytest.fixture
def canonical(tmp_path):
    path = tmp_path / "canonical.rot"
    path.write_text(CANONICAL_TEXT)
    return str(path)


@pytest.fixture
def greedy(tmp_path):
    path = tmp_path / "greedy.rot"
    path.write_text(GREEDY_TEXT)
    return str(path)


@pytest.fixture
def petersen(tmp_path):
    path = tmp_path / "petersen.edges"
    path.write_text(PETERSEN_TEXT)
    return str(path)


class TestGen:
    def test_cycle_to_stdout(self, capsys):
        assert cli.main(["gen", "cycle", "4"]) == 0
        assert capsys.readouterr().out == SQUARE_TEXT

    def test_cycle_to_file(self, tmp_path):
        out = tmp_path / "g.edges"
        assert cli.main(["gen", "cycle", "4", "--out", str(out)]) == 0
        assert out.read_text() == SQUARE_TEXT

    def test_random_regular_reproducible(self, capsys):
        cli.main(["gen", "random-regular", "20", "3", "--seed", "5"])
        first = capsys.readouterr().out
        cli.main(["gen", "random-regular", "20", "3", "--seed", "5"])
        assert capsys.readouterr().out == first
        g = parse_graph(first)
        assert (g.n, g.d) == (20, 3)

    def test_bad_params_exit_2(self, capsys):
        assert cli.main(["gen", "cycle", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_family_exit_2(self, capsys):
        assert cli.main(["gen", "moebius", "4"]) == 2

    def test_wrong_arity_exit_2(self, capsys):
        assert cli.main(["gen", "cycle", "4", "7"]) == 2

    @pytest.mark.parametrize("tries", ["0", "-1"])
    def test_bad_max_tries_exit_2(self, capsys, tries):
        # Refused before any attempt, not as "exhausted after -1 attempts".
        assert cli.main(["gen", "random-regular", "10", "3", "--max-tries", tries]) == 2
        assert capsys.readouterr().err == (
            f"error: random-regular needs max_tries >= 1, got {tries}\n"
        )

    def test_random_regular_past_stub_ceiling_exit_2(self, capsys):
        # Refused from its parameters, before any stub array exists.
        start = time.perf_counter()
        assert cli.main(["gen", "random-regular", "3000000000", "8"]) == 2
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().err == (
            "error: random-regular needs n*d < 2**31 (the stub ceiling), got n*d=24000000000\n"
        )

    @pytest.mark.parametrize("argv", [
        ["hypercube", "64"],
        ["hypercube", "1000000000000000000"],
        ["complete", "1000000"],
        ["torus", "100000", "100000"],
        ["cycle", "100000000000000000000"],
        ["circulant", "1000000000000000000000", "1", "-1"],
    ])
    def test_family_past_stub_ceiling_exit_2(self, capsys, argv):
        # Refused from its parameters, before anything of size n exists.
        start = time.perf_counter()
        assert cli.main(["gen", *argv]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {argv[0]} needs n*d < 2**31 (the stub ceiling), got n")
        assert "Traceback" not in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("message", ["Unable to allocate 17.0 GiB for an array", ""])
    def test_memory_error_exit_2(self, capsys, monkeypatch, message):
        # n*d = 2,147,441,940 passes the stub ceiling; the builder is replaced
        # so that no large allocation is ever attempted.
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "generate_graph", exhausted)
        assert cli.main(["gen", "complete", "46341"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: out of memory: {message or 'an allocation failed'}\n"

    @pytest.mark.parametrize("argv", [
        ["cycle", "7"], ["complete", "6"], ["complete-bipartite", "3"], ["hypercube", "4"],
        ["torus", "3", "5"], ["circulant", "10", "1", "-1", "5"],
    ])
    def test_family_output_matches_edge_list_oracle(self, capsys, argv):
        assert cli.main(["gen", *argv]) == 0
        n, edges = family_by_edges(argv[0], tuple(int(p) for p in argv[1:]))
        assert capsys.readouterr().out == edge_list_text(n, edges)

    @pytest.mark.parametrize("seed", ["-1", str(2**70)])
    def test_random_regular_any_integer_seed(self, capsys, seed):
        assert cli.main(["gen", "random-regular", "20", "3", "--seed", seed]) == 0
        assert parse_graph(capsys.readouterr().out) == random_regular_graph(20, 3, seed=int(seed))

    def test_random_regular_independent_of_hash_seed(self):
        outputs = {
            hash_seed: run_cli_process("gen", "random-regular", "2000", "8", "--seed", "3",
                                       env={"PYTHONHASHSEED": hash_seed})
            for hash_seed in ("0", "12345")
        }
        assert [proc.returncode for proc in outputs.values()] == [0, 0]
        assert outputs["0"].stdout == outputs["12345"].stdout


class TestRotmap:
    def test_greedy_extraction(self, square, capsys):
        assert cli.main(["rotmap", square]) == 0
        assert capsys.readouterr().out == GREEDY_TEXT

    def test_from_file_echoes_map(self, square, canonical, capsys):
        assert cli.main(["rotmap", square, "--map", canonical]) == 0
        assert capsys.readouterr().out == CANONICAL_TEXT

    def test_huge_header_exit_2(self, tmp_path, capsys):
        huge = tmp_path / "huge.edges"
        huge.write_text("1000000000 2\n")
        assert cli.main(["rotmap", str(huge)]) == 2
        assert HUGE_HEADER_ERROR in capsys.readouterr().err

    def test_header_past_stub_ceiling_exit_2(self, square, tmp_path, capsys):
        huge = tmp_path / "huge.edges"
        huge.write_text("100000000000 2\n")
        assert cli.main(["rotmap", str(huge)]) == 2
        assert capsys.readouterr().err == CEILING_HEADER_ERROR
        assert cli.main(["rotmap", square, "--map", str(huge)]) == 2
        assert capsys.readouterr().err == CEILING_HEADER_ERROR

    def test_mismatch_exit_2(self, square, tmp_path, capsys):
        bad = tmp_path / "bad.rot"
        bad.write_text(serialize_rotation(cycle_rotation(5)))
        assert cli.main(["rotmap", square, "--map", str(bad)]) == 2
        assert capsys.readouterr().err == "error: dimension mismatch: map is 5 x 2, graph is 4 x 2\n"

    @pytest.mark.parametrize("command", ["rotmap", "walk"])
    def test_row_mismatch_is_one_error_line(self, square, tmp_path, capsys, command):
        # Vertices 1, 3 and 4 of the 4-cycle get rows that are not their neighbors.
        bad, out = tmp_path / "bad.rot", tmp_path / "out"
        bad.write_text("4 2\n2 3\n1 3\n1 2\n1 2\n")
        argv = ["rotmap", square, "--map"] if command == "rotmap" else ["walk", square]
        assert cli.main([*argv, str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: vertex 1: entry 3 is not a neighbor, neighbor 4 unused (3 of 4 rows mismatch)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        # The 20000-cycle with the chords (i, i+2), i = 1, 5, 9, ...: half
        # the vertices have degree 3, and only the first is named.
        ("20000 2\n1 20000\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 20000))
         + "".join(f"{i} {i + 2}\n" for i in range(1, 20000, 4)),
         "vertex 1 has degree 3, expected 2 (10000 of 20000 vertices deviate)"),
        # The square under a header that declares d=3.
        ("4 3\n1 2\n1 4\n2 3\n3 4\n",
         "vertex 1 has degree 2, expected 3 (4 of 4 vertices deviate)"),
    ], ids=["chorded-cycle", "square-declared-3"])
    def test_irregular_graph_is_one_error_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "irregular.edges"
        path.write_text(text)
        assert cli.main(["rotmap", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: graph is not regular: {message}\n"
        assert len(err.encode()) < 200


class TestCheck:
    def test_consistent_map(self, canonical, capsys):
        assert cli.main(["check", canonical]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["criterion"] == "permutation"
        assert payload["consistent"] is True
        assert payload["defect"] == 0
        assert payload["violations"] == []

    def test_inconsistent_map_violations(self, greedy, capsys):
        assert cli.main(["check", greedy]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["consistent"] is False
        assert payload["defect"] == 1
        assert payload["violations"][0] == {"label": 1, "vertex": 1, "count": 2}
        assert len(payload["violations"]) == 8

    def test_involution_criterion(self, canonical, capsys):
        assert cli.main(["check", canonical, "--criterion", "involution"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["criterion"] == "involution"
        assert payload["consistent"] is False

    def test_emit_product(self, greedy, capsys):
        assert cli.main(["check", greedy, "--emit-product"]) == 0
        payload = json.loads(capsys.readouterr().out)
        diag = [payload["product"][i][i] for i in range(8)]
        assert diag == [2, 2, 0, 0, 0, 0, 2, 2]

    def test_emit_product_omitted_past_limit(self, tmp_path, capsys):
        # n*d = 66 > 64: the report has no product, and a note says why.
        path = tmp_path / "c33.rot"
        path.write_text(serialize_rotation(cycle_rotation(33)))
        assert cli.main(["check", str(path), "--emit-product"]) == 0
        captured = capsys.readouterr()
        assert "product" not in json.loads(captured.out)
        assert captured.err == "note: product omitted, dimension 66 exceeds 64\n"

    def test_malformed_map_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.rot"
        bad.write_text("4\n")
        assert cli.main(["check", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_huge_header_exit_2(self, tmp_path, capsys):
        huge = tmp_path / "huge.rot"
        huge.write_text("1000000000 2\n")
        assert cli.main(["check", str(huge)]) == 2
        assert "error: expected 1000000000 rows, got 0" in capsys.readouterr().err

    def test_header_past_stub_ceiling_exit_2(self, tmp_path, capsys):
        huge = tmp_path / "huge.rot"
        huge.write_text("100000000000 2\n")
        assert cli.main(["check", str(huge)]) == 2
        assert capsys.readouterr().err == CEILING_HEADER_ERROR


def reference_check_payload(text, criterion="permutation", product=False):
    """The check report, built from the library's report objects."""
    rot = parse_rotation(text)
    checker = (check_permutation_consistent if criterion == "permutation"
               else check_involution_consistent)
    report = checker(rot)
    unitarity = unitarity_defect(rot)
    payload = {
        "version": REPORT_VERSION,
        "criterion": criterion,
        "n": rot.n,
        "d": rot.d,
        "consistent": report.consistent,
        "defect": unitarity.defect,
        "violations": [dict(zip(WITNESS_FIELDS, row)) for row in report.violations.tolist()],
    }
    if product:
        payload["product"] = unitarity.product.tolist()
    return payload


GREEDY_REPORT = """\
{
  "version": 1,
  "criterion": "permutation",
  "n": 4,
  "d": 2,
  "consistent": false,
  "defect": 1,
  "violations": [
    {
      "label": 1,
      "vertex": 1,
      "count": 2
    },
    {
      "label": 1,
      "vertex": 2,
      "count": 2
    },
    {
      "label": 1,
      "vertex": 3,
      "count": 0
    },
    {
      "label": 1,
      "vertex": 4,
      "count": 0
    },
    {
      "label": 2,
      "vertex": 1,
      "count": 0
    },
    {
      "label": 2,
      "vertex": 2,
      "count": 0
    },
    {
      "label": 2,
      "vertex": 3,
      "count": 2
    },
    {
      "label": 2,
      "vertex": 4,
      "count": 2
    }
  ]
}
"""


class TestCheckReportBytes:
    """The report is written in bulk; its bytes must be json.dumps's."""

    @pytest.mark.parametrize("text, argv, criterion, product", [
        (CANONICAL_TEXT, [], "permutation", False),
        (GREEDY_TEXT, [], "permutation", False),
        (CANONICAL_TEXT, ["--criterion", "involution"], "involution", False),
        (GREEDY_TEXT, ["--criterion", "involution"], "involution", False),
        (GREEDY_TEXT, ["--emit-product"], "permutation", True),
        (CANONICAL_TEXT, ["--emit-product"], "permutation", True),
    ])
    def test_equals_json_dumps(self, tmp_path, capsys, text, argv, criterion, product):
        path = tmp_path / "map.rot"
        path.write_text(text)
        assert cli.main(["check", str(path), *argv]) == 0
        expected = json.dumps(reference_check_payload(text, criterion, product), indent=2) + "\n"
        assert capsys.readouterr().out == expected

    def test_large_greedy_map(self, tmp_path):
        text = serialize_rotation(greedy_rotation(random_regular_graph(300, 6, seed=2)))
        path, out = tmp_path / "map.rot", tmp_path / "report.json"
        path.write_text(text)
        assert cli.main(["check", str(path), "--out", str(out)]) == 0
        payload = reference_check_payload(text)
        assert len(payload["violations"]) > 100
        assert out.read_text() == json.dumps(payload, indent=2) + "\n"

    def test_greedy_square_golden(self, greedy, capsys):
        assert cli.main(["check", greedy]) == 0
        assert capsys.readouterr().out == GREEDY_REPORT

    @pytest.mark.parametrize("per_chunk", [1, 3, 8, 4096])
    def test_chunk_boundaries(self, tmp_path, capsys, monkeypatch, greedy, per_chunk):
        # 8 witnesses on the square, 1000+ on the larger map: one chunk,
        # several, and a last one that is full or not.
        monkeypatch.setattr(cli, "_VIOLATIONS_PER_CHUNK", per_chunk)
        assert cli.main(["check", greedy]) == 0
        assert capsys.readouterr().out == GREEDY_REPORT
        text = serialize_rotation(greedy_rotation(random_regular_graph(300, 6, seed=2)))
        path = tmp_path / "map.rot"
        path.write_text(text)
        assert cli.main(["check", str(path)]) == 0
        assert capsys.readouterr().out == json.dumps(reference_check_payload(text), indent=2) + "\n"

    def test_greedy_map_spanning_chunks(self, tmp_path):
        text = serialize_rotation(greedy_rotation(random_regular_graph(2000, 8, seed=3)))
        path, out = tmp_path / "map.rot", tmp_path / "report.json"
        path.write_text(text)
        assert cli.main(["check", str(path), "--out", str(out)]) == 0
        payload = reference_check_payload(text)
        assert len(payload["violations"]) > 2 * cli._VIOLATIONS_PER_CHUNK
        assert out.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()


class TestSolve:
    def test_solved_writes_map_and_stats(self, square, tmp_path, capsys):
        out = tmp_path / "solved.rot"
        stats = tmp_path / "stats.json"
        code = cli.main(["solve", square, "--out", str(out), "--stats", str(stats)])
        assert code == 0
        rot = parse_rotation(out.read_text())
        assert rot.n == 4
        payload = json.loads(stats.read_text())
        assert payload["status"] == "solved"
        assert payload["version"] == 1

    def test_stats_to_stdout_by_default(self, square, capsys):
        assert cli.main(["solve", square]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "solved"
        assert payload["method"] == "matching"

    def test_infeasible_exit_3_with_certificate(self, petersen, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        code = cli.main(["solve", petersen, "--criterion", "involution",
                         "--method", "exhaustive", "--stats", str(stats)])
        assert code == 3
        captured = capsys.readouterr()
        assert "certificate:" in captured.err
        payload = json.loads(stats.read_text())
        assert payload["status"] == "infeasible-proven"

    def test_budget_exhausted_exit_3(self, petersen, capsys):
        code = cli.main(["solve", petersen, "--criterion", "involution",
                         "--method", "local-search", "--max-iterations", "50",
                         "--max-restarts", "1"])
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "budget-exhausted"
        assert payload["best_conflicts"] >= 1

    def test_deep_exhaustive_search_exit_3(self, tmp_path, capsys):
        # 2998 levels of backtracking: deeper than the default recursion limit.
        edges = tmp_path / "cycle.edges"
        assert cli.main(["gen", "cycle", "3001", "--out", str(edges)]) == 0
        code = cli.main(["solve", str(edges), "--criterion", "involution",
                         "--method", "exhaustive", "--exhaustive-ceiling", "1000000"])
        assert code == 3
        captured = capsys.readouterr()
        assert "certificate:" in captured.err
        assert "no proper coloring exists" in captured.err
        assert json.loads(captured.out)["status"] == "infeasible-proven"

    def test_bad_combo_exit_2(self, square, capsys):
        code = cli.main(["solve", square, "--criterion", "involution",
                         "--method", "matching"])
        assert code == 2
        assert "permutation criterion only" in capsys.readouterr().err

    def test_exhaustive_permutation_exit_2(self, square, capsys):
        assert cli.main(["solve", square, "--method", "exhaustive"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: method 'exhaustive' targets the involution criterion only\n"
        )

    def test_huge_header_exit_2(self, tmp_path, capsys):
        huge = tmp_path / "huge.edges"
        huge.write_text("1000000000 2\n")
        assert cli.main(["solve", str(huge)]) == 2
        assert HUGE_HEADER_ERROR in capsys.readouterr().err

    def test_header_past_stub_ceiling_exit_2(self, tmp_path, capsys):
        huge = tmp_path / "huge.edges"
        huge.write_text("100000000000 2\n")
        assert cli.main(["solve", str(huge)]) == 2
        assert capsys.readouterr().err == CEILING_HEADER_ERROR

    def test_seed_flag_deterministic(self, petersen, capsys):
        argv = ["solve", petersen, "--criterion", "involution", "--method",
                "local-search", "--seed", "4", "--max-iterations", "60",
                "--max-restarts", "1"]
        cli.main(argv)
        first = json.loads(capsys.readouterr().out)
        cli.main(argv)
        second = json.loads(capsys.readouterr().out)
        first.pop("wall_ms")
        second.pop("wall_ms")
        assert first == second


class TestShift:
    def test_pair_swap_matrix(self, tmp_path, capsys):
        path = tmp_path / "pair.rot"
        path.write_text("2 1\n2\n1\n")
        assert cli.main(["shift", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ordering"] == "coin-major"
        assert payload["matrix"] == [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]

    def test_large_instance_refused(self, tmp_path, capsys):
        cli.main(["gen", "cycle", "40", "--out", str(tmp_path / "c.edges")])
        cli.main(["rotmap", str(tmp_path / "c.edges"),
                  "--out", str(tmp_path / "c.rot")])
        assert cli.main(["shift", str(tmp_path / "c.rot")]) == 2
        assert capsys.readouterr().err == (
            "error: operator dump is for small instances only (dimension 80 > 64)\n"
        )


class TestWalk:
    def test_consistent_walk_csv(self, square, canonical, capsys):
        code = cli.main(["walk", square, canonical, "--coin", "hadamard",
                         "--steps", "1", "--start", "1:1"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "step,vertex,probability,norm2"
        assert lines[1] == "0,1,1.0,1.0"
        assert len(lines) == 9  # header + 2 steps x 4 vertices

    def test_json_format(self, square, canonical, capsys):
        code = cli.main(["walk", square, canonical, "--steps", "3",
                         "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert len(payload["steps"]) == 4

    def test_inconsistent_map_guard_exit_4(self, square, greedy, capsys):
        assert cli.main(["walk", square, greedy, "--steps", "2"]) == 4
        err = capsys.readouterr().err
        assert "violates the permutation criterion" in err
        assert "--allow-inconsistent" in err

    def test_inconsistent_map_guard_counts_witness_rows(self, square, greedy, capsys):
        # The refusal names how many witness rows the report holds.
        count = len(check_permutation_consistent(parse_rotation(GREEDY_TEXT)).violations)
        assert cli.main(["walk", square, greedy, "--steps", "2"]) == 4
        assert capsys.readouterr().err == (
            f"error: rotation map violates the permutation criterion ({count} violations); "
            "the walk would not be norm-preserving.  Pass --allow-inconsistent to run it anyway.\n"
        )

    def test_allow_inconsistent_override(self, square, greedy, capsys):
        code = cli.main(["walk", square, greedy, "--coin", "identity",
                         "--steps", "2", "--start", "uniform",
                         "--allow-inconsistent"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        norms = {float(line.split(",")[3]) for line in lines[1:]}
        # squared norm drifts off 1 and is reported as-is
        assert any(abs(x - 2.0) < 1e-12 for x in norms)

    def test_start_label_aliases(self, square, canonical, capsys):
        for spec in ["up:1", "down:2", "2:3:0.5", "1:1:0.5+0.5j"]:
            assert cli.main(["walk", square, canonical, "--steps", "1",
                             "--start", spec]) == 0
            capsys.readouterr()

    def test_multiple_start_terms(self, square, canonical, capsys):
        code = cli.main(["walk", square, canonical, "--steps", "0",
                         "--start", "up:1", "--start", "down:1:1j"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "0,1,0.9999999999999998,0.9999999999999998"

    def test_bad_start_exit_2(self, square, canonical, capsys):
        for spec, message in [
            ("up", "must be LABEL:VERTEX[:AMPLITUDE]"),
            ("0:1", "label 0 out of range 1..2"),
            ("5:1", "label 5 out of range 1..2"),
            ("1:9", "vertex 9 out of range 1..4"),
            ("up:1:notanumber", "bad amplitude 'notanumber'"),
            ("x:1", "bad coin label 'x'"),
            ("1:y", "bad vertex 'y'"),
        ]:
            assert cli.main(["walk", square, canonical, "--start", spec]) == 2
            assert message in capsys.readouterr().err

    def test_huge_header_exit_2(self, square, canonical, tmp_path, capsys):
        huge_graph, huge_map = tmp_path / "huge.edges", tmp_path / "huge.rot"
        huge_graph.write_text("1000000000 2\n")
        huge_map.write_text("1000000000 2\n")
        assert cli.main(["walk", str(huge_graph), canonical]) == 2
        assert HUGE_HEADER_ERROR in capsys.readouterr().err
        assert cli.main(["walk", square, str(huge_map)]) == 2
        assert "error: expected 1000000000 rows, got 0" in capsys.readouterr().err

    def test_header_past_stub_ceiling_exit_2(self, square, canonical, tmp_path, capsys):
        huge = tmp_path / "huge"
        huge.write_text("100000000000 2\n")
        assert cli.main(["walk", str(huge), canonical]) == 2
        assert capsys.readouterr().err == CEILING_HEADER_ERROR
        assert cli.main(["walk", square, str(huge)]) == 2
        assert capsys.readouterr().err == CEILING_HEADER_ERROR

    def test_map_graph_mismatch_exit_2(self, square, tmp_path, capsys):
        other = tmp_path / "c5.rot"
        other.write_text(serialize_rotation(cycle_rotation(5)))
        assert cli.main(["walk", square, str(other)]) == 2

    def test_coin_dimension_mismatch_exit_2(self, petersen, tmp_path, capsys):
        rot = tmp_path / "pet.rot"
        cli.main(["rotmap", petersen, "--out", str(rot)])
        capsys.readouterr()
        code = cli.main(["walk", petersen, str(rot), "--coin", "hadamard",
                         "--allow-inconsistent"])
        assert code == 2


def test_coin_choices_are_the_named_kinds():
    # cli keeps its own tuple so that it never imports operators at start-up.
    assert cli.COINS == COIN_KINDS


@pytest.mark.parametrize("argv", [
    ["check", "MAP", "--out"],
    ["check", "MAP", "--criterion", "involution", "--out"],
    ["solve", "GRAPH", "--stats"],
    ["shift", "MAP", "--out"],
    ["walk", "GRAPH", "MAP", "--format", "json", "--out"],
], ids=["check-permutation", "check-involution", "solve", "shift", "walk"])
def test_every_json_report_opens_with_its_version(square, canonical, tmp_path, argv):
    out = tmp_path / "report.json"
    paths = {"GRAPH": square, "MAP": canonical}
    assert cli.main([paths.get(arg, arg) for arg in argv] + [str(out)]) == 0
    assert out.read_text().startswith(f'{{\n  "version": {REPORT_VERSION},\n')


def reference_walk(graph_text, map_text, coin, steps, start=None):
    """The walk's trajectory from the library, as run() collects it."""
    rot = parse_rotation(map_text)
    assert parse_graph(graph_text).n == rot.n
    if start is None:
        state = uniform_state(rot.n, rot.d)
    else:
        state = init_state(rot.n, rot.d, [start])
    return run(state, build_coin(coin, rot.d), build_shift(rot), steps)


def reference_walk_payload(traj):
    """The walk's JSON report, built from the trajectory's records."""
    steps = [
        {"step": rec.step, "norm2": rec.norm2, "probabilities": rec.probabilities.tolist()}
        for rec in traj.records
    ]
    return {"version": REPORT_VERSION, "n": traj.n, "d": traj.d, "steps": steps}


class TestWalkStreams:
    """The CLI streams the trajectory; its bytes must be the library's."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("streams")
        g = random_regular_graph(30, 4, seed=5)
        maps = {"solved": solve_permutation(g).rotation_map, "greedy": greedy_rotation(g)}
        (root / "g.edges").write_text(serialize_graph(g))
        for kind, rot in maps.items():
            (root / f"{kind}.rot").write_text(serialize_rotation(rot))
        return root

    CASES = {
        # map, extra argv, start of the reference state (0-based)
        "localized": ("solved", ["--start", "2:7:0.6-0.8j"], (1, 6, 0.6 - 0.8j)),
        "uniform": ("solved", ["--start", "uniform"], None),
        "inconsistent": ("greedy", ["--start", "uniform", "--allow-inconsistent"], None),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("to_file", [True, False], ids=["out-file", "stdout"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_equals_library_output(self, inputs, tmp_path, capsys, case, to_file, fmt):
        kind, extra, start = self.CASES[case]
        graph, rot = inputs / "g.edges", inputs / f"{kind}.rot"
        traj = reference_walk(graph.read_text(), rot.read_text(), "grover", 12, start)
        if fmt == "csv":
            expected = traj.to_csv_text()
        else:
            expected = json.dumps(reference_walk_payload(traj), indent=2) + "\n"
        argv = ["walk", str(graph), str(rot), "--steps", "12", "--format", fmt, *extra]
        out = tmp_path / "walk.out"
        assert cli.main(argv + (["--out", str(out)] if to_file else [])) == 0
        written = out.read_bytes() if to_file else capsys.readouterr().out.encode()
        assert written == expected.encode()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_walk_writes_nan_and_infinity(self, tmp_path, fmt):
        # The Grover walk on this greedy map grows the squared norm about
        # 2.8x a step, so the amplitudes overflow and then turn NaN.
        g = RegularGraph(random_regular_by_pairing(6, 3, seed=10))
        graph, rot = tmp_path / "g.edges", tmp_path / "g.rot"
        graph.write_text(serialize_graph(g))
        rot.write_text(serialize_rotation(greedy_rotation(g)))
        out = tmp_path / "walk.out"
        argv = ["walk", str(graph), str(rot), "--steps", "1500", "--allow-inconsistent",
                "--format", fmt, "--out", str(out)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(argv) == 0
            traj = reference_walk(graph.read_text(), rot.read_text(), "grover", 1500, (0, 0, 1.0))
            probabilities, _, _ = complex_walk(init_state(6, 3, [(0, 0, 1.0)]).amplitudes,
                                               build_coin("grover", 3).matrix, greedy_rotation(g).entries, 1500)
        # The real walk switches to complex arithmetic where it overflows,
        # so every probability is that of a complex evolution, nan included.
        assert [rec.probabilities.tobytes() for rec in traj.records] == [p.tobytes() for p in probabilities]
        if fmt == "csv":
            expected = traj.to_csv_text()
            assert ",inf," in expected and ",nan," in expected
        else:
            expected = json.dumps(reference_walk_payload(traj), indent=2) + "\n"
            assert "Infinity" in expected and "NaN" in expected
        assert out.read_bytes() == expected.encode()

    @pytest.mark.parametrize("argv, code", [
        (["--steps", "-1"], 2),
        (["--steps", "-1", "--format", "json"], 2),
        (["--coin", "hadamard"], 2),
    ])
    def test_refused_walk_writes_no_file(self, inputs, tmp_path, capsys, argv, code):
        out = tmp_path / "walk.out"
        graph, rot = inputs / "g.edges", inputs / "solved.rot"
        assert cli.main(["walk", str(graph), str(rot), *argv, "--out", str(out)]) == code
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_inconsistent_map_guard_writes_no_file(self, inputs, tmp_path, capsys):
        out = tmp_path / "walk.out"
        graph, rot = inputs / "g.edges", inputs / "greedy.rot"
        assert cli.main(["walk", str(graph), str(rot), "--out", str(out)]) == 4
        assert not out.exists()

    @staticmethod
    def assert_failed_walk_leaves_no_partial_output(inputs, tmp_path, capsys, monkeypatch, name, fmt, earlier):
        """A 10-step walk whose ``rotwalk.walk.<name>`` raises MemoryError on
        its 4th call, after a few records have been written, exits 2 with
        one line, leaves no partial output and no temporary file, and
        leaves no thread running."""
        real, calls, threads = getattr(rotwalk.walk, name), [], threading.active_count()

        def exhausted(*args):
            calls.append(None)
            if len(calls) == 4:
                raise MemoryError("")
            return real(*args)

        monkeypatch.setattr(rotwalk.walk, name, exhausted)
        out = tmp_path / "walk.out"
        if earlier is not None:
            out.write_bytes(earlier)
        graph, rot = inputs / "g.edges", inputs / "solved.rot"
        argv = ["walk", str(graph), str(rot), "--steps", "10", "--format", fmt, "--out", str(out)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory: an allocation failed\n"
        assert len(calls) == 4
        assert threading.active_count() == threads
        assert [p.name for p in tmp_path.iterdir()] == ([] if earlier is None else ["walk.out"])
        if earlier is not None:
            assert out.read_bytes() == earlier

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("earlier", [None, b"an earlier output\n"], ids=["new", "existing"])
    def test_failed_walk_leaves_no_partial_output(self, inputs, tmp_path, capsys, monkeypatch, fmt, earlier):
        # The walk runs out of memory in its 4th step.
        self.assert_failed_walk_leaves_no_partial_output(
            inputs, tmp_path, capsys, monkeypatch, "_step", fmt, earlier)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("earlier", [None, b"an earlier output\n"], ids=["new", "existing"])
    @pytest.mark.parametrize("name", ["_probabilities", "_step"])
    def test_failed_walk_on_the_record_thread(self, inputs, tmp_path, capsys, monkeypatch, record_thread,
                                              name, fmt, earlier):
        # The record thread runs out of memory making record 3, and the
        # error is raised on the caller's thread; or the caller runs out
        # while the thread makes a record.
        self.assert_failed_walk_leaves_no_partial_output(
            inputs, tmp_path, capsys, monkeypatch, name, fmt, earlier)

    def test_existing_output_replaced_whole(self, inputs, tmp_path):
        # Written through a symlink, the file it names is replaced, with
        # its mode; the link stays a link.
        out, link = tmp_path / "walk.out", tmp_path / "link.out"
        out.write_text("x" * 100_000)
        out.chmod(0o640)
        link.symlink_to(out)
        graph, rot = inputs / "g.edges", inputs / "solved.rot"
        assert cli.main(["walk", str(graph), str(rot), "--steps", "2", "--out", str(link)]) == 0
        expected = reference_walk(graph.read_text(), rot.read_text(), "grover", 2, (0, 0, 1.0))
        assert out.read_text() == expected.to_csv_text()
        assert out.stat().st_mode & 0o777 == 0o640
        assert link.is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.out", "walk.out"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
    def test_fifo_output_written_in_place(self, inputs, tmp_path):
        # A file that is not regular is written where it is, not replaced.
        fifo = tmp_path / "walk.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        graph, rot = inputs / "g.edges", inputs / "solved.rot"
        assert cli.main(["walk", str(graph), str(rot), "--steps", "2", "--out", str(fifo)]) == 0
        reader.join(timeout=30)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        expected = reference_walk(graph.read_text(), rot.read_text(), "grover", 2, (0, 0, 1.0))
        assert received == [expected.to_csv_text().encode()]
        assert [p.name for p in tmp_path.iterdir()] == ["walk.fifo"]

    def test_stdout_pipe_output_written_in_place(self, inputs):
        # /dev/stdout onto a pipe resolves to no path ("pipe:[N]"); it is
        # written where it is, as a process substitution's /dev/fd/N is.
        graph, rot = inputs / "g.edges", inputs / "solved.rot"
        proc = run_cli_process("walk", str(graph), str(rot), "--steps", "2", "--out", "/dev/stdout")
        assert (proc.returncode, proc.stderr) == (0, "")
        expected = reference_walk(graph.read_text(), rot.read_text(), "grover", 2, (0, 0, 1.0))
        assert proc.stdout == expected.to_csv_text()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd here")
    def test_deleted_file_output_written_in_place(self, inputs, tmp_path):
        # /dev/fd/N of a deleted file resolves to a path ("NAME (deleted)")
        # that is not that file: the open file is written, no file is made.
        gone = tmp_path / "gone.csv"
        fd = os.open(gone, os.O_RDWR | os.O_CREAT)
        try:
            gone.unlink()
            graph, rot = inputs / "g.edges", inputs / "solved.rot"
            assert cli.main(["walk", str(graph), str(rot), "--steps", "2", "--out", f"/dev/fd/{fd}"]) == 0
            written = os.pread(fd, 1 << 20, 0)
        finally:
            os.close(fd)
        expected = reference_walk(graph.read_text(), rot.read_text(), "grover", 2, (0, 0, 1.0))
        assert written == expected.to_csv_text().encode()
        assert list(tmp_path.iterdir()) == []

    def test_output_in_missing_directory_names_the_output(self, inputs, tmp_path, capsys):
        out = tmp_path / "missing" / "walk.out"
        graph, rot = inputs / "g.edges", inputs / "solved.rot"
        assert cli.main(["walk", str(graph), str(rot), "--steps", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"

    def test_leftover_temporary_file_is_stepped_over(self, inputs, tmp_path):
        # A killed run with this process id left its temporary file: the
        # next free name is used, and the leftover is not touched.
        out = tmp_path / "walk.out"
        leftover = tmp_path / f".walk.out.{os.getpid()}.0.tmp"
        leftover.write_text("partial")
        graph, rot = inputs / "g.edges", inputs / "solved.rot"
        assert cli.main(["walk", str(graph), str(rot), "--steps", "2", "--out", str(out)]) == 0
        expected = reference_walk(graph.read_text(), rot.read_text(), "grover", 2, (0, 0, 1.0))
        assert out.read_text() == expected.to_csv_text()
        assert leftover.read_text() == "partial"
        assert sorted(p.name for p in tmp_path.iterdir()) == [leftover.name, "walk.out"]


def traced_peak_mb(argv):
    """The traced peak, in MB, of one in-process CLI run."""
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestStreamedMemory:
    def test_walk_peak_does_not_grow_with_steps(self, tmp_path):
        # A walk that kept its records and the whole CSV text grew by about
        # 0.37 MB a step here (149 MB traced at 400 steps, 19 MB at 50).
        g = random_regular_graph(2000, 8, seed=1)
        graph, rot = tmp_path / "g.edges", tmp_path / "g.rot"
        graph.write_text(serialize_graph(g))
        rot.write_text(serialize_rotation(solve_permutation(g).rotation_map))
        argv = ["walk", str(graph), str(rot), "--out", str(tmp_path / "walk.csv"), "--steps"]
        short, long = traced_peak_mb(argv + ["50"]), traced_peak_mb(argv + ["400"])
        assert long < short + 0.5

    @pytest.mark.parametrize("criterion", ["permutation", "involution"])
    def test_greedy_check_keeps_witnesses_as_arrays(self, tmp_path, criterion):
        # About 133k witnesses here: built as one tuple per witness and
        # flattened again for the report they traced 30 MB, kept as one
        # array 16 MB.
        path = tmp_path / "map.rot"
        path.write_text(serialize_rotation(greedy_rotation(random_regular_graph(20000, 8, seed=1))))
        argv = ["check", str(path), "--criterion", criterion, "--out", str(tmp_path / "r.json")]
        assert traced_peak_mb(argv) < 22

    def test_greedy_check_peak_bounded(self, tmp_path):
        # The report held as text three times over (template, formatted
        # text, spliced copy) traced 51 MB here; streamed in chunks, 30 MB.
        path = tmp_path / "map.rot"
        path.write_text(serialize_rotation(greedy_rotation(random_regular_graph(20000, 8, seed=1))))
        assert traced_peak_mb(["check", str(path), "--out", str(tmp_path / "report.json")]) < 40


NON_FINITE_ARGS = {
    "start-nan": ["walk", "{graph}", "{map}", "--start", "1:1:nan"],
    "start-inf": ["walk", "{graph}", "{map}", "--start", "1:1:inf"],
    "start-1e400": ["walk", "{graph}", "{map}", "--start", "1:1:1e400"],
    "start-norm-overflow": ["walk", "{graph}", "{map}", "--start", "1:1:1e200"],
    "time-budget-nan": ["solve", "{graph}", "--time-budget", "nan"],
    "time-budget-inf": ["solve", "{graph}", "--time-budget", "inf"],
}


@pytest.mark.parametrize("argv", list(NON_FINITE_ARGS.values()), ids=list(NON_FINITE_ARGS))
def test_non_finite_values_exit_2_without_warning(square, canonical, argv):
    # A separate interpreter, so that stderr shows any warning NumPy prints.
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = [arg.format(graph=square, map=canonical) for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-c", "from rotwalk.cli import run; run()", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Warning" not in proc.stderr
    assert proc.stdout == ""


def run_cli_process(*argv, code="from rotwalk.cli import run; run()", env=None):
    """One command (or ``code``) in a fresh interpreter on this checkout's
    sources, with ``env`` added to the environment."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, **(env or {}), "PYTHONPATH": src})


def test_overflowing_walk_prints_no_warning(tmp_path):
    # The amplitudes of this walk overflow to inf and then nan (see
    # TestWalkStreams); they are data, and NumPy must not warn about them.
    g = RegularGraph(random_regular_by_pairing(6, 3, seed=10))
    graph, rot, out = tmp_path / "g.edges", tmp_path / "g.rot", tmp_path / "walk.csv"
    graph.write_text(serialize_graph(g))
    rot.write_text(serialize_rotation(greedy_rotation(g)))
    proc = run_cli_process("walk", str(graph), str(rot), "--steps", "1500",
                           "--allow-inconsistent", "--out", str(out))
    assert proc.returncode == 0
    assert "Warning" not in proc.stderr
    assert ",inf," in out.read_text() and ",nan," in out.read_text()


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_output_pipe_ends_by_sigpipe(square, canonical):
    # The reader goes away after one line, as ``| head -1`` does: the walk
    # ends by SIGPIPE, as other writers into a pipe do, with nothing on
    # stderr (not as a refused input, exit 2 and an 'error:' line).
    src = str(Path(cli.__file__).resolve().parents[1])
    with subprocess.Popen(
        [sys.executable, "-c", "from rotwalk.cli import run; run()",
         "walk", square, canonical, "--steps", "100000", "--start", "uniform"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert first == b"step,vertex,probability,norm2\n"
    assert (proc.returncode, stderr) == (-signal.SIGPIPE, b"")


class TestTopLevel:
    def test_parser_defaults_match_library_defaults(self):
        # Each default is written both in the parser and in the library.
        parser = cli.build_parser()
        solve_args = parser.parse_args(["solve", "g.edges"])
        config = dataclasses.asdict(SolverConfig())
        assert len(config) == 7
        assert {name: getattr(solve_args, name) for name in config} == config
        max_tries = inspect.signature(generate_graph).parameters["max_tries"].default
        assert parser.parse_args(["gen", "cycle", "4"]).max_tries == max_tries

    def test_version_flag(self, capsys):
        assert cli.main(["--version"]) == 0
        assert "rotwalk 0.1.0" in capsys.readouterr().out

    def test_version_matches_pyproject(self):
        # The version is written twice: in pyproject.toml, which packaging
        # reads, and in version.py, which --version reads.  A regex, since
        # tomllib is not in Python 3.10.
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        declared = re.search(r'^version = "([^"]+)"$', pyproject.read_text(encoding="utf-8"), re.M)
        assert declared is not None
        assert declared.group(1) == rotwalk.__version__

    def test_unknown_command_exit_2(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_missing_file_exit_2(self, capsys):
        assert cli.main(["check", "/nonexistent/x.rot"]) == 2
        assert "error:" in capsys.readouterr().err

    # Each file argument of each reading command, given bytes that are not UTF-8.
    @pytest.mark.parametrize("argv", [
        ["rotmap", "{bad}"],
        ["rotmap", "{square}", "--map", "{bad}"],
        ["check", "{bad}"],
        ["solve", "{bad}"],
        ["shift", "{bad}"],
        ["walk", "{bad}", "{canonical}"],
        ["walk", "{square}", "{bad}"],
    ])
    def test_non_utf8_file_exit_2(self, square, canonical, tmp_path, capsys, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe4 2\n1 2\n")
        files = {"bad": str(bad), "square": square, "canonical": canonical}
        assert cli.main([arg.format(**files) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: not UTF-8 text (invalid start byte at byte 0)\n"

    @pytest.mark.parametrize("module", ["rotwalk", "rotwalk.cli"])
    def test_module_forms_print_what_main_prints(self, capsys, module):
        assert cli.main(["gen", "cycle", "4"]) == 0
        expected = capsys.readouterr().out
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", module, "gen", "cycle", "4"],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")

    def test_startup_does_not_import_scipy(self):
        # SciPy adds to every command's start-up; only solve_permutation needs it.
        probe = "import sys, rotwalk.cli; print('scipy' in sys.modules)"
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.strip() == "False"

    def test_commands_load_only_their_layers(self, tmp_path):
        # A command imports the layers it runs; gen, rotmap and check never
        # reach the solvers, and the package resolves its names on access.
        edges, rot = tmp_path / "g.edges", tmp_path / "g.rot"
        argvs = [["gen", "random-regular", "30", "4", "--out", str(edges)],
                 ["rotmap", str(edges), "--out", str(rot)],
                 ["check", str(rot), "--out", str(tmp_path / "g.json")]]
        probe = (
            "import sys, rotwalk.cli\n"
            "layers = lambda: sorted(m for m in sys.modules if m.startswith('rotwalk.'))\n"
            "print(*layers())\n"
            f"print(*[rotwalk.cli.main(argv) for argv in {argvs!r}])\n"
            "print(*layers())\n"
            "import rotwalk\n"
            "print(sum(getattr(rotwalk, name) is not None for name in rotwalk.__all__))\n"
        )
        proc = run_cli_process(code=probe)
        assert proc.returncode == 0, proc.stderr
        startup, codes, after, resolved = proc.stdout.splitlines()
        assert startup == ("rotwalk.cli rotwalk.errors rotwalk.graphs rotwalk.rotmap rotwalk.textio "
                           "rotwalk.version")
        assert codes == "0 0 0"
        assert after == startup.replace("rotwalk.graphs", "rotwalk.graphs rotwalk.operators")
        assert int(resolved) == len(rotwalk.__all__)

    def test_gen_does_not_load_numpy_random(self):
        # The random-regular shuffle draws from random.Random; numpy.random
        # would add to gen's start-up and memory.  (An old NumPy loads it
        # with numpy itself, so only what gen adds is checked.)
        probe = (
            "import sys, numpy, rotwalk.cli\n"
            "before = 'numpy.random' in sys.modules\n"
            "code = rotwalk.cli.main(['gen', 'random-regular', '30', '4', '--out', sys.argv[1]])\n"
            "print(code, before, 'numpy.random' in sys.modules)\n"
        )
        proc = run_cli_process(os.devnull, code=probe)
        assert proc.returncode == 0, proc.stderr
        code, before, after = proc.stdout.split()
        assert (code, after) == ("0", before)

    def test_even_degree_solve_does_not_import_scipy(self, tmp_path):
        # Euler partitions alone decompose a power-of-two degree; SciPy's
        # matching is needed only at an odd width.
        edges = tmp_path / "g.edges"
        assert cli.main(["gen", "random-regular", "64", "8", "--seed", "3",
                         "--out", str(edges)]) == 0
        argv = ["solve", str(edges), "--out", str(tmp_path / "g.rot"),
                "--stats", str(tmp_path / "g.json")]
        probe = f"import sys, rotwalk.cli; print(rotwalk.cli.main({argv!r}), 'scipy' in sys.modules)"
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.split() == ["0", "False"]
        assert json.loads((tmp_path / "g.json").read_text())["iterations"] == 8

    def test_pipeline_reproducible(self, tmp_path, capsys):
        def pipeline(tag):
            edges = tmp_path / f"{tag}.edges"
            rot = tmp_path / f"{tag}.rot"
            walk = tmp_path / f"{tag}.csv"
            assert cli.main(["gen", "random-regular", "12", "3",
                             "--seed", "7", "--out", str(edges)]) == 0
            assert cli.main(["solve", str(edges), "--out", str(rot),
                             "--stats", str(tmp_path / f"{tag}.json")]) == 0
            assert cli.main(["walk", str(edges), str(rot), "--coin", "grover",
                             "--steps", "12", "--out", str(walk)]) == 0
            return edges.read_text() + rot.read_text() + walk.read_text()

        assert pipeline("a") == pipeline("b")


# SHA-256 of each output of gen -> rotmap -> solve -> check -> walk on
# random-regular 300x6, recorded before the text readers, writers and
# float kernel moved into textio.py; the solve stats without their
# wall-clock line.
CHAIN_DIGESTS = {
    "rr.edges": "2a86282dd5f4be564ec3bc1921ca6bc4cab320cb8211ce06585cb466a8684b3f",
    "rr-greedy.rot": "1d12dc977321064217414b35fdf3698812773f3a7e18c2185672af17dc4f9678",
    "rr-solved.rot": "72edc5f1b7235a0b3f6d331d1b8ac68de6bc18bf58e1a4bd17cb4ce17a72009c",
    "solve.json": "1102bda31934c38df2e7a65fc4684da512ba8bf4594aee33b6c3c0c08a47c668",
    "check-greedy.json": "a03aa77f85d8196b856d4df0d428b88aff5962cfa053823eb2e9675a9192fbe4",
    "check-solved.json": "4c0172507cd39c9bfb7f69dea139088f9d5b7b65d4c2c56d93d608d3d59ff82d",
    "walk-solved.csv": "e97c5e796648464a5779a9050c13b8e18ca67256709d99675a62b9c21789c1c6",
    "walk-greedy.csv": "b37b54ff44b802951b7a3579a85d6a057f6e8a4c53c84a076ba82185b60510ee",
    "walk-solved.json": "e179a4deae540575dc3e394def48472374ed0c8859f1dcbf2cbb77a1c62c1a3d",
    "walk-greedy.json": "5f9f3bf3afd9a5725af894598b3cc8e4ef12f8f7c5e900f2f021ed30001568cd",
}


def test_random_regular_chain_golden_digests(tmp_path):
    path = {name: str(tmp_path / name) for name in CHAIN_DIGESTS}
    argvs = [
        ["gen", "random-regular", "300", "6", "--seed", "4", "--out", path["rr.edges"]],
        ["rotmap", path["rr.edges"], "--out", path["rr-greedy.rot"]],
        ["solve", path["rr.edges"], "--out", path["rr-solved.rot"], "--stats", path["solve.json"]],
    ]
    for kind, flags in [("solved", []), ("greedy", ["--allow-inconsistent"])]:
        argvs.append(["check", path[f"rr-{kind}.rot"], "--out", path[f"check-{kind}.json"]])
        for fmt in ("csv", "json"):
            argvs.append(["walk", path["rr.edges"], path[f"rr-{kind}.rot"], *flags, "--steps", "50",
                          "--format", fmt, "--out", path[f"walk-{kind}.{fmt}"]])
    for argv in argvs:
        assert cli.main(argv) == 0, argv
    digests = {}
    for name in CHAIN_DIGESTS:
        lines = Path(path[name]).read_bytes().splitlines(keepends=True)
        digests[name] = hashlib.sha256(b"".join(l for l in lines if b'"wall_ms"' not in l)).hexdigest()
    assert digests == CHAIN_DIGESTS


def test_random_regular_chain_golden_digests_on_the_record_thread(tmp_path, record_thread):
    # The walks of the chain, with their records made on a second thread.
    test_random_regular_chain_golden_digests(tmp_path)
