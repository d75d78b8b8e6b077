import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rotwalk import (
    REPORT_VERSION,
    check_involution_consistent,
    check_permutation_consistent,
    cli,
    cycle_rotation,
    greedy_rotation,
    parse_graph,
    parse_rotation,
    random_regular_graph,
    serialize_rotation,
    unitarity_defect,
)

HUGE_HEADER_ERROR = (
    "error: line 1: header declares 100000000000 vertices but 0 edge lines "
    "reach at most 0: some vertex would be isolated"
)

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


class TestRotmap:
    def test_greedy_extraction(self, square, capsys):
        assert cli.main(["rotmap", square]) == 0
        assert capsys.readouterr().out == GREEDY_TEXT

    def test_from_file_echoes_map(self, square, canonical, capsys):
        code = cli.main(["rotmap", square, "--mode", "from-file", "--map", canonical])
        assert code == 0
        assert capsys.readouterr().out == CANONICAL_TEXT

    def test_from_file_requires_map(self, square, capsys):
        assert cli.main(["rotmap", square, "--mode", "from-file"]) == 2

    def test_huge_header_exit_2(self, tmp_path, capsys):
        huge = tmp_path / "huge.edges"
        huge.write_text("100000000000 2\n")
        assert cli.main(["rotmap", str(huge)]) == 2
        assert HUGE_HEADER_ERROR in capsys.readouterr().err

    def test_mismatch_exit_2(self, square, tmp_path, capsys):
        bad = tmp_path / "bad.rot"
        bad.write_text(serialize_rotation(cycle_rotation(5)))
        code = cli.main(["rotmap", square, "--mode", "from-file", "--map", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


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

    def test_malformed_map_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.rot"
        bad.write_text("4\n")
        assert cli.main(["check", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_huge_header_exit_2(self, tmp_path, capsys):
        huge = tmp_path / "huge.rot"
        huge.write_text("100000000000 2\n")
        assert cli.main(["check", str(huge)]) == 2
        assert "error: expected 100000000000 rows, got 0" in capsys.readouterr().err


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
        "violations": report.to_dict()["violations"],
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

    def test_huge_header_exit_2(self, tmp_path, capsys):
        huge = tmp_path / "huge.edges"
        huge.write_text("100000000000 2\n")
        assert cli.main(["solve", str(huge)]) == 2
        assert HUGE_HEADER_ERROR in capsys.readouterr().err

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
        assert "64" in capsys.readouterr().err


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
        for spec in ["up", "0:1", "5:1", "1:9", "up:1:notanumber"]:
            assert cli.main(["walk", square, canonical, "--start", spec]) == 2
            capsys.readouterr()

    def test_huge_header_exit_2(self, square, canonical, tmp_path, capsys):
        huge_graph, huge_map = tmp_path / "huge.edges", tmp_path / "huge.rot"
        huge_graph.write_text("100000000000 2\n")
        huge_map.write_text("100000000000 2\n")
        assert cli.main(["walk", str(huge_graph), canonical]) == 2
        assert HUGE_HEADER_ERROR in capsys.readouterr().err
        assert cli.main(["walk", square, str(huge_map)]) == 2
        assert "error: expected 100000000000 rows, got 0" in capsys.readouterr().err

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


class TestTopLevel:
    def test_version_flag(self, capsys):
        assert cli.main(["--version"]) == 0
        assert "rotwalk 0.1.0" in capsys.readouterr().out

    def test_unknown_command_exit_2(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_missing_file_exit_2(self, capsys):
        assert cli.main(["check", "/nonexistent/x.rot"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_startup_does_not_import_scipy(self):
        # SciPy adds to every command's start-up; only solve_permutation needs it.
        probe = "import sys, rotwalk.cli; print('scipy' in sys.modules)"
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.strip() == "False"

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
