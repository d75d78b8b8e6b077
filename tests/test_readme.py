"""The README's examples, run as written, with the values their comments state."""

import ast
import json
import re
import shlex
from pathlib import Path

import numpy as np

from rotwalk import check_permutation_consistent, cli, parse_rotation

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def code_block(language, first_line):
    """The README's fenced ``language`` block that starts with ``first_line``."""
    for block in re.findall(rf"```{language}\n(.*?)```", README, re.S):
        if block.startswith(first_line):
            return block
    raise AssertionError(f"README has no {language} block starting {first_line!r}")


def commented_value(comment):
    """The value a tour comment states: a literal, before any " -- " note,
    or ``~x`` (before any ":" note) for a float of x's order of magnitude."""
    text = comment.split(" -- ")[0].strip()
    if text.startswith("~"):
        return float(text[1:].split(":")[0])
    return ast.literal_eval(text)


def test_library_tour_prints_its_comments():
    block = code_block("python", "import rotwalk")
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(block).body:
        code = compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec")
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        expected = commented_value(lines[stmt.lineno - 1].split("#", 1)[1])
        if isinstance(expected, float):
            assert expected / 10 < value < expected * 10, (lines[stmt.lineno - 1], value)
        else:
            assert np.asarray(value).tolist() == expected, (lines[stmt.lineno - 1], value)
        checked += 1
    assert checked == 5


def test_cli_example_runs_as_commented(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [line.split("#")[0] for line in code_block("sh", "rotwalk gen").splitlines()]
    outputs = []
    for command in commands:
        argv = shlex.split(command)
        assert argv[0] == "rotwalk"
        assert cli.main(argv[1:]) == 0, command
        outputs.append(capsys.readouterr().out)
    assert len(commands) == 6
    _, _, check, _, shift, walk = outputs
    assert Path("square.edges").read_text() == "4 2\n1 2\n1 4\n2 3\n3 4\n"
    # neighbors in ascending order
    assert Path("greedy.rot").read_text() == "4 2\n2 4\n1 3\n2 4\n1 3\n"
    # defect + violations JSON
    report = json.loads(check)
    assert report["defect"] == 1 and report["consistent"] is False
    assert len(report["violations"]) > 0 and len(report["product"]) == 8
    rot = parse_rotation(Path("good.rot").read_text())
    assert check_permutation_consistent(rot).consistent
    assert json.loads(Path("stats.json").read_text())["status"] == "solved"
    # dense matrix JSON (n*d <= 64)
    matrix = json.loads(shift)["matrix"]
    assert len(matrix) == 8 and all(len(row) == 8 for row in matrix)
    rows = walk.splitlines()
    assert rows[0] == "step,vertex,probability,norm2" and len(rows) == 1 + 101 * 4
    assert max(abs(float(row.split(",")[3]) - 1.0) for row in rows[1:]) < 1e-13
