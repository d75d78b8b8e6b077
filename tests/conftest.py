import json
import shutil
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    """Hypothesis caches what it reads of the sources under its home
    directory, from collection on; keep that cache out of the checkout."""
    config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="rotwalk-hypothesis-")
    set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


@pytest.fixture
def cli_solve(tmp_path):
    """``cli_solve(graph, *argv)`` runs ``rotwalk solve`` on ``graph`` and
    returns its exit code, its --stats report and the map it wrote (None
    unless solved)."""
    from rotwalk import cli, parse_rotation, serialize_graph

    def solve(graph, *argv):
        edges, out, stats = (tmp_path / name for name in ("solve.edges", "solve.rot", "stats.json"))
        edges.write_text(serialize_graph(graph))
        out.unlink(missing_ok=True)
        code = cli.main(["solve", str(edges), *argv, "--out", str(out), "--stats", str(stats)])
        rot = parse_rotation(out.read_text()) if out.exists() else None
        return code, json.loads(stats.read_text()), rot

    return solve
