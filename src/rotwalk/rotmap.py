"""Rotation maps: the n x d vertex table driving the shift operator.

A rotation map assigns to every vertex v and edge label i the vertex
reached from v along its edge labeled i.  Entry (v, i) of ``entries`` is
that vertex.  Labels are the column indices.  Everything is 0-based in
memory; the text format and all reports are 1-based.

Two consistency criteria matter:

* permutation: every column is a permutation of the whole vertex set.
  This is exactly the condition under which the shift operator built
  from the map is unitary.
* involution: following the same label twice returns to the start,
  i.e. every label class is a perfect matching.  This is the same thing
  as a proper d-edge-coloring and implies permutation consistency, but
  not conversely (the canonical cycle map v -> v+1 / v -> v-1 is
  permutation-consistent yet not involutive for n > 2).

Rotation-map text format::

    n d
    w_1 ... w_d      (row for vertex 1)
    ...
    w_1 ... w_d      (row for vertex n)

with '#' starting a comment line.  It is read and written by textio's
table reader and writer, as the edge-list format is; a format error
names the first bad line in document order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError
from .graphs import (
    RegularGraph, _FrozenTable, _integer_table, _integers, _raise_first, _read_only, _row_rules,
)
from .textio import _read_table, _write_table

# The solver methods that search for a consistent map.  They live beside
# the checkers, as the criteria do, so that the CLI can offer them without
# importing the solvers.
METHODS = ("matching", "greedy-coloring", "vizing", "local-search", "exhaustive")


class RotationMap(_FrozenTable):
    """An (n, d) integer table; entry (v, i) = vertex reached from v on label i.

    Each entry is a vertex, and row v holds neither v nor an entry twice
    (each neighbor used once per vertex).  An error names the first bad
    row.  The table is read-only after construction.
    """

    __slots__ = ("entries",)
    _TABLE = "entries"

    def __init__(self, entries: np.ndarray):
        table = _integer_table(entries, ValidationError, "rotation map")
        if table.ndim != 2:
            raise ValidationError("rotation map must be 2-dimensional")
        n, d = table.shape
        if n < 1 or d < 1:
            raise ValidationError("rotation map needs n >= 1 and d >= 1")
        _raise_first(_row_rules(table, n), ValidationError)
        self.n, self.d, self.entries = n, d, _read_only(table)


# The columns of a witness row, the keys of each witness in a report.
WITNESS_FIELDS = ("label", "vertex", "count")


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    """A checker's witnesses, in report order, and the verdict read from them.

    ``violations`` is a read-only (k, 3) int64 array of 1-based
    (label, vertex, count) rows (``WITNESS_FIELDS``), of shape (0, 3) when
    the map is consistent.  For the permutation criterion, ``count`` is how
    many times ``vertex`` occurs in the column for ``label`` (anything other
    than once is a violation).  For the involution criterion, ``count`` is
    0 and the row means label ``label`` does not return from ``vertex``.
    Equality compares the witness values; the hash reads the array's bytes.
    """

    criterion: str
    violations: np.ndarray

    def __post_init__(self):
        witnesses = np.array(self.violations, dtype=np.int64).reshape(-1, 3)
        object.__setattr__(self, "violations", _read_only(witnesses))

    @property
    def consistent(self) -> bool:
        """Whether the map meets the criterion: it has no witness."""
        return not len(self.violations)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.criterion == other.criterion and np.array_equal(self.violations, other.violations)

    def __hash__(self):
        return hash((self.criterion, self.violations.tobytes()))


def greedy_rotation(graph: RegularGraph) -> RotationMap:
    """The greedy labeling: row v lists the neighbors of v in ascending order.

    Deterministic, always valid against its graph, and in general NOT
    consistent under either criterion.
    """
    return RotationMap(graph.neighbors)


def cycle_rotation(n: int) -> RotationMap:
    """The canonical consistent map on the n-cycle: label 1 is v -> v+1,
    label 2 is v -> v-1 (mod n, 0-based internally).  Permutation-consistent
    for every n >= 3.
    """
    (n,) = _integers(ValidationError, "cycle rotation n", (n,))
    if n < 3:
        raise ValidationError(f"cycle rotation needs n >= 3, got {n}")
    v = np.arange(n, dtype=np.int64)
    return RotationMap(np.column_stack([(v + 1) % n, (v - 1) % n]))


def _column_counts(rot: RotationMap) -> np.ndarray:
    """The coin-major count vector: entry j*n + w is how often w occurs in
    column j.  It is the diagonal of S.S^T for the map's shift S, whose
    off-diagonal entries are all 0."""
    n, d = rot.n, rot.d
    return np.bincount((rot.entries + np.arange(d) * n).ravel(), minlength=n * d)


def check_permutation_consistent(rot: RotationMap) -> ConsistencyReport:
    """Each column must be a permutation of all n vertices.

    The report's witness rows are every (label, vertex, count) whose
    occurrence count in that column differs from one — repeated targets and
    missing targets alike — label by label, vertices ascending.
    """
    counts = _column_counts(rot)
    bad = np.flatnonzero(counts != 1)
    return _consistency_report("permutation", bad // rot.n, bad % rot.n, counts[bad])


def check_involution_consistent(rot: RotationMap) -> ConsistencyReport:
    """Each label must return: Rot(Rot(v, i), i) = v for every v, i.

    The report's witness rows are every (label, vertex, 0) whose arc does
    not return, label by label, vertices ascending.
    """
    entries = rot.entries
    broken = entries[entries, np.arange(rot.d)] != np.arange(rot.n)[:, None]
    labels, vertices = np.nonzero(broken.T)
    return _consistency_report("involution", labels, vertices, np.zeros_like(labels))


# The checker of each criterion.  Each looks its checker up when called,
# so that a function rebound in this module (a profiler's wrapper, say)
# is the one that runs.
CHECKERS = {
    "permutation": lambda rot: check_permutation_consistent(rot),
    "involution": lambda rot: check_involution_consistent(rot),
}
# The consistency criteria, the CLI's default first.
CRITERIA = tuple(CHECKERS)


def _consistency_report(criterion: str, labels, vertices, counts) -> ConsistencyReport:
    """A report from 0-based label and vertex arrays, already in witness order."""
    return ConsistencyReport(criterion, np.column_stack([labels + 1, vertices + 1, counts]))


def validate_against_graph(rot: RotationMap, graph: RegularGraph) -> None:
    """Check that each row of ``rot`` is exactly the neighbor set of its vertex.

    Returns None when they match.  Otherwise raises one ValidationError
    naming the first mismatching vertex (1-based), its stray entries and
    unused neighbors in ascending order, and how many rows mismatch.  A
    dimension mismatch raises before any row is compared.
    """
    if (rot.n, rot.d) != (graph.n, graph.d):
        raise ValidationError(
            f"dimension mismatch: map is {rot.n} x {rot.d}, graph is {graph.n} x {graph.d}"
        )
    # Rows hold distinct entries and neighbor rows are sorted, so a row is
    # its vertex's neighbor set exactly when the sorted row equals it.
    bad = (np.sort(rot.entries, axis=1) != graph.neighbors).any(axis=1)

    def mismatch(v):
        row, nbrs = rot.entries[v], graph.neighbors[v]
        parts = [f"entry {w + 1} is not a neighbor" for w in np.setdiff1d(row, nbrs).tolist()]
        parts += [f"neighbor {w + 1} unused" for w in np.setdiff1d(nbrs, row).tolist()]
        return f"vertex {v + 1}: {', '.join(parts)} ({bad.sum()} of {rot.n} rows mismatch)"

    _raise_first([(bad, mismatch)], ValidationError)


def parse_rotation(text: str | bytes) -> RotationMap:
    """Parse the rotation-map text format, from a str or its UTF-8 bytes.

    A format error names the first bad line (1-based) in document order;
    a missing row is an error of the document as a whole.
    """
    table = _read_table(text)
    n, d, lines = table.n, table.d, table.lines
    m = len(lines)
    wrong_width = table.widths != d
    # When no row has d fields, d may be any size: leave the entries empty.
    rows = (table.rows(d) if not wrong_width.all() else np.zeros((m, 0), dtype=np.int64)) - 1
    _raise_first([
        (np.arange(m) >= n, lambda i: f"expected exactly {n} rows"),
        (wrong_width, lambda i: f"row must have {d} entries, got {table.widths[i]}"),
        (~table.integral, lambda i: "row entries must be integers"),
        *_row_rules(rows, n),
    ], lines=lines)
    if m != n:
        raise FormatError(f"expected {n} rows, got {m}")
    return RotationMap(rows)


def serialize_rotation(rot: RotationMap) -> str:
    return _write_table(rot.n, rot.d, rot.entries)
