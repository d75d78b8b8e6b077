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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FormatError, ValidationError
from .graphs import RegularGraph


class RotationMap:
    """An (n, d) integer table; entry (v, i) = vertex reached from v on label i.

    Rows must be self-loop-free and pairwise distinct (each neighbor used
    once per vertex).  The table is read-only after construction.
    """

    __slots__ = ("n", "d", "entries")

    def __init__(self, entries: np.ndarray):
        table = np.array(entries, dtype=np.int64)
        if table.ndim != 2:
            raise ValidationError("rotation map must be 2-dimensional")
        n, d = table.shape
        if n < 1 or d < 1:
            raise ValidationError("rotation map needs n >= 1 and d >= 1")
        if table.min() < 0 or table.max() >= n:
            raise ValidationError("rotation map entry out of range")
        if (table == np.arange(n)[:, None]).any():
            v = int(np.argwhere(table == np.arange(n)[:, None])[0][0])
            raise ValidationError(f"vertex {v + 1} maps to itself")
        if d > 1:
            rows_sorted = np.sort(table, axis=1)
            if (np.diff(rows_sorted, axis=1) == 0).any():
                v = int(np.flatnonzero((np.diff(rows_sorted, axis=1) == 0).any(axis=1))[0])
                raise ValidationError(f"vertex {v + 1} row has repeated entries")
        table.setflags(write=False)
        self.n = n
        self.d = d
        self.entries = table

    def __eq__(self, other) -> bool:
        if not isinstance(other, RotationMap):
            return NotImplemented
        return self.n == other.n and self.d == other.d and bool(
            (self.entries == other.entries).all()
        )

    def __hash__(self):
        return hash((self.n, self.d, self.entries.tobytes()))

    def __repr__(self) -> str:
        return f"RotationMap(n={self.n}, d={self.d})"


class Violation(NamedTuple):
    """One consistency witness; all ids 1-based.

    For the permutation criterion, ``count`` is how many times ``vertex``
    occurs in the column for ``label`` (anything other than once is a
    violation).  For the involution criterion, ``count`` is 0 and the
    witness means label ``label`` does not return from vertex ``vertex``.
    """

    label: int
    vertex: int
    count: int


@dataclass(frozen=True)
class ConsistencyReport:
    criterion: str
    consistent: bool
    violations: tuple[Violation, ...]

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "consistent": self.consistent,
            "violations": [
                {"label": w.label, "vertex": w.vertex, "count": w.count}
                for w in self.violations
            ],
        }


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
    if n < 3:
        raise ValidationError(f"cycle rotation needs n >= 3, got {n}")
    v = np.arange(n, dtype=np.int64)
    return RotationMap(np.column_stack([(v + 1) % n, (v - 1) % n]))


def check_permutation_consistent(rot: RotationMap) -> ConsistencyReport:
    """Each column must be a permutation of all n vertices.

    Violations list every (label, vertex) whose occurrence count in that
    column differs from one — repeated targets and missing targets alike.
    """
    violations = []
    for j in range(rot.d):
        counts = np.bincount(rot.entries[:, j], minlength=rot.n)
        for v in np.flatnonzero(counts != 1):
            violations.append(Violation(j + 1, int(v) + 1, int(counts[v])))
    return ConsistencyReport("permutation", not violations, tuple(violations))


def check_involution_consistent(rot: RotationMap) -> ConsistencyReport:
    """Each label must return: Rot(Rot(v, i), i) = v for every v, i."""
    violations = []
    for j in range(rot.d):
        col = rot.entries[:, j]
        broken = np.flatnonzero(col[col] != np.arange(rot.n))
        violations.extend(Violation(j + 1, int(v) + 1, 0) for v in broken)
    return ConsistencyReport("involution", not violations, tuple(violations))


def validate_against_graph(rot: RotationMap, graph: RegularGraph) -> list[str]:
    """Check that each row of ``rot`` is exactly the neighbor set of its vertex.

    Returns an empty list when the map matches the graph, else one
    human-readable mismatch line per offending vertex (1-based ids).
    A dimension mismatch is structural and raises instead.
    """
    if (rot.n, rot.d) != (graph.n, graph.d):
        raise ValidationError(
            f"dimension mismatch: map is {rot.n} x {rot.d}, graph is {graph.n} x {graph.d}"
        )
    # Rows hold distinct entries and neighbor rows are sorted, so a row is
    # its vertex's neighbor set exactly when the sorted row equals it.
    bad = np.flatnonzero((np.sort(rot.entries, axis=1) != graph.neighbors).any(axis=1))
    mismatches = []
    for v in bad.tolist():
        row = set(rot.entries[v].tolist())
        nbrs = set(graph.neighbors[v].tolist())
        parts = [f"entry {w + 1} is not a neighbor" for w in sorted(row - nbrs)]
        parts += [f"neighbor {w + 1} unused" for w in sorted(nbrs - row)]
        mismatches.append(f"vertex {v + 1}: " + ", ".join(parts))
    return mismatches


def parse_rotation(text: str) -> RotationMap:
    """Parse the rotation-map text format; errors carry 1-based line numbers."""
    n = d = None
    rows: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 2:
                raise FormatError("header must be 'n d'", line=lineno)
            try:
                n, d = int(fields[0]), int(fields[1])
            except ValueError:
                raise FormatError("header must be two integers", line=lineno) from None
            if n < 1 or d < 1:
                raise FormatError("header requires n >= 1 and d >= 1", line=lineno)
            continue
        if len(rows) == n:
            raise FormatError(f"expected exactly {n} rows", line=lineno)
        if len(fields) != d:
            raise FormatError(f"row must have {d} entries, got {len(fields)}", line=lineno)
        try:
            entries = [int(f) for f in fields]
        except ValueError:
            raise FormatError("row entries must be integers", line=lineno) from None
        vertex = len(rows) + 1
        for w in entries:
            if not (1 <= w <= n):
                raise FormatError(f"entry {w} out of range 1..{n}", line=lineno)
            if w == vertex:
                raise FormatError(f"vertex {vertex} maps to itself", line=lineno)
        if len(set(entries)) != d:
            raise FormatError(f"row for vertex {vertex} has repeated entries", line=lineno)
        rows.append([w - 1 for w in entries])
    if n is None:
        raise FormatError("empty document: missing 'n d' header")
    if len(rows) != n:
        raise FormatError(f"expected {n} rows, got {len(rows)}")
    return RotationMap(np.array(rows, dtype=np.int64))


def serialize_rotation(rot: RotationMap) -> str:
    lines = [f"{rot.n} {rot.d}"]
    lines.extend(" ".join(str(int(w) + 1) for w in row) for row in rot.entries)
    return "\n".join(lines) + "\n"
