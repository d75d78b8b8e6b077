"""Simple d-regular graphs: construction, validation, families, text I/O.

Vertices are 0-based integers internally.  Every external surface (the
edge-list text format, error messages, reports) uses 1-based vertex ids;
conversion happens only at the boundaries.

Edge-list text format::

    n d
    u v
    ...

with ``1 <= u < v <= n``, one edge per line, '#' starting a comment line.
Edge order is not significant; serialization writes edges sorted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, GenerationError, GraphStructureError, RegularityError

FAMILIES = (
    "cycle",
    "complete",
    "complete-bipartite",
    "hypercube",
    "torus",
    "circulant",
    "random-regular",
)


class RegularGraph:
    """A simple d-regular graph on n vertices.

    The canonical representation is ``neighbors``: an (n, d) integer array
    whose row v lists the neighbors of v in ascending order.  The array is
    read-only; a RegularGraph never changes after construction.
    """

    __slots__ = ("n", "d", "neighbors")

    def __init__(self, neighbors: np.ndarray):
        nbrs = np.array(neighbors, dtype=np.int64)
        if nbrs.ndim != 2:
            raise GraphStructureError("neighbor table must be 2-dimensional")
        n, d = nbrs.shape
        if n < 1 or d < 1:
            raise GraphStructureError("graph must have at least one vertex and degree >= 1")
        if nbrs.min() < 0 or nbrs.max() >= n:
            raise GraphStructureError("neighbor entry out of range")
        nbrs.sort(axis=1)
        if d > 1 and (np.diff(nbrs, axis=1) == 0).any():
            raise GraphStructureError("repeated neighbor (multi-edge) in neighbor table")
        if (nbrs == np.arange(n)[:, None]).any():
            raise GraphStructureError("self-loop in neighbor table")
        # Symmetric iff the arc keys u*n+v (already ascending: rows in order,
        # each row sorted) equal the sorted keys of the reversed arcs v*n+u.
        tails = np.repeat(np.arange(n), d)
        if not np.array_equal(tails * n + nbrs.ravel(), np.sort(nbrs.ravel() * n + tails)):
            raise GraphStructureError("adjacency is not symmetric")
        nbrs.setflags(write=False)
        self.n = n
        self.d = d
        self.neighbors = nbrs

    @classmethod
    def from_edges(cls, n: int, edges) -> "RegularGraph":
        """Build from a sequence (or (m, 2) array) of 0-based (u, v) pairs.

        The first bad pair in input order is named, 1-based: out of range,
        self-loop, or a repeat of an earlier pair.  All vertices must end
        up with equal degree; otherwise a RegularityError lists the
        deviant vertices (1-based).
        """
        if n < 1:
            raise GraphStructureError("graph must have at least one vertex")
        pairs = np.array(edges, dtype=np.int64).reshape(len(edges), 2)
        out_of_range = ((pairs < 0) | (pairs >= n)).any(axis=1)
        loops = pairs[:, 0] == pairs[:, 1]
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        repeats = np.ones(len(pairs), dtype=bool)
        repeats[np.unique(lo * n + hi, return_index=True)[1]] = False
        bad = np.flatnonzero(out_of_range | loops | repeats)
        if bad.size:
            i = bad[0]
            u, v = pairs[i]
            if out_of_range[i]:
                raise GraphStructureError(f"edge ({u + 1}, {v + 1}) out of range for n={n}")
            if loops[i]:
                raise GraphStructureError(f"self-loop at vertex {u + 1}")
            raise GraphStructureError(f"duplicate edge ({lo[i] + 1}, {hi[i] + 1})")
        tails = np.concatenate([pairs[:, 0], pairs[:, 1]])
        heads = np.concatenate([pairs[:, 1], pairs[:, 0]])
        d = _require_uniform_degrees(np.bincount(tails, minlength=n))
        return cls(heads[np.lexsort((heads, tails))].reshape(n, d))

    @classmethod
    def from_adjacency(cls, adjacency) -> "RegularGraph":
        check_regularity(adjacency)
        adj = np.asarray(adjacency).astype(bool)
        rows = [np.flatnonzero(adj[v]) for v in range(adj.shape[0])]
        return cls(np.array(rows, dtype=np.int64))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as 0-based (u, v) with u < v, lexicographically sorted."""
        upper = self.neighbors > np.arange(self.n)[:, None]
        return list(zip(np.nonzero(upper)[0].tolist(), self.neighbors[upper].tolist()))

    def adjacency_matrix(self) -> np.ndarray:
        adj = np.zeros((self.n, self.n), dtype=bool)
        adj[np.repeat(np.arange(self.n), self.d), self.neighbors.ravel()] = True
        return adj

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors[u]
        i = int(np.searchsorted(row, v))
        return i < self.d and row[i] == v

    def __eq__(self, other) -> bool:
        if not isinstance(other, RegularGraph):
            return NotImplemented
        return self.n == other.n and self.d == other.d and bool(
            (self.neighbors == other.neighbors).all()
        )

    def __hash__(self):
        return hash((self.n, self.d, self.neighbors.tobytes()))

    def __repr__(self) -> str:
        return f"RegularGraph(n={self.n}, d={self.d})"


def _require_uniform_degrees(degrees: np.ndarray, expected: int | None = None) -> int:
    """Return the common degree, or raise RegularityError naming deviants.

    When ``expected`` is None the reference degree is the modal one (ties
    broken toward the larger degree, so a near-regular graph reports the
    few low-degree vertices rather than the majority).
    """
    if expected is None:
        counts = np.bincount(degrees)
        expected = int(np.flatnonzero(counts == counts.max())[-1])
    bad = np.flatnonzero(degrees != expected)
    if bad.size:
        raise RegularityError([(int(v) + 1, int(degrees[v])) for v in bad])
    return expected


def check_regularity(adjacency) -> int:
    """Return the regularity degree of a boolean adjacency matrix.

    Raises GraphStructureError if the matrix is not square/symmetric/0-1
    or has a nonzero diagonal, and RegularityError (listing every vertex
    with deviant degree, 1-based) if the graph is not regular.
    """
    adj = np.asarray(adjacency)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise GraphStructureError("adjacency matrix must be square")
    if adj.shape[0] == 0:
        raise GraphStructureError("graph must have at least one vertex")
    if adj.dtype != bool:
        if not np.isin(adj, (0, 1)).all():
            raise GraphStructureError("adjacency entries must be boolean or 0/1")
        adj = adj.astype(bool)
    if adj.diagonal().any():
        v = int(np.flatnonzero(adj.diagonal())[0])
        raise GraphStructureError(f"self-loop at vertex {v + 1}")
    if not (adj == adj.T).all():
        u, w = (int(x) for x in np.argwhere(adj != adj.T)[0])
        raise GraphStructureError(f"adjacency is not symmetric at ({u + 1}, {w + 1})")
    return _require_uniform_degrees(adj.sum(axis=1))


# ---------------------------------------------------------------------------
# Text format


def parse_graph(text: str) -> RegularGraph:
    """Parse an edge-list document into a RegularGraph.

    Format errors carry the offending 1-based line number; a non-regular
    edge list raises RegularityError naming each deviant vertex.
    """
    n = d = None
    edges: list[tuple[int, int]] = []
    seen: dict[tuple[int, int], int] = {}
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
        if len(fields) != 2:
            raise FormatError("edge line must be 'u v'", line=lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise FormatError("edge endpoints must be integers", line=lineno) from None
        if u == v:
            raise FormatError(f"self-loop at vertex {u}", line=lineno)
        if not (1 <= u < v <= n):
            raise FormatError(f"edge ({u}, {v}) must satisfy 1 <= u < v <= n", line=lineno)
        if (u, v) in seen:
            raise FormatError(
                f"duplicate edge ({u}, {v}), first seen on line {seen[(u, v)]}", line=lineno
            )
        seen[(u, v)] = lineno
        edges.append((u - 1, v - 1))
    if n is None:
        raise FormatError("empty document: missing 'n d' header")
    pairs = np.array(edges, dtype=np.int64).reshape(len(edges), 2)
    _require_uniform_degrees(np.bincount(pairs.ravel(), minlength=n), expected=d)
    return RegularGraph.from_edges(n, pairs)


def serialize_graph(graph: RegularGraph) -> str:
    lines = [f"{graph.n} {graph.d}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Families


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family plus its integer parameters.

    ``params`` meaning per family: cycle (n), complete (n),
    complete-bipartite (m, giving K_{m,m}), hypercube (k, giving 2^k
    vertices), torus (rows, cols), circulant (n, offset...), and
    random-regular (n, d).  ``seed`` only matters for random-regular.
    """

    family: str
    params: tuple[int, ...]
    seed: int = 0


def generate_graph(spec: FamilySpec, max_tries: int = 100) -> RegularGraph:
    """Build the graph a FamilySpec describes.

    Deterministic: equal specs (including seed) give identical graphs.
    Invalid parameters raise GenerationError with a diagnostic.
    """
    family = spec.family
    params = tuple(int(p) for p in spec.params)
    arity = {
        "cycle": 1,
        "complete": 1,
        "complete-bipartite": 1,
        "hypercube": 1,
        "torus": 2,
        "random-regular": 2,
    }
    if family not in FAMILIES:
        raise GenerationError(
            f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}"
        )
    if family == "circulant":
        if len(params) < 2:
            raise GenerationError("circulant needs parameters: n offset...")
    elif len(params) != arity[family]:
        raise GenerationError(
            f"family {family!r} needs exactly {arity[family]} parameter(s), got {len(params)}"
        )
    if family == "cycle":
        return cycle_graph(params[0])
    if family == "complete":
        return complete_graph(params[0])
    if family == "complete-bipartite":
        return complete_bipartite_graph(params[0])
    if family == "hypercube":
        return hypercube_graph(params[0])
    if family == "torus":
        return torus_graph(params[0], params[1])
    if family == "circulant":
        return circulant_graph(params[0], params[1:])
    return random_regular_graph(params[0], params[1], seed=spec.seed, max_tries=max_tries)


def cycle_graph(n: int) -> RegularGraph:
    """The n-cycle (2-regular); n >= 3."""
    if n < 3:
        raise GenerationError(f"cycle needs n >= 3, got {n}")
    return RegularGraph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def complete_graph(n: int) -> RegularGraph:
    """K_n, (n-1)-regular; n >= 2."""
    if n < 2:
        raise GenerationError(f"complete needs n >= 2, got {n}")
    return RegularGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite_graph(m: int) -> RegularGraph:
    """K_{m,m} on 2m vertices, m-regular; vertices 0..m-1 vs m..2m-1."""
    if m < 1:
        raise GenerationError(f"complete-bipartite needs m >= 1, got {m}")
    return RegularGraph.from_edges(2 * m, [(u, m + v) for u in range(m) for v in range(m)])


def hypercube_graph(k: int) -> RegularGraph:
    """The k-dimensional hypercube: 2^k vertices, k-regular."""
    if k < 1:
        raise GenerationError(f"hypercube needs k >= 1, got {k}")
    n = 1 << k
    edges = [(x, x ^ (1 << b)) for x in range(n) for b in range(k) if x < x ^ (1 << b)]
    return RegularGraph.from_edges(n, edges)


def torus_graph(rows: int, cols: int) -> RegularGraph:
    """The rows x cols grid with wraparound (4-regular); both sides >= 3.

    Side length 2 would wrap v+1 and v-1 onto the same neighbor (a
    multi-edge), so it is rejected.
    """
    if rows < 3 or cols < 3:
        raise GenerationError(f"torus needs both sides >= 3, got {rows} x {cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            edges.append((v, ((r + 1) % rows) * cols + c))
            edges.append((v, r * cols + (c + 1) % cols))
    return RegularGraph.from_edges(rows * cols, [(min(e), max(e)) for e in edges])


def circulant_graph(n: int, offsets) -> RegularGraph:
    """Circulant graph: v ~ v+s (mod n) for every offset s.

    Offsets must be nonzero mod n, pairwise distinct mod n, and closed
    under negation mod n (each s accompanied by n-s), so that the offset
    list itself is the degree and the edge relation is symmetric.
    """
    if n < 3:
        raise GenerationError(f"circulant needs n >= 3, got {n}")
    reduced = [s % n for s in offsets]
    if any(s == 0 for s in reduced):
        raise GenerationError("circulant offsets must be nonzero mod n")
    if len(set(reduced)) != len(reduced):
        raise GenerationError("circulant offsets must be distinct mod n")
    missing = sorted({s for s in reduced if (n - s) % n not in reduced})
    if missing:
        raise GenerationError(
            "circulant offsets must be closed under negation mod n; "
            f"missing {', '.join(str((n - s) % n) for s in missing)}"
        )
    edges = set()
    for v in range(n):
        for s in reduced:
            w = (v + s) % n
            edges.add((min(v, w), max(v, w)))
    return RegularGraph.from_edges(n, sorted(edges))


def random_regular_graph(n: int, d: int, seed: int = 0, max_tries: int = 100) -> RegularGraph:
    """A random d-regular simple graph via the pairing model with repair.

    Stubs (d copies of each vertex) are shuffled and paired; pairs that
    would create a self-loop or multi-edge are thrown back and re-paired,
    and an attempt is abandoned early once no suitable pair can exist.
    Deterministic for a fixed seed; raises GenerationError when every
    attempt within ``max_tries`` fails (likely only for very dense d).
    """
    if n < 1 or d < 1:
        raise GenerationError("random-regular needs n >= 1 and d >= 1")
    if d >= n:
        raise GenerationError(f"random-regular needs d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise GenerationError(f"random-regular needs n*d even, got n={n}, d={d}")
    rng = random.Random(seed)

    def suitable(edges: set, leftovers: dict) -> bool:
        # True if some pair of leftover stubs can still form a new edge.
        if not leftovers:
            return True
        nodes = sorted(leftovers)
        for i, u in enumerate(nodes):
            for v in nodes[: i + 1]:
                if u == v:
                    continue
                if (v, u) not in edges:
                    return True
        return False

    def attempt() -> set | None:
        edges: set = set()
        stubs = list(range(n)) * d
        while stubs:
            leftovers: dict[int, int] = {}
            rng.shuffle(stubs)
            it = iter(stubs)
            for u, v in zip(it, it):
                if u > v:
                    u, v = v, u
                if u != v and (u, v) not in edges:
                    edges.add((u, v))
                else:
                    leftovers[u] = leftovers.get(u, 0) + 1
                    leftovers[v] = leftovers.get(v, 0) + 1
            if not suitable(edges, leftovers):
                return None
            stubs = [u for u, count in leftovers.items() for _ in range(count)]
        return edges

    for _ in range(max_tries):
        edges = attempt()
        if edges is not None:
            return RegularGraph.from_edges(n, list(edges))
    raise GenerationError(
        f"random-regular({n}, {d}) generation exhausted after {max_tries} attempts"
    )
