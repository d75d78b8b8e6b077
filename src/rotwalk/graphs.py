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

This module also holds the reader and writer shared with the
rotation-map format (``rotmap.py``): a document is read into int64 arrays
with array operations, each parser checks its body lines as masks, and a
format error names the first bad line in document order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FormatError, GenerationError, GraphStructureError, RegularityError, RotwalkError

FAMILIES = (
    "cycle",
    "complete",
    "complete-bipartite",
    "hypercube",
    "torus",
    "circulant",
    "random-regular",
)


def _integer_table(values, error: type[RotwalkError], what: str) -> np.ndarray:
    """``values`` as a new int64 array.  Raises ``error`` when the rows are
    ragged or an entry is not an exact int64 value (a fraction, NaN, inf,
    a huge float, a string); a Python integer beyond int64 is out of
    range of any table."""
    try:
        array = np.asarray(values)
    except ValueError:
        raise error(f"{what} rows must all have the same length") from None
    if array.dtype.kind in "biu":
        return array.astype(np.int64)
    if array.dtype.kind in "fO":
        try:
            # A non-finite or huge float casts to garbage, which the
            # round-trip comparison below refuses.
            with np.errstate(invalid="ignore"):
                table = array.astype(np.int64)
        except OverflowError:
            raise error(f"{what} entry out of range") from None
        except (TypeError, ValueError):
            pass
        else:
            if (table == array).all():
                return table
    raise error(f"{what} entries must be integers")


class RegularGraph:
    """A simple d-regular graph on n vertices.

    The canonical representation is ``neighbors``: an (n, d) integer array
    whose row v lists the neighbors of v in ascending order.  The array is
    read-only; a RegularGraph never changes after construction.
    """

    __slots__ = ("n", "d", "neighbors")

    def __init__(self, neighbors: np.ndarray):
        nbrs = _integer_table(neighbors, GraphStructureError, "neighbor table")
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
        self-loop, or a repeat of an earlier pair.  Then more than twice
        as many vertices as edges is refused before anything of size n
        exists.  All vertices must end up with equal degree; otherwise a
        RegularityError lists the deviant vertices (1-based).
        """
        if n < 1:
            raise GraphStructureError("graph must have at least one vertex")
        pairs = _integer_table(edges, GraphStructureError, "edge")
        if not pairs.size:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise GraphStructureError("edges must be (u, v) pairs")
        m = len(pairs)
        out_of_range = ((pairs < 0) | (pairs >= n)).any(axis=1)
        loops = pairs[:, 0] == pairs[:, 1]
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        # Pair keys lo*n+hi, exact also past int64.
        keys = lo * n + hi if n < 2**31 else lo.astype(object) * n + hi
        repeats = np.ones(m, dtype=bool)
        repeats[np.unique(keys, return_index=True)[1]] = False
        bad = np.flatnonzero(out_of_range | loops | repeats)
        if bad.size:
            i = bad[0]
            u, v = pairs[i]
            if out_of_range[i]:
                raise GraphStructureError(f"edge ({u + 1}, {v + 1}) out of range for n={n}")
            if loops[i]:
                raise GraphStructureError(f"self-loop at vertex {u + 1}")
            raise GraphStructureError(f"duplicate edge ({lo[i] + 1}, {hi[i] + 1})")
        if n > 2 * m:
            raise GraphStructureError(
                f"{n} vertices but {m} edges reach at most {2 * m}: some vertex would be isolated"
            )
        d = _require_uniform_degrees(np.bincount(pairs.ravel(), minlength=n))
        return cls(_neighbor_table(n, pairs, d))

    @classmethod
    def from_adjacency(cls, adjacency) -> "RegularGraph":
        check_regularity(adjacency)
        adj = np.asarray(adjacency).astype(bool)
        rows = [np.flatnonzero(adj[v]) for v in range(adj.shape[0])]
        return cls(np.array(rows, dtype=np.int64))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as 0-based (u, v) with u < v, lexicographically sorted."""
        u, v = self._edge_pairs().T
        return list(zip(u.tolist(), v.tolist()))

    def _edge_pairs(self) -> np.ndarray:
        """``edges()`` as an (m, 2) array."""
        upper = self.neighbors > np.arange(self.n)[:, None]
        return np.column_stack([np.nonzero(upper)[0], self.neighbors[upper]])

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


def _neighbor_table(n: int, pairs: np.ndarray, d: int) -> np.ndarray:
    """The (n, d) neighbor table of 0-based edge pairs in which every vertex has degree d."""
    u, v = pairs[:, 0], pairs[:, 1]
    # Sorted arc keys tail*n+head list each row's heads in order, rows in order.
    return (np.sort(np.concatenate([u * n + v, v * n + u])) % n).reshape(n, d)


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
#
# Both text formats (edge lists here, rotation maps in rotmap.py) are an
# 'n d' header line followed by lines of whitespace-separated integers.
# ``_read_table`` reads either into arrays in one pass over the text;
# each parser then runs its checks as masks over the body lines and words
# a message only for the first bad line.  ``_write_table`` writes either.


def _code_point_table(code_points) -> np.ndarray:
    table = np.zeros(0x3002, dtype=bool)
    table[list(code_points)] = True
    return table


# By code point: str.isspace(), and whether the character ends a line for
# str.splitlines().  No code point past U+3000 is either, so larger ones
# are looked up at the tables' last entry.  The tests check both against str.
_IS_SPACE = _code_point_table([
    *range(0x09, 0x0E), *range(0x1C, 0x21), 0x85, 0xA0, 0x1680, *range(0x2000, 0x200B),
    0x2028, 0x2029, 0x202F, 0x205F, 0x3000,
])
_ENDS_LINE = _code_point_table([*range(0x0A, 0x0E), *range(0x1C, 0x1F), 0x85, 0x2028, 0x2029])


class _Table(NamedTuple):
    """A document read as its 'n d' header and a body of integer fields.

    Body line i (0-based, document order, comment and blank lines left
    out) is line ``lines[i]`` (1-based) of the document and holds
    ``widths[i]`` fields.  ``values`` holds every body field in order, 0
    where a field is not an integer; ``integral[i]`` says whether every
    field of line i is one.  ``values`` is int64 when every field is an
    int64, else an object array of Python ints, exact at any size.
    """

    n: int
    d: int
    header_line: int
    lines: np.ndarray
    widths: np.ndarray
    integral: np.ndarray
    values: np.ndarray

    def rows(self, k: int) -> np.ndarray:
        """The body as an (m, k) array; lines without k fields read as 0s."""
        fit = self.widths == k
        if fit.all():
            return self.values.reshape(len(fit), k)
        starts = np.cumsum(self.widths) - self.widths
        table = np.zeros((len(fit), k), dtype=self.values.dtype)
        table[fit] = self.values[starts[fit, None] + np.arange(k)]
        return table


def _read_table(text: str) -> _Table:
    """Read a header-plus-integer-lines document.

    Lines, fields, blank lines and '#' comment lines are those of
    ``str.splitlines``, ``str.split`` and ``str.strip`` applied line by
    line, but found with array operations over the characters: the
    bytes of an ASCII text, else its code points.  Header errors are
    raised here; the body is checked by the caller.
    """
    if text.isascii():
        codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    else:
        codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        codes = np.minimum(codes, len(_IS_SPACE) - 1)
    is_space = _IS_SPACE.take(codes)
    ends = _ENDS_LINE.take(codes)
    ends[1:] &= (codes[1:] != ord("\n")) | (codes[:-1] != ord("\r"))  # "\r\n" ends one line
    # Fields are the runs of non-space: bounds alternate start, stop, start, ...
    padded = np.concatenate([[True], is_space, [True]])
    bounds = np.flatnonzero(padded[1:] != padded[:-1])
    starts, stops = bounds[0::2], bounds[1::2]
    # A field opens its line when it is the first one, or a line ends
    # before it (line ends are spaces, so never inside a field).
    breaks = np.flatnonzero(ends)
    first = np.zeros(len(starts) + 1, dtype=bool)
    first[np.searchsorted(starts, breaks)] = True
    first = first[:-1]
    first[:1] = True
    comment = (codes[starts[first]] == ord("#"))[np.cumsum(first) - 1]
    kept = np.flatnonzero(~comment)
    if not kept.size:
        raise FormatError("empty document: missing 'n d' header")
    first = first[kept]
    opens = np.flatnonzero(first)
    lines = np.searchsorted(breaks, starts[kept[opens]]) + 1  # 1-based
    widths = np.diff(opens, append=len(kept))
    header_line = int(lines[0])
    if widths[0] != 2:
        raise FormatError("header must be 'n d'", line=header_line)
    try:
        n, d = (int(text[starts[k]:stops[k]]) for k in kept[:2])
    except ValueError:
        raise FormatError("header must be two integers", line=header_line) from None
    if n < 1 or d < 1:
        raise FormatError("header requires n >= 1 and d >= 1", line=header_line)
    body = kept[2:]
    values = _decimal_integers(codes, is_space, starts, stops, body)
    ok = np.ones(len(body), dtype=bool)
    if values is None:
        fields = np.array(text.split(), dtype=object)[body]
        try:
            values = fields.astype(np.int64)
        except (ValueError, OverflowError):
            values, ok = _integers_one_by_one(fields)
    line_index = np.cumsum(first[2:]) - 1  # body line of each body field
    integral = np.bincount(line_index[~ok], minlength=len(opens) - 1) == 0
    return _Table(n, d, header_line, lines[1:], widths[1:], integral, values)


# A field of at most this many ASCII digits is below 10**18 < 2**63.
_MAX_DIGITS = 18


def _decimal_integers(codes, is_space, starts, stops, fields) -> np.ndarray | None:
    """The int64 values of ``fields`` (indices into ``starts``/``stops``)
    when each is a run of at most ``_MAX_DIGITS`` ASCII digits, else None.

    Digit by digit, one ``values * 10 + digit`` pass per position; int()
    reads every such field to the same value."""
    digits = codes - ord("0")  # wraps: a non-digit reads 10 or more
    other = np.flatnonzero((digits > 9) & ~is_space)
    field_of_other = np.searchsorted(starts, other, side="right") - 1
    if np.isin(field_of_other, fields).any():
        return None
    first, stop = starts[fields], stops[fields]
    width = int((stop - first).max(initial=0))
    if width > _MAX_DIGITS:
        return None
    values = np.zeros(len(fields), dtype=np.int64)
    for k in range(width, 0, -1):
        at = stop - k
        digit = digits.take(at, mode="clip")
        digit[at < first] = 0
        values *= 10
        values += digit
    return values


def _integers_one_by_one(fields: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Python ints of ``fields`` (0 where ``int()`` fails) and where it succeeded."""
    values = np.zeros(len(fields), dtype=object)
    ok = np.zeros(len(fields), dtype=bool)
    for i, field in enumerate(fields):
        try:
            values[i] = int(field)
        except ValueError:
            continue
        ok[i] = True
    return values, ok


def _raise_first(lines: np.ndarray, checks) -> None:
    """Raise a FormatError for the first body line that fails a check.

    ``checks`` lists (mask, message) in the order a line is checked: the
    mask flags failing body lines and ``message(i)`` words the failure of
    body line i, formatted for that one line only.
    """
    failing = np.logical_or.reduce([mask for mask, _ in checks])
    if failing.any():
        i = int(failing.argmax())
        message = next(message for mask, message in checks if mask[i])
        raise FormatError(message(i), line=int(lines[i]))


def _write_table(n: int, d: int, rows: np.ndarray) -> str:
    """The 'n d' header line, then one line per row of 0-based ``rows``, 1-based."""
    template = " ".join(["%d"] * rows.shape[1]) + "\n"
    return f"{n} {d}\n" + (template * len(rows)) % tuple((rows + 1).ravel().tolist())


def parse_graph(text: str) -> RegularGraph:
    """Parse an edge-list document into a RegularGraph.

    A format error names the first bad line (1-based) in document order.
    A header with more than twice as many vertices as edge lines is an
    error of the header line, raised before anything of size n exists.
    A non-regular edge list raises RegularityError naming each deviant
    vertex.
    """
    table = _read_table(text)
    n, lines = table.n, table.lines
    edges = table.rows(2)
    u, v = edges.T
    wrong_width = table.widths != 2
    not_integral = ~table.integral
    loop = u == v
    unordered = ~((1 <= u) & (u < v) & (v <= n))
    clean = np.flatnonzero(~(wrong_width | not_integral | loop | unordered))
    # Pair keys u*(n+1)+v of the clean lines, exact also past int64.
    cu, cv = u[clean], v[clean]
    if n >= 2**31:
        cu, cv = cu.astype(object), cv.astype(object)
    _, first, inverse = np.unique(cu * (n + 1) + cv, return_index=True, return_inverse=True)
    first_seen = np.arange(len(lines))
    first_seen[clean] = clean[first[inverse]]
    duplicate = first_seen != np.arange(len(lines))
    _raise_first(lines, [
        (wrong_width, lambda i: "edge line must be 'u v'"),
        (not_integral, lambda i: "edge endpoints must be integers"),
        (loop, lambda i: f"self-loop at vertex {u[i]}"),
        (unordered, lambda i: f"edge ({u[i]}, {v[i]}) must satisfy 1 <= u < v <= n"),
        (duplicate, lambda i: (
            f"duplicate edge ({u[i]}, {v[i]}), first seen on line {lines[first_seen[i]]}"
        )),
    ])
    m = len(lines)
    if n > 2 * m:
        raise FormatError(
            f"header declares {n} vertices but {m} edge lines reach at most {2 * m}: "
            "some vertex would be isolated",
            line=table.header_line,
        )
    pairs = edges.astype(np.int64) - 1
    d = _require_uniform_degrees(np.bincount(pairs.ravel(), minlength=n), expected=table.d)
    return RegularGraph(_neighbor_table(n, pairs, d))


def serialize_graph(graph: RegularGraph) -> str:
    return _write_table(graph.n, graph.d, graph._edge_pairs())


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


# A random-regular graph's stub count n*d must stay below this.  Then a
# stub's index fits the low 32 bits of a shuffle key, and the edge keys
# u*n+v (u < v < n < 2**31) stay below 2**62: int64 throughout.
RANDOM_REGULAR_MAX_STUBS = 2**31


def random_regular_graph(n: int, d: int, seed: int = 0, max_tries: int = 100) -> RegularGraph:
    """A random d-regular simple graph via the pairing model with repair
    (Steger & Wormald 1999).

    Stubs (d copies of each vertex) are shuffled and paired in order.  A
    pair is kept as an edge unless it is a self-loop or repeats an edge,
    one made earlier in the same round included (the first occurrence in
    pair order wins).  The rest are thrown back and re-paired in the
    next round, and an attempt is abandoned once no two leftover stubs
    can still form a new edge.  Each round is whole-array: the shuffle
    is a uniform permutation drawn from ``random.Random(seed)`` alone
    (``_shuffled_order``), so the graph depends only on Python's
    Mersenne Twister stream and is the same for a seed on every NumPy.

    Deterministic for a fixed seed.  Raises GenerationError when n*d
    reaches ``RANDOM_REGULAR_MAX_STUBS`` (2**31), before allocating, and
    when every attempt within ``max_tries`` fails (likely only for very
    dense d).
    """
    if n < 1 or d < 1:
        raise GenerationError("random-regular needs n >= 1 and d >= 1")
    if d >= n:
        raise GenerationError(f"random-regular needs d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise GenerationError(f"random-regular needs n*d even, got n={n}, d={d}")
    if n * d >= RANDOM_REGULAR_MAX_STUBS:
        raise GenerationError(
            f"random-regular needs n*d < 2**31 (the stub ceiling), got n*d={n * d}"
        )
    if max_tries < 1:
        raise GenerationError(f"random-regular needs max_tries >= 1, got {max_tries}")
    rng = random.Random(seed)

    def suitable(edges: np.ndarray, stubs: np.ndarray) -> bool:
        # True if some pair of leftover stubs can still form a new edge:
        # surely when the leftover vertices span more pairs than there are
        # edges, else if one of those (at most len(edges)) pairs is free.
        nodes = np.unique(stubs)
        k = len(nodes)
        if k * (k - 1) // 2 > len(edges):
            return True
        pairs = (nodes[:, None] * n + nodes)[nodes[:, None] < nodes]
        return not _in_sorted(edges, pairs).all()

    def attempt() -> np.ndarray | None:
        edges = np.zeros(0, np.int64)  # the ascending keys u*n+v of the edges u < v
        stubs = np.repeat(np.arange(n, dtype=np.int64), d)
        while stubs.size:
            u, v = stubs[_shuffled_order(len(stubs), rng)].reshape(-1, 2).T
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            keys = lo * n + hi
            kept = (lo != hi) & ~_in_sorted(edges, keys) & _first_occurrences(keys)
            fresh = np.sort(keys[kept])
            edges = np.insert(edges, np.searchsorted(edges, fresh), fresh)
            stubs = np.sort(np.concatenate([lo[~kept], hi[~kept]]))
            if stubs.size and not suitable(edges, stubs):
                return None
        return edges

    for _ in range(max_tries):
        edges = attempt()
        if edges is not None:
            return RegularGraph(_neighbor_table(n, np.stack(np.divmod(edges, n), axis=1), d))
    raise GenerationError(
        f"random-regular({n}, {d}) generation exhausted after {max_tries} attempts"
    )


def _shuffled_order(m: int, rng: random.Random) -> np.ndarray:
    """A uniformly random order of ``range(m)`` drawn from ``rng`` alone.

    Sorting unique keys, 32 random bits above the index, fixes the order
    whatever NumPy's sort algorithm; the Mersenne Twister words are read
    as ``getrandbits`` lays them out, little-endian.  Indices whose random
    words tie (about m**2 / 2**33 pairs) are ordered among themselves by
    ``rng.shuffle``, so every order is equally likely.
    """
    words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), "<u4")
    keys = np.sort(words.astype(np.uint64) << np.uint64(32) | np.arange(m, dtype=np.uint64))
    order = (keys & np.uint64(2**32 - 1)).astype(np.intp)
    high = keys >> np.uint64(32)
    ties = np.flatnonzero(high[1:] == high[:-1])  # sorted key k ties with k+1
    if ties.size:
        for run in np.split(ties, np.flatnonzero(np.diff(ties) != 1) + 1):
            part = order[run[0]:run[-1] + 2].tolist()
            rng.shuffle(part)
            order[run[0]:run[-1] + 2] = part
    return order


def _in_sorted(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each of ``keys`` is in the ascending array ``sorted_keys``."""
    if not sorted_keys.size:
        return np.zeros(len(keys), dtype=bool)
    return sorted_keys.take(np.searchsorted(sorted_keys, keys), mode="clip") == keys


def _first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Whether each key is the first of its value in ``keys``: the marks
    of ``np.unique(keys, return_index=True)[1]``, but only the repeated
    values go through that stable sort (at n=20000, d=8 this saves about
    a quarter of ``random_regular_graph``'s time)."""
    ascending = np.sort(keys)
    at = np.flatnonzero(_in_sorted(ascending[1:][ascending[1:] == ascending[:-1]], keys))
    first = np.ones(len(keys), dtype=bool)
    first[at] = False
    first[at[np.unique(keys[at], return_index=True)[1]]] = True
    return first
