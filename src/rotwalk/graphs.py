"""Simple d-regular graphs: construction, validation, families, and the
edge-list parser and serializer.

Vertices are 0-based integers internally.  Every external surface (the
edge-list text format, error messages, reports) uses 1-based vertex ids;
conversion happens only at the boundaries.

Edge-list text format::

    n d
    u v
    ...

with ``1 <= u < v <= n``, one edge per line, '#' starting a comment line.
Edge order is not significant; serialization writes edges sorted.  The
text is read and written by textio's table reader and writer; a format
error names the first bad line in document order.
"""

from __future__ import annotations

import operator
import random

import numpy as np

from .errors import FormatError, GenerationError, GraphStructureError, RegularityError, RotwalkError
from .textio import _read_table, _write_table


def _integer_table(values, error: type[RotwalkError], what: str, table: str | None = None) -> np.ndarray:
    """``values`` as a new int64 array.  Raises ``error`` when the rows are
    ragged or an entry is not an exact int64 value (a fraction, NaN, inf,
    a huge float, a string); an integer beyond int64, Python or uint64,
    is out of range of any table.  Its entries, the n*d stubs of the
    ``table`` (default: ``what``) it holds or makes, must stay below
    ``MAX_STUBS``: that is refused from the shape, before the copy."""
    try:
        array = np.asarray(values)
    except ValueError:
        raise error(f"{what} rows must all have the same length") from None
    _require_below_ceiling(table or what, array.size, error)
    if array.dtype.kind in "biu":
        if array.dtype == np.uint64 and (array > np.iinfo(np.int64).max).any():
            raise error(f"{what} entry out of range")
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


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, new memory that nothing else writes, as a read-only view
    of a read-only base.  An array that owns its memory accepts
    ``setflags(write=True)``, and so does a view of a writeable base; a
    view of a read-only base refuses it.  This guards against accidental
    writes only: the base, reached through ``.base``, still accepts
    ``setflags(write=True)``, and a write through it changes the table
    and its hash."""
    (array if array.base is None else array.base).setflags(write=False)
    view = array.view()
    view.setflags(write=False)
    return view


class _FrozenTable:
    """Graphs, rotation maps and shifts: the one read-only table named by
    ``_TABLE``, equal when the type and the table, shape included, are.
    n and d are read from the table's shape, n rows of d entries (a shift,
    whose table is coin-major, reads them the other way round)."""

    __slots__ = ()
    _TABLE: str

    @property
    def n(self) -> int:
        return getattr(self, self._TABLE).shape[0]

    @property
    def d(self) -> int:
        return getattr(self, self._TABLE).shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return np.array_equal(getattr(self, self._TABLE), getattr(other, self._TABLE))

    def __hash__(self):
        return hash((self.n, self.d, getattr(self, self._TABLE).tobytes()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, d={self.d})"


def _row_rules(rows: np.ndarray, n: int, ascending: bool = False) -> list:
    """The (mask over rows, message) rules of an n-vertex table of 0-based
    ``rows``: each entry a vertex other than its row's (the first stray
    entry is named), none repeated in a row (``ascending``: rows sorted)."""
    stray = (rows < 0) | (rows >= n) | (rows == np.arange(len(rows))[:, None])
    ordered = rows if ascending else np.sort(rows, axis=1)
    repeated = ordered[:, 1:] == ordered[:, :-1]
    if not (stray.any() or repeated.any()):
        return []  # a valid table: one whole-table test spares the per-row ones

    def stray_entry(i):
        w = int(rows[i, stray[i].argmax()])  # int64's largest entry has no w + 1 in int64
        if 0 <= w < n:
            return f"vertex {i + 1} maps to itself"
        return f"entry {w + 1} out of range 1..{n}"

    return [
        (stray.any(axis=1), stray_entry),
        (repeated.any(axis=1), lambda i: f"row for vertex {i + 1} has repeated entries"),
    ]


class RegularGraph(_FrozenTable):
    """A simple d-regular graph on n vertices.

    The canonical representation is ``neighbors``: an (n, d) integer array
    whose row v lists the neighbors of v in ascending order: each entry a
    vertex, row v holding neither v nor an entry twice, and the table
    symmetric.  An error names the first bad row.  The array is read-only.
    """

    __slots__ = ("neighbors",)
    _TABLE = "neighbors"

    def __init__(self, neighbors: np.ndarray):
        nbrs = _integer_table(neighbors, GraphStructureError, "neighbor table", "graph")
        if nbrs.ndim != 2:
            raise GraphStructureError("neighbor table must be 2-dimensional")
        n, d = nbrs.shape
        if n < 1 or d < 1:
            raise GraphStructureError("graph must have at least one vertex and degree >= 1")
        nbrs.sort(axis=1)
        _raise_first(_row_rules(nbrs, n, ascending=True), GraphStructureError)
        # Symmetric iff the arc keys u*n+v (already ascending: rows in order,
        # each row sorted) equal the sorted keys of the reversed arcs v*n+u.
        tails = np.repeat(np.arange(n), d)
        if not np.array_equal(tails * n + nbrs.ravel(), np.sort(nbrs.ravel() * n + tails)):
            raise GraphStructureError("adjacency is not symmetric")
        self.neighbors = _read_only(nbrs)

    @classmethod
    def from_edges(cls, n: int, edges) -> "RegularGraph":
        """Build from a sequence (or (m, 2) array) of 0-based (u, v) pairs.

        An n or a 2m (the stubs n*d of the graph the edges make) that
        reaches ``MAX_STUBS`` is refused first.  Then the first bad pair in
        input order is named, 1-based: out of range, self-loop, or a repeat
        of an earlier pair.  Then more than twice as many vertices as edges
        is refused; all before anything of size n exists.  All vertices
        must end up with equal degree; otherwise a RegularityError names
        the first deviant vertex (1-based).
        """
        (n,) = _integers(GraphStructureError, "vertex count", (n,))
        if n < 1:
            raise GraphStructureError("graph must have at least one vertex")
        _require_below_ceiling("graph", n, GraphStructureError, got=f"n={n}")
        pairs = _integer_table(edges, GraphStructureError, "edge", "graph")
        if not pairs.size:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise GraphStructureError("edges must be (u, v) pairs")
        m = len(pairs)
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        keys = lo * n + hi
        repeats = ~_first_occurrences(keys)
        _raise_first([
            (((pairs < 0) | (pairs >= n)).any(axis=1),
             lambda i: f"edge ({pairs[i, 0] + 1}, {pairs[i, 1] + 1}) out of range for n={n}"),
            (lo == hi, lambda i: f"self-loop at vertex {lo[i] + 1}"),
            (repeats, lambda i: f"duplicate edge ({lo[i] + 1}, {hi[i] + 1})"),
        ], GraphStructureError)
        if n > 2 * m:
            raise GraphStructureError(
                f"{n} vertices but {m} edges reach at most {2 * m}: some vertex would be isolated"
            )
        d = _require_uniform_degrees(np.bincount(pairs.ravel(), minlength=n))
        return cls(_neighbor_table(n, pairs, d))

    def edges(self) -> np.ndarray:
        """All edges as an (m, 2) int64 array of 0-based (u, v) rows with
        u < v, in lexicographic order."""
        upper = self.neighbors > np.arange(self.n)[:, None]
        return np.column_stack([np.nonzero(upper)[0], self.neighbors[upper]])


def _neighbor_table(n: int, pairs: np.ndarray, d: int) -> np.ndarray:
    """The (n, d) neighbor table of 0-based edge pairs in which every vertex has degree d."""
    u, v = pairs[:, 0], pairs[:, 1]
    # Sorted arc keys tail*n+head list each row's heads in order, rows in order.
    return (np.sort(np.concatenate([u * n + v, v * n + u])) % n).reshape(n, d)


def _require_uniform_degrees(degrees: np.ndarray, expected: int | None = None) -> int:
    """Return the common degree, or raise RegularityError naming the first
    deviant vertex, its degree, the expected one, and how many deviate.

    When ``expected`` is None the reference degree is the modal one (ties
    broken toward the larger degree, so a near-regular graph reports the
    few low-degree vertices rather than the majority).
    """
    if expected is None:
        counts = np.bincount(degrees)
        expected = int(np.flatnonzero(counts == counts.max())[-1])
    bad = degrees != expected
    _raise_first([(bad, lambda v: (
        f"graph is not regular: vertex {v + 1} has degree {degrees[v]}, expected {expected} "
        f"({bad.sum()} of {len(degrees)} vertices deviate)"
    ))], RegularityError)
    return expected


def _raise_first(checks, error: type[RotwalkError] = FormatError, lines=None) -> None:
    """Raise ``error`` for the first row that fails a check.

    ``checks`` lists (mask, message) in the order a row is checked: the
    mask flags failing rows and ``message(i)`` words the failure of row
    i, formatted for that one row only.  When ``lines`` is given, row i
    is line ``lines[i]`` of a document, and the FormatError names it.
    """
    failing = np.logical_or.reduce([mask for mask, _ in checks])
    if failing.any():
        i = int(failing.argmax())
        message = next(message for mask, message in checks if mask[i])
        if lines is None:
            raise error(message(i))
        raise error(message(i), line=int(lines[i]))


def parse_graph(text: str | bytes) -> RegularGraph:
    """Parse an edge-list document, a str or its UTF-8 bytes, into a
    RegularGraph.

    A format error names the first bad line (1-based) in document order.
    A header whose n*d reaches ``MAX_STUBS`` is refused before any body
    line is checked; one with more than twice as many vertices as edge
    lines is an error of the header line too.  Both are raised before
    anything of size n exists.  A non-regular edge list raises
    RegularityError naming the first vertex whose degree is not the
    header's d.
    """
    table = _read_table(text)
    _require_below_ceiling("header", table.n * table.d, FormatError, line=table.header_line)
    n, lines = table.n, table.lines
    edges = table.rows(2)
    u, v = edges.T
    wrong_width = table.widths != 2
    not_integral = ~table.integral
    loop = u == v
    unordered = ~((1 <= u) & (u < v) & (v <= n))
    clean = np.flatnonzero(~(wrong_width | not_integral | loop | unordered))
    # Pair keys u*(n+1)+v of the clean lines.
    cu, cv = u[clean], v[clean]
    duplicate = np.zeros(len(lines), dtype=bool)
    duplicate[clean] = ~_first_occurrences(cu * (n + 1) + cv)
    _raise_first([
        (wrong_width, lambda i: "edge line must be 'u v'"),
        (not_integral, lambda i: "edge endpoints must be integers"),
        (loop, lambda i: f"self-loop at vertex {u[i]}"),
        (unordered, lambda i: f"edge ({u[i]}, {v[i]}) must satisfy 1 <= u < v <= n"),
        (duplicate, lambda i: (
            f"duplicate edge ({u[i]}, {v[i]}), "
            f"first seen on line {lines[clean[((cu == u[i]) & (cv == v[i])).argmax()]]}"
        )),
    ], lines=lines)
    m = len(lines)
    if n > 2 * m:
        raise FormatError(
            f"header declares {n} vertices but {m} edge lines reach at most {2 * m}: "
            "some vertex would be isolated",
            line=table.header_line,
        )
    pairs = edges - 1
    d = _require_uniform_degrees(np.bincount(pairs.ravel(), minlength=n), expected=table.d)
    return RegularGraph(_neighbor_table(n, pairs, d))


def serialize_graph(graph: RegularGraph) -> str:
    return _write_table(graph.n, graph.d, graph.edges())


# ---------------------------------------------------------------------------
# Families


def generate_graph(family: str, params, seed: int = 0, max_tries: int = 100) -> RegularGraph:
    """Build the graph of a named family from its integer parameters.

    ``params`` meaning per family: cycle (n), complete (n),
    complete-bipartite (m, giving K_{m,m}), hypercube (k, giving 2^k
    vertices), torus (rows, cols), circulant (n, offset...), and
    random-regular (n, d).  ``seed`` and ``max_tries`` only matter for
    random-regular.  Each parameter and the seed must be an integer (an
    ``operator.index`` value, so not a float such as 5.0 or a string),
    and the graph's n*d must stay below ``MAX_STUBS``.

    Deterministic: equal arguments give identical graphs.  Invalid
    parameters raise GenerationError with a diagnostic.
    """
    if family not in _FAMILY_BUILDERS:
        raise GenerationError(
            f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}"
        )
    params = _integers(GenerationError, f"{family} parameters", params)
    (seed,) = _integers(GenerationError, f"{family} seed", (seed,))
    usage, build = _FAMILY_BUILDERS[family]
    count = len(usage.split())
    if len(params) < count or (len(params) > count and not usage.endswith("...")):
        raise GenerationError(f"{family} needs parameters: {usage}; got {len(params)}")
    return build(params, seed, max_tries)


def _integers(error: type[RotwalkError], what: str, values) -> tuple[int, ...]:
    """``values`` as ``operator.index`` reads them: integers, never a float
    such as 5.0.  Raises ``error`` naming ``what`` otherwise."""
    try:
        return tuple(operator.index(value) for value in values)
    except TypeError:
        raise error(f"{what} must be integers, got {values!r}") from None


# Every table's stub (half-edge) count n*d, the entries of a neighbor
# table, a rotation map or a shift, stays below this: each family, both
# text formats, RegularGraph.from_edges and both table constructors refuse
# it.  Then vertex ids and stub indices fit in 32 bits, and the keys u*n+v
# of the arcs stay below 2**62: int64 throughout.  It bounds ids, not
# memory (validation traces several tables' worth); the CLI turns a
# MemoryError into exit 2.
MAX_STUBS = 2**31


def _require_below_ceiling(what: str, stubs: int, error: type[RotwalkError] = GenerationError,
                           got: str | None = None, **where) -> None:
    """Refuse a ``what`` whose ``stubs`` reach ``MAX_STUBS``, before
    anything of size n exists.  ``stubs`` is its n*d, or a lower bound on
    it that ``got`` names for the message (n, before d is known).
    ``where`` is passed on to ``error``: a FormatError's line."""
    if stubs >= MAX_STUBS:
        raise error(f"{what} needs n*d < 2**31 (the stub ceiling), got {got or f'n*d={stubs}'}", **where)


def _circulant(n: int, offsets) -> RegularGraph:
    """The graph v ~ v+s (mod n) for each of ``offsets`` (distinct, nonzero
    and closed under negation mod n), from its table of rows v + offsets."""
    return RegularGraph((np.arange(n)[:, None] + np.asarray(offsets, dtype=np.int64)) % n)


def cycle_graph(n: int) -> RegularGraph:
    """The n-cycle (2-regular); n >= 3.  The circulant with offsets 1, -1."""
    (n,) = _integers(GenerationError, "cycle parameters", (n,))
    if n < 3:
        raise GenerationError(f"cycle needs n >= 3, got {n}")
    _require_below_ceiling("cycle", n * 2)
    return _circulant(n, (1, -1))


def complete_graph(n: int) -> RegularGraph:
    """K_n, (n-1)-regular; n >= 2.  The circulant with offsets 1..n-1."""
    (n,) = _integers(GenerationError, "complete parameters", (n,))
    if n < 2:
        raise GenerationError(f"complete needs n >= 2, got {n}")
    _require_below_ceiling("complete", n * (n - 1))
    return _circulant(n, np.arange(1, n))


def complete_bipartite_graph(m: int) -> RegularGraph:
    """K_{m,m} on 2m vertices, m-regular; vertices 0..m-1 vs m..2m-1."""
    (m,) = _integers(GenerationError, "complete-bipartite parameters", (m,))
    if m < 1:
        raise GenerationError(f"complete-bipartite needs m >= 1, got {m}")
    _require_below_ceiling("complete-bipartite", 2 * m * m)
    left, right = np.arange(m), np.arange(m, 2 * m)
    return RegularGraph(np.concatenate([np.broadcast_to(right, (m, m)), np.broadcast_to(left, (m, m))]))


def hypercube_graph(k: int) -> RegularGraph:
    """The k-dimensional hypercube: 2^k vertices, k-regular; x ~ x ^ 2^b
    for each bit b < k."""
    (k,) = _integers(GenerationError, "hypercube parameters", (k,))
    if k < 1:
        raise GenerationError(f"hypercube needs k >= 1, got {k}")
    # From k = 31 on, 2^k vertices alone reach the ceiling: 2^k is never formed.
    _require_below_ceiling("hypercube", 1 << min(k, 31), got=f"n=2**{k}")
    n = 1 << k
    _require_below_ceiling("hypercube", n * k)
    return RegularGraph(np.arange(n)[:, None] ^ (1 << np.arange(k)))


def torus_graph(rows: int, cols: int) -> RegularGraph:
    """The rows x cols grid with wraparound (4-regular); both sides >= 3.

    Vertex r*cols + c neighbors the vertices one row up and down and one
    column left and right, wrapping around.  Side length 2 would wrap
    v+1 and v-1 onto the same neighbor (a multi-edge), so it is rejected.
    """
    rows, cols = _integers(GenerationError, "torus parameters", (rows, cols))
    if rows < 3 or cols < 3:
        raise GenerationError(f"torus needs both sides >= 3, got {rows} x {cols}")
    _require_below_ceiling("torus", rows * cols * 4)
    r, c = divmod(np.arange(rows * cols), cols)
    return RegularGraph(np.stack([
        (r + 1) % rows * cols + c,
        (r - 1) % rows * cols + c,
        r * cols + (c + 1) % cols,
        r * cols + (c - 1) % cols,
    ], axis=1))


def circulant_graph(n: int, offsets) -> RegularGraph:
    """Circulant graph: v ~ v+s (mod n) for every offset s.

    Offsets must be nonzero mod n, pairwise distinct mod n, and closed
    under negation mod n (each s accompanied by n-s), so that the offset
    list itself is the degree and the edge relation is symmetric.
    """
    n, *offsets = _integers(GenerationError, "circulant parameters", (n, *offsets))
    if n < 3:
        raise GenerationError(f"circulant needs n >= 3, got {n}")
    reduced = [s % n for s in offsets]
    present = set(reduced)
    if 0 in present:
        raise GenerationError("circulant offsets must be nonzero mod n")
    if len(present) != len(reduced):
        raise GenerationError("circulant offsets must be distinct mod n")
    missing = sorted(s for s in present if n - s not in present)
    if missing:
        raise GenerationError(
            "circulant offsets must be closed under negation mod n; "
            f"missing {', '.join(str(n - s) for s in missing)}"
        )
    _require_below_ceiling("circulant", n * len(reduced))
    return _circulant(n, reduced)


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
    reaches ``MAX_STUBS`` (2**31), before allocating, and
    when every attempt within ``max_tries`` fails (likely only for very
    dense d).
    """
    n, d, max_tries, seed = _integers(
        GenerationError, "random-regular n, d, max_tries and seed", (n, d, max_tries, seed)
    )
    if n < 1 or d < 1:
        raise GenerationError("random-regular needs n >= 1 and d >= 1")
    if d >= n:
        raise GenerationError(f"random-regular needs d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise GenerationError(f"random-regular needs n*d even, got n={n}, d={d}")
    _require_below_ceiling("random-regular", n * d)
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


# Each family's parameters, as ``gen`` takes them ('...': one or more of
# the last), and its builder, called with the parameters, the seed and
# max_tries (the last two used by random-regular alone).
_FAMILY_BUILDERS = {
    "cycle": ("n", lambda p, seed, tries: cycle_graph(*p)),
    "complete": ("n", lambda p, seed, tries: complete_graph(*p)),
    "complete-bipartite": ("m", lambda p, seed, tries: complete_bipartite_graph(*p)),
    "hypercube": ("k", lambda p, seed, tries: hypercube_graph(*p)),
    "torus": ("rows cols", lambda p, seed, tries: torus_graph(*p)),
    "circulant": ("n offset...", lambda p, seed, tries: circulant_graph(p[0], p[1:])),
    "random-regular": ("n d", lambda p, seed, tries: random_regular_graph(*p, seed=seed, max_tries=tries)),
}
FAMILIES = tuple(_FAMILY_BUILDERS)
