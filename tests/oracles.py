"""Independent reference implementations used to cross-check the library.

Everything here is written in the most literal style possible -- explicit
Python loops, dense matrices, no shared code with ``rotwalk`` -- so that an
agreement between the two routes is meaningful evidence rather than the same
bug observed twice.
"""

import random
import re

import numpy as np


def dense_shift(entries):
    """Dense shift matrix built entry by entry from a rotation table.

    ``entries`` is the raw (n, d) array of 0-based targets.  Column
    ``j * n + v`` (coin-major) receives a single 1 in row
    ``j * n + entries[v, j]``.
    """
    n, d = entries.shape
    dim = n * d
    mat = np.zeros((dim, dim), dtype=np.int64)
    for j in range(d):
        for v in range(n):
            mat[j * n + int(entries[v, j]), j * n + v] = 1
    return mat


def lift_coin(coin_matrix, n):
    """Extend a d x d coin to the full space as C (x) I_n."""
    return np.kron(np.asarray(coin_matrix), np.eye(n))


def dense_walk_operator(coin_matrix, entries):
    """One walk step as a dense matrix, U = S (C (x) I_n): shift after coin."""
    n, d = entries.shape
    return dense_shift(entries).astype(complex) @ lift_coin(coin_matrix, n)


def dense_step(amplitudes, coin_matrix, entries):
    """One walk step as an explicit matrix-vector product."""
    return dense_walk_operator(coin_matrix, entries) @ np.asarray(amplitudes, dtype=complex)


def dense_unwalk(amplitudes, coin_matrix, entries, steps):
    """U^H applied ``steps`` times: undoes that many walk steps exactly
    when U is unitary, that is when every rotation-map column is a
    permutation."""
    adjoint = dense_walk_operator(coin_matrix, entries).conj().T
    amps = np.asarray(amplitudes, dtype=complex)
    for _ in range(steps):
        amps = adjoint @ amps
    return amps


def permutation_consistent_by_sorting(entries):
    """A column is a permutation exactly when its sorted values are 0..n-1."""
    n, d = entries.shape
    for j in range(d):
        if sorted(int(x) for x in entries[:, j]) != list(range(n)):
            return False
    return True


def permutation_violations_by_counting(entries):
    """(label, vertex, count) witnesses, 1-based, label by label with a dict
    of occurrence counts per column."""
    n, d = entries.shape
    witnesses = []
    for j in range(d):
        counts = {}
        for v in range(n):
            w = int(entries[v, j])
            counts[w] = counts.get(w, 0) + 1
        for w in range(n):
            if counts.get(w, 0) != 1:
                witnesses.append((j + 1, w + 1, counts.get(w, 0)))
    return witnesses


def involution_violations_by_following(entries):
    """(label, vertex, 0) witnesses, 1-based, for arcs that do not return."""
    n, d = entries.shape
    return [(j + 1, v + 1, 0) for j in range(d) for v in range(n)
            if int(entries[int(entries[v, j]), j]) != v]


def involution_consistent_by_following(entries):
    """Follow every (vertex, label) arc and check it returns home."""
    n, d = entries.shape
    for v in range(n):
        for j in range(d):
            w = int(entries[v, j])
            if int(entries[w, j]) != v:
                return False
    return True


def defect_by_dense_product(entries):
    """max |S S^T - I| computed from the dense matrix product."""
    mat = dense_shift(entries)
    prod = mat @ mat.T
    dim = mat.shape[0]
    return int(np.abs(prod - np.eye(dim, dtype=np.int64)).max())


def degrees_from_edges(n, edges):
    """Per-vertex degree counts from an explicit edge list."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def adjacency_by_loop(n, edges):
    """The dense n x n boolean adjacency matrix of an edge list, one edge at
    a time; a repeated edge sets its cells once, so it lowers a row sum."""
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = True
        adj[v, u] = True
    return adj


def common_degree(adj):
    """The common row sum of a symmetric boolean matrix with zero diagonal,
    or None when the matrix is not one or its rows sum differently."""
    if not (adj == adj.T).all() or adj.diagonal().any():
        return None
    sums = adj.sum(axis=1)
    return int(sums[0]) if (sums == sums[0]).all() else None


def is_proper_edge_coloring(edges, labels, n):
    """True when no vertex sees the same label on two incident edges."""
    seen = [set() for _ in range(n)]
    for (u, v), c in zip(edges, labels):
        if c in seen[u] or c in seen[v]:
            return False
        seen[u].add(c)
        seen[v].add(c)
    return True


def kempe_component_by_bfs(n, edges, labels, e0, a, b):
    """Edge ids of the connected {a, b}-labeled subgraph containing edge e0,
    by a breadth-first search over vertices through those edges only."""
    two_label_edges = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        if labels[e] == a or labels[e] == b:
            two_label_edges[u].append(e)
            two_label_edges[v].append(e)
    reached = set(edges[e0])
    queue = list(edges[e0])
    component = set()
    while queue:
        x = queue.pop(0)
        for e in two_label_edges[x]:
            component.add(e)
            for y in edges[e]:
                if y not in reached:
                    reached.add(y)
                    queue.append(y)
    return component


def brute_force_edge_coloring(n, d, edges):
    """Exhaustive search for a proper d-edge-coloring, no pruning tricks.

    Returns a list of labels or None when no proper coloring with d colors
    exists.  Only meant for tiny instances; the complete enumeration makes
    it a trustworthy infeasibility oracle.
    """
    m = len(edges)
    labels = [-1] * m
    busy = [set() for _ in range(n)]

    def extend(k):
        if k == m:
            return True
        u, v = edges[k]
        for c in range(d):
            if c not in busy[u] and c not in busy[v]:
                labels[k] = c
                busy[u].add(c)
                busy[v].add(c)
                if extend(k + 1):
                    return True
                busy[u].remove(c)
                busy[v].remove(c)
                labels[k] = -1
        return False

    if extend(0):
        return list(labels)
    return None


def rotation_from_coloring_by_loop(n, d, edges, labels):
    """The (n, d) table of a proper d-edge-coloring, one edge at a time."""
    entries = np.full((n, d), -1, dtype=np.int64)
    for (u, v), c in zip(edges, labels):
        assert 0 <= c < d and entries[u, c] == entries[v, c] == -1, "coloring is not proper"
        entries[u, c] = v
        entries[v, c] = u
    return entries


def mismatches_by_sets(entries, neighbors):
    """Map-versus-graph mismatch lines, one vertex at a time with Python sets."""
    lines = []
    for v in range(len(entries)):
        row = set(int(w) for w in entries[v])
        nbrs = set(int(w) for w in neighbors[v])
        if row == nbrs:
            continue
        parts = [f"entry {w + 1} is not a neighbor" for w in sorted(row - nbrs)]
        parts += [f"neighbor {w + 1} unused" for w in sorted(nbrs - row)]
        lines.append(f"vertex {v + 1}: " + ", ".join(parts))
    return lines


def distribution_by_loop(amplitudes, n, d):
    """Per-vertex probabilities summed label by label with plain loops."""
    probs = [0.0] * n
    for j in range(d):
        for v in range(n):
            a = amplitudes[j * n + v]
            probs[v] += (a.conjugate() * a).real
    return probs


def complex_walk(amplitudes, coin_matrix, entries, steps):
    """Per-step probabilities and squared norms, and the final amplitudes,
    of a walk evolved in complex128 throughout: the coin as one matrix
    product, the shift a gather where the rotation table is a permutation
    and adding up otherwise.  The same array operations as the library's
    kernel, so that agreement is bit for bit, not within a tolerance."""
    n, d = entries.shape
    rows = (entries.T + n * np.arange(d)[:, None]).reshape(-1)
    amps = np.array(amplitudes, dtype=np.complex128)
    probabilities, norms = [], []
    for k in range(steps + 1):
        if k:
            coined = (np.asarray(coin_matrix, dtype=np.complex128) @ amps.reshape(d, n)).reshape(-1)
            amps = np.zeros(d * n, dtype=np.complex128)
            if len(set(rows.tolist())) == d * n:
                amps[rows] = coined
            else:
                np.add.at(amps, rows, coined)
        probabilities.append((np.abs(amps.reshape(d, n)) ** 2).sum(axis=0))
        norms.append(float(np.vdot(amps, amps).real))
    return probabilities, norms, amps


def csv_by_fstring(records):
    """The walk CSV written row by row, every float by repr in an f-string."""
    return "step,vertex,probability,norm2\n" + "".join(
        f"{rec.step},{v + 1},{p!r},{rec.norm2!r}\n"
        for rec in records
        for v, p in enumerate(rec.probabilities.tolist())
    )


# The grammar of both text formats, spelled out for the reference
# readers: lines end at the ASCII line ends of str.splitlines ("\r\n" is
# one), fields are separated by ASCII whitespace, and a field is an
# integer iff it matches INTEGER.  No other character is either.
LINE_END = re.compile(r"\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e]")
SPACE = re.compile(r"[\t\n\x0b\x0c\r\x1c-\x20]+")
INTEGER = re.compile(r"-?[0-9]{1,18}")
# A header's n*d, the stubs of the table it declares, must stay below this.
STUB_CEILING = 2**31


def _reference_lines(text):
    """(line number, fields) of each line that is neither blank nor a comment."""
    for lineno, line in enumerate(LINE_END.split(text), start=1):
        fields = [field for field in SPACE.split(line) if field]
        if fields and not fields[0].startswith("#"):
            yield lineno, fields


def _reference_integers(fields):
    """The values of ``fields`` when each is an integer, else None."""
    if all(INTEGER.fullmatch(field) for field in fields):
        return [int(field) for field in fields]
    return None


def _reference_header(fields, lineno):
    """(n, d) from a header line's fields, or (line, message) when malformed
    or when n*d reaches the stub ceiling: an error of the header line,
    found before any body line is read."""
    if len(fields) != 2:
        return None, (lineno, "header must be 'n d'")
    values = _reference_integers(fields)
    if values is None:
        return None, (lineno, "header must be two integers")
    n, d = values
    if n < 1 or d < 1:
        return None, (lineno, "header requires n >= 1 and d >= 1")
    if n * d >= STUB_CEILING:
        return None, (lineno, f"header needs n*d < 2**31 (the stub ceiling), got n*d={n * d}")
    return (n, d), None


def integer_rows(text):
    """The rows of integers of a well-formed document, header first, read
    one line at a time."""
    return [_reference_integers(fields) for _, fields in _reference_lines(text)]


def first_graph_format_error(text):
    """The edge-list reader, one line at a time: the (line, message) of the
    first format error (line None when it belongs to no line), else None.

    After the per-line checks, a header promising more vertices than twice
    the number of edge lines is an error of the header line: some vertex
    would be isolated.
    """
    header = header_line = None
    seen = {}
    for lineno, fields in _reference_lines(text):
        if header is None:
            header, error = _reference_header(fields, lineno)
            if error:
                return error
            header_line = lineno
            continue
        if len(fields) != 2:
            return lineno, "edge line must be 'u v'"
        values = _reference_integers(fields)
        if values is None:
            return lineno, "edge endpoints must be integers"
        u, v = values
        if u == v:
            return lineno, f"self-loop at vertex {u}"
        if not (1 <= u < v <= header[0]):
            return lineno, f"edge ({u}, {v}) must satisfy 1 <= u < v <= n"
        if (u, v) in seen:
            return lineno, f"duplicate edge ({u}, {v}), first seen on line {seen[(u, v)]}"
        seen[(u, v)] = lineno
    if header is None:
        return None, "empty document: missing 'n d' header"
    n = header[0]
    if n > 2 * len(seen):
        return header_line, (
            f"header declares {n} vertices but {len(seen)} edge lines "
            f"reach at most {2 * len(seen)}: some vertex would be isolated"
        )
    return None


def first_rotation_format_error(text):
    """The rotation-map reader, one line at a time: the (line, message) of
    the first format error (line None when it belongs to no line), else None."""
    header = None
    rows = 0
    for lineno, fields in _reference_lines(text):
        if header is None:
            header, error = _reference_header(fields, lineno)
            if error:
                return error
            continue
        n, d = header
        if rows == n:
            return lineno, f"expected exactly {n} rows"
        if len(fields) != d:
            return lineno, f"row must have {d} entries, got {len(fields)}"
        entries = _reference_integers(fields)
        if entries is None:
            return lineno, "row entries must be integers"
        vertex = rows + 1
        for w in entries:
            if not (1 <= w <= n):
                return lineno, f"entry {w} out of range 1..{n}"
            if w == vertex:
                return lineno, f"vertex {vertex} maps to itself"
        if len(set(entries)) != d:
            return lineno, f"row for vertex {vertex} has repeated entries"
        rows += 1
    if header is None:
        return None, "empty document: missing 'n d' header"
    if rows != header[0]:
        return None, f"expected {header[0]} rows, got {rows}"
    return None


def random_regular_by_pairing(n, d, seed, max_tries=100):
    """The (n, d) neighbor table, rows ascending, of the graph that the
    per-pair pairing loop draws for ``seed``: the generator that
    ``random_regular_graph`` ran before its rounds became whole-array,
    copied literally.  Tests pinned to one of its graphs build it here.

    ``random.shuffle`` reorders the open stubs; pairs are kept in order
    unless they are a loop or repeat an edge; the rest are re-paired in
    the next round, and an attempt ends when no leftover pair can form a
    new edge.
    """
    rng = random.Random(seed)

    def suitable(edges, leftovers):
        if not leftovers:
            return True
        nodes = sorted(leftovers)
        for i, u in enumerate(nodes):
            for v in nodes[: i + 1]:
                if u == v:
                    continue
                if v * n + u not in edges:
                    return True
        return False

    def attempt():
        edges = set()
        stubs = list(range(n)) * d
        while stubs:
            leftovers = {}
            rng.shuffle(stubs)
            it = iter(stubs)
            for u, v in zip(it, it):
                if u > v:
                    u, v = v, u
                key = u * n + v
                if u != v and key not in edges:
                    edges.add(key)
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
            rows = [[] for _ in range(n)]
            for key in edges:
                u, v = divmod(key, n)
                rows[u].append(v)
                rows[v].append(u)
            return [sorted(row) for row in rows]
    raise RuntimeError(f"no {d}-regular graph on {n} vertices in {max_tries} attempts")


# The family constructors as they were written before each family built
# its neighbor table directly: a Python list of 0-based edge tuples per
# family, copied literally, plus the parameter rules each one enforced.


def cycle_edges(n):
    return [(v, (v + 1) % n) for v in range(n)]


def complete_edges(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def complete_bipartite_edges(m):
    return [(u, m + v) for u in range(m) for v in range(m)]


def hypercube_edges(k):
    n = 1 << k
    return [(x, x ^ (1 << b)) for x in range(n) for b in range(k) if x < x ^ (1 << b)]


def torus_edges(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            edges.append((v, ((r + 1) % rows) * cols + c))
            edges.append((v, r * cols + (c + 1) % cols))
    return [(min(e), max(e)) for e in edges]


def circulant_edges(n, offsets):
    edges = set()
    for v in range(n):
        for s in offsets:
            w = (v + s) % n
            edges.add((min(v, w), max(v, w)))
    return sorted(edges)


def family_by_edges(family, params):
    """(n, edges) of a deterministic family, or None when ``params`` break
    its rules: cycle n >= 3, complete n >= 2, complete-bipartite m >= 1,
    hypercube k >= 1, torus both sides >= 3, circulant n >= 3 with
    offsets nonzero, distinct and closed under negation mod n."""
    if family == "cycle":
        (n,) = params
        return (n, cycle_edges(n)) if n >= 3 else None
    if family == "complete":
        (n,) = params
        return (n, complete_edges(n)) if n >= 2 else None
    if family == "complete-bipartite":
        (m,) = params
        return (2 * m, complete_bipartite_edges(m)) if m >= 1 else None
    if family == "hypercube":
        (k,) = params
        return (1 << k, hypercube_edges(k)) if k >= 1 else None
    if family == "torus":
        rows, cols = params
        return (rows * cols, torus_edges(rows, cols)) if rows >= 3 and cols >= 3 else None
    if family == "circulant":
        n, offsets = params[0], params[1:]
        if n < 3:
            return None
        reduced = [s % n for s in offsets]
        if 0 in reduced or len(set(reduced)) != len(reduced):
            return None
        if any((n - s) % n not in reduced for s in reduced):
            return None
        return n, circulant_edges(n, offsets)
    raise ValueError(f"no edge-list oracle for {family!r}")


def table_from_edges(n, edges):
    """The int64 (n, d) neighbor table of an edge list, each row ascending."""
    rows = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    return np.array([sorted(row) for row in rows], dtype=np.int64)


def edge_list_text(n, edges):
    """The edge-list document of ``edges``: header, then 1-based 'u v' lines sorted."""
    d = 2 * len(edges) // n
    lines = [f"{n} {d}\n"] + [f"{u + 1} {v + 1}\n" for u, v in sorted((min(e), max(e)) for e in edges)]
    return "".join(lines)


# Known answers by construction.  Class 1: an involution map of each
# family by formula, an (n, d) table of 0-based vertices whose label i
# pairs the vertices of one perfect matching, written with plain loops
# and no library code.  Class 2: graphs with no proper d-edge-coloring,
# so no involution map, as edge lists.


def hypercube_involution(k):
    """Label b flips bit b."""
    return np.array([[x ^ (1 << b) for b in range(k)] for x in range(1 << k)], dtype=np.int64)


def complete_bipartite_involution(m):
    """K_{m,m} with a_j = j and b_j = m + j: label i pairs a_j with
    b_{(j+i) mod m} (Koenig)."""
    rows = [[m + (j + i) % m for i in range(m)] for j in range(m)]
    rows += [[(j - i) % m for i in range(m)] for j in range(m)]
    return np.array(rows, dtype=np.int64)


def complete_involution(n):
    """K_n for even n by the circle method (Lucas 1883): in round i, vertex
    n-1 meets i, and (i+k) mod (n-1) meets (i-k) mod (n-1) for
    k = 1..n/2-1."""
    table = [[None] * (n - 1) for _ in range(n)]
    for i in range(n - 1):
        table[n - 1][i], table[i][i] = i, n - 1
        for k in range(1, n // 2):
            u, v = (i + k) % (n - 1), (i - k) % (n - 1)
            table[u][i], table[v][i] = v, u
    return np.array(table, dtype=np.int64)


def _alternating(x, length):
    """The two partners of x on the even cycle 0, 1, ..., length-1 whose
    edges alternate labels: (2j, 2j+1) first, (2j+1, 2j+2 mod length) second."""
    return [x ^ 1, (x + 1 if x % 2 else x - 1) % length]


def cycle_involution(n):
    """The even n-cycle, its labels alternating."""
    return np.array([_alternating(v, n) for v in range(n)], dtype=np.int64)


def torus_involution(rows, cols):
    """The rows x cols torus, both even, vertex r*cols + c: labels 0 and 1
    alternate along each column cycle, 2 and 3 along each row cycle."""
    table = []
    for r in range(rows):
        for c in range(cols):
            table.append([s * cols + c for s in _alternating(r, rows)]
                         + [r * cols + t for t in _alternating(c, cols)])
    return np.array(table, dtype=np.int64)


def circulant_permutation(n, offsets):
    """The circulant with these offsets: label i moves v to v + offsets[i]
    mod n, one rotation of the vertices per column, so a permutation map
    at every n (an involution only where 2 * offsets[i] = 0 mod n)."""
    return np.array([[(v + s) % n for s in offsets] for v in range(n)], dtype=np.int64)


def petersen_edges():
    """The Petersen graph (Petersen 1898): the outer 5-cycle, five spokes
    and the inner pentagram."""
    return ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def flower_snark_edges(k):
    """Isaacs' flower snark J_k, odd k >= 3, on 4k vertices: a_i = i,
    b_i = k + i, c_i = 2k + i, d_i = 3k + i.  Each a_i meets b_i, c_i and
    d_i; the b_i form a k-cycle; c_0 .. c_{k-1} d_0 .. d_{k-1} form one
    2k-cycle."""
    edges = []
    for i in range(k):
        edges += [(i, k + i), (i, 2 * k + i), (i, 3 * k + i), (k + i, k + (i + 1) % k)]
    outer = range(2 * k, 4 * k)  # c_0 .. c_{k-1}, then d_0 .. d_{k-1}
    edges += [(outer[j], outer[(j + 1) % (2 * k)]) for j in range(2 * k)]
    return edges


def bridged_cubic_edges():
    """Two copies of K_4 on vertices 0-3 and 5-8, each with its edge (0, 1)
    subdivided by vertex 4 (9 in the copy), joined by the bridge (4, 9).
    A cubic graph with a bridge is class 2: each color class of a proper
    3-edge-coloring is a perfect matching, so it crosses the bridge's cut
    an odd number of times (each side has 5 vertices), and three odd
    counts cannot sum to 1 (the parity lemma)."""
    side = [(0, 4), (4, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    return side + [(u + 5, v + 5) for u, v in side] + [(4, 9)]
