"""Shift and coin operators on the coin-position product space.

The walk lives on a (d*n)-dimensional space: d coin labels times n
vertices, in coin-major order — basis index j*n + v for coin label j and
vertex v (0-based).  The shift operator places a unit entry in column
j*n + v at row j*n + rot(v, j): it moves amplitude at (label j, vertex v)
to (label j, the vertex reached along label j).

A shift has exactly one unit entry per column, so it is stored as the
integer table ``col_to_row`` instead of a matrix.  That keeps every
unitarity question exact: S.S^T is always a diagonal matrix of integer
counts (column c contributes its single unit at row col_to_row[c], so
off-diagonal products vanish), and the unitarity defect — the largest
absolute entry of S.S^T - I — is an exact integer, read from the
rotation map's column counts without building S.  Defect 0 is
equivalent to every rotation-map column being a permutation.

Applying a shift to a state follows the same split.  When col_to_row is
a permutation (a consistent map) the shift is one gather through the
inverse permutation, computed once when the operator is built:
``np.take(amplitudes, row_to_col, out=out, mode="clip")``, which writes
straight into a buffer the caller owns.  Two of take's defaults would
each add a hidden pass per call: a read-only index is converted into a
new writeable copy, and mode "raise" with ``out`` gathers into a
temporary copy of ``out``, so that a bad index leaves ``out`` untouched.
The inverse table is therefore private and writeable (nothing writes it
after the constructor), and the mode is "clip", which is exact here:
the table is a permutation of 0..d*n-1, so no index is ever clipped.
Only an inconsistent map, where several columns land on one row and their
amplitudes must add up, goes through ``np.add.at``, into the zeroed
output.

Coins are genuinely numeric: dense complex d x d unitaries checked to a
1e-12 max-abs tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graphs import _FrozenTable, _integers, _read_only
from .rotmap import RotationMap, _column_counts

UNITARY_TOL = 1e-12

# Largest dimension d*n for which reports include the dense product matrix.
PRODUCT_DIM_LIMIT = 64

# The named coins of build_coin; cli.COINS is a copy.
COIN_KINDS = ("hadamard", "grover", "dft", "identity")


class ShiftOperator(_FrozenTable):
    """The shift of a rotation map: a (d*n) x (d*n) 0/1 matrix with exactly
    one unit entry per column, at row ``col_to_row[c]`` of column c.
    Unitary exactly when the map's column counts, the ones the permutation
    checker reads, are all 1; then ``_row_to_col`` holds the inverse
    permutation, else None.  That table stays writeable, since take would
    copy a read-only index on every call (see the module docstring).
    """

    __slots__ = ("col_to_row", "_row_to_col")
    _TABLE = "col_to_row"

    def __init__(self, rot: RotationMap):
        n, d = rot.n, rot.d
        offsets = (np.arange(d, dtype=np.int64) * n)[:, None]
        table = _read_only((rot.entries.T + offsets).reshape(-1))
        self.n, self.d, self.col_to_row = n, d, table
        self._row_to_col = None
        if (_column_counts(rot) == 1).all():
            inverse = np.empty_like(table)
            inverse[table] = np.arange(d * n)
            self._row_to_col = inverse

    @property
    def dim(self) -> int:
        return self.d * self.n

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.dim, self.dim), dtype=np.int64)
        dense[self.col_to_row, np.arange(self.dim)] = 1
        return dense

    def _apply_into(self, amplitudes: np.ndarray, out: np.ndarray) -> None:
        """Write S @ amplitudes into ``out``, a contiguous array of the
        amplitudes' dtype and shape that does not overlap them.  The gather
        takes with the writeable inverse table and mode "clip", the one
        form of take that makes no copy of its index or its output; no
        index is clipped, since the table is a permutation."""
        if self._row_to_col is not None:
            np.take(amplitudes, self._row_to_col, out=out, mode="clip")
        else:
            out.fill(0)
            np.add.at(out, self.col_to_row, amplitudes)


def build_shift(rot: RotationMap) -> ShiftOperator:
    """The shift operator of a rotation map (consistency not required;
    building from inconsistent maps is exactly how their non-unitarity
    is demonstrated)."""
    return ShiftOperator(rot)


@dataclass(frozen=True, eq=False)
class UnitarityReport:
    """Exact unitarity measurement of a rotation map's shift S, held as one
    read-only fact: ``counts``, the diagonal of S.S^T (entry j*n + w counts
    how often w occurs in column j of the map; off the diagonal S.S^T is 0).

    ``defect`` is the largest absolute entry of S.S^T - I (an exact
    integer; 0 means unitary).  ``product`` is S.S^T, read-only, when the
    dimension is <= PRODUCT_DIM_LIMIT, else None.
    """

    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "counts", _read_only(np.array(self.counts, dtype=np.int64)))

    @property
    def defect(self) -> int:
        return int(np.abs(self.counts - 1).max())

    @property
    def product(self) -> np.ndarray | None:
        return _read_only(np.diag(self.counts)) if len(self.counts) <= PRODUCT_DIM_LIMIT else None


def unitarity_defect(rot: RotationMap) -> UnitarityReport:
    """Measure how far the shift of ``rot`` is from unitary, exactly.

    S.S^T is diagonal, and entry j*n + w of its diagonal counts how often
    w occurs in column j of the map, so the defect is the largest
    |count - 1|, read from the counts without forming S.  The defect is 0
    iff every column of the rotation map is a permutation of the vertices.
    """
    return UnitarityReport(_column_counts(rot))


def _complex_array(values, message: str) -> np.ndarray:
    """``values`` as a new complex128 array.  Raises ConfigError with
    ``message`` when the rows are ragged or an entry is not a number,
    None included (which NumPy would read as NaN)."""
    try:
        array = np.asarray(values)
        if array.dtype != object or all(entry is not None for entry in array.flat):
            return np.array(array, dtype=np.complex128)
    except (TypeError, ValueError):
        pass
    raise ConfigError(message)


def _coin_dimension(d: int) -> int:
    """A coin dimension as an integer, at least 1."""
    (d,) = _integers(ConfigError, "coin dimension", (d,))
    if d < 1:
        raise ConfigError(f"coin dimension must be positive, got {d}")
    return d


class CoinOperator:
    """A d x d unitary applied on the coin space at every vertex; d is read
    from the square matrix, and two coins are equal when their matrices are."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        mat = _complex_array(matrix, "coin matrix must be a square array of numbers")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ConfigError(f"coin matrix must be square, got shape {mat.shape}")
        d = _coin_dimension(len(mat))
        if not np.isfinite(mat).all():
            raise ConfigError("coin matrix entries must be finite")
        # Huge finite entries overflow the product; the residual is then
        # inf or nan and the matrix is refused below.
        with np.errstate(over="ignore", invalid="ignore"):
            residual = np.abs(mat @ mat.conj().T - np.eye(d)).max()
        if not residual <= UNITARY_TOL:
            raise ConfigError(
                f"coin matrix is not unitary: max |C C* - I| = {residual:.3e} > {UNITARY_TOL}"
            )
        self.matrix = _read_only(mat)

    @property
    def d(self) -> int:
        return len(self.matrix)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoinOperator):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __repr__(self) -> str:
        return f"CoinOperator(d={self.d})"


def build_coin(kind: str, d: int) -> CoinOperator:
    """Construct a named coin; any other unitary is ``CoinOperator(matrix)``.

    hadamard (d=2 only): the standard 2x2 Hadamard.
    grover: 2/d J - I, the diffusion about the uniform coin state.
    dft: discrete Fourier transform, entries omega^(jk) / sqrt(d).
    identity: I_d.
    """
    d = _coin_dimension(d)
    if kind == "hadamard":
        if d != 2:
            raise ConfigError(f"hadamard coin requires d=2, got d={d}")
        mat = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    elif kind == "grover":
        mat = np.full((d, d), 2.0 / d, dtype=np.complex128) - np.eye(d)
    elif kind == "dft":
        j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        mat = np.exp(2j * np.pi * j * k / d) / np.sqrt(d)
    elif kind == "identity":
        mat = np.eye(d, dtype=np.complex128)
    else:
        raise ConfigError(f"unknown coin kind {kind!r}; expected one of {', '.join(COIN_KINDS)}")
    return CoinOperator(mat)
