"""Walk evolution: states, single steps, trajectories, distributions.

One step applies the coin first (the d x d coin matrix acting on the
coin index, identically at every vertex) and the shift second.  States
are dense complex vectors of length d*n in coin-major order; see the
operators module for the ordering convention.

step() and run() share one kernel on raw amplitude vectors: the coin is
a (d x d) @ (d x n) matrix product and the shift is a gather for a
consistent map (``np.add.at`` only for an inconsistent one).  step()
allocates its result.  run() checks the operators once and evolves the
walk in place in two buffers of the evolution dtype that its record loop
owns: the state, and the coin's output.  Each step writes the coin
product into the second (``np.matmul(..., out=)``) and gathers the shift
back into the first, so no array of size d*n is allocated per step.  The
loop never writes to the caller's state, and no record shares memory
with either buffer: a record's probabilities are written to an array of
their own (or a row of run()'s block), and its squared norm is a float.

While the coin matrix and the amplitudes are real and finite (a Grover,
Hadamard or identity coin from a real start), the kernel evolves float64
arrays and hands out complex128 ones.  That is exact: complex arithmetic
on zero imaginary parts does the same real arithmetic plus products
0 * x, which are exact zeros while every x is finite, so probabilities
and the real parts of the amplitudes keep their bits.  Once a value
overflows, 0 * inf is nan in complex arithmetic, so run() goes on in
complex arithmetic from the first step whose squared norm (which a
non-finite amplitude makes non-finite) is not finite.  Squared norms are
dot products, whose real and complex forms sum in different orders:
those of real walks may differ from a complex evolution's in the last
digits.  The probabilities are summed label by label, into the output
row through one n-float scratch row, in the order sum(axis=0) adds them,
so they keep its bits: a row is squared and added while it is in cache,
where a (d, n) array of squares would be written whole and read back.
The probabilities of a real state are its squares x * x, the bits of
|x|^2 without a pass for |x|.  (Only a nan would differ, in its sign
bit, and no real amplitude is ever nan: the walk leaves real arithmetic
at the first step whose squared norm is not finite, and a step grows an
amplitude by at most a factor of about d^2 from the last step's, all of
which were below 2^512.)

run() collects the records of one private generator, the record loop,
into one (t + 1, n) array: each record's probabilities are a read-only
row of it, so one record kept alive keeps the whole array alive.  The
CLI streams the same records, each with an array of its own, to its
output as they are made, so its memory stays O(n*d) at any step count.
Both write CSV rows with one per-record formatter, whose probabilities
come from an array kernel that writes each float exactly as repr does
(``_float_text``); the CLI's JSON trajectory uses the same kernel.

A trajectory records, for steps 0..t, the per-vertex probability list
and the squared norm.  For a consistent rotation map the squared norm
stays at 1 (up to accumulated rounding, tolerance 1e-9 over <= 1e3
steps); for inconsistent maps the squared-norm drift is the interesting
output and is reported as data, never "fixed up" by renormalization.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from numbers import Number

import numpy as np

from .errors import ConfigError
from .graphs import _integers
from .operators import CoinOperator, ShiftOperator, _complex_array


class WalkState:
    """Amplitudes over (coin label, vertex) pairs plus a step counter.

    Amplitudes a caller supplies must be finite.  A state the evolution
    produces is data and is never refused: on an inconsistent map its
    amplitudes may grow until they overflow.
    """

    __slots__ = ("n", "d", "amplitudes", "step_index")

    def __init__(self, n: int, d: int, amplitudes: np.ndarray, step_index: int = 0):
        n, d, step_index = _integers(ConfigError, "state n, d and step index", (n, d, step_index))
        amps = _complex_array(amplitudes, f"amplitude vector must be d*n = {d * n} numbers")
        if amps.shape != (d * n,):
            raise ConfigError(f"amplitude vector must have length d*n = {d * n}")
        if not np.isfinite(amps).all():
            raise ConfigError("amplitudes must be finite")
        amps.setflags(write=False)
        self.n = n
        self.d = d
        self.amplitudes = amps
        self.step_index = step_index

    def norm2(self) -> float:
        """Squared norm <psi|psi>."""
        (amps,) = _exactly_real(self.amplitudes)
        return _norm2(amps)

    def __repr__(self) -> str:
        return f"WalkState(n={self.n}, d={self.d}, step={self.step_index})"


def _evolved(state: WalkState, amps: np.ndarray, step_index: int) -> WalkState:
    """A state of ``state``'s dimensions holding ``amps``, a new array the
    evolution computed; unchecked, so that an overflow stays data."""
    evolved = object.__new__(WalkState)
    amps.setflags(write=False)
    evolved.n, evolved.d, evolved.amplitudes, evolved.step_index = state.n, state.d, amps, step_index
    return evolved


def init_state(n: int, d: int, support) -> WalkState:
    """Build a normalized state from (coin label, vertex, amplitude) triples.

    Labels and vertices are 0-based here (the CLI converts from its
    1-based surface).  Duplicate (label, vertex) entries add up.  The
    result always has squared norm 1; an empty or cancelling support, a
    non-finite amplitude and amplitudes too large to normalize are
    rejected.
    """
    n, d = _integers(ConfigError, "state n and d", (n, d))
    if n < 1 or d < 1:
        raise ConfigError("state needs n >= 1 and d >= 1")
    support = list(support)
    if not support:
        raise ConfigError("initial state needs at least one support entry")
    amps = np.zeros(d * n, dtype=np.complex128)
    # Finite amplitudes can still overflow their sum or the norm; then the
    # norm is inf and the state is refused below.
    with np.errstate(over="ignore"):
        for entry in support:
            try:
                label, vertex, amplitude = entry
            except (TypeError, ValueError):
                raise ConfigError(f"support entry {entry!r} must be (label, vertex, amplitude)") from None
            label, vertex = _integers(ConfigError, "coin label and vertex", (label, vertex))
            if not (0 <= label < d):
                raise ConfigError(f"coin label {label} out of range 0..{d - 1}")
            if not (0 <= vertex < n):
                raise ConfigError(f"vertex {vertex} out of range 0..{n - 1}")
            if not isinstance(amplitude, Number):
                raise ConfigError(f"amplitude {amplitude!r} is not a number")
            try:
                amplitude = complex(amplitude)
            except OverflowError:
                raise ConfigError("amplitude is too large for a complex number") from None
            if not np.isfinite(amplitude):
                raise ConfigError(f"amplitude {amplitude} is not finite")
            amps[label * n + vertex] += amplitude
        norm = np.linalg.norm(amps)
    if not np.isfinite(norm):
        raise ConfigError("initial amplitudes are too large to normalize")
    if norm == 0:
        raise ConfigError("initial amplitudes cancel to zero")
    return WalkState(n, d, amps / norm)


def uniform_state(n: int, d: int) -> WalkState:
    """Equal amplitude 1/sqrt(d*n) on every (label, vertex) pair."""
    n, d = _integers(ConfigError, "state n and d", (n, d))
    if n < 1 or d < 1:
        raise ConfigError("state needs n >= 1 and d >= 1")
    return WalkState(n, d, np.full(d * n, 1 / np.sqrt(d * n), dtype=np.complex128))


def apply(operator, state: WalkState) -> WalkState:
    """Apply a shift, or a coin extended over positions, to a state.

    The step counter is unchanged; use step() for one full coin+shift
    evolution step.
    """
    if isinstance(operator, ShiftOperator):
        _check_shift(operator, state)
        return _evolved(state, operator.apply(state.amplitudes), state.step_index)
    if isinstance(operator, CoinOperator):
        _check_coin(operator, state)
        amps = (operator.matrix @ state.amplitudes.reshape(state.d, -1)).reshape(-1)
        return _evolved(state, amps, state.step_index)
    raise ConfigError(f"cannot apply object of type {type(operator).__name__} to a state")


def _check_coin(coin: CoinOperator, state: WalkState) -> None:
    if coin.d != state.d:
        raise ConfigError(f"coin dimension {coin.d} != state coin dimension {state.d}")


def _check_shift(shift: ShiftOperator, state: WalkState) -> None:
    if (shift.n, shift.d) != (state.n, state.d):
        raise ConfigError(f"shift is {shift.d} x {shift.n}, state is {state.d} x {state.n}")


def _exactly_real(*arrays: np.ndarray) -> tuple:
    """The arrays' real parts, as new contiguous float64 arrays, when every
    imaginary part is 0 and every value is finite; else the arrays as given.

    Evolving the real parts is exact then (see the module docstring).  A
    coin matrix and the amplitudes it acts on go through one call, so that
    both are real or both stay complex."""
    if any(a.imag.any() or not np.isfinite(a.real).all() for a in arrays):
        return arrays
    return tuple(np.ascontiguousarray(a.real) for a in arrays)


def _evolvable(coin: CoinOperator, amplitudes: np.ndarray) -> tuple:
    """The coin matrix and the amplitudes in the arithmetic the walk evolves
    in (see _exactly_real), the amplitudes as a new array the evolution may
    write: never the caller's."""
    matrix, amps = _exactly_real(coin.matrix, amplitudes)
    return matrix, amps.copy() if amps is amplitudes else amps


def _step(amps: np.ndarray, matrix: np.ndarray, shift: ShiftOperator, coined: np.ndarray) -> None:
    """One coin-then-shift step, in place, on a bare amplitude vector: the
    coin product (with the coin's matrix or its real part) goes into
    ``coined``, a buffer of the amplitudes' dtype and shape, and the shift
    gathers it back into ``amps``.  Dimensions are checked by the caller."""
    np.matmul(matrix, amps.reshape(len(matrix), -1), out=coined.reshape(len(matrix), -1))
    shift._apply_into(coined, amps)


def step(state: WalkState, coin: CoinOperator, shift: ShiftOperator) -> WalkState:
    """One evolution step: coin first, then shift."""
    _check_coin(coin, state)
    _check_shift(shift, state)
    matrix, amps = _evolvable(coin, state.amplitudes)
    _step(amps, matrix, shift, np.empty_like(amps))
    return _evolved(state, np.asarray(amps, dtype=np.complex128), state.step_index + 1)


def inverse_step(state: WalkState, coin: CoinOperator, shift: ShiftOperator) -> WalkState:
    """Undo one step: shift transpose first, then coin inverse.

    Exactly inverts step() when the shift is unitary (consistent map).
    """
    _check_coin(coin, state)
    _check_shift(shift, state)
    amps = shift.apply_adjoint(state.amplitudes)
    blocks = amps.reshape(state.d, state.n)
    amps = (coin.matrix.conj().T @ blocks).reshape(-1)
    return _evolved(state, amps, state.step_index - 1)


def distribution(state: WalkState) -> np.ndarray:
    """Per-vertex probabilities: sum over coin labels of |amplitude|^2.

    The sum over vertices equals the squared norm of the state (1 only
    under unitary evolution).
    """
    return _probabilities(state.amplitudes, state.d)


def _probabilities(
    amps: np.ndarray, d: int, scratch: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Sum over coin labels of |amplitude|^2, written to ``out`` when it is
    given.  Label 0 is squared into the output and each further label into
    ``scratch``, an n-float64 row, then added to it: the additions
    sum(axis=0) makes, in its order, so the sums keep its bits.  Real
    amplitudes are squared as they are: x * x has the bits of |x|^2 for
    every x but nan, whose sign bit abs clears."""
    labels = amps.reshape(d, -1)
    out = _squares(labels[0], out)
    if d > 1 and scratch is None:
        scratch = np.empty_like(out)
    for label in labels[1:]:
        np.add(out, _squares(label, scratch), out=out)
    return out


def _squares(amps: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """|amplitude|^2 of a 1-d array, into ``out`` when it is given."""
    if amps.dtype != np.float64:
        amps = out = np.abs(amps, out=out)
    return np.square(amps, out=out)


def _norm2(amps: np.ndarray) -> float:
    """<psi|psi>: ddot on real amplitudes, zdotc on complex ones."""
    return float(np.vdot(amps, amps).real)


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    step: int
    probabilities: np.ndarray
    norm2: float


class WalkTrajectory:
    """Per-step records of a walk run, plus the final state."""

    def __init__(self, n: int, d: int, records: list[TrajectoryRecord], final_state: WalkState):
        self.n = n
        self.d = d
        self.records = records
        self.final_state = final_state

    def norms(self) -> list[float]:
        return [rec.norm2 for rec in self.records]

    def to_csv_text(self) -> str:
        """CSV rows (step, 1-based vertex, probability, squared norm).

        Floats are written exactly as repr writes them (the shortest
        round-trip form), so equal trajectories serialize byte-for-byte
        identically; the probabilities are formatted by an array kernel.
        """
        return "".join(_csv_chunks(self.n, self.records))


def _csv_chunks(n: int, records: Iterable[TrajectoryRecord]) -> Iterator[str]:
    """The CSV header, then the rows of each record as one string."""
    yield "step,vertex,probability,norm2\n"
    vertices = np.array([f",{v + 1}," for v in range(n)], dtype=bytes).view(np.uint8).reshape(n, -1)
    for rec in records:
        yield _joined_rows(
            [str(rec.step), vertices, _float_text(rec.probabilities), f",{rec.norm2!r}\n"]
        )


def _joined_rows(blocks: list) -> str:
    """Rows laid out side by side and joined, with every NUL dropped.

    Each block is an (n, w) NUL-padded uint8 text matrix, or a string that
    every row repeats; at least one block is a matrix.
    """
    n = next(len(b) for b in blocks if not isinstance(b, str))
    rows = np.hstack([_repeated(b, n) if isinstance(b, str) else b for b in blocks])
    return rows[rows != 0].tobytes().decode("ascii")


def _repeated(text: str, rows: int) -> np.ndarray:
    """``text`` on each of ``rows`` rows, as a read-only uint8 matrix."""
    return np.broadcast_to(np.frombuffer(text.encode("ascii"), np.uint8), (rows, len(text)))


# The float kernel.  repr(x) is the shortest decimal that reads back as x,
# the one nearest x if several are that short, ties to an even last digit
# (Gay 1990).  For 1e-6 < |x| < 1e17 the kernel finds those digits with
# exact integer tests over the whole array (the idea of Ryu, Adams 2018):
#
# * Scale.  With E = floor(log10|x|) and k = 16 - E in 0..22, 10^k is an
#   exact double, and Dekker's two-product splits |x| * 10^k exactly into
#   an int64 N in [10^16, 10^17) and a fraction fr in [0, 1).
# * Bound.  With |x| = M * 2^q, the half-gap to the next double is
#   5^k * 2^(q+k-1) in units of N, and fr is a multiple of 2^(q+k); in
#   units of 2^-sh, sh = 1 - min(q+k, 0), both are int64.  That gives the
#   integers [lo, hi] within a half-gap of N + fr, the bounds included when
#   M is even; hi - lo < 23.  Below a power of two (M = 2^52) the gap is
#   half as wide, but none of the 76 powers of two in range has a
#   candidate in the difference (the tests run them all), so both sides
#   use the same gap.
# * Pick.  At most one multiple of 100 fits: if one does, it is the answer
#   with its trailing zeros stripped.  Otherwise the multiple of 10 nearest
#   N + fr, ties to even, if it fits, else the nearest integer, which
#   always fits.  10^17 never fits: the doubles nearest 1e-5 .. 1e-1 lie
#   above those powers of ten, and the larger ones are exact.
#
# Every other value (-0.0, inf, nan, |x| <= 1e-6, |x| >= 1e17) goes to a
# per-value fallback formatter; 0.0 is written "0.0".
_FLOAT_WIDTH = 24  # the longest repr of a float, "-1.2345678901234567e-308"
_POW10 = np.array([float(10**k) for k in range(23)])
_POW5 = np.array([5**k for k in range(23)], dtype=np.int64)
_DIGITS_LO, _DIGITS_HI = 10**16, 10**17
# "0000" .. "9999" as uint32 words, to write four digits with one gather,
# and the same without their trailing zeros, NUL-padded.
_QUAD_DIGITS = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
_QUADS = (_QUAD_DIGITS + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_BARE_QUADS = np.where(
    np.logical_or.accumulate(_QUAD_DIGITS[:, ::-1] > 0, axis=1)[:, ::-1], _QUAD_DIGITS + ord("0"), 0
).astype(np.uint8).view(np.uint32).ravel()


def _split(a):
    """Veltkamp's split of doubles into 26- and 27-bit halves."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(ax: np.ndarray, e: np.ndarray):
    """ax * 10^(16-e) as an exact int64 part and fraction (Dekker 1971)."""
    k = 16 - e
    p = ax * _POW10[k]
    ahi, alo = _split(ax)
    bhi, blo = _POW10_HI[k], _POW10_LO[k]
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    whole = np.floor(err)
    return p.astype(np.int64) + whole.astype(np.int64), err - whole


def _shortest(ax: np.ndarray):
    """Shortest round-trip digits of each ax in (1e-6, 1e17): c, a 17-digit
    int64 whose leading digits are the digits, and the decimal exponent e
    of its first digit."""
    e = np.clip(np.floor(np.log10(ax)), -6, 16).astype(np.int64)
    whole, fr = _scaled(ax, e)
    while True:  # log10 can be one off next to a power of ten
        off = (whole >= _DIGITS_HI).astype(np.int64) - (whole < _DIGITS_LO)
        redo = np.flatnonzero(off)
        if not len(redo):
            break
        e[redo] += off[redo]
        whole[redo], fr[redo] = _scaled(ax[redo], e[redo])
    k = 16 - e
    mant, exp2 = np.frexp(ax)
    t = exp2 - 53 + k
    sh = 1 - np.minimum(t, 0)
    f = np.ldexp(fr, sh.astype(np.intc)).astype(np.int64)  # ldexp has a C int loop everywhere
    gap = _POW5[k] << np.maximum(t, 0)
    odd = np.ldexp(mant, 53).astype(np.int64) % 2 == 1
    below, above = f - gap, f + gap
    lo = whole + np.where(odd, (below >> sh) + 1, -(-below >> sh))
    hi = whole + np.where(odd, -(-above >> sh) - 1, above >> sh)
    by100 = -(-lo // 100) * 100
    tens, unit = np.divmod(whole, 10)
    rest, half = (unit << sh) + f, 5 << sh
    by10 = 10 * (tens + ((rest > half) | ((rest == half) & (tens % 2 == 1))))
    half = 1 << (sh - 1)
    by1 = whole + ((f > half) | ((f == half) & (whole % 2 == 1)))
    return np.where(by100 <= hi, by100, np.where((lo <= by10) & (by10 <= hi), by10, by1)), e


def _float_text(values: np.ndarray, fallback=repr) -> np.ndarray:
    """Each float of a 1-d array as repr writes it: a (len, _FLOAT_WIDTH)
    uint8 matrix, one NUL-padded text per row (NULs may sit inside a row
    as well).  Values outside the kernel's range are written by
    ``fallback``, one call each."""
    x = np.asarray(values, dtype=np.float64)
    out = np.zeros((len(x), _FLOAT_WIDTH), np.uint8)
    ax = np.abs(x)
    in_range = (ax > 1e-6) & (ax < 1e17)
    fast = np.flatnonzero(in_range)
    c, e = _shortest(ax[fast])
    # 17 digits: one, then four quads of four, each written by one gather.
    head, tail = np.divmod(c, 10**8)
    quads = [head // 10**8, head // 10**4 % 10**4, head % 10**4, tail // 10**4, tail % 10**4]
    words = np.stack([_QUADS[q] for q in quads], axis=1)
    # The same with the trailing zeros of the last nonzero quad, and every
    # quad after it, written as NULs.
    bare = words.copy()
    zeros_after = np.ones(len(c), bool)
    for j in range(4, 0, -1):
        bare[zeros_after, j] = _BARE_QUADS[quads[j][zeros_after]]
        zeros_after &= quads[j] == 0
    digits, significant = words.view(np.uint8)[:, 3:], bare.view(np.uint8)[:, 3:]
    for exponent in np.flatnonzero(np.bincount(e + 6)) - 6:
        group = np.flatnonzero(e == exponent)
        text = _layout(int(exponent), digits[group], significant[group])
        out[fast[group], 1:1 + text.shape[1]] = text
    out[fast[x[fast] < 0], 0] = ord("-")
    zero = (x == 0) & ~np.signbit(x)
    out[zero, :3] = np.frombuffer(b"0.0", np.uint8)
    others = np.flatnonzero(~in_range & ~zero)  # -0.0, inf, nan, and what is out of range
    if len(others):
        texts = list(map(fallback, x[others].tolist()))
        out[others] = np.array(texts, dtype=f"S{_FLOAT_WIDTH}").view(np.uint8).reshape(-1, _FLOAT_WIDTH)
    return out


def _layout(exponent: int, digits: np.ndarray, significant: np.ndarray) -> np.ndarray:
    """repr's layout of 17-digit rows sharing one decimal exponent;
    ``significant`` is ``digits`` with trailing zeros set to NUL."""
    rows = len(digits)
    if not -4 <= exponent < 16:  # d.ddde-XX, or de-XX for one digit
        dot = np.where(significant[:, 1:2] == 0, np.uint8(0), np.uint8(ord(".")))
        return np.hstack([digits[:, :1], dot, significant[:, 1:], _repeated(f"e{exponent:+03d}", rows)])
    if exponent < 0:  # 0.000ddd
        return np.hstack([_repeated("0." + "0" * (-exponent - 1), rows), significant])
    point = exponent + 1
    fraction = significant[:, point:]  # point <= 16 of 17 digits: never empty
    first = np.where(fraction[:, :1] == 0, np.uint8(ord("0")), fraction[:, :1])
    return np.hstack([digits[:, :point], _repeated(".", rows), first, fraction[:, 1:]])


def _records(
    state: WalkState, coin: CoinOperator, shift: ShiftOperator, t: int, block: bool = False
) -> Iterator[TrajectoryRecord]:
    """The record loop: the records of steps 0..t, each yielded as soon as
    it exists; the generator returns the final amplitude vector.

    t and the operators are checked here, before the first record, so a
    refused walk has produced nothing.  With ``block`` the probabilities
    of every record are read-only rows of one (t + 1, n) array, allocated
    after the checks; without it each record has an array of its own.
    The walk evolves in place in two buffers of the evolution dtype, the
    state and the coin's output, made once (and once more, as complex128,
    on a switch to complex arithmetic); see the module docstring.
    """
    (t,) = _integers(ConfigError, "step count", (t,))
    if t < 0:
        raise ConfigError(f"step count must be >= 0, got {t}")
    _check_coin(coin, state)
    _check_shift(shift, state)
    rows = np.empty((t + 1, state.n)) if block else None

    def loop(amps: np.ndarray, start: int, d: int):
        matrix, amps = _evolvable(coin, amps)
        coined = np.empty_like(amps)
        scratch = np.empty(len(amps) // d)
        for k in range(t + 1):
            row = None if rows is None else rows[k]
            # Evolved amplitudes are data: on an inconsistent map they may
            # overflow to inf and nan, which the records carry silently.
            with np.errstate(over="ignore", invalid="ignore"):
                if k:
                    _step(amps, matrix, shift, coined)
                probabilities = _probabilities(amps, d, scratch, row)
                probabilities.setflags(write=False)
                record = TrajectoryRecord(start + k, probabilities, _norm2(amps))
            # A non-finite squared norm means a non-finite amplitude may be
            # there, and a complex product takes its 0 * inf to nan.
            if amps.dtype == np.float64 and not np.isfinite(record.norm2):
                matrix, amps = coin.matrix, amps.astype(np.complex128)
                coined = np.empty_like(amps)
            yield record
        if rows is not None:
            rows.setflags(write=False)
        return np.asarray(amps, dtype=np.complex128)

    return loop(state.amplitudes, state.step_index, state.d)


def run(state: WalkState, coin: CoinOperator, shift: ShiftOperator, t: int) -> WalkTrajectory:
    """Evolve t steps, recording the initial state and every step after it.

    The records' probabilities are rows of one array, so a record that
    outlives its trajectory keeps the probabilities of every step alive."""
    records = []
    loop = _records(state, coin, shift, t, block=True)
    try:
        while True:
            records.append(next(loop))
    except StopIteration as end:
        amps = end.value
    final = _evolved(state, amps, state.step_index + t) if t else state
    return WalkTrajectory(state.n, state.d, records, final)
