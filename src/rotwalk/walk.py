"""Walk evolution: states, single steps, trajectories, distributions.

One step applies the coin first (the d x d coin matrix acting on the
coin index, identically at every vertex) and the shift second.  States
are dense complex vectors of length d*n in coin-major order; see the
operators module for the ordering convention.

step() and run() share one kernel on raw amplitude vectors: the coin is
a (d x d) @ (d x n) matrix product and the shift is a gather for a
consistent map (``np.add.at`` only for an inconsistent one).  step()
allocates its result.  run() checks the operators once and evolves the
walk in three buffers of the evolution dtype that its record loop owns:
two states, and the coin's output.  Each step writes the coin product
of one state into the coin buffer (``np.matmul(..., out=)``) and gathers
the shift into the other state, so no array of size d*n is allocated
per step.  The loop never writes to the caller's state, and no record
shares memory with the buffers: a record's probabilities are written to
an array of their own, and its squared norm is a float.

A record reads only the state it records, so record k is made while
step k+1 is computed from the same state into the other buffer, and it
is taken before step k+2 writes that buffer again.  On a walk of at
least 2^16 arcs, in a process that may run on more than one CPU, the
record is made on a second thread: the matmul, the gather and the
record's ufuncs and dot product release the interpreter lock, so a
Grover step at n=20000, d=8 costs about two thirds of its serial time.
Below that size the hand-off between the threads costs more than the
overlap saves, and the same loop makes the record on the caller's
thread, after the step.  The records are the same either way, bit for
bit; BLAS keeps the thread count its caller set.

While the coin matrix and the amplitudes are real and finite (a Grover,
Hadamard or identity coin from a real start), the kernel evolves float64
arrays and hands out complex128 ones.  That is exact: complex arithmetic
on zero imaginary parts does the same real arithmetic plus products
0 * x, which are exact zeros while every x is finite, so probabilities
and the real parts of the amplitudes keep their bits.  Once a value
overflows, 0 * inf is nan in complex arithmetic, so run() goes on in
complex arithmetic from the first step whose squared norm (which a
non-finite amplitude makes non-finite) is not finite; the step after it,
made in real arithmetic while that record was made, is made again.
Squared norms are dot products, whose real and complex forms sum in
different orders: those of real walks may differ from a complex
evolution's in the last digits.  The probabilities are summed label by label, into their array
through one n-float scratch row, in the order sum(axis=0) adds them,
so they keep its bits: a row is squared and added while it is in cache,
where a (d, n) array of squares would be written whole and read back.
The probabilities of a real state are its squares x * x, the bits of
|x|^2 without a pass for |x|.  (Only a nan would differ, in its sign
bit, and no real amplitude is ever nan: the walk leaves real arithmetic
at the first step whose squared norm is not finite, and a step grows an
amplitude by at most a factor of about d^2 from the last step's, all of
which were below 2^512.)

run() collects the records of the record loop, stream_records(), in a
list; the CLI streams the same records to its output as they are made,
so its memory stays O(n*d) at any step count.  Both write CSV rows with
textio's csv_chunks.

A trajectory records, for steps 0..t, the per-vertex probability list
and the squared norm.  For a consistent rotation map the squared norm
stays at 1 (up to accumulated rounding, tolerance 1e-9 over <= 1e3
steps); for inconsistent maps the squared-norm drift is the interesting
output and is reported as data, never "fixed up" by renormalization.
"""

from __future__ import annotations

import os
import sys
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from numbers import Number

import numpy as np

from .errors import ConfigError
from .graphs import _integers, _read_only
from .operators import CoinOperator, ShiftOperator, _complex_array
from .textio import csv_chunks


class WalkState:
    """Amplitudes over (coin label, vertex) pairs plus a step counter.

    The amplitudes are held once, as a read-only coin-major (d, n) array;
    n and d are read from its shape, and ``amplitudes`` is its flat
    read-only view, which cannot be rebound.  Amplitudes a caller supplies
    must be finite.  A state the evolution produces is data and is never
    refused: on an inconsistent map its amplitudes may grow until they
    overflow.
    """

    __slots__ = ("_amplitudes", "step_index")

    def __init__(self, n: int, d: int, amplitudes: np.ndarray, step_index: int = 0):
        n, d = _dimensions(n, d)
        (step_index,) = _integers(ConfigError, "state step index", (step_index,))
        amps = _complex_array(amplitudes, f"amplitude vector must be d*n = {d * n} numbers")
        if amps.shape != (d * n,):
            raise ConfigError(f"amplitude vector must have length d*n = {d * n}")
        if not np.isfinite(amps).all():
            raise ConfigError("amplitudes must be finite")
        self._amplitudes = _read_only(amps.reshape(d, n))
        self.step_index = step_index

    @property
    def n(self) -> int:
        return self._amplitudes.shape[1]

    @property
    def d(self) -> int:
        return self._amplitudes.shape[0]

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amplitudes.reshape(-1)

    def norm2(self) -> float:
        """Squared norm <psi|psi>."""
        (amps,) = _exactly_real(self.amplitudes)
        return _norm2(amps)

    def __repr__(self) -> str:
        return f"WalkState(n={self.n}, d={self.d}, step={self.step_index})"


def _dimensions(n: int, d: int) -> tuple[int, int]:
    """A state's n and d as integers, both at least 1."""
    n, d = _integers(ConfigError, "state n and d", (n, d))
    if n < 1 or d < 1:
        raise ConfigError("state needs n >= 1 and d >= 1")
    return n, d


def _evolved(state: WalkState, amps: np.ndarray, step_index: int) -> WalkState:
    """A state of ``state``'s dimensions holding ``amps``, a new array the
    evolution computed; unchecked, so that an overflow stays data."""
    evolved = object.__new__(WalkState)
    evolved._amplitudes = _read_only(amps.reshape(state._amplitudes.shape))
    evolved.step_index = step_index
    return evolved


def init_state(n: int, d: int, support) -> WalkState:
    """Build a normalized state from (coin label, vertex, amplitude) triples.

    Labels and vertices are 0-based here (the CLI converts from its
    1-based surface).  Duplicate (label, vertex) entries add up.  The
    result always has squared norm 1; an empty or cancelling support, a
    non-finite amplitude and amplitudes too large to normalize are
    rejected.
    """
    n, d = _dimensions(n, d)
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
    n, d = _dimensions(n, d)
    return WalkState(n, d, np.full(d * n, 1 / np.sqrt(d * n), dtype=np.complex128))


def _check_operators(coin: CoinOperator, shift: ShiftOperator, state: WalkState) -> None:
    if coin.d != state.d:
        raise ConfigError(f"coin dimension {coin.d} != state coin dimension {state.d}")
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


def _step(amps: np.ndarray, matrix: np.ndarray, shift: ShiftOperator, coined: np.ndarray,
          out: np.ndarray) -> None:
    """One coin-then-shift step on a bare amplitude vector: the coin
    product (with the coin's matrix or its real part) goes into
    ``coined``, a buffer of the amplitudes' dtype and shape, and the shift
    gathers it into ``out``, which may be ``amps`` itself.  Dimensions are
    checked by the caller."""
    np.matmul(matrix, amps.reshape(len(matrix), -1), out=coined.reshape(len(matrix), -1))
    shift._apply_into(coined, out)


def step(state: WalkState, coin: CoinOperator, shift: ShiftOperator) -> WalkState:
    """One evolution step: coin first, then shift."""
    _check_operators(coin, shift, state)
    matrix, amps = _evolvable(coin, state.amplitudes)
    _step(amps, matrix, shift, np.empty_like(amps), amps)
    return _evolved(state, np.asarray(amps, dtype=np.complex128), state.step_index + 1)


def distribution(state: WalkState) -> np.ndarray:
    """Per-vertex probabilities: sum over coin labels of |amplitude|^2.

    The sum over vertices equals the squared norm of the state (1 only
    under unitary evolution).
    """
    return _probabilities(state.amplitudes, state.d)


def _probabilities(amps: np.ndarray, d: int, scratch: np.ndarray | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Sum over coin labels of |amplitude|^2, as a new array or into
    ``out``, an n-float64 row.  Label 0 is squared into it and each
    further label into ``scratch``, another such row, then added to it: the additions sum(axis=0) makes, in its order,
    so the sums keep its bits.  Real amplitudes are squared as they are:
    x * x has the bits of |x|^2 for every x but nan, whose sign bit abs
    clears."""
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
    """Per-step records of a walk run, plus the final state, which gives n
    and d: every record must hold n probabilities."""

    def __init__(self, records: list[TrajectoryRecord], final_state: WalkState):
        for rec in records:
            if rec.probabilities.shape != (final_state.n,):
                raise ConfigError(
                    f"record of step {rec.step} has probabilities of shape"
                    f" {rec.probabilities.shape}; the final state has n = {final_state.n}"
                )
        self.records = records
        self.final_state = final_state

    @property
    def n(self) -> int:
        return self.final_state.n

    @property
    def d(self) -> int:
        return self.final_state.d

    def norms(self) -> list[float]:
        return [rec.norm2 for rec in self.records]

    def to_csv_text(self) -> str:
        """CSV rows (step, 1-based vertex, probability, squared norm).

        Floats are written exactly as repr writes them (the shortest
        round-trip form), so equal trajectories serialize byte-for-byte
        identically; the probabilities are formatted by an array kernel.
        """
        return "".join(csv_chunks(self.n, self.records))


# The fewest arcs n*d at which a walk makes its records on a second
# thread: below it the hand-off between the threads costs more than the
# overlap saves (the measured crossover is in ROADMAP's Dropped list).
_THREAD_ARCS = 2**16


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Recorder:
    """Makes the probabilities and squared norm of the state buffer that
    put() hands it, which take() returns: on a thread of its own when
    ``threaded``, so that the caller's next step runs meanwhile, else in
    take() itself.  One buffer is in hand at a time.  Two locks hand it
    over and the record back, each held while its side has nothing to
    do; stop() ends the thread."""

    def __init__(self, d: int, n: int, threaded: bool):
        self._d, self._scratch = d, np.empty(n)
        self._amps = self._out = self._made = self._thread = None
        if threaded:
            self._given, self._done = threading.Lock(), threading.Lock()
            self._given.acquire()
            self._done.acquire()
            self._thread = threading.Thread(target=self._serve, name="rotwalk-records", daemon=True)
            self._thread.start()

    def _measure(self) -> tuple:
        probabilities = _probabilities(self._amps, self._d, self._scratch, self._out)
        return _read_only(probabilities), _norm2(self._amps)

    def _serve(self) -> None:
        # errstate is per thread: the records of evolved amplitudes carry
        # their overflows silently here too.
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                self._given.acquire()
                if self._amps is None:
                    return
                try:
                    self._made = self._measure()
                except BaseException as error:  # raised again by take(), on the caller's thread
                    self._made = error
                self._done.release()

    def put(self, amps: np.ndarray) -> None:
        # The record's array is made here, on the caller's thread: freed,
        # memory that a thread allocated goes back to that thread's malloc
        # arena, where a later walk's thread may not find it again.
        self._amps, self._out = amps, np.empty_like(self._scratch)
        if self._thread is not None:
            self._given.release()

    def take(self) -> tuple:
        if self._thread is None:
            made = self._measure()
        else:
            self._done.acquire()
            made = self._made
        self._amps = self._out = self._made = None
        if isinstance(made, BaseException):
            raise made
        return made

    def stop(self, _finalizing=sys.is_finalizing) -> None:
        """End the thread once it has made the record in hand, if any.
        While the interpreter shuts down, the thread is not waited for,
        since a daemon thread may not run again then.  A stream never
        closed is collected then, after the module globals, which is why
        the check is bound as a default."""
        if self._thread is not None:
            if self._amps is not None:
                self._done.acquire()
            self._amps = None
            self._given.release()
            if not _finalizing():
                self._thread.join()


def stream_records(
    state: WalkState, coin: CoinOperator, shift: ShiftOperator, t: int
) -> Iterator[TrajectoryRecord]:
    """The record loop: the records of steps 0..t, each yielded as soon as
    it exists, with a read-only probabilities array of its own.  The
    generator returns the buffer that holds the last state as it is,
    float64 on a real walk: only run() makes a complex128 final state of
    it.

    t and the operators are checked here, before the first record, so a
    refused walk has produced nothing.  The walk evolves in three buffers
    of the evolution dtype, made once (and once more, as complex128, on a
    switch to complex arithmetic): two states and the coin's output.
    Step k+1 is computed from the buffer that holds state k into the
    other one while record k is made from state k; record k is taken
    before it is yielded, and before step k+2 writes its buffer again.
    On a walk of at least _THREAD_ARCS arcs, in a process that may run on
    more than one CPU, the record is made on a second thread, overlapping
    the step; otherwise it is made after the step, on the caller's
    thread, since a smaller step cannot hide the hand-off between the
    threads (about 0.04 ms) and one CPU cannot run both at once.  The
    thread starts with the first record; no thread outlives the
    generator, and none works while it waits at a yield.
    """
    (t,) = _integers(ConfigError, "step count", (t,))
    if t < 0:
        raise ConfigError(f"step count must be >= 0, got {t}")
    _check_operators(coin, shift, state)

    def loop(amps: np.ndarray, start: int, d: int):
        matrix, amps = _evolvable(coin, amps)
        other, coined = np.empty_like(amps), np.empty_like(amps)
        recorder = _Recorder(d, len(amps) // d, len(amps) >= _THREAD_ARCS and _cpus() > 1)
        try:
            for k in range(t + 1):
                recorder.put(amps)
                # Evolved amplitudes are data: on an inconsistent map they
                # may overflow to inf and nan, which the records carry.
                with np.errstate(over="ignore", invalid="ignore"):
                    if k < t:
                        _step(amps, matrix, shift, coined, other)
                    probabilities, norm2 = recorder.take()
                    # A non-finite squared norm means a non-finite amplitude
                    # may be there, and a complex product takes its 0 * inf
                    # to nan: step k+1 is made again in complex arithmetic.
                    if amps.dtype == np.float64 and not np.isfinite(norm2):
                        matrix, amps = coin.matrix, amps.astype(np.complex128)
                        other, coined = np.empty_like(amps), np.empty_like(amps)
                        if k < t:
                            _step(amps, matrix, shift, coined, other)
                if k < t:
                    amps, other = other, amps
                yield TrajectoryRecord(start + k, probabilities, norm2)
        finally:
            recorder.stop()
        return amps

    return loop(state.amplitudes, state.step_index, state.d)


def run(state: WalkState, coin: CoinOperator, shift: ShiftOperator, t: int) -> WalkTrajectory:
    """Evolve t steps, recording the initial state and every step after it:
    the records of stream_records(), collected."""
    records = []
    loop = stream_records(state, coin, shift, t)
    try:
        while True:
            records.append(next(loop))
    except StopIteration as end:
        amps = np.asarray(end.value, dtype=np.complex128)
    final = _evolved(state, amps, state.step_index + t) if t else state
    return WalkTrajectory(records, final)
