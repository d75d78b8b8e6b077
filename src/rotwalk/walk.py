"""Walk evolution: states, single steps, trajectories, distributions.

One step applies the coin first (the d x d coin matrix acting on the
coin index, identically at every vertex) and the shift second.  States
are dense complex vectors of length d*n in coin-major order; see the
operators module for the ordering convention.

step() and run() share one kernel on raw amplitude vectors: the coin is
a (d x d) @ (d x n) matrix product and the shift is a gather for a
consistent map (``np.add.at`` only for an inconsistent one).  run()
checks the operators once, keeps the amplitudes as a bare array between
steps and wraps only the final state in a WalkState.

run() collects the records of one private generator, the record loop;
the CLI streams the same records to its output as they are made, so its
memory stays O(n*d) at any step count.  Both write CSV rows with one
per-record formatter.

A trajectory records, for steps 0..t, the per-vertex probability list
and the squared norm.  For a consistent rotation map the squared norm
stays at 1 (up to accumulated rounding, tolerance 1e-9 over <= 1e3
steps); for inconsistent maps the squared-norm drift is the interesting
output and is reported as data, never "fixed up" by renormalization.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .operators import CoinOperator, ShiftOperator
from .version import REPORT_VERSION


class WalkState:
    """Amplitudes over (coin label, vertex) pairs plus a step counter.

    Amplitudes a caller supplies must be finite.  A state the evolution
    produces is data and is never refused: on an inconsistent map its
    amplitudes may grow until they overflow.
    """

    __slots__ = ("n", "d", "amplitudes", "step_index")

    def __init__(self, n: int, d: int, amplitudes: np.ndarray, step_index: int = 0):
        amps = np.array(amplitudes, dtype=np.complex128)
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
        return _norm2(self.amplitudes)

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
    if n < 1 or d < 1:
        raise ConfigError("state needs n >= 1 and d >= 1")
    support = list(support)
    if not support:
        raise ConfigError("initial state needs at least one support entry")
    amps = np.zeros(d * n, dtype=np.complex128)
    # Finite amplitudes can still overflow their sum or the norm; then the
    # norm is inf and the state is refused below.
    with np.errstate(over="ignore"):
        for label, vertex, amplitude in support:
            if not (0 <= label < d):
                raise ConfigError(f"coin label {label} out of range 0..{d - 1}")
            if not (0 <= vertex < n):
                raise ConfigError(f"vertex {vertex} out of range 0..{n - 1}")
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
    if n < 1 or d < 1:
        raise ConfigError("state needs n >= 1 and d >= 1")
    amps = np.ones(d * n, dtype=np.complex128)
    return WalkState(n, d, amps / np.linalg.norm(amps))


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
        return _evolved(state, _coin(operator, state.amplitudes), state.step_index)
    raise ConfigError(f"cannot apply object of type {type(operator).__name__} to a state")


def _check_coin(coin: CoinOperator, state: WalkState) -> None:
    if coin.d != state.d:
        raise ConfigError(f"coin dimension {coin.d} != state coin dimension {state.d}")


def _check_shift(shift: ShiftOperator, state: WalkState) -> None:
    if (shift.n, shift.d) != (state.n, state.d):
        raise ConfigError(f"shift is {shift.d} x {shift.n}, state is {state.d} x {state.n}")


def _coin(coin: CoinOperator, amps: np.ndarray) -> np.ndarray:
    return (coin.matrix @ amps.reshape(coin.d, -1)).reshape(-1)


def _step(amps: np.ndarray, coin: CoinOperator, shift: ShiftOperator) -> np.ndarray:
    """One coin-then-shift step on a bare amplitude vector (dimensions checked by the caller)."""
    return shift.apply(_coin(coin, amps))


def step(state: WalkState, coin: CoinOperator, shift: ShiftOperator) -> WalkState:
    """One evolution step: coin first, then shift."""
    _check_coin(coin, state)
    _check_shift(shift, state)
    return _evolved(state, _step(state.amplitudes, coin, shift), state.step_index + 1)


def inverse_step(state: WalkState, coin: CoinOperator, shift: ShiftOperator) -> WalkState:
    """Undo one step: shift transpose first, then coin inverse.

    Exactly inverts step() when the shift is unitary (consistent map).
    """
    if (shift.n, shift.d) != (state.n, state.d) or coin.d != state.d:
        raise ConfigError("operator dimensions do not match the state")
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


def _probabilities(amps: np.ndarray, d: int) -> np.ndarray:
    return (np.abs(amps.reshape(d, -1)) ** 2).sum(axis=0)


def _norm2(amps: np.ndarray) -> float:
    return float(np.vdot(amps, amps).real)


@dataclass(frozen=True)
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

        Floats are written with repr (shortest round-trip form), so equal
        trajectories serialize byte-for-byte identically.
        """
        return "".join(_csv_chunks(self.n, self.records))

    def to_report(self) -> dict:
        """JSON-ready mirror of the trajectory."""
        return {
            "version": REPORT_VERSION,
            "n": self.n,
            "d": self.d,
            "steps": [
                {
                    "step": rec.step,
                    "norm2": rec.norm2,
                    "probabilities": rec.probabilities.tolist(),
                }
                for rec in self.records
            ],
        }


def _csv_chunks(n: int, records: Iterable[TrajectoryRecord]) -> Iterator[str]:
    """The CSV header, then the rows of each record as one string."""
    yield "step,vertex,probability,norm2\n"
    vertices = [f",{v + 1}," for v in range(n)]
    for rec in records:
        head, tail = str(rec.step), f",{rec.norm2!r}\n"
        yield "".join([f"{head}{v}{p!r}{tail}" for v, p in zip(vertices, rec.probabilities.tolist())])


def _records(
    state: WalkState, coin: CoinOperator, shift: ShiftOperator, t: int
) -> Iterator[TrajectoryRecord]:
    """The record loop: the records of steps 0..t, each yielded as soon as
    it exists; the generator returns the final amplitude vector.

    t and the operators are checked here, before the first record, so a
    refused walk has produced nothing.
    """
    if t < 0:
        raise ConfigError(f"step count must be >= 0, got {t}")
    _check_coin(coin, state)
    _check_shift(shift, state)

    def loop(amps: np.ndarray, start: int, d: int):
        for k in range(t + 1):
            # Evolved amplitudes are data: on an inconsistent map they may
            # overflow to inf and nan, which the records carry silently.
            with np.errstate(over="ignore", invalid="ignore"):
                if k:
                    amps = _step(amps, coin, shift)
                record = TrajectoryRecord(start + k, _probabilities(amps, d), _norm2(amps))
            yield record
        return amps

    return loop(state.amplitudes, state.step_index, state.d)


def run(state: WalkState, coin: CoinOperator, shift: ShiftOperator, t: int) -> WalkTrajectory:
    """Evolve t steps, recording the initial state and every step after it."""
    records = []
    loop = _records(state, coin, shift, t)
    try:
        while True:
            records.append(next(loop))
    except StopIteration as end:
        amps = end.value
    final = _evolved(state, amps, state.step_index + t) if t else state
    return WalkTrajectory(state.n, state.d, records, final)
