"""Text I/O: the two table formats and a walk trajectory's text.

Every text reader, writer and float formatter of the package is here;
the modules that hold the data call them.

* Tables.  The edge-list format (graphs.py) and the rotation-map format
  (rotmap.py) are an 'n d' header line followed by lines of
  whitespace-separated integers.  ``_read_table`` reads either from its
  UTF-8 bytes into int64 arrays in one pass of array operations; each
  parser then checks its body lines as masks and words a message only
  for the first bad line in document order.  ``_write_table`` writes
  either.
* Trajectories.  ``csv_chunks`` writes a walk's records as CSV rows
  (step, 1-based vertex, probability, squared norm), one string per
  record, and ``joined_floats`` writes the probabilities of the CLI's
  JSON trajectory.  Both write each float exactly as repr does, with one
  array kernel (``_float_text``) and a per-value fallback for the values
  outside its range.

It depends on NumPy and the errors module only.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import FormatError


def _byte_classes(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each UTF-8 byte is whitespace (ASCII ``str.isspace``: 9-13,
    28-32) and whether it ends a line (ASCII ``str.splitlines``: 10-13,
    28-30); a byte >= 128 is neither.  ``codes - lo`` wraps for a byte below lo."""
    is_space = (codes - 9 <= 4) | (codes - 28 <= 4)
    ends = (codes - 10 <= 3) | (codes - 28 <= 2)
    return is_space, ends


class _Table(NamedTuple):
    """A document read as its 'n d' header and a body of integer fields.

    Body line i (0-based, document order, comment and blank lines left
    out) is line ``lines[i]`` (1-based) of the document and holds
    ``widths[i]`` fields.  ``values`` holds every body field in order as
    int64, 0 where a field is not an integer; ``integral[i]`` says
    whether every field of line i is one.
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
        table = np.zeros((len(fit), k), dtype=np.int64)
        table[fit] = self.values[starts[fit, None] + np.arange(k)]
        return table


def _read_table(text: str | bytes) -> _Table:
    """Read a header-plus-integer-lines document from its UTF-8 bytes
    (``text`` itself, or a str encoded to them).

    Lines end at the ASCII line ends of ``str.splitlines`` ("\\r\\n" is
    one); fields are the runs between ASCII whitespace; a blank line, or
    one whose first field starts with '#', is left out.  Every field of
    the header and the body is an integer iff it matches
    ``-?[0-9]{1,18}``.  Header errors are raised here; the body is
    checked by the caller.
    """
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")
    codes = np.frombuffer(text, dtype=np.uint8)
    is_space, ends = _byte_classes(codes)
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
    values, ok = _decimal_integers(codes, is_space, starts, stops, kept)
    if not ok[:2].all():
        raise FormatError("header must be two integers", line=header_line)
    n, d = values[:2].tolist()
    if n < 1 or d < 1:
        raise FormatError("header requires n >= 1 and d >= 1", line=header_line)
    # A body line is integral when all its fields are; opens[0] is the header.
    integral = np.logical_and.reduceat(ok, opens)[1:]
    return _Table(n, d, header_line, lines[1:], widths[1:], integral, values[2:])


# A field of at most this many ASCII digits is below 10**18 < 2**63.
_MAX_DIGITS = 18


def _decimal_integers(codes, is_space, starts, stops, fields) -> tuple[np.ndarray, np.ndarray]:
    """The int64 values of ``fields`` (indices into ``starts``/``stops``)
    and whether each is an integer: an optional '-', then 1 to
    ``_MAX_DIGITS`` ASCII digits.  A field that is not one reads 0.

    Digit by digit, one ``values * 10 + digit`` pass per position."""
    other = np.flatnonzero((codes - ord("0") > 9) & ~is_space)  # wraps below '0'
    field_of_other = np.searchsorted(starts, other, side="right") - 1
    sign = (other == starts[field_of_other]) & (codes[other] == ord("-"))  # a leading '-'
    bad = np.zeros(len(starts), dtype=bool)
    bad[field_of_other[~sign]] = True
    stop = stops[fields]
    negative = codes[starts[fields]] == ord("-")
    start = starts[fields] + negative  # the first digit
    ok = ~bad[fields] & (start < stop) & (stop - start <= _MAX_DIGITS)
    values = np.zeros(len(fields), dtype=np.int64)
    for k in range(int((stop - start)[ok].max(initial=0)), 0, -1):
        at = stop - k
        digit = codes.take(at, mode="clip") - ord("0")
        digit[at < start] = 0
        values *= 10
        values += digit
    values[~ok] = 0
    np.negative(values, out=values, where=negative)
    return values, ok


def _write_table(n: int, d: int, rows: np.ndarray) -> str:
    """The 'n d' header line, then one line per row of 0-based ``rows``, 1-based."""
    template = " ".join(["%d"] * rows.shape[1]) + "\n"
    return f"{n} {d}\n" + (template * len(rows)) % tuple((rows + 1).ravel().tolist())


def csv_chunks(n: int, records: Iterable) -> Iterator[str]:
    """The CSV header, then the rows of each record (a walk's
    TrajectoryRecord, on n vertices) as one string."""
    yield "step,vertex,probability,norm2\n"
    digits = np.arange(1, n + 1).astype(f"S{len(str(n))}").view(np.uint8).reshape(n, -1)
    # The commas around each number are laid out here, once per walk:
    # each further block of a row costs every record another copy.
    vertices = np.hstack([_repeated(",", n), digits, _repeated(",", n)])
    for rec in records:
        yield _joined_rows(
            [str(rec.step), vertices, _float_text(rec.probabilities), f",{rec.norm2!r}\n"]
        )


def joined_floats(values: np.ndarray, separator: str, fallback) -> str:
    """The floats of a nonempty 1-d array as repr writes them (those outside
    the kernel's range as ``fallback`` does), joined by ``separator``."""
    return _joined_rows([_float_text(values, fallback), separator])[: -len(separator)]


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
_DIGITS_LO, _DIGITS_HI = 10**16, 10**17


class _KernelTables(NamedTuple):
    """The float kernel's tables: 10^k as doubles, k = 0..22, and their
    Veltkamp halves; 5^k as int64; "0000" .. "9999" as uint32 words, to
    write four digits with one gather, and the same without their
    trailing zeros, NUL-padded."""

    pow10: np.ndarray
    pow10_hi: np.ndarray
    pow10_lo: np.ndarray
    pow5: np.ndarray
    quads: np.ndarray
    bare_quads: np.ndarray


@cache
def _kernel_tables() -> _KernelTables:
    """The tables, built on the first float write: a command that writes
    no float never pays for them."""
    pow10 = np.array([float(10**k) for k in range(23)])
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    significant = np.logical_or.accumulate(digits[:, ::-1] > 0, axis=1)[:, ::-1]
    return _KernelTables(
        pow10,
        *_split(pow10),
        np.array([5**k for k in range(23)], dtype=np.int64),
        (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel(),
        np.where(significant, digits + ord("0"), 0).astype(np.uint8).view(np.uint32).ravel(),
    )


def _split(a):
    """Veltkamp's split of doubles into 26- and 27-bit halves."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _scaled(ax: np.ndarray, e: np.ndarray):
    """ax * 10^(16-e) as an exact int64 part and fraction (Dekker 1971)."""
    k = 16 - e
    tables = _kernel_tables()
    p = ax * tables.pow10[k]
    ahi, alo = _split(ax)
    bhi, blo = tables.pow10_hi[k], tables.pow10_lo[k]
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
    gap = _kernel_tables().pow5[k] << np.maximum(t, 0)
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
    tables = _kernel_tables()
    words = np.stack([tables.quads[q] for q in quads], axis=1)
    # The same with the trailing zeros of the last nonzero quad, and every
    # quad after it, written as NULs.
    bare = words.copy()
    zeros_after = np.ones(len(c), bool)
    for j in range(4, 0, -1):
        bare[zeros_after, j] = tables.bare_quads[quads[j][zeros_after]]
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
