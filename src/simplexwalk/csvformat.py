"""CSV data rows whose cells are byte for byte ``"%.12g" % x``, from numpy.

``%`` formats one float per interpreted call; here a block of cells takes a
few dozen array operations.  As in Ryu (Adams, PLDI 2018), the digits are an
integer mantissa with the ties handled exactly: with e = floor(log10|x|), the
12 significant digits of |x| are m = rint(|x| 10^(11 - e)), which one float
multiplication by a correctly rounded power of ten gives exactly unless the
scaled value lies within ``_TIE_MARGIN`` of a rounding tie; m = 10^12
carries into e.

Each cell is five uint64 words of bytes in string order, NUL-padded: a
prefix (the sign, or "0." and zeros), three words of digits with a free byte
after each digit for the '.', and a suffix (the exponent, then ',' or
'\n').  Trailing zeros are masked off, and one ``bytes.translate`` drops the
NULs.  Cells that the vectorised path cannot certify go through ``%`` one at
a time: 0, -0, nan, +-inf, |x| outside [1e-280, 1e280] and the near-ties
(about 0.2% of cells).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

#: Cells formatted per block: the temporaries of long series stay bounded.
_BLOCK_CELLS = 4096

#: The scaled mantissa's float error is below 3.3e-4 (two roundings of a
#: value below 1e12); a cell closer than this to a tie goes through ``%``.
_TIE_MARGIN = 1e-3


class _Tables(NamedTuple):
    pow10: np.ndarray  # pow10[k + 300] = float("1e<k>"), correctly rounded
    groups: np.ndarray  # the 4-digit group g as "d\0d\0d\0d\0"
    # digits[g + 10000 i] = 4 i + the digits of g before its trailing zeros,
    # negative for g = 0: the largest over a mantissa's three groups i is its
    # count of significant digits
    digits: np.ndarray
    keep: np.ndarray  # keep[n]: the first n digits of the 3-word digit field
    point: np.ndarray  # point[k]: '.' after digit k; point[12] none
    prefix: np.ndarray  # prefix[5 * negative + z]: the sign, then "0." and z - 1 zeros
    suffix: np.ndarray  # suffix[0] none; suffix[X + 301] = "e%+03d" % X
    separator: np.ndarray  # ',' and '\n', in the last byte of a word


def _words(texts: list[bytes], width: int) -> np.ndarray:
    """Each text NUL-padded to ``width`` uint64 words, one row per text."""
    padded = b"".join(t.ljust(8 * width, b"\0") for t in texts)
    return np.frombuffer(padded, np.uint64).reshape(len(texts), width)


# built on the first CSV, not at import: commands without CSV never pay for it
@functools.cache
def _tables() -> _Tables:
    g = np.arange(10_000)
    groups = np.zeros((10_000, 8), np.uint8)
    for k, place in enumerate((1000, 100, 10, 1)):
        groups[:, 2 * k] = g // place % 10 + 48
    digits = np.full(10_000, 4, np.int8)
    for place in (10, 100, 1000):
        digits -= g % place == 0
    digits[0] = -12
    return _Tables(
        pow10=np.array([float(f"1e{k}") for k in range(-300, 301)]),
        groups=groups.view(np.uint64).ravel(),
        digits=np.concatenate([digits, digits + 4, digits + 8]),
        keep=_words([b"\xff" * 2 * n for n in range(13)], 3),
        point=_words([b"\0" * (2 * k + 1) + b"." for k in range(12)] + [b""], 3),
        prefix=_words([sign + zeros for sign in (b"", b"-")
                       for zeros in (b"", b"0.", b"0.0", b"0.00", b"0.000")], 1)[:, 0],
        suffix=_words([b""] + [b"e%+03d" % x for x in range(-300, 301)], 1)[:, 0],
        separator=_words([b"\0" * 7 + b",", b"\0" * 7 + b"\n"], 1)[:, 0],
    )


def _cells(values: np.ndarray, last: np.ndarray) -> str:
    """``"%.12g" % x`` for each value, followed by ',' or, where ``last`` is
    1, by '\\n'."""
    tab = _tables()
    mag = np.abs(values)
    slow = ~((mag >= 1e-280) & (mag <= 1e280))
    mag[slow] = 1.0
    # log10's rounding can set e one too high just below a power of ten, where
    # m then rounds to exactly 10^11, or one too low just above, where m
    # rounds to 10^12 and carries: either way the digits are right
    e = np.floor(np.log10(mag)).astype(np.intp)
    scaled = mag * tab.pow10.take(311 - e)
    mantissa = np.rint(scaled)
    slow |= np.abs(scaled - mantissa) > 0.5 - _TIE_MARGIN
    carry = mantissa == 1e12
    mantissa[carry] = 1e11
    e += carry
    # the 4-digit groups, exact in float: every value is an integer below 1e12
    groups = np.empty((len(values), 3))
    groups[:, 0] = np.floor(mantissa / 1e8)
    groups[:, 1] = np.floor(mantissa / 1e4)
    groups[:, 2] = mantissa - groups[:, 1] * 1e4
    groups[:, 1] -= groups[:, 0] * 1e4
    groups = groups.astype(np.intp)
    digits = tab.digits.take(groups + [0, 10_000, 20_000])
    n = np.maximum(np.maximum(digits[:, 0], digits[:, 1]), digits[:, 2])
    fixed = (-4 <= e) & (e < 12)
    point = np.where(fixed, e, 0)  # '.' follows this digit; none when negative
    n = np.maximum(n, point + 1)  # fixed notation keeps its integer digits
    cells = np.empty((len(values), 5), np.uint64)
    cells[:, 0] = tab.prefix.take(5 * (values < 0) + np.where(fixed & (e < 0), -e, 0))
    cells[:, 1:4] = (tab.groups.take(groups) & tab.keep.take(n, axis=0)
                     | tab.point.take(np.where((point >= 0) & (n > point + 1), point, 12), axis=0))
    cells[:, 4] = tab.suffix.take(np.where(fixed, 0, e + 301)) | tab.separator.take(last)
    slow = np.flatnonzero(slow)
    if len(slow):
        cells[slow, :4] = _words([b"%.12g" % x for x in values[slow].tolist()], 4)
        cells[slow, 4] = tab.separator.take(last[slow])
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def format_rows(table: np.ndarray) -> str:
    """One line of comma-separated ``"%.12g"`` cells per row of a 2-D table,
    each line ending in '\\n'; ``_BLOCK_CELLS`` cells at a time."""
    cells = table.ravel()
    width = table.shape[1]
    parts = []
    for start in range(0, len(cells), _BLOCK_CELLS):
        block = cells[start:start + _BLOCK_CELLS]
        last = (np.arange(start, start + len(block)) % width == width - 1).astype(np.intp)
        parts.append(_cells(block, last))
    return "".join(parts)
