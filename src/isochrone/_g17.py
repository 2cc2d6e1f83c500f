"""Exact ``%.17g`` for whole float64 arrays, written as CSV bytes.

``csv_rows(columns)`` yields, chunk by chunk, the bytes of the CSV rows
``"%.17g,%.17g,...\\n" % row``: every cell is byte for byte what CPython's
correctly rounded ``%.17g`` gives, but most are formatted in numpy
arithmetic instead of one ``%`` call each.

Digits.  For 1e-280 <= |x| <= 1e280 with decimal exponent k
(10^k <= |x| < 10^(k+1), exact from a table compare), y = |x| 10^(16-k)
lies in [1e16, 1e17).  It is formed as a double-double: 10^q is stored as
hi + lo, and Dekker's (1971) error-free product gives |x| hi = p + e
exactly, so y = p + (e + |x| lo) to within 2^-47.  p is a whole number, so
the 17-digit integer D and the fraction f come from the small low part.  A
cell whose f is more than 2^-40 from 1/2 rounds to D or D + 1 whichever way
the error goes, so its digits are exact.  Every other cell (near-ties and
exact ties, +-0, subnormals, inf, nan and |x| outside [1e-280, 1e280])
takes CPython's ``%.17g`` one at a time; no cell's bytes come from an
uncertified estimate.

Layout.  Each cell gets one row of a uint8 matrix: sign, the ``0.000``
prefix of fixed notation below 1, the digits with the point put in and
trailing zeros dropped, the ``e+XX`` suffix, and the separator.  Unused
slots hold 0, and the 0 bytes are dropped at the end.

Rows go in chunks of ``CHUNK``, so every temporary stays under glibc's
default 128 KiB mmap threshold and comes from the heap, not from a fresh
mapping that page-faults on first touch.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

import numpy as np

CHUNK = 512

_PAD = 0
_WIDTH = 30       # sign 1, prefix 5, body 18, suffix 5, separator 1
_BODY = slice(6, 24)
_Q0 = 300         # the tables hold decimal exponents -_Q0 .. _Q0
_LIMIT = 1e280    # |x| range formatted in numpy: [1 / _LIMIT, _LIMIT]
_CERTIFIED = 2.0 ** -40
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant


@functools.lru_cache(maxsize=None)
def _tables() -> tuple:
    """Read-only tables, built on first use from exact integers.

    ``pow10`` holds five arrays indexed by q + _Q0: hi and lo with
    10^q = hi + lo to within |lo| 2^-53, hi split in halves for Dekker's
    product, and the least double >= 10^q.  ``groups[n]`` is the four ASCII
    digits of n packed into a uint32.  Indexed by the decimal exponent
    X + _Q0: ``template``, the matrix row with the prefix and suffix of
    ``%.17g``; ``frac_start``, the index of the first digit after the point;
    ``point``, the point byte.
    """
    exps = range(-_Q0, _Q0 + 1)
    hi, lo = np.empty(len(exps)), np.empty(len(exps))
    for i, q in enumerate(exps):
        num, den = 10 ** max(q, 0), 10 ** max(-q, 0)
        hi[i] = num / den                   # correctly rounded int division
        h_num, h_den = hi[i].as_integer_ratio()
        lo[i] = (num * h_den - h_num * den) / (den * h_den)
    big = _SPLIT * hi - (_SPLIT * hi - hi)
    ceil = np.where(lo > 0.0, np.nextafter(hi, np.inf), hi)
    pow10 = (hi, lo, big, hi - big, ceil)
    n = np.arange(10000, dtype=np.int64)
    ascii4 = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    groups = (ascii4 + 48).astype(np.uint8).view(np.uint32).ravel()
    template = np.zeros((len(exps), _WIDTH), np.uint8)
    frac_start = np.ones(len(exps), np.uint8)
    point = np.full(len(exps), ord("."), np.uint8)
    for i, x in enumerate(exps):
        if 0 <= x < 17:            # fixed notation, point after digit x
            frac_start[i] = x + 1
        elif -4 <= x < 0:          # fixed notation below 1: 0.000ddd
            prefix = b"0." + b"0" * (-x - 1)
            template[i, 1:1 + len(prefix)] = list(prefix)
            frac_start[i], point[i] = 0, _PAD
        else:                      # exponent notation, point after digit 0
            suffix = b"e%+03d" % x
            template[i, 24:24 + len(suffix)] = list(suffix)
    tables = (pow10, groups, template, frac_start, point)
    for table in (*pow10, *tables[1:]):
        table.setflags(write=False)
    return tables


def _format_cells(v: np.ndarray, seps: np.ndarray) -> bytes:
    """The bytes of ``"%.17g" % v[i]``, each followed by the byte ``seps[i]``."""
    (hi10, lo10, big10, small10, ceil10), groups, template, frac_start, point = _tables()
    a = np.abs(v)
    ok = (a >= 1.0 / _LIMIT) & (a <= _LIMIT)  # False for 0, nan, inf, subnormals
    a = np.where(ok, a, 1.0)                  # so no lane can warn or overflow
    k = np.floor(np.log10(a)).astype(np.int64)
    # log10 may be one off next to a power of ten; 10^k <= a < 10^(k+1) exactly.
    i = k + _Q0
    k -= a < ceil10[i]
    k += a >= ceil10[i + 1]

    # y = a 10^(16 - k) = p + t, to within 2^-47; p is a whole number.
    i = (16 + _Q0) - k
    p = a * hi10[i]
    a_big = _SPLIT * a
    a_big -= a_big - a
    a_small = a - a_big
    big, small = big10[i], small10[i]
    t = ((a_big * big - p) + a_big * small + a_small * big) + a_small * small
    t += a * lo10[i]
    t_floor = np.floor(t)
    f = t - t_floor
    exact = ok & (np.abs(f - 0.5) > _CERTIFIED)
    d = p.astype(np.int64) + t_floor.astype(np.int64) + (f > 0.5)
    carry = d == np.int64(10**17)            # 99..9.5 rounds to the next decade
    d[carry] = np.int64(10**16)
    k += carry

    # The 17 ASCII digits, one row per digit so that the masks below
    # broadcast along the cells: the leading one, then four groups of four
    # from the table.
    top = d // np.int64(10**16)
    d -= top * np.int64(10**16)
    high = d // np.int64(10**8)
    low = d - high * np.int64(10**8)
    quads = np.empty((4, len(d)), np.int64)
    quads[0] = high // np.int64(10**4)
    quads[1] = high - quads[0] * np.int64(10**4)
    quads[2] = low // np.int64(10**4)
    quads[3] = low - quads[2] * np.int64(10**4)
    digits = np.empty((17, len(d)), np.uint8)
    digits[0] = top
    digits[0] += np.uint8(48)
    digits[1:] = groups[quads].view(np.uint8).reshape(4, -1, 4) \
        .transpose(0, 2, 1).reshape(16, -1)

    # Digits before fs are the integer part (none below 1); the fraction keeps
    # its digits up to the last nonzero one, and the point only if any remain.
    slot = np.arange(18, dtype=np.uint8)[:, None]
    end = ((digits != np.uint8(48)) * slot[:17]).max(axis=0)
    row = k + _Q0
    fs = frac_start[row]
    cut = np.maximum(fs, end + np.uint8(1))
    body = np.zeros((18, len(v)), np.uint8)
    np.multiply(digits, slot[:17] < fs, out=body[:17])
    body[1:] += digits * ((slot[1:] > fs) & (slot[1:] <= cut))
    body += (point[row] * (cut > fs)) * (slot == fs)

    out = np.take(template, row, axis=0)
    out[:, 0] = v < 0.0
    out[:, 0] *= np.uint8(ord("-"))
    out[:, _BODY] = body.T
    for j in np.flatnonzero(~exact):
        text = ("%.17g" % v[j]).encode("ascii")
        out[j, :-1] = _PAD
        out[j, :len(text)] = np.frombuffer(text, np.uint8)
    out[:, -1] = seps
    flat = out.ravel()
    return flat[flat != _PAD].tobytes()


def csv_rows(columns: Sequence[np.ndarray]) -> Iterator[bytes]:
    """The CSV rows of equal-length float64 ``columns``, CHUNK rows at a time.

    Each cell is the bytes of ``"%.17g" % value``; cells are separated by
    commas and every row ends in a newline.
    """
    row_seps = np.full(len(columns), ord(","), np.uint8)
    row_seps[-1] = ord("\n")
    seps = np.tile(row_seps, CHUNK)
    for start in range(0, len(columns[0]), CHUNK):
        block = np.stack([c[start:start + CHUNK] for c in columns], axis=1).ravel()
        yield _format_cells(block, seps[:len(block)])
