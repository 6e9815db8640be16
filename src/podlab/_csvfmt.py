"""CSV text of float columns: the one ``%.9g`` encoder of every CSV artifact.

``format_text``, the encoder's only entry point, gives the whole text, which
the CLI writes as is.  The text is byte for byte what CPython's ``'%.9g' % v``
prints, but most values are encoded with numpy, one column of up to
``_SPAN`` rows at a time.  Only the first value of each run of bitwise-equal
values is encoded, and its field is copied down the run; so ``0.0`` and
``-0.0``, or two nan payloads, are separate runs.  For a finite value with
decimal exponent
``X = floor(log10|v|)`` in [-14, 30], ``10**|8 - X|`` is an exact double, so
``s = |v| * 10**(8 - X)`` is one correctly rounded operation and lies within
half an ulp (below 6e-8) of the exact product.  Unless the fraction of ``s``
is within 1e-6 of one half, ``rint(s)`` is then the 9-digit mantissa that
CPython's correctly rounded conversion (Gay 1990) prints.  A floor one too
high (``log10`` rounding up to an integer) is only possible within a few
ulps of a power of ten, where both exponents print the same text; one too
low gives ``s >= 1e9`` and is caught.  Each field is laid out from a byte
pattern keyed on ``X``, the digits left after stripping trailing zeros, the
sign and whether it ends the row, with keys of its own for ``0`` and ``-0``;
its unused bytes are zero, and dropping them from a span's fields gives its
text.  A row holding any other value (nan, ±inf, ``X`` out of range, a
near-tie, a mantissa that rounds up to ``1e9``) is printed by CPython ``%``
instead.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# rows encoded and joined into one text at a time, which bounds the transient
# arrays and strings
_SPAN = 4096

_X_LO, _X_HI = -14, 30
_ZERO = _X_HI - _X_LO + 1  # exponent slot of "0" and "-0"
_N_KEYS = _ZERO * 18 + 2  # key 18 * slot + 2 * (n - 1) + sign, n significant digits
# |v| * _SCALE[slot] for X <= 8, |v| / _SCALE[slot] above: 10**22 is exact
_SCALE = 10.0 ** np.abs(8 - np.r_[_X_LO : _X_HI + 1, 8])
# each 3-digit group as ASCII, placed as mantissa digits 0-2, 3-5 and 6-7 of
# a little-endian low word, and digit 8 of the high word
_TEXT = np.frombuffer(b"".join(b"%03d\0\0\0\0\0" % g for g in range(1000)), "<u8")
_TEXT_0, _TEXT_1, _TEXT_2 = _TEXT, _TEXT << np.uint64(24), _TEXT << np.uint64(48)
_TEXT_8 = _TEXT >> np.uint64(16)
# 2 * (n - 1) for a nonzero first, second or third group, n counting the
# mantissa digits up to its last nonzero one; the largest of the three wins
_G = np.arange(1000)
_SIG_0, _SIG_1, _SIG_2 = (
    np.where(_G > 0, 2 * (3 * i + (_G % 10 > 0) + (_G % 100 > 0)), 0) for i in range(3)
)
_8, _56 = np.uint64(8), np.uint64(56)


def _patterns() -> list[np.ndarray]:
    """Per key, then per key ending a row: a 16-byte field as two words.

    Returns the literal bytes (lo, hi), the masks of the mantissa digits
    before the decimal point (lo, hi) and after it (lo, hi), and the shift,
    ``8 * offset``, that takes the first digit to its place.  Each pattern is
    read off CPython's own text of a value with mantissa digits 1..n.
    """
    texts = [
        "%.9g" % float(f"{sign}{'123456789'[:n]}e{x - n + 1}")
        for x in range(_X_LO, _X_HI + 1)
        for n in range(1, 10)
        for sign in ("", "-")
    ] + ["0", "-0"]
    halves = bytearray(), bytearray()
    for text in texts:
        lit, before, after = bytearray(16), bytearray(16), bytearray(16)
        mantissa = text.split("e")[0]
        start = max(text.find("1"), 0)
        for pos, ch in enumerate(text):
            if pos < len(mantissa) and ch in "123456789":
                digit = int(ch) - 1
                if pos - start - digit not in (0, 1):
                    raise AssertionError(f"{text!r} has more than two digit runs")
                (before if pos == start + digit else after)[digit] = 0xFF
            else:
                lit[pos] = ord(ch)
        for half, sep in zip(halves, b",\n"):
            lit[len(text)] = sep
            half += lit + before + after + (8 * start).to_bytes(8, "little")
    return list(np.frombuffer(halves[0] + halves[1], "<u8").reshape(-1, 7).T.copy())


_LIT_LO, _LIT_HI, _BEFORE_LO, _BEFORE_HI, _AFTER_LO, _AFTER_HI, _SHIFT = _patterns()


def _shl(lo: np.ndarray, hi: np.ndarray, bits) -> tuple[np.ndarray, np.ndarray]:
    """``hi:lo`` as 128-bit words shifted left by ``bits``, a multiple of 8 up to 56."""
    return lo << bits, (hi << bits) | ((lo >> _8) >> (_56 - bits))


def _mantissa(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponent slot and 9-digit mantissa of each value, and whether the
    array path prints it: False for zeros and for every value left to CPython."""
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.floor(np.log10(a))
        ok = (x >= _X_LO) & (x <= _X_HI)  # False for 0, subnormals, nan and ±inf
        slot = np.where(ok, x - _X_LO, _ZERO).astype(np.intp)
        s = np.where(slot <= 8 - _X_LO, a * _SCALE[slot], a / _SCALE[slot])
        m = np.rint(s)
        ok &= (np.abs(s - m) < 0.5 - 1e-6) & (m >= 1e8) & (m < 1e9)
    return slot, np.where(ok, m, 1e8).astype(np.intp), ok


def _words(v: np.ndarray, end: bool) -> tuple[np.ndarray, np.ndarray]:
    """Each value's 16-byte field as an ``(n, 2)`` word array, followed by a
    newline if ``end`` else a comma, and whether CPython must print it."""
    slot, m, ok = _mantissa(v)
    g0, g1, g2 = m // 1000000, m // 1000 % 1000, m % 1000
    key = 18 * slot + np.signbit(v) + np.maximum(np.maximum(_SIG_0[g0], _SIG_1[g1]), _SIG_2[g2])
    if end:
        key += _N_KEYS
    d_lo, d_hi = _TEXT_0[g0] | _TEXT_1[g1] | _TEXT_2[g2], _TEXT_8[g2]
    # the digits after the point move up one byte, which leaves it a gap
    after = _shl(d_lo & _AFTER_LO[key], d_hi & _AFTER_HI[key], _8)
    digits = (d_lo & _BEFORE_LO[key]) | after[0], (d_hi & _BEFORE_HI[key]) | after[1]
    lo, hi = _shl(*digits, _SHIFT[key])
    words = np.empty((v.size, 2), "<u8")
    words[:, 0] = _LIT_LO[key] | lo
    words[:, 1] = _LIT_HI[key] | hi
    return words, ~ok & (v != 0)


def _encode_column(v: np.ndarray, end: bool, out: np.ndarray) -> np.ndarray:
    """Write the fields of ``v`` to ``out`` and return whether CPython must
    print each value.

    Only the first value of each run of bitwise-equal values is encoded; its
    words are copied down the run.
    """
    bits = v.view(np.int64)
    first = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    words, fallback = _words(v[first], end)
    runs = np.diff(np.append(first, v.size))
    out[:] = np.repeat(words, runs, axis=0)
    return np.repeat(fallback, runs)


def _spans(columns: list[np.ndarray]) -> Iterator[str]:
    """The rows of ``columns``, ``_SPAN`` rows to a text, each row ending in
    a newline."""
    n_rows, n_cols = len(columns[0]), len(columns)
    fields = np.empty((min(n_rows, _SPAN), n_cols, 2), "<u8")
    for i in range(0, n_rows, _SPAN):
        span = [c[i : i + _SPAN] for c in columns]
        n = len(span[0])
        fallback = np.zeros(n, bool)
        for j, v in enumerate(span):
            fallback |= _encode_column(v, j == n_cols - 1, fields[:n, j])
        text = fields[:n].tobytes().translate(None, b"\0").decode("ascii")
        redo = np.flatnonzero(fallback).tolist()
        if redo:
            rows = text.split("\n")
            template = ",".join(["%.9g"] * n_cols)
            for r in redo:
                rows[r] = template % tuple(float(c[r]) for c in span)
            text = "\n".join(rows)
        yield text


def format_text(header: str, *columns: np.ndarray) -> str:
    """``header``, then row i of ``columns`` with every value as ``%.9g``,
    each line ending in a newline.

    Raises ``ValueError`` when there is no column or the columns differ in
    length.
    """
    if not columns:
        raise ValueError("at least one column is required")
    columns = [np.asarray(c, dtype=float) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    return "".join([header, "\n", *_spans(columns)])
