"""float64 values as the bytes of ``format(v, ".17g")``, a block of values at a time.

A value's 17 significant digits D and decimal exponent E come from 64-bit integer arithmetic on
its binary mantissa (``_scaled``); the rare value whose rounding that cannot settle, and nan and
inf, go through Python's own formatting.  ``lrdmd.io`` imports this module on its first write,
and the tables are built on the encoder's first use, so a process that writes no matrix neither
compiles the module nor builds them.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

_E_MIN, _E_MAX = -325, 309  # decimal exponents the digit step may try: those of float64, one wider each way
_U32 = np.uint64(32)
_ZERO_ROW = 23 * 18  # the layout row of +-0


class _Tables(NamedTuple):
    # By E - _E_MIN:
    p_hi: np.ndarray  # 10^(16 - E) ~= (p_hi * 2^32 + p_lo) * 2^pow2, exact for 0 <= 16 - E <= 27
    p_lo: np.ndarray
    pow2: np.ndarray
    exact: np.ndarray
    suffix: np.ndarray  # bytes 40-47: "e+XX" or "e-XXX", then "," and "\n"
    layout: np.ndarray  # E's layout, times 18
    min_digits: np.ndarray  # the digits E's layout keeps even when they are trailing zeros
    # By first digit d: bytes 0-7, "-0.000d."
    head: np.ndarray
    # By two digits "ab":
    pairs: np.ndarray  # "a.b."
    zero_pair: np.ndarray
    trailing_zeros: np.ndarray
    # By layout * 18 + kept digits: the bytes 1-45 that the layout writes
    keep: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """The encoder's lookup tables, built from Python ints and bytes on the encoder's first use."""
    mantissas, pow2 = [], []
    exponents = range(_E_MIN, _E_MAX + 1)
    for e in exponents:
        p = 10 ** abs(16 - e)
        bits = p.bit_length()
        if e <= 16:  # the top 64 bits of 10^(16 - e)
            mantissas.append(p >> (bits - 64) if bits >= 64 else p << (64 - bits))
            pow2.append(bits - 64)
        else:  # 2^(63 + bits) / 10^(e - 16), truncated: in [2^63, 2^64)
            mantissas.append((1 << (63 + bits)) // p)
            pow2.append(-(63 + bits))
    # Layouts: 0-20 positional with E = layout - 4, 21 and 22 exponent form with 2 and 3 exponent digits, 23 zero.
    keep = np.zeros((24, 18, 48), dtype=bool)
    for layout in range(24):
        for digits in range(18):
            row = keep[layout, digits]
            if layout == 23:
                row[1] = True  # "0"
            else:
                row[6 : 6 + 2 * digits : 2] = True
            if layout < 4:  # "0." and the zeros of 1e-4 <= |v| < 1
                row[1 : 6 - layout] = True
            elif layout < 23:
                point = layout - 4 if layout < 21 else 0
                if digits - 1 > point:
                    row[7 + 2 * point] = True
                if layout >= 21:
                    row[40 : 44 + layout - 21] = True
    return _Tables(
        p_hi=np.array([m >> 32 for m in mantissas], dtype=np.uint64),
        p_lo=np.array([m & 0xFFFFFFFF for m in mantissas], dtype=np.uint64),
        pow2=np.array(pow2),
        exact=np.array([-11 <= e <= 16 for e in exponents]),
        suffix=np.frombuffer(b"".join(b"%-6s,\n" % (b"e%+03d" % e) for e in exponents), dtype=np.uint64),
        layout=np.array([18 * (e + 4 if -4 <= e <= 16 else 21 if abs(e) < 100 else 22) for e in exponents]),
        min_digits=np.array([e + 1 if 0 <= e <= 16 else 0 for e in exponents]),
        head=np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), dtype=np.uint64),
        pairs=np.frombuffer(b"".join(b"%c.%c." % tuple(b"%02d" % i) for i in range(100)), dtype=np.uint32),
        zero_pair=np.array([i == 0 for i in range(100)]),
        trailing_zeros=np.array([2 - len((b"%02d" % i).rstrip(b"0")) for i in range(100)]),
        keep=keep.reshape(-1, 48),
    )


def _negative(d: np.ndarray) -> np.ndarray:
    """Whether each int64 entry is below zero, read from its float, which keeps sign and zero.

    numpy's integer comparison and bitwise loops, like its ``//`` by a scalar, sit in pages of its
    code that nothing else in a CLI pass runs: after a pass, running them made 64-128 KiB more of
    numpy resident each, and that memory is held through every later peak.  The encoder keeps
    to loops that the rest of a pass has already read in.
    """
    return d.astype(float) < 0.0


def _scaled(t: _Tables, M: np.ndarray, e2: np.ndarray, E: np.ndarray):
    """``M * 2^e2 * 10^(16 - E)`` as an integer part D, the signed distance d of its fraction from
    one half (both int64, out of ``2^s``), and whether it is exact.

    M < 2^53 and the 64-bit power of ten give a 117-bit product, formed from four 32-bit partial
    products with no carry test: the low words are summed apart, where they cannot overflow.
    A fraction of more than 64 bits is cut to 64, which leaves D below 2^53, so below any 17-digit
    value, and E is then corrected.  Every operand is uint64: mixed with int64, numpy would
    compute in float64.
    """
    i = E - _E_MIN
    s = np.minimum(-(e2 + t.pow2[i]), 64).astype(np.uint64)
    M = M.astype(np.uint64)
    m_hi = M >> _U32
    m_lo = M - (m_hi << _U32)  # low words by shifts, not by bitwise and (see _negative)
    p_hi, p_lo = t.p_hi[i], t.p_lo[i]
    mid, mid2, low = m_lo * p_hi, m_hi * p_lo, m_lo * p_lo
    high = m_hi * p_hi
    carry = (low >> _U32) + ((mid << _U32) >> _U32) + ((mid2 << _U32) >> _U32)
    high += (mid >> _U32) + (mid2 >> _U32) + (carry >> _U32)
    low += (mid << _U32) + (mid2 << _U32)  # modulo 2^64
    rest = np.uint64(64) - s
    below = s - np.uint64(1)
    high = (high << rest) + ((low >> below) >> np.uint64(1))  # s = 64 shifts by 63 and then 1
    low = (low << rest) >> rest
    # F - half lies in [-2^63, 2^63): its int64 wrap is exact.
    return high.view(np.int64), (low - (np.uint64(1) << below)).view(np.int64), t.exact[i]


def _digits(t: _Tables, x: np.ndarray):
    """Each value's 17 significant digits D (first digit nonzero) and its exponent E less ``_E_MIN``,
    and where Python's formatting must stand in.

    D is rounded half-even when the scaled product is exact, and otherwise only when the power of
    ten's truncation, which moves the fraction by less than M, cannot change the rounding.  Zeros,
    nan and inf are given the digits of 1.
    """
    a = np.abs(x)
    finite = np.isfinite(a)
    a[(a == 0.0) | ~finite] = 1.0
    E = np.floor(np.log10(a)).astype(np.int64)
    bits = a.view(np.int64)
    e2 = np.maximum(bits >> 52, 1)  # the biased exponent, 1 for a subnormal
    M = bits - ((e2 - 1) << 52)  # the hidden bit kept
    e2 -= 1075
    D, d, exact = _scaled(t, M, e2, E)
    below, above = _negative(D - 10**16), ~_negative(D - 10**17)
    off = np.flatnonzero(below | above)  # log10 put E one off
    if off.size:
        E[off] += np.where(above[off], 1, -1)
        D[off], d[off], exact[off] = _scaled(t, M[off], e2[off], E[off])
        below[off], above[off] = _negative(D[off] - 10**16), ~_negative(D[off] - 10**17)
    sign = d.astype(float)  # keeps the sign and zero of F - half, like _negative
    up = (sign > 0.0) | (exact & (sign == 0.0) & (D % 2).astype(bool))
    sure = up | exact | _negative(d + M)  # d + M wraps only where d > 0, which rounds up
    fallback = np.flatnonzero(~sure | below | above | ~finite)
    D += up
    carry = ~_negative(D - 10**17)
    D[carry] = 10**16
    E[carry] += 1
    D[fallback] = 10**16
    return D, E - _E_MIN, fallback


def _laid_out(t: _Tables, D: np.ndarray, E: np.ndarray):
    """The 48 fixed bytes of each value (without its sign) and the row of ``t.keep`` that picks its text."""
    n = D.size
    out = np.empty((n, 6), dtype=np.uint64)
    out[:, 5] = t.suffix[E]
    first, rest = np.divmod(D, 10**16)
    out[:, 0] = t.head[first]
    halves, quads, twos = (np.empty((n, k), dtype=np.int64) for k in (2, 4, 8))  # digits 1-16 in 8, 4 and 2
    np.divmod(rest, 10**8, out=(halves[:, 0], halves[:, 1]))
    np.divmod(halves, 10**4, out=(quads[:, 0::2], quads[:, 1::2]))
    np.divmod(quads, 100, out=(twos[:, 0::2], twos[:, 1::2]))
    out[:, 1:5] = t.pairs[twos.ravel()].view(np.uint64).reshape(n, 4)
    tz = t.trailing_zeros[twos[:, 7]]
    z = np.flatnonzero(t.zero_pair[twos[:, 7]])
    for col in range(6, -1, -1):  # only values ending in 00 look further
        if not z.size:
            break
        two = twos[z, col]
        tz[z] += t.trailing_zeros[two]
        z = z[t.zero_pair[two]]
    return out.view(np.uint8), t.layout[E] + np.maximum(17 - tz, t.min_digits[E])


def encode(x: np.ndarray, last: np.ndarray) -> bytes:
    """``x`` as ``format(v, ".17g")`` per value, each followed by "\\n" where ``last`` and "," elsewhere.

    Each value is laid out in 48 fixed bytes, each byte one that the ``g`` layout may use there:

        0 "-"   1-5 "0.000"   6-39 d0 "." d1 "." ... d16 "."   40-44 "e+XX" or "e-XXX"   46 ","   47 "\\n"

    One row of kept bytes per value, by layout and kept digits, with its sign and separator, picks
    the bytes that one ``np.compress`` joins.
    """
    t = _tables()
    D, E, fallback = _digits(t, x)
    text, row = _laid_out(t, D, E)
    row[x == 0.0] = _ZERO_ROW
    keep = t.keep[row]
    keep[:, 0] = np.signbit(x)
    keep[:, 46] = ~last
    keep[:, 47] = last
    for i in fallback.tolist():
        s = format(float(x[i]), ".17g").encode()
        keep[i, :46] = False
        keep[i, : len(s)] = True
        text[i, : len(s)] = np.frombuffer(s, dtype=np.uint8)
    return np.compress(keep.ravel(), text.ravel()).tobytes()
