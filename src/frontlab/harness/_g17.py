"""``'%.17g' % x`` for whole float64 arrays, byte for byte; numpy only.

The snapshot writer child imports this module from its own directory
without ``frontlab``, so it imports nothing from ``frontlab``.

For finite nonzero ``x`` let ``k = floor(log10|x|)`` and ``P =
|x|·10^(16-k)``, which lies in ``[1e16, 1e17)``; the 17 significant digits
are ``P`` rounded half to even (Gay 1990; Adams 2019).  ``P`` is formed in
``np.longdouble`` from correctly rounded powers of ten, so the computed
value is off by less than :data:`BOUND`.  Wherever the fraction of the
computed ``P`` is farther than that from 1/2, no half-integer lies between
it and the true ``P``, and both round to the same integer.  The rest are
formatted one at a time by ``'%.17g' %``: the values near a tie, the
non-finite ones, and every value where the long double is float64 (then
``BOUND`` exceeds 1/2) or not an IEEE format.
"""

import numpy as np

WIDTH = 24  # the longest text: '-2.2250738585072014e-308'

_EPS = np.finfo(np.longdouble).eps
_BITS = np.finfo(np.longdouble).nmant + 1
# The power of ten and the product are each rounded once, within eps/2
# relative, and P < 1e17: |P~ - P| < 1e17·(eps + eps²/4) < BOUND, even
# after BOUND's own rounding.  That holds for IEEE binary64, x87 extended
# and binary128; IBM double-double rounds its products more loosely, so
# there nothing is settled.
BOUND = (np.longdouble(1e17) * _EPS * (1 + _EPS) if _BITS in (53, 64, 113)
         else np.longdouble(np.inf))


def _pow10(p: int) -> tuple:
    """``10**p`` rounded once to ``_BITS`` bits: ``(mantissa, shift)`` with
    ``10**p ≈ mantissa * 2**-shift``, from exact integers."""
    num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
    shift = _BITS - num.bit_length() + den.bit_length()  # the quotient has _BITS or _BITS + 1 bits
    num, den = num << max(shift, 0), den << max(-shift, 0)
    if num >= den << _BITS:
        shift, den = shift - 1, den << 1
    mantissa, rest = divmod(num, den)
    return mantissa + (2 * rest > den or (2 * rest == den and mantissa & 1)), shift


# 10^p for p = 16 - k, k from -324 (5e-324) to 308, one step beyond each
# end for the correction of k; inf past the range of a float64 long double.
_P_LO = -293
_MANTISSAS, _SHIFTS = zip(*map(_pow10, range(_P_LO, 342)))
with np.errstate(over="ignore"):
    # 32-bit pieces are exact in any float type, and so is their sum
    _POW10 = sum(np.ldexp(np.array([m >> c & 0xFFFFFFFF for m in _MANTISSAS], dtype=np.longdouble),
                          np.array([c - s for s in _SHIFTS], dtype=np.intc))
                 for c in range(0, _BITS + 1, 32))

# "00" to "99", each two ASCII digits read as one uint16
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)

# Columns of the per-value source row the layouts pick from.
_MINUS, _DOT, _ZERO, _E, _ESIGN, _EXP = 17, 18, 19, 20, 21, 22  # digits are 0..16
_SOURCE = 25
_FORMS = 23  # fixed for exponents -4..16, then scientific with 2 or 3 exponent digits


def _layout(negative: bool, form: int, nsig: int) -> list:
    """The source columns of one text, in order."""
    cols = [_MINUS] if negative else []
    if form <= 20:
        exp = form - 4
        if exp >= 0:  # digits past nsig are '0'
            cols += range(exp + 1)
            if nsig > exp + 1:
                cols += [_DOT, *range(exp + 1, nsig)]
        else:
            cols += [_ZERO, _DOT] + [_ZERO] * (-exp - 1) + list(range(nsig))
    else:
        cols += [0] + ([_DOT, *range(1, nsig)] if nsig > 1 else [])
        cols += [_E, _ESIGN] + list(range(_EXP if form == 22 else _EXP + 1, _SOURCE))
    return cols


def _layouts():
    rows = [_layout(neg, form, nsig)
            for neg in (False, True) for form in range(_FORMS) for nsig in range(1, 18)]
    table = np.zeros((len(rows), WIDTH), dtype=np.intp)
    for i, cols in enumerate(rows):
        table[i, :len(cols)] = cols
    return table, np.array([len(cols) for cols in rows])


# keyed by (sign * _FORMS + form) * 17 + nsig - 1
_LAYOUT, _LENGTH = _layouts()
_FILLED = np.arange(WIDTH) < np.arange(WIDTH + 1)[:, None]  # row n: the first n bytes


def _split(a, unit: int):
    """``a // unit`` and ``a % unit`` stacked on a new first axis."""
    out = np.empty((2,) + a.shape, dtype=a.dtype)
    np.floor_divide(a, unit, out=out[0])  # fast for a scalar unit; % and divmod are not
    np.subtract(a, out[0] * unit, out=out[1])
    return out


def _scalar(values) -> list:
    """``'%.17g' % v`` one value at a time."""
    return [b"%.17g" % v for v in values.tolist()]


def g17(values) -> tuple:
    """The text ``'%.17g' % v`` of each float64 ``v``: a ``(n, WIDTH)`` uint8
    matrix, row ``i`` holding the ASCII text of ``values[i]`` left-aligned,
    and the ``(n,)`` text lengths."""
    x = np.asarray(values, dtype=np.float64).ravel()
    finite = np.isfinite(x)
    zero = x == 0.0
    a = np.where(finite & ~zero, np.abs(x), 1.0)  # 1.0 prints as '1', a stand-in
    along = a.astype(np.longdouble)
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.floor(np.log10(a)).astype(np.intp)
        p = along * np.take(_POW10, 16 - k - _P_LO)
        off = (p >= 1e17).astype(np.intp) - (p < 1e16)  # log10 rounded across 10^k
        if off.any():
            k += off
            p = along * np.take(_POW10, 16 - k - _P_LO)
        near = np.rint(p)  # half to even
        # |frac(p) - 1/2|, exact: p - near is a multiple of p's ulp
        settled = finite & (0.5 - np.abs(p - near) > BOUND)
    n17 = np.where(settled, near, 1e16).astype(np.int64)
    carry = n17 == 10**17  # rounding up to 1e17 moves the exponent
    n17[carry] = 10**16
    k += carry

    source = np.empty((x.size, _SOURCE), dtype=np.uint8)
    first = n17 // 10**16
    rest = n17 - first * 10**16
    source[:, 0] = first + 48
    eights = _split(rest, 10**8).astype(np.int32)
    pairs = _split(_split(eights, 10**4), 100).T  # (n, 2, 2, 2): digit order
    text = np.take(_PAIRS, pairs).reshape(-1, 8)
    source[:, 1:17] = text.view(np.uint8)
    # Significant digits: XOR with ASCII '0's zeroes the bytes of '0' digits,
    # and a little-endian word's bit length gives its last nonzero byte.
    nonzero = text.view("<u8") ^ np.uint64(0x3030303030303030)
    last = (np.frexp(nonzero.astype(np.float64))[1] + 7) // 8
    nsig = 1 + np.where(last[:, 1] > 0, 8 + last[:, 1], last[:, 0])
    source[zero, 0] = 48
    source[:, _MINUS:_E + 1] = np.frombuffer(b"-.0e", np.uint8)
    source[:, _ESIGN] = np.where(k < 0, ord("-"), ord("+"))
    kabs = np.abs(k)
    hundreds = kabs // 100
    source[:, _EXP] = hundreds + 48
    source[:, _EXP + 1:] = np.take(_PAIRS, kabs - hundreds * 100)[:, None].view(np.uint8)

    form = np.where((k < -4) | (k > 16), np.where(kabs >= 100, 22, 21), k + 4)
    key = (np.signbit(x) * _FORMS + form) * 17 + nsig - 1
    index = np.take(_LAYOUT, key, axis=0)
    index += np.arange(0, source.size, _SOURCE)[:, None]
    chars = np.take(source.ravel(), index)
    lens = np.take(_LENGTH, key)

    (scalar,) = np.nonzero(~settled)
    if scalar.size:
        texts = _scalar(x[scalar])
        chars[scalar] = np.frombuffer(b"".join(t.ljust(WIDTH) for t in texts),
                                      np.uint8).reshape(-1, WIDTH)
        lens[scalar] = [len(t) for t in texts]
    return chars, lens


def snapshot_lines(t: float, grid: tuple, u, v) -> bytes:
    """The ``t,x,u,v`` lines of one snapshot; ``grid`` is :func:`g17` of ``x``."""
    head = np.frombuffer(b"%.17g," % t, np.uint8)
    uv_chars, uv_lens = g17(np.concatenate([u, v]))
    n = uv_lens.size // 2
    fields = [grid, (uv_chars[:n], uv_lens[:n]), (uv_chars[n:], uv_lens[n:])]
    step = WIDTH + 1  # a field and the ',' or '\n' after it
    lines = np.empty((n, head.size + 3 * step), dtype=np.uint8)
    keep = np.ones(lines.shape, dtype=bool)
    lines[:, :head.size] = head
    for col, (chars, lens) in zip(range(head.size, lines.shape[1], step), fields):
        lines[:, col:col + WIDTH] = chars
        keep[:, col:col + WIDTH] = np.take(_FILLED, lens, axis=0)
        lines[:, col + WIDTH] = ord(",")
    lines[:, -1] = ord("\n")
    return lines[keep].tobytes()
