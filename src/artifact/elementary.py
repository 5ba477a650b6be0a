"""Correctly rounded elementary functions over p-bit floats.

Each function evaluates its target in an integer fixed-point working
representation (``w`` fractional bits: the integer ``t`` stands for
``t * 2**-w``), tracks a conservative rigorous error bound ``b`` in
fixed-point units, and commits the final p-bit rounding only when the whole
uncertainty interval ``[t-b, t+b]`` rounds to a single float.  Otherwise the
working precision is raised and the evaluation repeats.  Away from the
handled exact points (``exp 0 = 1``, ``log 1 = 0``) and the perfect-square
roots, which commit on the first attempt with no test of their own, the
true values are irrational, so the escalation loop terminates.

``exp_fp``, ``sqrt_fp``, ``log_fp`` and ``softplus_fp`` share that loop,
:func:`_correctly_rounded`, and one schedule: the first attempt uses
``w = 2p + 8`` working bits, ``p + 2`` exponential Taylor terms and
:func:`_base_log_terms` log-series terms, and each retry adds ``p + 16``
bits, 8 exponential terms and 16 log terms.  The retry is the only
value-dependent step; each attempt is a fixed sequence of integer
operations.

Error contract, measured by the test suite against a 256-bit reference:
``exp_fp``/``sqrt_fp``/``log_fp`` stay within relative ``2**-p`` of the true
value (they are correctly rounded, which implies that bound), and
``sigmoid_fp``/``silu_fp``/``softplus_fp`` stay within ``c * 2**-p`` for the
small constant ``c = 4``.

``sigmoid_fp`` composes the literal float operations ``1 / (1 + exp(-x))``;
honest rounding then reaches exactly 1 for moderately large inputs (and 0
for very negative ones), so the result is clamped into the open interval
(0, 1) — to the largest float below one, ``(2**p - 1) * 2**-p``, or the
smallest positive normal — which costs at most one part in ``2**p`` on the
measured domain.  ``softplus_fp`` evaluates the same composition
``log(1 + exp(x))`` inside one working-precision pipeline with a single
final rounding; composing the already-rounded float ops would collapse to
zero for very negative inputs, where the true value ``~ exp(x)`` is still
comfortably representable.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache, lru_cache
from math import isqrt

from artifact.floats import (
    FpNumber,
    Overflow,
    fp_add,
    fp_div,
    fp_mul,
    round_p,
    round_scaled,
)

__all__ = [
    "NegativeInput",
    "NonPositiveInput",
    "exp_fp",
    "log_fp",
    "sigmoid_fp",
    "silu_fp",
    "softplus_fp",
    "sqrt_fp",
]


class NegativeInput(ValueError):
    """Square root of a negative float."""


class NonPositiveInput(ValueError):
    """Logarithm of a non-positive float."""


@cache
def _base_log_terms(p: int) -> int:
    """Log-series length of the first attempt at precision ``p``.

    The smallest ``n`` with ``(1/2)**n / n <= 2**-(2p+8)``: at ``|u| <= 1/2``
    the truncation error is then far below the half-ulp commit margin (and a
    fortiori below ``2**-(p+1)``).
    """
    n = 1
    # n * 2^n >= 2^(2p+8) is the same condition
    while n * (1 << n) < (1 << (2 * p + 8)):
        n += 1
    return n


Attempt = Callable[[int, int, int], tuple[int, int, int]]


def _correctly_rounded(p: int, attempt: Attempt) -> FpNumber:
    """Run ``attempt(w, exp_terms, log_terms) -> (t, b, scale)`` on the
    escalation schedule until ``(t ± b) * 2**scale`` commits to one p-bit
    float (see the module docstring)."""
    w, exp_terms, log_terms = 2 * p + 8, p + 2, _base_log_terms(p)
    while True:
        t, b, scale = attempt(w, exp_terms, log_terms)
        out = _commit(t, b, scale, p)
        if out is not None:
            return out
        w += p + 16
        exp_terms += 8
        log_terms += 16


def _commit(t: int, b: int, scale: int, p: int) -> FpNumber | None:
    """Round ``(t ± b) * 2**scale``; None when the interval straddles."""
    try:
        lo = round_scaled(t - b, scale, p)
    except Overflow:
        lo = None
    try:
        hi = round_scaled(t + b, scale, p)
    except Overflow:
        hi = None
    if lo == hi:
        if lo is None:
            raise Overflow(f"result exceeds the exponent range at p={p}")
        return lo
    return None


def _fx_mul(a: int, b: int, w: int) -> int:
    """Fixed-point product with floor; error at most one unit."""
    return (a * b) >> w


@lru_cache(maxsize=None)
def _log2_fx(w: int) -> int:
    """log 2 at ``w`` fraction bits via the series sum 1/(i * 2**i).

    Error at most ``w + 10`` units: one floor per term plus the tail.
    """
    total = 0
    for i in range(1, w + 9):
        total += (1 << w) // (i << i)
    return total


def _shift_floor(a: int, k: int) -> int:
    """``floor(a * 2**k)`` for integer ``a`` and either-sign ``k``."""
    return a << k if k >= 0 else a >> -k


# --------------------------------------------------------------------- exp


def _exp_core(v_m: int, v_e: int, w: int, n_terms: int) -> tuple[int, int, int]:
    """Fixed-point ``exp(v_m * 2**v_e)`` after range reduction.

    Returns ``(t, j, b)`` with ``exp(v) = (t ± b) * 2**(j - w)`` and
    ``t`` in roughly ``[0.7, 1.42] * 2**w``.
    """
    wc = w + max(v_e + v_m.bit_length(), 0) + 64  # constant precision
    ln2_c = _log2_fx(wc)
    x_c = _shift_floor(v_m, v_e + wc)  # floor(v * 2**wc), error <= 1
    q, r = divmod(x_c, ln2_c)
    j = q + (1 if 2 * r >= ln2_c else 0)
    s_c = x_c - j * ln2_c  # |s| <= ln2/2 plus tiny slop
    s = s_c >> (wc - w)
    # Error in s (units 2**-w): x floor + j*ln2 error + downshift << 4.
    t = 1 << w
    term = 1 << w
    for i in range(1, n_terms):
        term = _fx_mul(term, s, w) // i
        t += term
        if term == 0:
            break
    b = 8 * (n_terms + 4)  # conservative: per-term floors + s slop + tail
    return t, j, b


def exp_fp(x: FpNumber) -> FpNumber:
    """Exponential, correctly rounded to ``p`` bits.

    Range reduction ``x = j*log2 + s`` with ``|s| <= log2/2``, Taylor series
    on ``s``, result ``2**j * exp(s)``.  Inputs at or beyond ``2**(p+2)``
    overflow outright; at or below ``-2**(p+2)`` the true value is far below
    half the smallest normal and rounds to zero.
    """
    p = x.p
    if x.m == 0:
        return round_p(1, p)
    # floor(log2 |x|) >= p+2 puts exp(x) decisively past the exponent range
    # (positive x) or far below half the smallest normal (negative x).
    if abs(x.m).bit_length() - 1 + x.e >= p + 2:
        if x.m > 0:
            raise Overflow(f"exp of {x} exceeds the exponent range at p={p}")
        return FpNumber.zero(p)

    def attempt(w: int, exp_terms: int, log_terms: int) -> tuple[int, int, int]:
        t, j, b = _exp_core(x.m, x.e, w, exp_terms)
        return t, b, j - w

    return _correctly_rounded(p, attempt)


# -------------------------------------------------------------------- sqrt


def sqrt_fp(x: FpNumber) -> FpNumber:
    """Square root, correctly rounded; exact perfect squares stay exact."""
    p = x.p
    if x.m < 0:
        raise NegativeInput(f"sqrt of negative float {x}")
    if x.m == 0:
        return FpNumber.zero(p)
    # Split an even power of two: x = (m * 2**t) * 2**(e - t), e - t even.
    t_odd = x.e & 1
    big_m = x.m << t_odd
    half_e = (x.e - t_odd) >> 1

    def attempt(w: int, exp_terms: int, log_terms: int) -> tuple[int, int, int]:
        n = big_m << (2 * w)
        s = isqrt(n)
        # No perfect-square test: an exact root is r * 2**w with w >= 2p + 8,
        # so s - 1 and s + 1 round to it on the first attempt.
        return s, 1, half_e - w

    return _correctly_rounded(p, attempt)


# --------------------------------------------------------------------- log


def _log1p_series(u: int, w: int, n_terms: int, shift: int = 0) -> tuple[int, int]:
    """Alternating series ``sum (-1)**(i+1) v**i / i`` for ``|v| <= 1/2``.

    ``u`` is ``v`` in fixed point with ``w + shift`` fraction bits, and so
    is the result: each power is a ``w``-bit fixed-point product shifted
    right ``shift`` more bits.  Terms up to index ``n_terms - 1`` are
    summed, stopping once a power floors to zero.  Returns ``(value, i)``,
    ``i`` one past the index of the last term summed, which an error bound
    may count.
    """
    total = pw = u
    i = 2
    while pw and i < n_terms:
        pw = _fx_mul(pw, u, w) >> shift
        total += (pw if i % 2 == 1 else -pw) // i
        i += 1
    return total, i


def _log_split(r: int, k: int, w: int, n_terms: int) -> tuple[int, int]:
    """``log(r * 2**-w) + k * log 2`` at ``w`` bits, for ``|r * 2**-w - 1| <= 1/2``.

    Returns ``(value, error_bound)`` in fixed-point units: ``2 * n_terms + 4``
    for the series and 2 more for ``k * log 2``, which is computed at
    boosted constant precision.
    """
    series, _ = _log1p_series(r - (1 << w), w, n_terms)
    if k == 0:
        return series, 2 * n_terms + 4
    wc = w + max(abs(k).bit_length(), 1) + 32
    return series + ((k * _log2_fx(wc)) >> (wc - w)), 2 * n_terms + 6


def log_fp(x: FpNumber) -> FpNumber:
    """Natural logarithm, correctly rounded to ``p`` bits.

    The input splits as ``x = r * 2**k`` by exponent parity — even ``e``
    gives ``r = m * 2**-p`` in [1/2, 1), odd gives ``r = m * 2**-(p-1)`` in
    [1, 2) — and any ``r > 3/2`` is folded to ``r/2`` (k += 1) so that
    ``|r - 1| <= 1/2``, the worst case the series length is budgeted for.
    Then ``log x = log1p(r - 1) + k * log 2``.  ``log_fp(1)`` returns the
    canonical zero exactly: 1 is the only input whose log is dyadic, and it
    is special-cased rather than asking the commit loop to separate an
    interval that legitimately straddles zero.
    """
    p = x.p
    if x.m <= 0:
        raise NonPositiveInput(f"log of non-positive float {x}")
    if x.m == 1 << (p - 1) and x.e == -(p - 1):
        return FpNumber.zero(p)
    if x.e % 2 == 0:
        r_m, r_bits, k = x.m, p, x.e + p
    else:
        r_m, r_bits, k = x.m, p - 1, x.e + p - 1
    # Fold r in (3/2, 2) down one binade so |r - 1| <= 1/2.
    if 2 * r_m > 3 * (1 << r_bits):
        r_bits += 1
        k += 1

    def attempt(w: int, exp_terms: int, log_terms: int) -> tuple[int, int, int]:
        r = r_m << (w - r_bits)  # exact: w >= p + 2
        value, b = _log_split(r, k, w, log_terms)
        return value, b, -w

    return _correctly_rounded(p, attempt)


# ----------------------------------------------------------- sigmoid / silu


def _neg(x: FpNumber) -> FpNumber:
    return FpNumber(-x.m, x.e, x.p) if x.m != 0 else x


def _largest_below_one(p: int) -> FpNumber:
    return FpNumber((1 << p) - 1, -p, p)


def _smallest_positive(p: int) -> FpNumber:
    return FpNumber(1 << (p - 1), -(1 << p), p)


def sigmoid_fp(x: FpNumber) -> FpNumber:
    """Logistic function as the literal float composition ``1/(1+exp(-x))``.

    The composition of three correctly-rounded-ish steps keeps the relative
    error within ``4 * 2**-p`` on the measured domain.  The result is
    clamped into the open interval (0, 1) (see the module docstring).
    """
    p = x.p
    one = round_p(1, p)
    try:
        en = exp_fp(_neg(x))
    except Overflow:
        # exp(-x) out of range means x is hugely negative: sigmoid ~ exp(x),
        # which itself rounds to zero here; clamp to the smallest positive.
        return _smallest_positive(p)
    if en.is_zero:
        return _largest_below_one(p)
    out = fp_div(one, fp_add(one, en))
    if out.m <= 0:
        return _smallest_positive(p)
    if out.m.bit_length() + out.e > 0:  # out >= 1
        return _largest_below_one(p)
    return out


def silu_fp(x: FpNumber) -> FpNumber:
    """``x * sigmoid(x)`` with the literal float multiply."""
    return fp_mul(x, sigmoid_fp(x))


# ----------------------------------------------------------------- softplus


def softplus_fp(x: FpNumber) -> FpNumber:
    """``log(1 + exp(x))`` in one working-precision pipeline, rounded once."""
    p = x.p
    if x.m > 0 and x.m.bit_length() - 1 + x.e >= p.bit_length() + 1:
        # softplus(x) = x + log1p(exp(-x)).  From x >= 2**(bit_length(p) + 1)
        # > p + 1 the correction is below exp(-x) < 2**-(p+1), under half an
        # ulp of x, so the correctly rounded result is x itself.  The
        # pipeline below would build exp(x), about 1.44 * x bits wide.
        return x
    if x.m < 0 and (-x.m).bit_length() - 1 + x.e >= p + 2:
        # True value ~ exp(x), far below half the smallest normal.
        return FpNumber.zero(p)

    def attempt(w: int, exp_terms: int, log_terms: int) -> tuple[int, int, int]:
        t_e, j, b_e = _exp_core(x.m, x.e, w, exp_terms)
        if j <= -2:
            # exp(x) < ~0.36: series log1p(w') directly at scale 2**(j-w),
            # with ratio w' < 1/2 between consecutive terms.
            total, i = _log1p_series(t_e, w, log_terms + 8, -j)
            return total, b_e + 4 * i + 8, j - w
        # u = 1 + exp(x) >= 1.13: normalize u to [3/4, 3/2) and reuse
        # the log split.  Guard bits keep the normalization shift exact.
        gbits = 4
        u_fx = (1 << (w + gbits)) + _shift_floor(t_e, j + gbits)
        wg = w + gbits
        nb = u_fx.bit_length() - 1 - wg  # floor(log2 u) >= 0
        if 2 * u_fx > 3 << (nb + wg):
            nb += 1
        r_fx = u_fx >> nb if nb >= 0 else u_fx << -nb
        value, b = _log_split(r_fx, nb, wg, log_terms)
        # exp error enters u at scale 2**(j+gbits) units, is divided by
        # 2**nb (nb within 1 of max(j, 0)), and log1p has derivative <= 1.
        err_r = ((b_e + 4) << (gbits + 2)) >> max(j - 1, 0)
        return value, b + err_r + 4, -wg

    return _correctly_rounded(p, attempt)
