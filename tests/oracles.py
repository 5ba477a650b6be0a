"""Independent reference implementations used only by the tests.

Nothing here imports the package under test.  Floats are plain ``(m, e)``
tuples, rounding is performed by *enumerating* every legal representable and
picking the nearest (ties to the even significand), and each arithmetic
operation is a direct transcription of its defining formula over exact
``Fraction`` values.  Agreement between these and the package is therefore a
genuine two-route check: normalization arithmetic vs. exhaustive search.
"""

from __future__ import annotations

import bisect
import math
import random
from fractions import Fraction
from functools import lru_cache

Me = tuple[int, int]  # (significand, exponent)


class OracleOverflow(Exception):
    """Nearest representable needs an out-of-range exponent."""


class OracleDivisionByZero(Exception):
    pass


def pow2(k: int) -> Fraction:
    return Fraction(1 << k) if k >= 0 else Fraction(1, 1 << -k)


def value(x: Me) -> Fraction:
    m, e = x
    return Fraction(m) * pow2(e)


def legal_floats(p: int, e_lo: int | None = None, e_hi: int | None = None) -> list[Me]:
    """All legal ``(m, e)`` pairs with ``e_lo <= e < e_hi``, plus zero.

    Defaults to the full legal exponent range ``[-2**p, 2**p)``.
    """
    lim = 1 << p
    if e_lo is None:
        e_lo = -lim
    if e_hi is None:
        e_hi = lim
    out: list[Me] = [(0, 0)]
    for e in range(e_lo, e_hi):
        for m in range(lim >> 1, lim):
            out.append((m, e))
            out.append((-m, e))
    return out


@lru_cache(maxsize=None)
def _positive_grid(p: int) -> tuple[list[Fraction], list[Me]]:
    """Sorted positive representables plus one out-of-range sentinel."""
    lim = 1 << p
    pairs: list[Me] = [
        (m, e) for e in range(-lim, lim) for m in range(lim >> 1, lim)
    ]
    pairs.append((lim >> 1, lim))  # sentinel just past the top of the range
    pairs.sort(key=value)
    return [value(x) for x in pairs], pairs


def oracle_round(x: Fraction | int, p: int) -> Me:
    """Nearest-representable search over the full enumeration.

    Ties pick the even significand; when both neighbours have even
    significands (only the zero / smallest-magnitude gap) the smaller
    magnitude wins.  Landing on the sentinel beyond the exponent range
    raises :class:`OracleOverflow`.
    """
    x = Fraction(x)
    if x == 0:
        return (0, 0)
    sign = 1 if x > 0 else -1
    a = abs(x)
    vals, pairs = _positive_grid(p)
    i = bisect.bisect_left(vals, a)
    # Candidates: zero below the grid, grid neighbours, sentinel above.
    cands: list[Me] = []
    if i == 0:
        cands.append((0, 0))
    else:
        cands.append(pairs[i - 1])
    cands.append(pairs[min(i, len(pairs) - 1)])

    lo, hi = cands[0], cands[-1]
    dlo = a - value(lo)
    dhi = value(hi) - a
    if dlo < dhi:
        win = lo
    elif dhi < dlo:
        win = hi
    else:
        lo_even = lo[0] % 2 == 0
        hi_even = hi[0] % 2 == 0
        if lo_even and hi_even:
            win = lo if abs(value(lo)) < abs(value(hi)) else hi
        else:
            win = lo if lo_even else hi
    if win[1] >= (1 << p):
        raise OracleOverflow(f"{x} rounds past the exponent range at p={p}")
    return (sign * win[0], win[1]) if win[0] != 0 else (0, 0)


def oracle_approx_div(a: Fraction | int, b: Fraction | int) -> Fraction:
    b = Fraction(b)
    if b == 0:
        raise OracleDivisionByZero
    q = Fraction(a) / b
    return q if (4 * q).denominator == 1 else q + Fraction(1, 8)


def oracle_align(a: Me, b: Me) -> tuple[Me, Me]:
    """A zero operand (which denotes the same value at every exponent) is
    re-represented at the other operand's exponent before alignment."""
    (m1, e1), (m2, e2) = a, b
    if m1 == 0:
        e1 = e2
    if m2 == 0:
        e2 = e1
    return (m1, e1), (m2, e2)


def oracle_add(a: Me, b: Me, p: int) -> Me:
    (m1, e1), (m2, e2) = oracle_align(a, b)
    if e1 < e2:
        (m1, e1), (m2, e2) = (m2, e2), (m1, e1)
    t = m1 + oracle_approx_div(m2, pow2(e1 - e2))
    return oracle_round(t * pow2(e1), p)


def oracle_mul(a: Me, b: Me, p: int) -> Me:
    (m1, e1), (m2, e2) = a, b
    return oracle_round(Fraction(m1 * m2) * pow2(e1 + e2), p)


def oracle_div(a: Me, b: Me, p: int) -> Me:
    (m1, e1), (m2, e2) = a, b
    if m2 == 0:
        raise OracleDivisionByZero
    t = oracle_approx_div(m1 * (1 << (p - 1)), m2)
    return oracle_round(t * pow2(e1 - e2 - p + 1), p)


def oracle_compare(a: Me, b: Me) -> str:
    (m1, e1), (m2, e2) = oracle_align(a, b)
    t = oracle_approx_div(m2, pow2(e1 - e2))
    le = m1 <= t
    ge = t <= m1
    if le and ge:
        return "equal"
    return "less" if le else "greater"


def oracle_floor(a: Me, p: int) -> Me:
    m, e = a
    if e >= 0:
        return oracle_round(m * (1 << e), p)
    return oracle_round(m // (1 << -e), p)


def oracle_iter_add(xs: list[Me], p: int) -> Me:
    return oracle_round(sum((value(x) for x in xs), Fraction(0)), p)


def oracle_iter_mul(xs: list[Me], p: int) -> Me:
    prod = Fraction(1)
    for x in xs:
        prod *= value(x)
    return oracle_round(prod, p)


def rand_me(rng, p: int, e_lo: int, e_hi: int, allow_zero: bool = True) -> Me:
    """Uniform random legal float (as a tuple) with exponent in [e_lo, e_hi)."""
    lim = 1 << p
    if allow_zero and rng.random() < 0.05:
        return (0, 0)
    m = rng.randrange(lim >> 1, lim) * rng.choice((1, -1))
    return (m, rng.randrange(e_lo, e_hi))


def positive_input(shape, seed: int) -> list[list[Fraction]]:
    """A ``seq_len x d_model`` input with every entry in ``[1/16, 1]``: with
    ``random_params(positive=True)`` both state-space routes are then
    cancellation-free."""
    rng = random.Random(seed ^ 0x5EED)
    return [
        [Fraction(rng.randrange(1, 17), 16) for _ in range(shape.d_model)]
        for _ in range(shape.seq_len)
    ]


def polyfit_max_rel_residual(xs: list[int], ys: list[int], degree: int) -> Fraction:
    """Worst relative residual of the least-squares degree-``degree`` fit.

    Solved exactly over Fractions via the normal equations and Gaussian
    elimination, so the answer carries no floating-point noise.
    """
    n = degree + 1
    ata = [[Fraction(0)] * n for _ in range(n)]
    atb = [Fraction(0)] * n
    for x, y in zip(xs, ys):
        powers = [Fraction(x) ** j for j in range(n)]
        for i in range(n):
            for j in range(n):
                ata[i][j] += powers[i] * powers[j]
            atb[i] += powers[i] * y
    # Gaussian elimination with partial pivoting (exact arithmetic).
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(ata[r][col]))
        if ata[pivot][col] == 0:
            raise ValueError("singular normal equations")
        ata[col], ata[pivot] = ata[pivot], ata[col]
        atb[col], atb[pivot] = atb[pivot], atb[col]
        for r in range(n):
            if r != col and ata[r][col] != 0:
                factor = ata[r][col] / ata[col][col]
                for c in range(col, n):
                    ata[r][c] -= factor * ata[col][c]
                atb[r] -= factor * atb[col]
    coeffs = [atb[i] / ata[i][i] for i in range(n)]
    worst = Fraction(0)
    for x, y in zip(xs, ys):
        fit = sum(c * Fraction(x) ** j for j, c in enumerate(coeffs))
        rel = abs(fit - y) / abs(Fraction(y)) if y else abs(fit)
        worst = max(worst, rel)
    return worst


def reference_evaluate(circuit, assignment) -> tuple[int, ...]:
    """Plain per-gate semantics of a circuit on one assignment, independent
    of the bit-sliced evaluator."""
    values = {}
    inputs = iter(assignment)
    for g in circuit.gates:
        if g.kind == "INPUT":
            values[g.id] = next(inputs) & 1
        elif g.kind == "CONST0":
            values[g.id] = 0
        elif g.kind == "CONST1":
            values[g.id] = 1
        elif g.kind == "NOT":
            values[g.id] = 1 - values[g.inputs[0]]
        elif g.kind == "AND":
            values[g.id] = int(all(values[q] for q in g.inputs))
        elif g.kind == "OR":
            values[g.id] = int(any(values[q] for q in g.inputs))
        else:
            values[g.id] = int(sum(values[q] for q in g.inputs) >= g.k)
    return tuple(values[o] for o in circuit.outputs)


class FractionScalars:
    """The exact route's semantics on plain ``Fraction`` values, for a
    differential check of the exact context's integer representation.

    It offers the scalar vocabulary the model code calls, by duck typing.
    The elementary functions are not re-derived: ``elementary(name, q)``
    gives each result, and ``guard_small`` compares with ``small``."""

    def __init__(self, elementary, small: Fraction) -> None:
        self.elementary = elementary
        self.small = small

    def input(self, q) -> Fraction:
        return Fraction(q)

    const = input

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    const_mul = mul

    def div(self, a, b):
        return a / b

    def floor(self, a):
        return Fraction(math.floor(a))

    def iter_add(self, xs):
        return sum(xs, Fraction(0))

    def iter_mul(self, xs):
        return math.prod(xs, start=Fraction(1))

    def index(self, a):
        return a

    dup = reinject = index

    def seq_point(self, xs) -> None:
        pass

    def guard_small(self, a) -> bool:
        return abs(a) < self.small

    def exp(self, a):
        return self.elementary("exp", a)

    def sqrt(self, a):
        return self.elementary("sqrt", a)

    def log(self, a):
        return self.elementary("log", a)

    def softplus(self, a):
        return self.elementary("softplus", a)

    def sigmoid(self, a):
        return self.elementary("sigmoid", a)

    def silu(self, a):
        return self.elementary("silu", a)
