"""Constant-depth threshold-circuit synthesis of the p-bit float primitives.

Operands are bit-encoded as a ``p+1``-bit two's-complement significand
followed by a two's-complement exponent confined to a window
``[-2**(exp_bits-1), 2**(exp_bits-1))`` (:class:`BitEncoding`).  For each of
the primitives ``compare``, ``add``, ``mul`` and ``iter_add(m)``,
:func:`synth_primitive` emits a circuit over unbounded fan-in
AND/OR/NOT/THRESHOLD gates whose outputs agree with the arbitrary-precision
operations in :mod:`.floats` on every encodable operand — including the
approximate-quotient 1/8 bias, round-to-nearest-even, the zero-alignment
rule, and overflow (reported as a flag bit, since circuits cannot raise).

Depth is structurally constant: carry-lookahead addition, one-hot barrel
shifts, and a three-stage column-counting reduction give every primitive a
gate depth independent of precision-window width and, for ``iter_add``, of
the operand count ``m``.  Column counts use THRESHOLD gates per output bit
(each bit of a column's population count is a symmetric function); a
constant-0 sentinel input keeps every counting column structurally
identical so degenerate small-``m`` pipelines do not fold to a shallower
shape.  Sizes stay polynomial (the tests fit degree <= 3).

The rounding ops require ``exp_bits <= p``: inside that window a nonzero
exact result of add/mul/iter-add provably stays at or above the smallest
normalized magnitude, so the shared rounding block needs no
below-normal path (wider windows raise :class:`UnsupportedPrecision`).
Elementary functions are not synthesized here: their fixed-point iteration
counts are value-dependent, which has no constant-depth unrolling at this
granularity; they remain software-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .circuits import Circuit, Gate, evaluate_many
from .floats import FpNumber, Overflow, fp_add, fp_compare, fp_mul, iter_add

__all__ = [
    "BitEncoding",
    "SynthesizedOp",
    "UnsupportedPrecision",
    "check_op",
    "synth_primitive",
]

MAX_PRECISION = 6
MAX_ITER_OPERANDS = 64
SYNTH_KINDS = ("compare", "add", "mul", "iter_add")


class UnsupportedPrecision(ValueError):
    """Parameters outside the synthesizable range (p, window, or m)."""


def _to_twos(value: int, width: int) -> tuple[int, ...]:
    """Little-endian two's-complement bits of ``value``."""
    if not -(1 << (width - 1)) <= value < (1 << (width - 1)):
        raise ValueError(f"{value} does not fit {width} signed bits")
    return tuple((value >> i) & 1 for i in range(width))


def _from_twos(bits: Sequence[int]) -> int:
    value = 0
    for i, bit in enumerate(bits):
        value |= (bit & 1) << i
    if bits and (bits[-1] & 1):
        value -= 1 << len(bits)
    return value


@dataclass(frozen=True, slots=True)
class BitEncoding:
    """Fixed-width binary layout of a p-bit float.

    ``sig_bits = p + 1`` two's-complement significand bits (little-endian)
    followed by ``exp_bits`` two's-complement exponent bits.  Encodable
    values are zero (all bits clear) and every normalized significand with
    an exponent inside ``[-2**(exp_bits-1), 2**(exp_bits-1))``.
    """

    p: int
    exp_bits: int

    @property
    def sig_bits(self) -> int:
        return self.p + 1

    @property
    def width(self) -> int:
        return self.sig_bits + self.exp_bits

    @property
    def e_min(self) -> int:
        return -(1 << (self.exp_bits - 1))

    @property
    def e_max(self) -> int:
        return (1 << (self.exp_bits - 1)) - 1

    def encode(self, x: FpNumber) -> tuple[int, ...]:
        if x.p != self.p:
            raise ValueError(f"value has p={x.p}, encoding has p={self.p}")
        if not x.is_zero and not self.e_min <= x.e <= self.e_max:
            raise ValueError(f"exponent {x.e} outside window of {self}")
        return _to_twos(x.m, self.sig_bits) + _to_twos(x.e, self.exp_bits)

    def decode(self, bits: Sequence[int]) -> FpNumber:
        if len(bits) != self.width:
            raise ValueError(f"expected {self.width} bits, got {len(bits)}")
        m = _from_twos(bits[: self.sig_bits])
        e = _from_twos(bits[self.sig_bits :])
        if m == 0 and e != 0:
            raise ValueError(f"non-canonical zero encoding (e={e})")
        return FpNumber(m, e, self.p)  # constructor validates normal form

    def enumerate_values(self) -> list[FpNumber]:
        """All encodable values: zero plus every normalized (m, e) pair."""
        out = [FpNumber.zero(self.p)]
        lo, hi = 1 << (self.p - 1), (1 << self.p) - 1
        for m in range(lo, hi + 1):
            for e in range(self.e_min, self.e_max + 1):
                out.append(FpNumber(m, e, self.p))
                out.append(FpNumber(-m, e, self.p))
        return out


# ----------------------------------------------------------------- builder


class _Builder:
    """Gate emitter with light constant/identity folding.

    The ``raw_*`` variants bypass folding; the counting stage uses them so
    that degenerate columns keep the same gate levels as full ones.
    """

    def __init__(self) -> None:
        self.gates: list[Gate] = []
        self._c0: int | None = None
        self._c1: int | None = None

    def _emit(self, kind: str, inputs: tuple[int, ...] = (), k: int | None = None) -> int:
        gid = len(self.gates)
        self.gates.append(Gate(gid, kind, inputs, k))
        return gid

    def input(self) -> int:
        return self._emit("INPUT")

    def const0(self) -> int:
        if self._c0 is None:
            self._c0 = self._emit("CONST0")
        return self._c0

    def const1(self) -> int:
        if self._c1 is None:
            self._c1 = self._emit("CONST1")
        return self._c1

    def _const_of(self, gid: int) -> int | None:
        kind = self.gates[gid].kind
        if kind == "CONST0":
            return 0
        if kind == "CONST1":
            return 1
        return None

    def not_(self, x: int) -> int:
        c = self._const_of(x)
        if c is not None:
            return self.const1() if c == 0 else self.const0()
        g = self.gates[x]
        if g.kind == "NOT":
            return g.inputs[0]
        return self._emit("NOT", (x,))

    def and_(self, *xs: int) -> int:
        live: list[int] = []
        for x in xs:
            c = self._const_of(x)
            if c == 0:
                return self.const0()
            if c == 1:
                continue
            if x not in live:
                live.append(x)
        if not live:
            return self.const1()
        if len(live) == 1:
            return live[0]
        return self._emit("AND", tuple(live))

    def or_(self, *xs: int) -> int:
        live: list[int] = []
        for x in xs:
            c = self._const_of(x)
            if c == 1:
                return self.const1()
            if c == 0:
                continue
            if x not in live:
                live.append(x)
        if not live:
            return self.const0()
        if len(live) == 1:
            return live[0]
        return self._emit("OR", tuple(live))

    def threshold(self, k: int, xs: Sequence[int]) -> int:
        live: list[int] = []
        for x in xs:
            c = self._const_of(x)
            if c == 1:
                k -= 1
            elif c is None:
                live.append(x)
        if k <= 0:
            return self.const1()
        if k > len(live):
            return self.const0()
        if k == 1:
            return self.or_(*live)
        if k == len(live):
            return self.and_(*live)
        return self._emit("THRESHOLD", tuple(live), k)

    # Unfolded emitters: fixed gate levels regardless of degenerate inputs.
    def raw_not(self, x: int) -> int:
        return self._emit("NOT", (x,))

    def raw_and(self, xs: Sequence[int]) -> int:
        return self._emit("AND", tuple(xs))

    def raw_or(self, xs: Sequence[int]) -> int:
        return self._emit("OR", tuple(xs))

    def raw_threshold(self, k: int, xs: Sequence[int]) -> int:
        return self._emit("THRESHOLD", tuple(xs), k)

    def build(self, outputs: Sequence[int]) -> Circuit:
        return Circuit(self.gates, outputs)


# ------------------------------------------------------------ word helpers


def _xor2(b: _Builder, x: int, y: int) -> int:
    return b.and_(b.or_(x, y), b.not_(b.and_(x, y)))


def _sign_extend(b: _Builder, bits: Sequence[int], width: int) -> list[int]:
    bits = list(bits)
    if len(bits) > width:
        raise ValueError("cannot narrow in sign_extend")
    return bits + [bits[-1]] * (width - len(bits))


def _zero_extend(b: _Builder, bits: Sequence[int], width: int) -> list[int]:
    return list(bits) + [b.const0()] * (width - len(bits))


def _const_word(b: _Builder, value: int, width: int) -> list[int]:
    return [b.const1() if bit else b.const0() for bit in _to_twos(value, width)]


def _cla_add(
    b: _Builder,
    xs: Sequence[int],
    ys: Sequence[int],
    cin: int | None = None,
    uniform_carries: bool = False,
) -> tuple[list[int], int]:
    """Carry-lookahead sum of two equal-width words, constant depth.

    Returns (sum bits, carry out); the sum is exact modulo ``2**width``.
    With ``uniform_carries`` the carry ORs are emitted unfolded, so an
    addend with few live bits (a narrow exponent window, say) keeps the
    same gate levels as a fully live one instead of collapsing shallower.
    """
    if len(xs) != len(ys):
        raise ValueError("cla_add needs equal widths")
    width = len(xs)
    gen = [b.and_(x, y) for x, y in zip(xs, ys)]
    pro = [b.or_(x, y) for x, y in zip(xs, ys)]
    half = [b.and_(pro[i], b.not_(gen[i])) for i in range(width)]  # x XOR y
    carries: list[int] = []
    for i in range(width + 1):
        terms = [b.and_(gen[j], *pro[j + 1 : i]) for j in range(i)]
        if cin is not None:
            terms.append(b.and_(cin, *pro[:i]))
        if not terms:
            carries.append(b.const0())
        elif uniform_carries:
            carries.append(b.raw_or(terms))
        else:
            carries.append(b.or_(*terms))
    sums = [_xor2(b, half[i], carries[i]) for i in range(width)]
    return sums, carries[width]


def _sub(b: _Builder, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """Two's-complement difference ``xs - ys`` (equal widths)."""
    neg = [b.not_(y) for y in ys]
    bits, _ = _cla_add(b, list(xs), neg, cin=b.const1())
    return bits


def _add_const(b: _Builder, xs: Sequence[int], value: int, cin: int | None = None) -> list[int]:
    bits, _ = _cla_add(b, list(xs), _const_word(b, value, len(xs)), cin=cin)
    return bits


def _cond_negate(b: _Builder, xs: Sequence[int], flag: int) -> list[int]:
    """Two's-complement negation applied when ``flag`` is set."""
    flipped = [_xor2(b, x, flag) for x in xs]
    bits, _ = _cla_add(b, flipped, [b.const0()] * len(xs), cin=flag)
    return bits


def _unsigned_lt(b: _Builder, xs: Sequence[int], ys: Sequence[int]) -> int:
    if len(xs) != len(ys):
        raise ValueError("comparator needs equal widths")
    eq = [b.not_(_xor2(b, x, y)) for x, y in zip(xs, ys)]
    terms = [
        b.and_(b.not_(xs[i]), ys[i], *eq[i + 1 :]) for i in range(len(xs))
    ]
    return b.or_(*terms)


def _signed_lt(b: _Builder, xs: Sequence[int], ys: Sequence[int]) -> int:
    flip_x = list(xs[:-1]) + [b.not_(xs[-1])]
    flip_y = list(ys[:-1]) + [b.not_(ys[-1])]
    return _unsigned_lt(b, flip_x, flip_y)


def _equals_const(b: _Builder, bits: Sequence[int], value: int) -> int:
    """Match a two's-complement word against a compile-time constant."""
    pattern = _to_twos(value, len(bits))
    literals = [x if bit else b.not_(x) for x, bit in zip(bits, pattern)]
    return b.and_(*literals)


def _select_shift_left(
    b: _Builder, bits: Sequence[int], amounts: dict[int, int], width: int
) -> list[int]:
    """One-hot barrel shifter: sum over v of ``sel_v AND (bits << v)``.

    ``amounts`` maps shift distance to its (mutually exclusive) select
    signal; the word is sign-extended to ``width`` first, so the result is
    exact whenever ``width`` accommodates the largest shifted value.
    """
    ext = _sign_extend(b, bits, width)
    out: list[int] = []
    for i in range(width):
        terms = [
            b.and_(sel, ext[i - v]) for v, sel in amounts.items() if i - v >= 0
        ]
        out.append(b.or_(*terms))
    return out


# ----------------------------------------------------- column-count adders


def _count_bits_uniform(b: _Builder, column: Sequence[int]) -> list[int]:
    """Population count of a column via THRESHOLD gates, fixed gate levels.

    Bit ``j`` of the count is a symmetric function: OR over v (with bit j
    set) of EXACTLY(v) = T_v AND NOT T_{v+1}.  A constant-0 sentinel joins
    the column so ``T_{f+1}`` is a real gate even at the top, and the
    unfolded emitters keep every column at the same four gate levels no
    matter its height — that is what makes the whole reduction pipeline's
    depth independent of the operand count.
    """
    f = len(column)
    padded = list(column) + [b.const0()]
    t = {v: b.raw_threshold(v, padded) for v in range(1, f + 2)}
    exact = {v: b.raw_and([t[v], b.raw_not(t[v + 1])]) for v in range(1, f + 1)}
    bits: list[int] = []
    for j in range(f.bit_length()):
        bits.append(b.raw_or([exact[v] for v in range(1, f + 1) if (v >> j) & 1]))
    return bits


def _counting_stage(
    b: _Builder, numbers: Sequence[Sequence[int]], width: int
) -> list[list[int]]:
    """Reduce k addends to ``k.bit_length()`` addends, exactly mod 2**width."""
    k = len(numbers)
    for num in numbers:
        if len(num) != width:
            raise ValueError("counting stage requires full-width addends")
    counts = [
        _count_bits_uniform(b, [num[w] for num in numbers]) for w in range(width)
    ]
    out = [[b.const0()] * width for _ in range(k.bit_length())]
    for w, cb in enumerate(counts):
        for j, bit in enumerate(cb):
            if w + j < width:
                out[j][w + j] = bit
    return out


def _iterated_sum(b: _Builder, numbers: Sequence[Sequence[int]], width: int) -> list[int]:
    """Sum ``2 <= k <= 64`` two's-complement addends in fixed structure.

    Exactly three counting stages (64 -> 7 -> 3 -> 2, degenerating to
    2 -> 2 -> 2 -> 2 for small k) followed by one carry-lookahead add; the
    stage count never varies, so neither does the gate depth.
    """
    if not 2 <= len(numbers) <= MAX_ITER_OPERANDS:
        raise ValueError(f"iterated sum supports 2..{MAX_ITER_OPERANDS} addends")
    nums = [list(n) for n in numbers]
    for _ in range(3):
        nums = _counting_stage(b, nums, width)
    if len(nums) != 2:
        raise AssertionError("counting pipeline must end with two addends")
    bits, _ = _cla_add(b, nums[0], nums[1])
    return bits


# ------------------------------------------------------------ round block


def _round_block(
    b: _Builder,
    a_bits: Sequence[int],
    sign: int,
    e_bits: Sequence[int],
    p: int,
    out_exp_bits: int,
) -> tuple[list[int], list[int], int]:
    """Round ``(-1)^sign * A * 2**E`` to p bits: nearest, ties to even.

    ``A`` is an unsigned magnitude, ``E`` a two's-complement exponent in
    ``out_exp_bits`` bits.  Callers guarantee a nonzero value is at least
    the smallest normalized magnitude (see the module docstring), so the
    only special cases are zero and overflow.  Returns
    ``(significand bits, exponent bits, overflow flag)``; on zero or
    overflow the value outputs are forced to the all-zero canonical form.
    """
    a = list(a_bits)
    width = len(a)
    zero = b.not_(b.or_(*a))
    lead = [
        b.and_(a[l], b.not_(b.or_(*a[l + 1 :]))) if l < width - 1 else a[l]
        for l in range(width)
    ]

    cand_m: list[list[int]] = []
    cand_renorm: list[int] = []
    for l in range(width):
        if l <= p - 1:
            shift = (p - 1) - l
            mbits = [a[j - shift] if j - shift >= 0 else b.const0() for j in range(p)]
            cand_m.append(mbits)
            cand_renorm.append(b.const0())
        else:
            s = l - p + 1
            base = a[s : s + p]
            round_bit = a[s - 1]
            sticky = b.or_(*a[: s - 1]) if s >= 2 else b.const0()
            round_up = b.and_(round_bit, b.or_(sticky, base[0]))
            inc, carry = _cla_add(b, base, [b.const0()] * p, cin=round_up)
            mbits = [b.and_(b.not_(carry), inc[j]) for j in range(p - 1)]
            mbits.append(b.or_(carry, inc[p - 1]))
            cand_m.append(mbits)
            cand_renorm.append(carry)

    m_sel = [
        b.or_(*[b.and_(lead[l], cand_m[l][j]) for l in range(width)])
        for j in range(p)
    ]
    renorm = b.or_(*[b.and_(lead[l], cand_renorm[l]) for l in range(width)])
    lw = max((width - 1).bit_length(), 1)
    l_bin = [
        b.or_(*[lead[l] for l in range(width) if (l >> j) & 1]) for j in range(lw)
    ]

    x1, _ = _cla_add(b, list(e_bits), _zero_extend(b, l_bin, len(e_bits)))
    e_full = _add_const(b, x1, -(p - 1), cin=renorm)
    over = b.not_(_signed_lt(b, e_full, _const_word(b, 1 << p, len(e_bits))))
    ovf = b.and_(b.not_(zero), over)
    live = b.and_(b.not_(zero), b.not_(ovf))

    m_signed = _cond_negate(b, _zero_extend(b, m_sel, p + 1), sign)
    m_out = [b.and_(bit, live) for bit in m_signed]
    e_out = [b.and_(bit, live) for bit in e_full]
    return m_out, e_out, ovf


# -------------------------------------------------------------- primitives


@dataclass(frozen=True, slots=True)
class SynthesizedOp:
    """A synthesized primitive with its bit-level interface.

    Inputs are the operands' encodings concatenated in order.  For the
    rounding ops the outputs are ``p+1`` significand bits, then
    ``output_encoding.exp_bits`` exponent bits, then one overflow flag (set
    exactly when the software op raises Overflow; the value outputs are
    zeroed in that case).  ``compare`` outputs two bits ``(lt, gt)`` with
    equality encoded as ``00``.
    """

    kind: str
    p: int
    circuit: Circuit
    input_encoding: BitEncoding
    output_encoding: BitEncoding | None
    m: int | None = None

    def encode_inputs(self, operands: Sequence[FpNumber]) -> list[int]:
        expected = self.m if self.kind == "iter_add" else 2
        if len(operands) != expected:
            raise ValueError(f"{self.kind} takes {expected} operands")
        bits: list[int] = []
        for x in operands:
            bits.extend(self.input_encoding.encode(x))
        return bits


def _decode_operand(b: _Builder, enc: BitEncoding) -> tuple[list[int], list[int]]:
    m = [b.input() for _ in range(enc.sig_bits)]
    e = [b.input() for _ in range(enc.exp_bits)]
    return m, e


def _mux_word(b: _Builder, sel: int, when1: Sequence[int], when0: Sequence[int]) -> list[int]:
    return [
        b.or_(b.and_(sel, x), b.and_(b.not_(sel), y)) for x, y in zip(when1, when0)
    ]


def _aligned_decode(
    b: _Builder, enc: BitEncoding
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Decode two operands and apply the zero-alignment rule to exponents."""
    m_a, e_a = _decode_operand(b, enc)
    m_b, e_b = _decode_operand(b, enc)
    zero_a = b.not_(b.or_(*m_a))
    zero_b = b.not_(b.or_(*m_b))
    e_a2 = _mux_word(b, zero_a, e_b, e_a)
    e_b2 = _mux_word(b, zero_b, e_a, e_b)
    return m_a, e_a2, m_b, e_b2


def _quarter_fail(b: _Builder, m_bits: Sequence[int], delta: int) -> int:
    """1 iff ``m / 2**delta`` is not an integer multiple of 1/4 (delta >= 3).

    Divisibility of a two's-complement word by ``2**(delta-2)`` is just its
    low bits; beyond the word width a nonzero operand can never comply.
    """
    take = min(delta - 2, len(m_bits))
    return b.or_(*m_bits[:take])


def _out_exp_bits(p: int, exp_bits: int) -> int:
    return max(exp_bits + 5, p + 3)


def _synth_add(p: int, exp_bits: int) -> SynthesizedOp:
    b = _Builder()
    enc = BitEncoding(p, exp_bits)
    m_a, e_a, m_b, e_b = _aligned_decode(b, enc)

    swap = _signed_lt(b, e_a, e_b)
    m_hi = _mux_word(b, swap, m_b, m_a)
    m_lo = _mux_word(b, swap, m_a, m_b)
    e_hi = _mux_word(b, swap, e_b, e_a)
    e_lo = _mux_word(b, swap, e_a, e_b)

    dmax = (1 << exp_bits) - 1
    dw = exp_bits + 1
    delta = _sub(b, _sign_extend(b, e_hi, dw), _sign_extend(b, e_lo, dw))
    onehot = {v: _equals_const(b, delta, v) for v in range(dmax + 1)}

    # Exact sum in units of 2**(e_lo - 3):  m_hi*2**(d+3) + 8*m_lo + qf*2**d.
    width = p + dmax + 5
    hi_shifted = _select_shift_left(
        b, m_hi, {v + 3: sel for v, sel in onehot.items()}, width
    )
    lo_eighths = [b.const0()] * 3 + _sign_extend(b, m_lo, width - 3)
    bias = [b.const0()] * width
    for v in range(3, dmax + 1):
        bias[v] = b.and_(onehot[v], _quarter_fail(b, m_lo, v))
    partial, _ = _cla_add(b, hi_shifted, lo_eighths)
    s8, _ = _cla_add(b, partial, bias)

    sign = s8[-1]
    magnitude = _cond_negate(b, s8, sign)
    w_out = _out_exp_bits(p, exp_bits)
    e_scaled = _add_const(b, _sign_extend(b, e_lo, w_out), -3)
    m_out, e_out, ovf = _round_block(b, magnitude, sign, e_scaled, p, w_out)
    circuit = b.build(m_out + e_out + [ovf])
    return SynthesizedOp("add", p, circuit, enc, BitEncoding(p, w_out))


def _synth_compare(p: int, exp_bits: int) -> SynthesizedOp:
    b = _Builder()
    enc = BitEncoding(p, exp_bits)
    m_a, e_a, m_b, e_b = _aligned_decode(b, enc)

    dmax = (1 << exp_bits) - 1
    dw = exp_bits + 1
    delta = _sub(b, _sign_extend(b, e_a, dw), _sign_extend(b, e_b, dw))
    onehot = {v: _equals_const(b, delta, v) for v in range(-dmax, dmax + 1)}

    # Scale both sides by 2**(3 + max(delta, 0)): the verdict of
    # m_a versus (m_b /~ 2**delta) is preserved and both sides are integers.
    width = p + dmax + 5
    amounts_a = {3: b.or_(*[onehot[v] for v in range(-dmax, 1)])}
    amounts_a.update({3 + v: onehot[v] for v in range(1, dmax + 1)})
    amounts_b = {3: b.or_(*[onehot[v] for v in range(0, dmax + 1)])}
    amounts_b.update({3 + v: onehot[-v] for v in range(1, dmax + 1)})
    lhs = _select_shift_left(b, m_a, amounts_a, width)
    rhs_base = _select_shift_left(b, m_b, amounts_b, width)
    # The bias word is padded with a gated zero so the adder sees a fully
    # live addend at every window width: otherwise a narrow window (a
    # single possible bias position) folds the carry logic two levels
    # shallower and the comparator's depth would vary with the window.
    # The gate hangs off the delta == 0 selector, which every window has.
    pad_zero = b.raw_and([onehot[0], b.const0()])
    bias = [b.const0()] * 3 + [pad_zero] * (width - 3)
    for v in range(3, dmax + 1):
        bias[v] = b.and_(onehot[v], _quarter_fail(b, m_b, v))
    rhs, _ = _cla_add(b, rhs_base, bias, uniform_carries=True)

    lt = _signed_lt(b, lhs, rhs)
    gt = _signed_lt(b, rhs, lhs)
    circuit = b.build([lt, gt])
    return SynthesizedOp("compare", p, circuit, enc, None)


def _synth_mul(p: int, exp_bits: int) -> SynthesizedOp:
    b = _Builder()
    enc = BitEncoding(p, exp_bits)
    m_a, e_a = _decode_operand(b, enc)
    m_b, e_b = _decode_operand(b, enc)

    sign = _xor2(b, m_a[-1], m_b[-1])
    abs_a = _cond_negate(b, m_a, m_a[-1])[:p]
    abs_b = _cond_negate(b, m_b, m_b[-1])[:p]
    width = 2 * p
    rows = [
        [b.const0()] * i
        + [b.and_(abs_b[i], bit) for bit in abs_a]
        + [b.const0()] * (width - p - i)
        for i in range(p)
    ]
    product = _iterated_sum(b, rows, width)

    w_out = _out_exp_bits(p, exp_bits)
    e_sum, _ = _cla_add(
        b, _sign_extend(b, e_a, w_out), _sign_extend(b, e_b, w_out)
    )
    m_out, e_out, ovf = _round_block(b, product, sign, e_sum, p, w_out)
    circuit = b.build(m_out + e_out + [ovf])
    return SynthesizedOp("mul", p, circuit, enc, BitEncoding(p, w_out))


def _synth_iter_add(p: int, exp_bits: int, m: int) -> SynthesizedOp:
    b = _Builder()
    enc = BitEncoding(p, exp_bits)
    span = 1 << exp_bits
    width = p + span + max(m - 1, 1).bit_length() + 2
    values: list[list[int]] = []
    for _ in range(m):
        m_i, e_i = _decode_operand(b, enc)
        onehot = {
            v: _equals_const(b, e_i, enc.e_min + v) for v in range(span)
        }
        values.append(_select_shift_left(b, m_i, onehot, width))
    total = _iterated_sum(b, values, width)

    sign = total[-1]
    magnitude = _cond_negate(b, total, sign)
    w_out = _out_exp_bits(p, exp_bits)
    e_const = _const_word(b, enc.e_min, w_out)
    m_out, e_out, ovf = _round_block(b, magnitude, sign, e_const, p, w_out)
    circuit = b.build(m_out + e_out + [ovf])
    return SynthesizedOp("iter_add", p, circuit, enc, BitEncoding(p, w_out), m=m)


def synth_primitive(
    kind: str, p: int, exp_bits: int | None = None, m: int | None = None
) -> SynthesizedOp:
    """Synthesize one primitive as a constant-depth threshold circuit.

    ``exp_bits`` defaults to ``p`` (the window ``[-2**(p-1), 2**(p-1))``).
    The rounding ops require ``exp_bits <= p``; ``iter_add`` additionally
    takes the operand count ``2 <= m <= 64``.  Out-of-range parameters
    raise :class:`UnsupportedPrecision`.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown primitive {kind!r}, expected one of {SYNTH_KINDS}")
    if not 2 <= p <= MAX_PRECISION:
        raise UnsupportedPrecision(f"p={p} outside synthesizable range [2, {MAX_PRECISION}]")
    if exp_bits is None:
        exp_bits = p
    if exp_bits < 1:
        raise UnsupportedPrecision(f"exp_bits={exp_bits} must be >= 1")
    if kind != "compare" and exp_bits > p:
        raise UnsupportedPrecision(
            f"window exp_bits={exp_bits} > p={p}: rounding ops need the "
            "underflow-free window exp_bits <= p"
        )
    if kind == "iter_add":
        if m is None or not 2 <= m <= MAX_ITER_OPERANDS:
            raise UnsupportedPrecision(
                f"iter_add operand count must be in [2, {MAX_ITER_OPERANDS}], got {m}"
            )
        return _synth_iter_add(p, exp_bits, m)
    if m is not None:
        raise ValueError(f"operand count only applies to iter_add, not {kind}")
    if kind == "add":
        return _synth_add(p, exp_bits)
    if kind == "mul":
        return _synth_mul(p, exp_bits)
    return _synth_compare(p, exp_bits)


# ------------------------------------------------------------- conformance


def _reference_result(kind: str, operands: Sequence[FpNumber]):
    if kind == "add":
        return fp_add(operands[0], operands[1])
    if kind == "mul":
        return fp_mul(operands[0], operands[1])
    if kind == "iter_add":
        return iter_add(list(operands))
    return fp_compare(operands[0], operands[1])


def check_op(
    op: SynthesizedOp, cases: Sequence[Sequence[FpNumber]] | None = None
) -> dict:
    """Compare a synthesized primitive against the software operation.

    ``cases=None`` runs the exhaustive sweep over every encodable operand
    pair (two-operand kinds only).  All cases are evaluated in a single
    bit-sliced pass.  Returns a report dict with the case count and the
    first few mismatches (empty list means full agreement).
    """
    if cases is None:
        if op.kind == "iter_add":
            raise ValueError("iter_add has no exhaustive sweep; pass explicit cases")
        values = op.input_encoding.enumerate_values()
        cases = [(x, y) for x in values for y in values]
    assignments = [op.encode_inputs(list(c)) for c in cases]
    results = evaluate_many(op.circuit, assignments)
    mismatches: list[dict] = []
    for case, out_bits in zip(cases, results):
        if op.kind == "compare":
            verdict = _reference_result("compare", case)
            want = {
                "less": (1, 0),
                "greater": (0, 1),
                "equal": (0, 0),
            }[verdict.value]
            if tuple(out_bits) != want:
                mismatches.append(
                    {"operands": [str(x) for x in case], "want": want, "got": out_bits}
                )
            continue
        flag = out_bits[-1]
        try:
            want_val = _reference_result(op.kind, case)
        except Overflow:
            if flag != 1:
                mismatches.append(
                    {"operands": [str(x) for x in case], "want": "overflow", "got": out_bits}
                )
            continue
        ok = False
        if flag == 0:
            got_val = op.output_encoding.decode(out_bits[:-1])
            ok = got_val == want_val
        if not ok:
            mismatches.append(
                {
                    "operands": [str(x) for x in case],
                    "want": str(want_val),
                    "got": out_bits,
                }
            )
        if len(mismatches) >= 10:
            break
    return {
        "kind": op.kind,
        "p": op.p,
        "cases": len(cases),
        "mismatches": mismatches,
        "ok": not mismatches,
    }
