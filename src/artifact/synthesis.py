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
shape.  In the operand count ``m`` sizes stay polynomial: the tests fit a
cubic to ``iter_add``'s size over m = 2 to 64 at a fixed window.  In the
window they do not: ``compare`` and ``add`` shift by every exponent gap
the window holds, and ``iter_add`` by every exponent, into words as wide
as that range, so their size grows about fourfold per window bit,
exponentially in the exponent's width (``mul`` stays flat).

The rounding ops require ``exp_bits <= p``: inside that window a nonzero
exact result of add/mul/iter-add provably stays at or above the smallest
normalized magnitude, so the shared rounding block needs no
below-normal path (wider windows raise :class:`UnsupportedPrecision`).
``compare`` has no rounding block, but for that fourfold growth its
window is capped at ``MAX_PRECISION`` bits as well.
Elementary functions are not synthesized here: their fixed-point iteration
counts are value-dependent, which has no constant-depth unrolling at this
granularity; they remain software-only.

Synthesis is a pure function of ``(kind, p, exp_bits, m)``, so
:func:`synth_primitive` keeps what it builds in a least-recently-used
memo and returns the same immutable :class:`SynthesizedOp` to every later
caller with the same parameters (``exp_bits=None`` and ``exp_bits=p`` are
one key).  The memo is bounded by the gates it holds, not by a count of
ops: circuit sizes span more than two orders of magnitude across the
synthesizable range (``iter_add`` at p=6, m=64 alone is 63,275 gates, about
15 MB), so the whole range does not fit in memory, and a count bound would
either evict the small ops a sweep reuses or let a handful of the largest
fill memory.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice, product, repeat
from typing import Iterable, Iterator, Sequence

from .circuits import BLOCK_LANES, Circuit, CircuitBuilder, _pack_fields, evaluate_words, pack_codes
from .floats import Comparison, FpNumber, Overflow, Pair
from .floats import _add, _compare, _iter_add, _mul, _normal, _require_p, _round

__all__ = [
    "BitEncoding",
    "SynthesizedOp",
    "UnsupportedPrecision",
    "check_op",
    "synth_primitive",
]

MAX_PRECISION = 6
MAX_ITER_OPERANDS = 64


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
    # Derived from the two above once, at construction: ``code`` runs once
    # per distinct operand of every check, and per operand in ``input_code``.
    sig_bits: int = field(init=False, repr=False, compare=False)
    width: int = field(init=False, repr=False, compare=False)
    e_min: int = field(init=False, repr=False, compare=False)
    e_max: int = field(init=False, repr=False, compare=False)
    sig_mask: int = field(init=False, repr=False, compare=False)
    exp_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sig_bits, exp_bits = self.p + 1, self.exp_bits
        half = 1 << (exp_bits - 1)
        for name, value in (
            ("sig_bits", sig_bits),
            ("width", sig_bits + exp_bits),
            ("e_min", -half),
            ("e_max", half - 1),
            ("sig_mask", (1 << sig_bits) - 1),
            ("exp_mask", (1 << exp_bits) - 1),
        ):
            object.__setattr__(self, name, value)

    def code(self, x: FpNumber) -> int:
        """The encoding as one integer: bit ``i`` is bit ``i`` of ``encode(x)``."""
        if x.p != self.p:
            raise ValueError(f"value has p={x.p}, encoding has p={self.p}")
        e = x.e
        if not self.e_min <= e <= self.e_max and not x.is_zero:
            raise ValueError(f"exponent {e} outside window of {self}")
        return (x.m & self.sig_mask) | ((e & self.exp_mask) << self.sig_bits)

    def encode(self, x: FpNumber) -> tuple[int, ...]:
        code = self.code(x)
        return tuple((code >> i) & 1 for i in range(self.width))

    def decode(self, bits: Sequence[int]) -> FpNumber:
        if len(bits) != self.width:
            raise ValueError(f"expected {self.width} bits, got {len(bits)}")
        m = _from_twos(bits[: self.sig_bits])
        e = _from_twos(bits[self.sig_bits :])
        if m == 0 and e != 0:
            raise ValueError(f"non-canonical zero encoding (e={e})")
        return FpNumber(m, e, self.p)  # constructor validates normal form

    def enumerate_values(self) -> list[FpNumber]:
        """All encodable values: zero plus every normalized (m, e) pair, in
        the order of :meth:`_pairs`."""
        return [FpNumber(m, e, self.p) for m, e in self._pairs()]

    def _pairs(self) -> list[Pair]:
        """Every encodable value as its ``(m, e)`` pair: zero, then each
        significand magnitude in ascending order, each of its exponents in
        ascending order, ``+m`` before ``-m``.  Drawn and swept cases are
        indices into this list.  A precision below 1, or a window wider
        than any p-bit float's exponent range, is refused as
        :class:`FpNumber` refuses it."""
        p, e_min = self.p, self.e_min
        _require_p(p)
        if e_min < -(1 << p):
            raise ValueError(f"exponent {e_min} outside [-2**p, 2**p) for p={p}")
        exps = range(e_min, self.e_max + 1)
        signed = [(s, e) for m in range(1 << (p - 1), 1 << p) for e in exps for s in (m, -m)]
        return [(0, 0), *signed]

    def _codes(self, pairs: Sequence[Pair]) -> list[int]:
        """:meth:`code` of each pair, which must be encodable."""
        sig_mask, exp_mask, sig_bits = self.sig_mask, self.exp_mask, self.sig_bits
        return [(m & sig_mask) | (e & exp_mask) << sig_bits for m, e in pairs]


# ----------------------------------------------------------------- builder


class _Builder(CircuitBuilder):
    """A :class:`~artifact.circuits.CircuitBuilder` that shares
    structurally equal gates, with light constant/identity folding.

    Every gate but a source is interned as it is emitted (the structural
    hashing of AND-inverter graphs, ABC's ``strash``): it is keyed on its
    kind, inputs and ``k``, with AND and OR inputs sorted and deduplicated
    and THRESHOLD inputs sorted, and is emitted once, with those canonical
    inputs; a later equal gate is the earlier id.  So a synthesized
    circuit's gates are its distinct gates.  Interning folds nothing, and
    a shared gate stands at the level of each of its copies, so depth does
    not change.

    Its folding helpers are ``not_``, ``and_`` and ``or_``.  Where a gate
    must stay unfolded, so that degenerate columns and narrow windows keep
    the same gate levels as full ones, the caller uses :meth:`emit`
    directly: the counting stage, ``_cla_add``'s uniform carries and the
    comparator's gated pad.
    """

    def __init__(self) -> None:
        super().__init__()
        self._c0: int | None = None
        self._c1: int | None = None
        self._ids: dict[tuple, int] = {}

    def emit(self, kind: str, inputs: tuple[int, ...] = (), k: int | None = None) -> int:
        if kind == "AND" or kind == "OR":
            inputs = tuple(sorted(set(inputs)))
        elif kind == "THRESHOLD":
            inputs = tuple(sorted(inputs))
        elif not inputs:  # a source: never interned
            return CircuitBuilder.emit(self, kind, inputs, k)
        return self._intern(kind, inputs, k)

    def _intern(self, kind: str, inputs: tuple[int, ...], k: int | None = None) -> int:
        """The id of the gate ``(kind, inputs, k)``, inputs already in
        canonical order; only a gate not seen before reaches
        :meth:`CircuitBuilder.emit`, and so its check."""
        key = (kind, inputs, k)
        gid = self._ids.get(key)
        if gid is None:
            gid = self._ids[key] = CircuitBuilder.emit(self, kind, inputs, k)
        return gid

    def const0(self) -> int:
        if self._c0 is None:
            self._c0 = self.emit("CONST0")
        return self._c0

    def const1(self) -> int:
        if self._c1 is None:
            self._c1 = self.emit("CONST1")
        return self._c1

    # The constants are emitted only by const0/const1, so a gate id is a
    # constant exactly when it equals _c0 or _c1.
    def not_(self, x: int) -> int:
        if x == self._c0:
            return self.const1()
        if x == self._c1:
            return self.const0()
        g = self.gates[x]
        if g.kind == "NOT":
            return g.inputs[0]
        return self._intern("NOT", (x,))

    def and_(self, *xs: int) -> int:
        live = set(xs)
        if self._c0 in live:
            return self.const0()
        live.discard(self._c1)
        if not live:
            return self.const1()
        if len(live) == 1:
            return live.pop()
        return self._intern("AND", tuple(sorted(live)))

    def or_(self, *xs: int) -> int:
        live = set(xs)
        if self._c1 in live:
            return self.const1()
        live.discard(self._c0)
        if not live:
            return self.const0()
        if len(live) == 1:
            return live.pop()
        return self._intern("OR", tuple(sorted(live)))


# ------------------------------------------------------------ word helpers


def _xor2(b: _Builder, x: int, y: int) -> int:
    return b.and_(b.or_(x, y), b.not_(b.and_(x, y)))


def _sign_extend(bits: Sequence[int], width: int) -> list[int]:
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
            carries.append(b.emit("OR", tuple(terms)))
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
    ext = _sign_extend(bits, width)
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
    padded = (*column, b.const0())  # one tuple, shared by every T_v
    t = {v: b.emit("THRESHOLD", padded, v) for v in range(1, f + 2)}
    exact = {
        v: b.emit("AND", (t[v], b.emit("NOT", (t[v + 1],)))) for v in range(1, f + 1)
    }
    bits: list[int] = []
    for j in range(f.bit_length()):
        bits.append(b.emit("OR", tuple(exact[v] for v in range(1, f + 1) if (v >> j) & 1)))
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

    Immutable, circuit included: :func:`synth_primitive` hands the same op
    to every caller that asks for the same parameters.
    """

    kind: str
    p: int
    circuit: Circuit
    input_encoding: BitEncoding
    output_encoding: BitEncoding | None
    m: int | None = None

    @property
    def n_operands(self) -> int:
        return self.m if self.kind == "iter_add" else 2

    def input_code(self, operands: Sequence[FpNumber]) -> int:
        """The input bits as one integer: bit ``i`` feeds INPUT gate ``i``."""
        if len(operands) != self.n_operands:
            raise ValueError(f"{self.kind} takes {self.n_operands} operands")
        enc = self.input_encoding
        code = 0
        for t, x in enumerate(operands):
            code |= enc.code(x) << (t * enc.width)
        return code

    def encode_inputs(self, operands: Sequence[FpNumber]) -> list[int]:
        code = self.input_code(operands)
        return [(code >> i) & 1 for i in range(self.circuit.n_inputs)]


def _decode_operand(b: _Builder, enc: BitEncoding) -> tuple[list[int], list[int]]:
    m = [b.emit("INPUT") for _ in range(enc.sig_bits)]
    e = [b.emit("INPUT") for _ in range(enc.exp_bits)]
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
    delta = _sub(b, _sign_extend(e_hi, dw), _sign_extend(e_lo, dw))
    onehot = {v: _equals_const(b, delta, v) for v in range(dmax + 1)}

    # Exact sum in units of 2**(e_lo - 3):  m_hi*2**(d+3) + 8*m_lo + qf*2**d.
    width = p + dmax + 5
    hi_shifted = _select_shift_left(
        b, m_hi, {v + 3: sel for v, sel in onehot.items()}, width
    )
    lo_eighths = [b.const0()] * 3 + _sign_extend(m_lo, width - 3)
    bias = [b.const0()] * width
    for v in range(3, dmax + 1):
        bias[v] = b.and_(onehot[v], _quarter_fail(b, m_lo, v))
    partial, _ = _cla_add(b, hi_shifted, lo_eighths)
    s8, _ = _cla_add(b, partial, bias)

    sign = s8[-1]
    magnitude = _cond_negate(b, s8, sign)
    w_out = _out_exp_bits(p, exp_bits)
    e_scaled = _add_const(b, _sign_extend(e_lo, w_out), -3)
    m_out, e_out, ovf = _round_block(b, magnitude, sign, e_scaled, p, w_out)
    circuit = b.build(m_out + e_out + [ovf])
    return SynthesizedOp("add", p, circuit, enc, BitEncoding(p, w_out))


def _synth_compare(p: int, exp_bits: int) -> SynthesizedOp:
    b = _Builder()
    enc = BitEncoding(p, exp_bits)
    m_a, e_a, m_b, e_b = _aligned_decode(b, enc)

    dmax = (1 << exp_bits) - 1
    dw = exp_bits + 1
    delta = _sub(b, _sign_extend(e_a, dw), _sign_extend(e_b, dw))
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
    pad_zero = b.emit("AND", (onehot[0], b.const0()))
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
    e_sum, _ = _cla_add(b, _sign_extend(e_a, w_out), _sign_extend(e_b, w_out))
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


#: Each primitive kind's synthesizer and the software op it is checked
#: against: the kernel op of ``fp_compare``, ``fp_add``, ``fp_mul`` or
#: ``iter_add`` on ``(m, e)`` pairs.  The binary ops take ``(a, b, p)``,
#: ``iter_add`` takes ``(xs, p)``.
_PRIMITIVES = {
    "compare": (_synth_compare, _compare),
    "add": (_synth_add, _add),
    "mul": (_synth_mul, _mul),
    "iter_add": (_synth_iter_add, _iter_add),
}
SYNTH_KINDS = tuple(_PRIMITIVES)


class _OpMemo:
    """Synthesized ops by ``(kind, p, exp_bits, m)``, least recently used
    first, holding at most ``budget`` gates in all (see the module
    docstring for why gates).  :meth:`get` builds an op on a miss, and an
    op larger than the whole budget is returned without being kept.  Not
    safe to share between threads.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.held = 0
        self.ops: OrderedDict[tuple, SynthesizedOp] = OrderedDict()

    def get(self, key: tuple) -> SynthesizedOp:
        op = self.ops.get(key)
        if op is not None:
            self.ops.move_to_end(key)
            return op
        kind, p, exp_bits, m = key
        synthesize = _PRIMITIVES[kind][0]
        op = synthesize(p, exp_bits) if m is None else synthesize(p, exp_bits, m)
        size = len(op.circuit.gates)
        if size <= self.budget:
            self.ops[key] = op
            self.held += size
            while self.held > self.budget:
                self.held -= len(self.ops.popitem(last=False)[1].circuit.gates)
        return op


#: Gates the process keeps synthesized: the 31 distinct ops of a sweep over
#: add/mul/compare at p 2-4 and iter_add at p=3 (32,592 gates) eight times over.
_MEMO_GATES = 1 << 18
_MEMO = _OpMemo(_MEMO_GATES)


def synth_primitive(
    kind: str, p: int, exp_bits: int | None = None, m: int | None = None
) -> SynthesizedOp:
    """Synthesize one primitive as a constant-depth threshold circuit.

    ``exp_bits`` defaults to ``p`` (the window ``[-2**(p-1), 2**(p-1))``).
    The rounding ops require ``exp_bits <= p``, and ``compare`` takes
    ``exp_bits <= MAX_PRECISION`` (6): its size grows about fourfold per
    window bit.  ``iter_add`` additionally takes the operand count
    ``2 <= m <= 64``.  Out-of-range parameters raise
    :class:`UnsupportedPrecision`.

    Every call is validated; a valid one is synthesized only if the
    process has not already built it and kept it (:class:`_OpMemo`), so
    callers with equal parameters share one op.
    """
    return _MEMO.get(_op_key(kind, p, exp_bits, m))


def _op_key(kind: str, p: int, exp_bits: int | None, m: int | None) -> tuple:
    """The memo key ``(kind, p, exp_bits, m)`` of valid parameters, with
    ``exp_bits=None`` read as ``p``; invalid ones raise as
    :func:`synth_primitive` documents.  Builds nothing."""
    if kind not in _PRIMITIVES:
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
    if exp_bits > MAX_PRECISION:
        raise UnsupportedPrecision(
            f"window exp_bits={exp_bits} outside synthesizable range [1, {MAX_PRECISION}]"
        )
    if kind == "iter_add":
        if m is None or not 2 <= m <= MAX_ITER_OPERANDS:
            raise UnsupportedPrecision(
                f"iter_add operand count must be in [2, {MAX_ITER_OPERANDS}], got {m}"
            )
    elif m is not None:
        raise ValueError(f"operand count only applies to iter_add, not {kind}")
    return kind, p, exp_bits, m


# ------------------------------------------------------------- conformance


MAX_MISMATCHES = 10
MAX_SWEEP_LANES = 1 << 25  # p=6 add at the default window is 4097**2 lanes


def _verdict_codes(ref, cases: Iterable[tuple[Pair, Pair]], p: int) -> list[int]:
    """The verdict ``ref(a, b, p)`` of each case, coded as ``compare``'s
    ``(lt, gt)`` output bits; by identity, as an ``Enum`` hashes in Python.
    A verdict other than a :class:`~artifact.floats.Comparison` raises."""
    less, greater, equal = Comparison.LESS, Comparison.GREATER, Comparison.EQUAL
    codes: list[int] = []
    append = codes.append
    for a, b in cases:
        verdict = ref(a, b, p)
        if verdict is less:
            append(1)  # lt
        elif verdict is greater:
            append(2)  # gt
        elif verdict is equal:
            append(0)
        else:
            raise TypeError(f"compare returned {verdict!r}, not a Comparison")
    return codes


def _lane_codes(op: SynthesizedOp, cases: Iterable[tuple]) -> list[int]:
    """Reference results of every case, each coded like the circuit's
    outputs, two more bits above them: one set where the reference
    overflows (with the flag output; only the flag is checked there), one
    where the output encoding cannot hold the reference result (always a
    mismatch, as no output bits can equal it).

    A case is the two arguments of one kernel call before ``p``: the
    operand pairs ``(a, b)`` of a binary kind's op, or for ``iter_add`` a
    lane's integer sum ``n`` and the exponent ``k`` it is scaled to, which
    ``floats._round`` rounds (:class:`_ScaledSums`).  Each case costs that
    one call, with its own ``Overflow`` handling, and no other Python-level
    call: the cases come from C iterators, the op is called by name with
    positional arguments, a verdict is coded by identity (an ``Enum``
    hashes in Python) and a result by inlined :meth:`BitEncoding.code`.
    """
    p = op.p
    ref = _round if op.kind == "iter_add" else _PRIMITIVES[op.kind][1]
    if op.kind == "compare":
        return _verdict_codes(ref, cases, p)
    n_out = len(op.circuit.outputs)
    codes: list[int] = []
    append = codes.append
    enc = op.output_encoding
    sig_mask, exp_mask, sig_bits = enc.sig_mask, enc.exp_mask, enc.sig_bits
    e_min, e_max = enc.e_min, enc.e_max
    overflow = 1 << (n_out - 1) | 1 << n_out
    unencodable = 1 << (n_out + 1)
    for a, b in cases:
        try:
            m, e = ref(a, b, p)
        except Overflow:
            append(overflow)
            continue
        if e_min <= e <= e_max:
            append((m & sig_mask) | (e & exp_mask) << sig_bits)
        else:
            append(unencodable)
    return codes


def _expected_words(op: SynthesizedOp, cases: Iterable[tuple]) -> list[int]:
    """Reference results of every case, packed like the circuit's outputs:
    :func:`_lane_codes`, one kernel call per case, transposed by
    :func:`~artifact.circuits.pack_codes` into one word per output, then
    the overflow and unencodable bit planes.  The reference of explicit
    and sampled cases of the binary kinds; the exhaustive binary sweeps
    derive theirs from scale classes (:class:`_ScaleClasses`), and every
    ``iter_add`` check from scaled sums (:class:`_ScaledSums`), each
    through this function for the lanes it hands over."""
    return pack_codes(_lane_codes(op, cases), len(op.circuit.outputs) + 2)


class _ScaledSums:
    """The expected words of ``iter_add`` cases, sampled, explicit or
    swept: one integer sum and one ``floats._round`` call per lane.

    ``floats._iter_add(xs, p)`` is ``_round(sum(m << (e - e0)), e0, p)``
    over the nonzero operands, ``e0`` their least exponent.  ``_round``
    depends only on the value ``n * 2**k`` (``_round(n << s, k - s, p) ==
    _round(n, k, p)`` for ``s >= 0``, ``Overflow`` included), so any
    common exponent at or below every operand's gives the same result.
    Each value of the check is scaled once to the input window's least
    exponent ``k``, ``scaled[j] = m_j << (e_j - k)`` (zero is 0), and a
    lane's result is ``_round`` of its operands' scaled sum at ``k``.  The
    cases hand over the sums (``lane_sums``) with C-level ``sum`` and
    ``map``, and :func:`_expected_words` codes them.
    """

    def __init__(self, op: SynthesizedOp, pairs: list[Pair]):
        self.op = op
        self.k = k = op.input_encoding.e_min
        self.scaled = [m << (e - k) for m, e in pairs]

    def expected_words(self, block: _SweepCases | _IndexCases) -> list[int]:
        return _expected_words(self.op, zip(block.lane_sums(self.scaled), repeat(self.k)))


class _ScaleClasses:
    """The expected words of an exhaustive ``add``, ``mul`` or ``compare``
    sweep (:func:`_sweep_blocks`), one kernel call per scale class rather
    than one per lane.

    Inside the kernel's exponent range, ``floats._round(n, k, p)`` takes
    its significand from ``n`` alone and adds ``k`` to the exponent: a
    result ``(m, e)`` with ``-2**p < e < 2**p`` at ``k`` is ``(m, e + t)``
    at ``k + t`` whenever ``-2**p < e + t < 2**p``.  So for nonzero
    operands ``(am, ae)`` and ``(bm, be)``, ``compare``'s verdict is a
    function of ``(am, bm, be - ae)``; ``add``'s result is that of
    ``(am, 0) + (bm, be - ae)`` shifted by ``ae``; ``mul``'s is that of
    ``am * bm`` at exponent 0, shifted by ``ae + be``.

    In ``enumerate_values``' order a head ``(am, ae)``'s row of lanes is
    the zero lane, then one run of ``2 * 2**exp_bits`` lanes per magnitude
    of ``b``: its exponents in order, both signs of each.  For each signed
    head significand, a *template* per magnitude of ``b`` holds the codes
    of that run for every relative exponent, ``2 * 2**exp_bits - 1`` of
    them, both signs interleaved: indexed by ``be - ae`` for ``compare``
    and ``add``, by ``ae + be`` for ``mul``.  A row is the ``bytes`` join
    of its templates' slices at ``ae``'s offset.  ``compare``'s entries
    are kernel calls, exact for every lane of the class; ``mul``'s are
    its one ``(am, bm)`` call shifted to each ``ae + be``, each final.
    ``add``'s entries hold the class result with a biased exponent in
    32-bit fields, so each row gets ``ae`` by one replicated integer add
    and drops the bias by one AND.

    Every lane still gets a reference value; those that break the pattern
    take the kernel one by one, as :func:`_lane_codes` codes them: lanes
    with a zero operand, and lanes whose class result is zero, overflowed,
    has an exponent at or below ``-2**p`` (it may come from the underflow
    branch) or shifts to one there or at or above ``2**p``, or leaves the
    output window.  Each template lists its own such lanes, row by row;
    for ``mul`` a breaking entry is one kernel call at its ``ae + be``,
    as every lane of that entry makes the same one.  Templates are built
    on a head significand's first row and kept for the sweep; rows are
    built block by block, as :func:`_check_blocks` asks for them.
    """

    def __init__(self, op: SynthesizedOp, pairs: list[Pair]):
        enc, out = op.input_encoding, op.output_encoding
        self.op = op
        self.pairs = pairs
        self.ref = _PRIMITIVES[op.kind][1]
        self.span = 1 << enc.exp_bits
        self.e_min = enc.e_min
        self.stride = 1 if out is None else 4
        self.width = len(op.circuit.outputs) + 2
        # Template bytes and the lanes to take one by one, by head significand.
        self.templates: dict[int, tuple[list[bytes], dict[int, list[int]]]] = {}
        if out is None:
            return
        lim = 1 << op.p
        # The exponents a shifted result may have and keep the pattern.
        self.lo = max(1 - lim, out.e_min)
        self.hi = min(lim - 1, out.e_max)
        if op.kind == "add":
            # A power of two at least 2**out.exp_bits, above any |e + ae|.
            self.bias = 1 << (max(out.exp_bits, op.p, enc.exp_bits) + 2)
            ones = int.from_bytes(b"\1\0\0\0" * (len(pairs) - 1), "little")
            self.ae_unit = ones << out.sig_bits
            self.mask = ones * (out.sig_mask | out.exp_mask << out.sig_bits)

    def _start(self, ae: int) -> int:
        """The byte offset, in each template, of the row of heads with exponent ``ae``."""
        j = ae - self.e_min
        entry = 2 * self.stride
        return entry * (j if self.op.kind == "mul" else self.span - 1 - j)

    def _classes(self, a: Pair, bs: list[Pair]) -> list[Pair]:
        """The class result ``ref(a, b)`` for each ``b`` in turn, ``(0, 0)``
        where it cannot be shifted: a zero result, an overflow, or an
        exponent at or below ``-2**p``."""
        ref, p, floor = self.ref, self.op.p, -(1 << self.op.p)
        results = []
        for b in bs:
            try:
                m, e = ref(a, b, p)
            except Overflow:
                m = e = 0
            results.append((m, e) if e > floor else (0, 0))
        return results

    def _templates(self, am: int) -> tuple[list[bytes], dict[int, list[int]]]:
        """The templates of head significand ``am``, one per magnitude of
        ``b``, and the lanes of its rows to take one by one, keyed by the
        head's exponent."""
        found = self.templates.get(am)
        if found is None:
            build = getattr(self, f"_{self.op.kind}_template")
            templates: list[bytes] = []
            fixes: dict[int, list[int]] = {}
            for bm in range(1 << (self.op.p - 1), 1 << self.op.p):
                offset = 1 + 2 * self.span * len(templates)  # the run's first lane in a row
                template, breaks = build(am, bm)
                templates.append(template)
                for ae, lane in breaks:
                    fixes.setdefault(ae, []).append(offset + lane)
            found = self.templates[am] = (templates, fixes)
        return found

    # A template builder returns the template of ``am`` against ``bm`` and
    # the lanes of its run to take one by one, as ``(ae, lane)`` pairs.

    def _compare_template(self, am: int, bm: int) -> tuple[bytes, list]:
        cases = [((am, 0), (b, d)) for d in range(1 - self.span, self.span) for b in (bm, -bm)]
        return bytes(_verdict_codes(self.ref, cases, self.op.p)), []

    def _mul_template(self, am: int, bm: int) -> tuple[bytes, list]:
        out, lo, hi = self.op.output_encoding, self.lo, self.hi
        sig_mask, exp_mask, sig_bits = out.sig_mask, out.exp_mask, out.sig_bits
        signed = (bm, -bm)
        classes = self._classes((am, 0), [(b, 0) for b in signed])
        codes, broken = [], []
        for s in range(2 * self.e_min, 2 * (self.e_min + self.span) - 1):
            for b, (m, e) in zip(signed, classes):
                if m and lo <= e + s <= hi:
                    codes.append((m & sig_mask) | ((e + s) & exp_mask) << sig_bits)
                else:
                    broken.append((len(codes), ((am, s), (b, 0))))
                    codes.append(0)
        if broken:
            for (k, _), code in zip(broken, _lane_codes(self.op, [case for _, case in broken])):
                codes[k] = code
        return struct.pack(f"<{len(codes)}I", *codes), []

    def _add_template(self, am: int, bm: int) -> tuple[bytes, list[tuple[int, int]]]:
        out, lo, hi = self.op.output_encoding, self.lo, self.hi
        sig_mask, sig_bits = out.sig_mask, out.sig_bits
        bias, span, e_min = self.bias, self.span, self.e_min
        e_max = e_min + span - 1
        rels = range(1 - span, span)
        classes = self._classes((am, 0), [(b, d) for d in rels for b in (bm, -bm)])
        fields, breaks = [], []
        for k, (m, e) in enumerate(classes):
            d = rels[k >> 1]
            # The head exponents of the rows that hold this entry.
            first = e_min - d if d < 0 else e_min
            last = e_max - d if d > 0 else e_max
            if m:
                fields.append((m & sig_mask) | (e + bias) << sig_bits)
                if lo <= e + first and e + last <= hi:
                    continue
            else:
                fields.append(bias << sig_bits)
            # Lane ``2 * (be - e_min) + sign`` of the run, at ``be = ae + d``.
            lane = 2 * (d - e_min) + (k & 1)
            for ae in range(first, last + 1):
                if not (m and lo <= e + ae <= hi):
                    breaks.append((ae, lane + 2 * ae))
        return struct.pack(f"<{len(fields)}I", *fields), breaks

    def expected_words(self, block: _SweepCases) -> list[int]:
        """The expected output words of one sweep block, as
        :func:`_expected_words` gives them."""
        pairs, stride, n_values = self.pairs, self.stride, len(self.pairs)
        size = 2 * stride * self.span
        add = self.op.kind == "add"
        pieces: list[bytes] = []
        lanes: list[int] = []  # the lanes that take the kernel one by one
        for k, (h,) in enumerate(block.heads):
            base = k * n_values
            am, ae = pairs[h]
            if not am:
                pieces.append(bytes(n_values * stride))
                lanes.extend(range(base, base + n_values))
                continue
            templates, fixes = self._templates(am)
            start = self._start(ae)
            row = b"".join([t[start : start + size] for t in templates])
            if add:
                row = int.from_bytes(row, "little") + self.ae_unit * ae
                row = (row & self.mask).to_bytes(size * len(templates), "little")
            pieces += (bytes(stride), row)
            lanes.append(base)
            lanes.extend([base + lane for lane in fixes.get(ae, ())])
        data = bytearray(b"".join(pieces))
        for lane, code in zip(lanes, _lane_codes(self.op, [block[lane] for lane in lanes])):
            data[lane * stride : lane * stride + stride] = code.to_bytes(stride, "little")
        return _pack_fields(data, stride, self.width)


def _mismatch_lanes(outputs: list[int], expected: list[int], limit: int) -> list[int]:
    """The first ``limit`` lanes, in order, where outputs and reference disagree.

    The last output (the overflow flag, or ``gt`` for compare) is checked on
    every lane; the others are skipped on lanes where the reference
    overflows.
    """
    *want, overflow, unencodable = expected
    values = 0
    for got, exp in zip(outputs[:-1], want[:-1]):
        values |= got ^ exp
    diff = (values & ~overflow) | (outputs[-1] ^ want[-1]) | unencodable
    lanes = []
    while diff and len(lanes) < limit:
        low = diff & -diff
        lanes.append(low.bit_length() - 1)
        diff ^= low
    return lanes


def _mismatch_report(op: SynthesizedOp, case: Sequence[Pair], got: tuple[int, ...]) -> dict:
    ref = _PRIMITIVES[op.kind][1]
    if op.kind == "compare":
        code = _verdict_codes(ref, [case], op.p)[0]
        want = (code & 1, code >> 1)  # (lt, gt)
    else:
        try:
            m, e = ref(case, op.p) if op.kind == "iter_add" else ref(*case, op.p)
            want = str(_normal(m, e, op.p))
        except Overflow:
            want = "overflow"
    return {"operands": [str(_normal(*x, op.p)) for x in case], "want": want, "got": got}


class _SweepCases:
    """The cases of one sweep block, made on demand: lane ``h*V + j`` is
    head ``h`` followed by ``values[j]``.  No list of cases is built, so
    a block's cases never sit in memory beside the circuit's wires, and
    its lane sums run in C iterators, with Python code once per head."""

    def __init__(self, values: list[Pair], heads: list[tuple[int, ...]]):
        self.values = values
        self.heads = heads

    def __len__(self) -> int:
        return len(self.heads) * len(self.values)

    def __getitem__(self, lane: int) -> tuple[Pair, ...]:
        h, j = divmod(lane, len(self.values))
        return (*[self.values[i] for i in self.heads[h]], self.values[j])

    def lane_sums(self, scaled: list[int]) -> Iterator[int]:
        """Each lane's sum of ``scaled`` over its operands' value indices:
        a head's sum, once, plus each of ``scaled`` in turn."""
        get = scaled.__getitem__
        return chain.from_iterable(map(sum(map(get, h)).__add__, scaled) for h in self.heads)


def _sweep_blocks(op: SynthesizedOp, values: list[Pair]):
    """The exhaustive sweep as ``(cases, input words)`` blocks of at most
    ``BLOCK_LANES`` lanes (and at least one head), the cases a
    :class:`_SweepCases` over the values' ``(m, e)`` pairs.

    Lanes run in mixed radix over the value list, the first operand most
    significant: for two operands lane ``i*V + j`` is ``(values[i],
    values[j])``.  A block is a run of heads (value indices of all operands
    but the last), each followed by all V values of the last operand.  In
    it, a bit of the last operand is a V-lane pattern repeated once per
    head, and a bit of a leading operand is a run of V equal lanes per
    head; both are written as binary strings, with no per-lane encoding.
    """
    enc = op.input_encoding
    n_values = len(values)
    codes = enc._codes(values)
    ones, zeros = "1" * n_values, "0" * n_values
    bit_runs = [[ones if (c >> k) & 1 else zeros for c in codes] for k in range(enc.width)]
    last_patterns = [
        "".join("1" if (c >> k) & 1 else "0" for c in reversed(codes))
        for k in range(enc.width)
    ]
    heads = product(range(n_values), repeat=op.n_operands - 1)
    per_block = max(1, BLOCK_LANES // n_values)
    while block := list(islice(heads, per_block)):
        words = []
        for t in range(op.n_operands - 1):
            for runs in bit_runs:
                words.append(int("".join([runs[h[t]] for h in reversed(block)]), 2))
        words.extend(int(pattern * len(block), 2) for pattern in last_patterns)
        yield _SweepCases(values, block), words


class _IndexCases:
    """Cases given as value indices, seen as their operands' ``(m, e)``
    pairs on demand: ``flat`` holds ``n`` indices into ``pairs`` per case,
    case after case."""

    def __init__(self, pairs: list[Pair], flat: list[int], n: int):
        self.pairs = pairs
        self.flat = flat
        self.n = n

    def __len__(self) -> int:
        return len(self.flat) // self.n

    def __iter__(self) -> Iterator[tuple[Pair, ...]]:
        pairs, flat, n = self.pairs, self.flat, self.n
        return zip(*[map(pairs.__getitem__, flat[t::n]) for t in range(n)])

    def __getitem__(self, lane: int) -> tuple[Pair, ...]:
        n = self.n
        return tuple([self.pairs[i] for i in self.flat[lane * n : lane * n + n]])

    def lane_sums(self, scaled: list[int]) -> Iterator[int]:
        """Each case's sum of ``scaled`` over its value indices, one C-level
        ``sum`` per case."""
        flat, n, get = self.flat, self.n, scaled.__getitem__
        return map(sum, zip(*[map(get, flat[t::n]) for t in range(n)]))


def _index_blocks(
    op: SynthesizedOp, codes: list[int], pairs: list[Pair], chunks: Iterable[list[int]]
):
    """Cases given as value indices, one :class:`_IndexCases` per chunk of
    ``chunks``, each a ``flat`` list of at most ``BLOCK_LANES`` cases.
    Value ``j`` has the input code ``codes[j]`` and the pair ``pairs[j]``.
    A block's input words are packed operand by operand: the codes of one
    operand's column of indices, transposed by :func:`pack_codes`."""
    n, width = op.n_operands, op.input_encoding.width
    for block in chunks:
        words: list[int] = []
        for t in range(n):
            words += pack_codes([codes[i] for i in block[t::n]], width)
        yield _IndexCases(pairs, block, n), words


def _check_indices(
    op: SynthesizedOp, pairs: list[Pair], chunks: Iterable[list[int]], total: int
) -> dict:
    """:func:`check_op` on ``total`` cases given as indices into the
    encodable ``pairs``, ``n`` per case, case after case (``n`` the op's
    operand count), in chunks of at most ``BLOCK_LANES`` cases: the sampled
    path, which builds no :class:`~artifact.floats.FpNumber`.  A chunk is
    asked for only once the one before it is checked, and none after the
    ``MAX_MISMATCHES``-th mismatch."""
    blocks = _index_blocks(op, op.input_encoding._codes(pairs), pairs, chunks)
    if op.kind == "iter_add":
        reference = _ScaledSums(op, pairs).expected_words
    else:
        reference = partial(_expected_words, op)
    return _check_blocks(op, total, blocks, reference)


def _check_blocks(op: SynthesizedOp, total: int, blocks, reference) -> dict:
    """Run ``(cases, input words)`` blocks through the circuit and
    ``reference``, which gives a block's expected words; the report of
    :func:`check_op`."""
    mismatches: list[dict] = []
    for block, words in blocks:
        outputs = evaluate_words(op.circuit, words, len(block))
        expected = reference(block)
        for lane in _mismatch_lanes(outputs, expected, MAX_MISMATCHES - len(mismatches)):
            got = tuple((w >> lane) & 1 for w in outputs)
            mismatches.append(_mismatch_report(op, block[lane], got))
        if len(mismatches) >= MAX_MISMATCHES:
            break
    return {
        "kind": op.kind,
        "p": op.p,
        "cases": total,
        "mismatches": mismatches,
        "ok": not mismatches,
    }


def check_op(
    op: SynthesizedOp, cases: Sequence[Sequence[FpNumber]] | None = None
) -> dict:
    """Compare a synthesized primitive against the software operation.

    ``cases=None`` runs the exhaustive sweep over every tuple of encodable
    operands (``V**2`` lanes for the binary kinds, ``V**m`` for
    ``iter_add``, with ``V`` encodable values); its input words are built
    directly from the values' ``(m, e)`` pairs and their codes, with no
    :class:`~artifact.floats.FpNumber` built.  Explicit cases are mapped to
    indices into their distinct values in one pass, which checks each
    case's length, and take the path the CLI's sampled check takes
    (:func:`_check_indices`): each distinct value encoded once, input
    words packed operand by operand from the values' codes, the reference
    run on their ``(m, e)`` pairs.  A case of the wrong length, or a value
    outside the window, raises as :meth:`SynthesizedOp.input_code` would.
    Either way the circuit runs through
    :func:`~artifact.circuits.evaluate_words` ``BLOCK_LANES`` lanes at a
    time, and every lane gets a reference value from the kernel's
    rounding.  Every ``iter_add`` check scales each value once to the
    input window's least exponent and rounds each lane's integer sum
    (:class:`_ScaledSums`).  For explicit and sampled cases of the binary
    kinds (:func:`_expected_words`), the kernel op is called once per lane
    on pairs handed over by C iterators, each lane with its own
    ``Overflow`` handling.  The exhaustive ``add``, ``mul`` and
    ``compare`` sweeps derive each lane's value from its scale class's one
    kernel call, a class being the lanes whose result is one result
    shifted in exponent (:class:`_ScaleClasses`); the lanes that break
    that pattern, those with a zero operand and those whose result is
    zero, overflows, or lies at the edge of the kernel's exponent range or
    outside the output window, are called one by one as above.  The coded
    results are transposed into expected output words block by block, and
    one XOR per output finds the mismatching lanes.  Where the reference
    overflows only the flag output is checked; a reference result outside
    the output encoding's window always mismatches.  A mismatch's wanted
    result comes from the kernel op itself.

    Returns a report dict with the case count and the first
    ``MAX_MISMATCHES`` (10) mismatches in case order, each with the
    operands, the wanted result and the circuit's output bits; an empty
    list means full agreement.
    """
    if cases is None:
        pairs = op.input_encoding._pairs()
        total = len(pairs) ** op.n_operands
        if total > MAX_SWEEP_LANES:
            raise ValueError(
                f"exhaustive sweep of {total} cases exceeds {MAX_SWEEP_LANES}; "
                "pass explicit cases"
            )
        reference = (_ScaledSums if op.kind == "iter_add" else _ScaleClasses)(op, pairs)
        return _check_blocks(op, total, _sweep_blocks(op, pairs), reference.expected_words)
    n = op.n_operands
    index: dict[FpNumber, int] = {}
    flat: list[int] = []
    for case in cases:
        if len(case) != n:
            raise ValueError(f"{op.kind} takes {n} operands")
        for x in case:
            flat.append(index.setdefault(x, len(index)))
    enc = op.input_encoding
    for x in index:
        enc.code(x)  # refuses another p or an exponent outside the window
    step = BLOCK_LANES * n
    chunks = (flat[i : i + step] for i in range(0, len(flat), step))
    return _check_indices(op, [(x.m, x.e) for x in index], chunks, len(flat) // n)
