"""Threshold-circuit intermediate representation.

A circuit is an immutable DAG of unbounded fan-in gates over the kinds
``INPUT``, ``CONST0``, ``CONST1``, ``NOT``, ``AND``, ``OR``, and
``THRESHOLD(k)`` (output 1 iff at least ``k`` inputs are 1).  A MAJORITY
gate over fan-in ``f`` is ``THRESHOLD(floor(f/2)+1)`` — "more than half".
Gate ids are dense and topologically ordered (every gate's inputs have
smaller ids), which makes evaluation a single forward pass.

Gates enter a circuit one way only, through a :class:`CircuitBuilder`,
which checks each gate once as it is added; the parser, the synthesizer,
the rewriters and ``Circuit(gates, outputs)`` itself all go through it.
The rewriters (:func:`to_majority_only` here, ``lower_or_gates`` in
:mod:`artifact.hardness`) share one copy pass, ``_rewrite``: it copies
sources and NOT gates and hands each AND, OR and THRESHOLD gate to the
rewriter's rule.

Depth counts gate levels along input-to-output paths: ``INPUT`` and the
two constant kinds are depth-zero sources (a constant lies on no
input-to-output path and computes nothing), every other gate is one level
above its deepest argument, and the circuit depth is the deepest output.
Size counts all non-``INPUT`` gates, constants included.

Evaluation is bit-sliced, with one core, :func:`evaluate_words`: a wire's
value on every lane is one integer (lane ``i`` at bit ``i``), so a single
forward pass of word-wide bitwise operations evaluates all lanes at once.
A threshold counts its inputs with a ripple popcount over bit planes and
then compares the count with ``k`` lane-wise.  A THRESHOLD gate whose input
tuple equals that of the threshold evaluated just before it reuses that
count, so the ``T_1 ... T_{f+1}`` run that synthesis emits per counting
column counts the column once; no count outlives one call.  When at least
``_DECODE_MIN`` gates of a run reuse the count, the first of them decodes
it once into every ``count >= k`` word of the column (``_ge_table``) and
the others look theirs up; a shorter run compares the count with each
``k`` on its own.  The gates are evaluated in fixed runs of ``_RUN`` (64),
and a wire's word is dropped once the run holding the last gate that reads
it has been evaluated (outputs stay), so the live words at any point are
those still to be read, plus at most one run's, not the whole circuit;
no gate is tested for wires to free.  The loop dispatches on one small
opcode per gate, kept in a ``bytes`` table: two-input AND and OR skip the
n-ary loop, and a THRESHOLD that starts a column is told apart from one
that reuses, decodes or looks up the last count.  That table, the runs
with their gates' input tuples, and the wires each run frees are worked
out in one pass per circuit, on its first evaluation, and kept with it.
:func:`evaluate_many` packs assignments into such words ``BLOCK_LANES``
lanes at a time (:func:`pack_codes` transposes per-lane integer codes into
bit planes) and unpacks the output words; :func:`evaluate` hands one
assignment to the core as one-bit words.
Callers that can build input words directly, such as the exhaustive sweep
of ``synthesis.check_op``, skip packing altogether.

The textual netlist format is one gate per line, ``id KIND [k] inputs...``,
followed by a final ``OUTPUTS id...`` line; it is read by the text rule
of :mod:`artifact._text`, and parsing reports the offending line number,
and a bad token, on error.
"""

from __future__ import annotations

import sys
from array import array
from functools import cached_property
from itertools import count
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from artifact._text import _ascii_int, _ascii_split, _token_lines

__all__ = [
    "ArityMismatch",
    "Circuit",
    "CircuitBuilder",
    "CircuitError",
    "Gate",
    "ParseError",
    "evaluate",
    "evaluate_many",
    "evaluate_words",
    "is_majority_only",
    "pack_codes",
    "parse_netlist",
    "serialize_netlist",
    "to_majority_only",
]

GATE_KINDS = ("INPUT", "CONST0", "CONST1", "NOT", "AND", "OR", "THRESHOLD")
_SOURCE_KINDS = ("INPUT", "CONST0", "CONST1")
# Lanes per evaluation block: a wire's word stays 8 KiB, so the live words
# of even a p=5 float circuit fit in tens of megabytes.
BLOCK_LANES = 1 << 16


class CircuitError(ValueError):
    """Structurally invalid circuit."""


class ArityMismatch(CircuitError):
    """An assignment's length does not match the circuit's input count."""


class ParseError(ValueError):
    """Netlist text rejected; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Gate(NamedTuple):
    id: int
    kind: str
    inputs: tuple[int, ...] = ()
    k: int | None = None  # THRESHOLD only


def _check_gate(g: Gate, i: int) -> None:
    """Raise :class:`CircuitError` unless ``g`` may stand at position ``i``
    of a gate list: its id is ``i``, its kind is known, its inputs precede
    it, its fan-in suits its kind, and only a THRESHOLD gate carries a
    ``k``, with ``1 <= k <= fan-in``."""
    if g.id != i:
        raise CircuitError(f"gate ids must be dense and ordered, got {g.id} at {i}")
    if g.kind not in GATE_KINDS:
        raise CircuitError(f"unknown gate kind {g.kind!r}")
    if g.inputs and (min(g.inputs) < 0 or max(g.inputs) >= i):
        raise CircuitError(f"gate {i} input ids must precede it")
    if g.kind in _SOURCE_KINDS:
        if g.inputs:
            raise CircuitError(f"{g.kind} gate {i} takes no inputs")
    elif g.kind == "NOT":
        if len(g.inputs) != 1:
            raise CircuitError(f"NOT gate {i} must have exactly one input")
    elif not g.inputs:
        raise CircuitError(f"{g.kind} gate {i} needs at least one input")
    if g.kind == "THRESHOLD":
        if g.k is None or not 1 <= g.k <= len(g.inputs):
            raise CircuitError(f"THRESHOLD gate {i} needs 1 <= k <= fan-in, got k={g.k}")
    elif g.k is not None:
        raise CircuitError(f"gate {i}: only THRESHOLD carries k")


class CircuitBuilder:
    """Adds gates one at a time, checking each as it comes, and seals them
    into a :class:`Circuit` with no second pass."""

    def __init__(self) -> None:
        self.gates: list[Gate] = []

    def emit(self, kind: str, inputs: tuple[int, ...] = (), k: int | None = None) -> int:
        """Add a ``kind`` gate under the next id; return that id.  A gate
        that fails this sufficient form of :func:`_check_gate`'s rules goes
        to :func:`_check_gate`, which words the rule it breaks."""
        gates = self.gates
        i = len(gates)
        g = tuple.__new__(Gate, (i, kind, inputs, k))  # skips Gate's Python-level __new__
        if inputs:
            ok = min(inputs) >= 0 and max(inputs) < i and (
                kind == "AND" or kind == "OR" or (kind == "NOT" and len(inputs) == 1)
                if k is None
                else kind == "THRESHOLD" and 1 <= k <= len(inputs)
            )
        else:
            ok = k is None and kind in _SOURCE_KINDS
        if not ok:
            _check_gate(g, i)
        gates.append(g)
        return i

    def add(self, gid: int, kind: str, inputs: tuple[int, ...] = (), k: int | None = None) -> int:
        """:meth:`emit` a gate whose id the caller gives: the next one."""
        if gid != len(self.gates):
            _check_gate(Gate(gid, kind, inputs, k), len(self.gates))
        return self.emit(kind, inputs, k)

    def build(self, outputs: Sequence[int]) -> Circuit:
        """Check the output ids and return the circuit."""
        return self._seal(Circuit.__new__(Circuit), outputs)

    def _seal(self, circuit: Circuit, outputs: Sequence[int]) -> Circuit:
        for o in outputs:
            if not 0 <= o < len(self.gates):
                raise CircuitError(f"output id {o} out of range")
        circuit.gates = tuple(self.gates)
        circuit.outputs = tuple(outputs)
        circuit._input_ids = tuple(g.id for g in circuit.gates if g.kind == "INPUT")
        return circuit


class Circuit:
    """A validated gate list plus designated output ids.

    Immutable by contract: nothing changes a circuit once it is built, so
    one circuit may be shared by any number of holders (synthesis returns
    the same op to every caller with the same parameters).
    """

    gates: tuple[Gate, ...]
    outputs: tuple[int, ...]

    def __init__(self, gates: Sequence[Gate], outputs: Sequence[int]):
        builder = CircuitBuilder()
        for g in gates:
            builder.add(*g)
        builder._seal(self, outputs)

    # ------------------------------------------------------------- metrics
    @property
    def n_inputs(self) -> int:
        return len(self._input_ids)

    @property
    def size(self) -> int:
        """Non-INPUT gate count (constants included)."""
        return sum(1 for g in self.gates if g.kind != "INPUT")

    @property
    def depth(self) -> int:
        """Gate levels on the deepest source-to-output path.

        Sources (inputs and constants) sit at level zero; every other gate
        is one level above its deepest argument.
        """
        level = [0] * len(self.gates)
        for g in self.gates:
            if g.kind in _SOURCE_KINDS:
                level[g.id] = 0
            else:
                level[g.id] = 1 + max((level[q] for q in g.inputs), default=0)
        return max((level[o] for o in self.outputs), default=0)

    @cached_property
    def _plan(self) -> tuple[bytes, list[_Run]]:
        """How :func:`evaluate_words` runs this circuit: one opcode per
        gate (see ``_OPCODES``), and the gates cut into runs of ``_RUN``
        (gates ``r*_RUN`` up to ``(r+1)*_RUN - 1`` are run ``r``), each
        with its opcodes, its gates' input tuples and the wires freed once
        the run has been evaluated: those whose last reader stands in it
        (or, if nothing reads them, that stand in it), outputs excepted.
        A THRESHOLD run over one input tuple with at least ``_DECODE_MIN``
        gates after its first marks the second ``_DECODE`` and the rest
        ``_TAKE``.  Built in one pass on the first evaluation and kept for
        the circuit's life."""
        ops = bytearray()
        last = list(range(len(self.gates)))
        counted: tuple[int, ...] | None = None
        for gid, kind, inputs, _ in self.gates:
            for q in inputs:
                last[q] = gid
            if kind == "THRESHOLD":
                ops.append(_RECOUNT if inputs == counted else _COUNT)
                counted = inputs
            elif len(inputs) == 2 and kind in _BINARY_OPCODES:
                ops.append(_BINARY_OPCODES[kind])
            else:
                ops.append(_OPCODES[kind])
        _mark_decoded_runs(ops)
        for o in self.outputs:
            last[o] = -1
        starts = range(0, len(self.gates), _RUN)
        frees: list[list[int]] = [[] for _ in starts]
        for q, reader in enumerate(last):
            if reader >= 0:
                frees[reader // _RUN].append(q)
        runs = [
            _Run(bytes(ops[i : i + _RUN]), tuple([g.inputs for g in self.gates[i : i + _RUN]]),
                 tuple(qs))
            for i, qs in zip(starts, frees)
        ]
        return bytes(ops), runs


class _Run(NamedTuple):
    """A run of ``Circuit._plan``: the opcodes and input tuples of its
    gates, and the wires that are dead once it has been evaluated."""

    ops: bytes
    inputs: tuple[tuple[int, ...], ...]
    dead: tuple[int, ...]


# The opcodes of ``Circuit._plan``.  A THRESHOLD gate is _COUNT when it
# counts its inputs afresh and _RECOUNT when its input tuple equals that
# of the THRESHOLD gate just before it, whose count it reuses.  In a run
# with at least _DECODE_MIN such reusing gates, the first is _DECODE,
# which turns the count into every ``count >= k`` word at once, and the
# others _TAKE, which look theirs up.
_AND2, _NOT, _RECOUNT, _OR, _AND, _OR2, _COUNT, _INPUT, _CONST0, _CONST1, _DECODE, _TAKE = (
    range(12)
)
_OPCODES = {"INPUT": _INPUT, "CONST0": _CONST0, "CONST1": _CONST1, "NOT": _NOT,
            "AND": _AND, "OR": _OR}
_BINARY_OPCODES = {"AND": _AND2, "OR": _OR2}
# Gates per run of ``Circuit._plan``: the evaluator frees wires once per
# run instead of testing every gate for wires to free.
_RUN = 64
# Below this many reusing gates, a run compares its count with each ``k``
# on its own (``_ge_const``).  From it on, decoding every threshold at once
# (``_ge_table``) is cheaper at 200 lanes, the width of a sampled check;
# at 65,536 lanes decoding is cheaper for runs of every length.
_DECODE_MIN = 5


def _mark_decoded_runs(ops: bytearray) -> None:
    """Mark the reusing gates of each THRESHOLD run that has at least
    ``_DECODE_MIN`` of them: the first ``_DECODE``, the others ``_TAKE``."""
    head = ops.find(_COUNT)
    while head >= 0:
        end = head + 1
        while end < len(ops) and ops[end] == _RECOUNT:
            end += 1
        if end - head - 1 >= _DECODE_MIN:
            ops[head + 1 : end] = bytes((_DECODE, *[_TAKE] * (end - head - 2)))
        head = ops.find(_COUNT, end)


def _popcount_planes(lanes: list[int]) -> list[int]:
    """Bit planes (little-endian) of the per-lane count of set inputs."""
    planes: list[int] = []
    for x in lanes:
        carry = x
        for i in range(len(planes)):
            planes[i], carry = planes[i] ^ carry, planes[i] & carry
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
            continue
    return planes


def _ge_const(planes: list[int], k: int, mask: int) -> int:
    """Lane-wise test: does the plane-encoded count reach constant k?"""
    if k <= 0:
        return mask
    if k.bit_length() > len(planes):
        return 0  # k exceeds every count the planes can hold
    gt = 0
    eq = mask
    for bit in range(len(planes) - 1, -1, -1):
        if (k >> bit) & 1:
            eq &= planes[bit]
        else:
            gt |= eq & planes[bit]
    return gt | eq


def _ge_table(planes: list[int], top: int, mask: int) -> list[int]:
    """The words ``count >= c`` for every ``c`` from 0 to ``top``, of a
    plane-encoded count no greater than ``top``.

    Each plane, lowest first, doubles the table: over planes 0 to ``j``,
    ``count >= c`` is plane ``j`` OR the test of ``c`` over the planes
    below it, and ``count >= 2**j + c`` is plane ``j`` AND that test, for
    ``c < 2**j``.  The last plane's AND half stops at ``top``.
    """
    ge = [mask]
    for plane in planes:
        ge = [mask, *[plane | x for x in ge[1:]], plane,
              *[plane & x for x in ge[1 : top + 1 - len(ge)]]]
    return ge + [0] * (top + 1 - len(ge))


def evaluate_words(
    circuit: Circuit, input_words: Sequence[int], lanes: int
) -> list[int]:
    """The bit-sliced core: evaluate on packed words, one per input.

    Bit ``i`` of ``input_words[j]`` is input ``j`` on lane ``i``; every
    word is below ``2**lanes``.  Returns one word per output in the same
    layout, so many assignments cost one forward pass of word-wide
    bitwise operations.  The gates run in runs of ``_RUN`` (64), and once
    a run has been evaluated the words whose last reader stands in it are
    dropped, so only the words still to be read, those of the current run,
    and the outputs are alive at once.  A run of thresholds over one input
    tuple counts it once; when it has enough gates, the count is decoded
    once into every ``count >= k`` word of the column (``_ge_table``).
    """
    if len(input_words) != circuit.n_inputs:
        raise ArityMismatch(
            f"assignment length {len(input_words)} != input count {circuit.n_inputs}"
        )
    mask = (1 << lanes) - 1
    wires: list[int | None] = [0] * len(circuit.gates)
    next_input = iter(input_words)
    gates = circuit.gates
    # Gate ids, counted across the runs: each run's zip stops at the end
    # of its opcodes before it asks ``ids`` for another.
    ids = count()
    # The popcount planes of the last _COUNT gate, which each _RECOUNT
    # gate after it reuses, and the words a _DECODE gate made of them for
    # the _TAKE gates after it.  The opcodes are tested most frequent
    # first, and as literals: comparing with a constant is cheaper than
    # looking up a global.  A THRESHOLD gate reads its ``k`` from its gate.
    planes: list[int] = []
    ge: list[int] = []
    for run_ops, run_inputs, dead in circuit._plan[1]:
        for op, inputs, gid in zip(run_ops, run_inputs, ids):
            if op == 0:  # _AND2
                a, b = inputs
                wires[gid] = wires[a] & wires[b]
            elif op == 1:  # _NOT
                wires[gid] = wires[inputs[0]] ^ mask
            elif op == 3:  # _OR
                acc = 0
                for q in inputs:
                    acc |= wires[q]
                wires[gid] = acc
            elif op == 4:  # _AND
                acc = mask
                for q in inputs:
                    acc &= wires[q]
                wires[gid] = acc
            elif op == 5:  # _OR2
                a, b = inputs
                wires[gid] = wires[a] | wires[b]
            elif op == 11:  # _TAKE
                wires[gid] = ge[gates[gid].k]
            elif op == 6:  # _COUNT
                planes = _popcount_planes([wires[q] for q in inputs])
                wires[gid] = _ge_const(planes, gates[gid].k, mask)
            elif op == 10:  # _DECODE
                ge = _ge_table(planes, len(inputs), mask)
                wires[gid] = ge[gates[gid].k]
            elif op == 2:  # _RECOUNT
                wires[gid] = _ge_const(planes, gates[gid].k, mask)
            elif op == 7:  # _INPUT
                wires[gid] = next(next_input)
            elif op == 8:  # _CONST0
                wires[gid] = 0
            else:  # _CONST1
                wires[gid] = mask
        for q in dead:
            wires[q] = None
    return [wires[o] for o in circuit.outputs]


# _BIT_DIGITS[b] maps a byte to the digit b"1" when its bit b is set, and
# _DIGIT_BITS maps the digits b"0" and b"1" back to the bytes 0 and 1.
_BIT_DIGITS = [bytes(0x31 if v >> b & 1 else 0x30 for v in range(256)) for b in range(8)]
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")
# For codes of 1 to 8 bytes, the typecode of the smallest native unsigned
# ``array`` item that holds one.
_ARRAY_TYPES = {
    size: min((array(t).itemsize, t) for t in "BHILQ" if array(t).itemsize >= size)[1]
    for size in range(1, 9)
}


def pack_codes(codes: Sequence[int], width: int) -> list[int]:
    """Transpose per-lane integer codes into ``width`` bit-plane words.

    Bit ``i`` of word ``j`` is bit ``j`` of ``codes[i]``; every code is
    below ``2**width``.  Each word is ``int`` of one digit string of
    :func:`_code_digits`.
    """
    if not codes:
        return [0] * width
    return [int(d, 2) for d in _code_digits(codes, width)]


def _code_digits(codes: Iterable[int], width: int) -> Iterator[bytes]:
    """For each bit ``j < width`` in turn, the binary digits of bit ``j``
    of every code, last code first, as ``bytes`` (``codes`` not empty): so
    ``int`` of digit string ``j`` is :func:`pack_codes`' word ``j``.

    The codes are laid out as fixed-width little-endian byte strings, so
    each digit string is one strided slice of them, translated to digits
    and reversed.  Codes of up to 64 bits are laid out by one C call, as
    an ``array`` of the smallest native unsigned item that holds them
    (byte-swapped on a big-endian machine); wider codes take one
    ``int.to_bytes`` each.  Digit strings are made one at a time, as they
    are asked for, so only one is alive at once.
    """
    stride = (width + 7) // 8
    if stride in _ARRAY_TYPES:
        lanes = array(_ARRAY_TYPES[stride], codes)
        if sys.byteorder == "big":
            lanes.byteswap()
        data, stride = lanes.tobytes(), lanes.itemsize
    else:
        data = b"".join([c.to_bytes(stride, "little") for c in codes])
    return _field_digits(data, stride, width)


def _field_digits(data: bytes, stride: int, width: int) -> Iterator[bytes]:
    """:func:`_code_digits` of codes already laid out as consecutive
    ``stride``-byte little-endian fields, lane ``i`` the ``i``-th field."""
    for j in range(width):
        yield data[j >> 3 :: stride].translate(_BIT_DIGITS[j & 7])[::-1]


def _pack_fields(data: bytes, stride: int, width: int) -> list[int]:
    """The ``width`` bit-plane words of codes laid out as consecutive
    ``stride``-byte little-endian fields, lane ``i`` the ``i``-th field
    (``data`` not empty): the transpose of :func:`pack_codes`, for callers
    that lay the fields out themselves."""
    return [int(d, 2) for d in _field_digits(data, stride, width)]


def _unpack(words: Sequence[int], lanes: int) -> list[tuple[int, ...]]:
    """Per-lane bit tuples from bit-plane words (the inverse transpose)."""
    if not words:
        return [()] * lanes
    planes = [
        format(w, f"0{lanes}b")[::-1].encode().translate(_DIGIT_BITS) for w in words
    ]
    return list(zip(*planes))


def evaluate_many(
    circuit: Circuit, assignments: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """Evaluate on many assignments at once.

    The assignments are packed into words ``BLOCK_LANES`` lanes at a time,
    evaluated by :func:`evaluate_words` and unpacked again, so memory stays
    bounded however many there are.
    """
    for a in assignments:
        if len(a) != circuit.n_inputs:
            raise ArityMismatch(
                f"assignment length {len(a)} != input count {circuit.n_inputs}"
            )
    results: list[tuple[int, ...]] = []
    for start in range(0, len(assignments), BLOCK_LANES):
        block = assignments[start : start + BLOCK_LANES]
        codes = [sum(1 << j for j, bit in enumerate(a) if bit) for a in block]
        words = pack_codes(codes, circuit.n_inputs)
        results.extend(_unpack(evaluate_words(circuit, words, len(block)), len(block)))
    return results


def evaluate(circuit: Circuit, assignment: Sequence[int]) -> tuple[int, ...]:
    """Evaluate one assignment; bits in INPUT-gate order."""
    words = [1 if bit else 0 for bit in assignment]
    return tuple(evaluate_words(circuit, words, 1))


# ------------------------------------------------------------ majority form


def _rewrite(
    circuit: Circuit, rule: Callable[[CircuitBuilder, Gate, tuple[int, ...]], int]
) -> Circuit:
    """Copy ``circuit`` gate by gate into a fresh builder.

    Sources and NOT gates are copied as they are; each AND, OR and
    THRESHOLD gate is handed to ``rule(builder, gate, inputs)``, with its
    inputs already mapped to their new ids, and becomes the id the rule
    returns.  Outputs map to the new ids of the same gates.
    """
    b = CircuitBuilder()
    remap: list[int] = []  # gate ids are dense, so a list indexed by old id
    for g in circuit.gates:
        ins = tuple(remap[q] for q in g.inputs)
        if g.kind in _SOURCE_KINDS or g.kind == "NOT":
            remap.append(b.emit(g.kind, ins))
        else:
            remap.append(rule(b, g, ins))
    return b.build([remap[o] for o in circuit.outputs])


def _majority(b: CircuitBuilder, g: Gate, ins: tuple[int, ...]) -> int:
    f = len(ins)
    k = f if g.kind == "AND" else 1 if g.kind == "OR" else g.k
    pads = f - 2 * k + 1
    if pads >= 0:
        extra = tuple(b.emit("CONST1") for _ in range(pads))
    else:
        extra = tuple(b.emit("CONST0") for _ in range(-pads))
    full = ins + extra
    return b.emit("THRESHOLD", full, len(full) // 2 + 1)


def to_majority_only(circuit: Circuit) -> Circuit:
    """Rewrite every AND/OR/THRESHOLD into a MAJORITY-shaped THRESHOLD.

    A ``THRESHOLD(k)`` of fan-in ``f`` is padded one-sidedly with
    ``f - 2k + 1`` CONST1 gates (when that is positive) or ``2k - 1 - f``
    CONST0 gates, giving odd fan-in ``F`` and threshold ``floor(F/2) + 1``:
    the count of live ones reaches the majority mark exactly when the
    original threshold fired.  AND and OR are thresholds with ``k = f`` and
    ``k = 1``; binary AND/OR become the familiar ``MAJ(x, y, CONST0)`` /
    ``MAJ(x, y, CONST1)``.  NOT and the sources stay (negation has no
    monotone majority form; the gate basis after rewriting is
    MAJORITY/NOT/constants).  Outputs are preserved gate-for-gate.
    """
    return _rewrite(circuit, _majority)


def is_majority_only(circuit: Circuit) -> bool:
    """True when every logic gate is a MAJORITY-shaped THRESHOLD or NOT."""
    for g in circuit.gates:
        if g.kind in ("AND", "OR"):
            return False
        if g.kind == "THRESHOLD":
            f = len(g.inputs)
            if f % 2 == 0 or g.k != f // 2 + 1:
                return False
    return True


# ---------------------------------------------------------------- netlists


def serialize_netlist(circuit: Circuit) -> str:
    """Canonical text form: one ``id KIND [k] inputs...`` line per gate,
    then ``OUTPUTS id...``."""
    lines = []
    for g in circuit.gates:
        parts = [str(g.id), g.kind]
        if g.kind == "THRESHOLD":
            parts.append(str(g.k))
        parts.extend(str(q) for q in g.inputs)
        lines.append(" ".join(parts))
    lines.append("OUTPUTS " + " ".join(str(o) for o in circuit.outputs))
    return "\n".join(lines) + "\n"


def parse_netlist(text: str) -> Circuit:
    """Read the netlist format (see the module docstring).

    A non-ASCII character outside a comment (``#`` first) lands in a token,
    which the token's check refuses by name; a comment may hold any text.
    """

    def number(line_no: int, what: str, token: str) -> int:
        value = _ascii_int(token)
        if value is None:
            raise ParseError(line_no, f"bad {what} {token!r}")
        return value

    builder = CircuitBuilder()
    outputs: list[int] | None = None
    lines, last = _token_lines(text)
    for line_no, raw in lines:
        parts = _ascii_split(raw)
        if parts[0].startswith("#"):
            continue
        if parts[0] == "OUTPUTS":
            if outputs is not None:
                raise ParseError(line_no, "duplicate OUTPUTS line")
            outputs = [number(line_no, "output id", x) for x in parts[1:]]
            continue
        if outputs is not None:
            raise ParseError(line_no, "gate line after OUTPUTS")
        gid = number(line_no, "gate id", parts[0])
        if len(parts) < 2:
            raise ParseError(line_no, "missing gate kind")
        kind = parts[1]
        if kind not in GATE_KINDS:
            raise ParseError(line_no, f"unknown gate kind {kind!r}")
        rest = parts[2:]
        k: int | None = None
        if kind == "THRESHOLD":
            if not rest:
                raise ParseError(line_no, "THRESHOLD needs k")
            k = number(line_no, "threshold", rest[0])
            rest = rest[1:]
        inputs = tuple(number(line_no, "input id", x) for x in rest)
        try:
            builder.add(gid, kind, inputs, k)
        except CircuitError as exc:
            raise ParseError(line_no, str(exc)) from None
    if outputs is None:
        raise ParseError(last or 1, "missing OUTPUTS line")
    try:
        return builder.build(outputs)
    except CircuitError as exc:
        raise ParseError(last, str(exc)) from None
