"""Reference problems believed strictly harder than constant-depth
threshold circuits: arithmetic formula evaluation, Boolean formula value,
and permutation composition (the S5 word problem), plus the classical
width-5 permutation branching-program construction that places all of them
in logarithmic circuit depth.

Arithmetic formulas are expression trees over a semiring tagged
``integers``, ``booleans``, or ``zmod`` (addition/multiplication, unary
minus where additive inverses exist), serialized as S-expressions such as
``(+ (* X1 3) (- X2))``.  Boolean formulas come in two concrete syntaxes
over the alphabet {0, 1, AND, OR, NOT, parens}: a fully parenthesized infix
form and a postfix form in which a binary node is written ``<alpha><beta><op>``
with the *longer-or-equal* operand first and negation keeps its parentheses
(``(<alpha>NOT)``).  Permutations are stored as pointwise images and compose
right to left: the first permutation of a sequence is applied first.  A
:class:`Permutation` is checked to be a bijection once, when it is built,
and only values handed to a caller are built as one.  Inside the module a
permutation is its image tuple: :func:`compose`, :func:`word_problem` and
:func:`eval_pbp` multiply the operands' tuples in one private kernel that
checks only that the domain sizes agree.  A product or an inverse of
bijections, and a shuffle of [5], is a bijection, so no check is lost:
:func:`compose` builds a :class:`Permutation` for the product alone,
:func:`word_problem` compares the product with the identity tuple,
``gen_instances("perm", ...)`` builds none, and
:func:`barrington_transform` builds one per distinct image of the program
it returns.  :func:`parse_permutation_line` builds (and so checks) each
distinct token of a line once.

``barrington_transform`` converts a single-output circuit of fan-in-2 AND,
NOT, INPUT and constant gates into a program over S5 whose instruction
count is at most ``4**depth`` and whose composed product is a fixed
5-cycle exactly on accepting assignments (identity otherwise).  AND is the
commutator of retargeted subprograms; NOT appends the inverse cycle and
retargets; OR gates must be lowered first (:func:`lower_or_gates`).  Every
gate's program length is counted first, and a circuit with a gate past
:data:`MAX_PROGRAM_LENGTH` instructions is refused with ``ValueError``.

``gen_instances`` emits byte-reproducible labelled corpora for each
problem: one plain-text instance per line, ground truth computed by the
evaluators in this module.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from functools import cache
from itertools import permutations as iter_permutations
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .circuits import ArityMismatch, Circuit, CircuitBuilder

__all__ = [
    "ACCEPTING_CYCLE",
    "ArithFormula",
    "ArithNode",
    "BoolFormula",
    "Corpus",
    "DomainMismatch",
    "FormulaParseError",
    "IndexOutOfRange",
    "MAX_PROGRAM_LENGTH",
    "PbpInstruction",
    "PbpProgram",
    "Permutation",
    "Semiring",
    "UnsupportedGate",
    "barrington_transform",
    "compose",
    "enumerate_small_circuits",
    "eval_arith",
    "eval_bool",
    "eval_instance",
    "eval_pbp",
    "gen_instances",
    "lower_or_gates",
    "parse_arith",
    "parse_bool_infix",
    "parse_bool_postfix",
    "parse_permutation_line",
    "word_problem",
]


class FormulaParseError(ValueError):
    """Malformed formula text (either syntax)."""


class DomainMismatch(ValueError):
    """Operands from different domains, or an operation the domain lacks."""


class UnsupportedGate(ValueError):
    """Gate kind outside the fan-in-2 AND/NOT basis."""


class IndexOutOfRange(IndexError):
    """A branching-program instruction references a missing input bit."""


# ---------------------------------------------------------- formula trees
# NC^1 formulas are deep by nature, and one Python frame per level stops at
# the recursion limit near depth 1000, so formula trees (ArithNode and
# BoolFormula, both ``op`` plus ``args``) are walked on explicit stacks.


def _postorder(root: ArithNode | BoolFormula) -> list:
    """Every node under ``root``, children before parents, left to right."""
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack += node.args
    return order[::-1]


def _flatten(rope: str | tuple) -> str:
    """Concatenate a rope (a string, or a tuple of ropes).  Printers build
    ropes in post-order and flatten once, linear in the size at any depth."""
    out, stack = [], [rope]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
        else:
            stack += item[::-1]
    return "".join(out)


def _parse_brackets(tokens: Sequence[str], leaf: Callable, forms: dict, cls: type):
    """Shift-reduce parse of a fully parenthesized grammar.  A group's shape
    spells its operators (the symbols in ``forms``' keys) in place and each
    operand as ``.``; any other token is an operand, ``leaf(token)``.  At
    ``)`` the shape must be a key of ``forms``, and the group becomes the
    operand ``cls(forms[shape], args=operands)``."""
    ops = set("".join(forms)) - {"."}
    shape, args, outer = "", [], []  # the open group, and the groups around it
    for i, tok in enumerate(tokens):
        if tok == "(":
            outer.append((shape, args))
            shape, args = "", []
        elif tok == ")":
            if not outer:
                raise FormulaParseError(f"unmatched ')' at {i}")
            op = forms.get(shape)
            if op is None:
                raise FormulaParseError(f"malformed group closed at {i}")
            node = cls(op, args=tuple(args))
            shape, args = outer.pop()
            shape += "."
            args.append(node)
        elif tok in ops:
            shape += tok
        else:
            shape += "."
            args.append(leaf(tok))
    if outer:
        raise FormulaParseError(f"{len(outer)} unclosed '('")
    if shape != ".":
        raise FormulaParseError("formula does not reduce to a single term")
    return args[0]


# ------------------------------------------------------------- arithmetic


@dataclass(frozen=True, slots=True)
class Semiring:
    """Carrier tag: arbitrary-precision integers, Booleans (OR/AND), or
    integers modulo m.  ``+``/``*`` are the two semiring operations; unary
    minus exists only where additive inverses do."""

    kind: str
    modulus: int | None = None

    @classmethod
    def integers(cls) -> "Semiring":
        return cls("integers")

    @classmethod
    def booleans(cls) -> "Semiring":
        return cls("booleans")

    @classmethod
    def zmod(cls, m: int) -> "Semiring":
        if m < 2:
            raise ValueError(f"modulus must be >= 2, got {m}")
        return cls("zmod", m)

    def coerce(self, value: int) -> int:
        """Bring a constant into the carrier (Z_m reduces, never errors)."""
        if not isinstance(value, int) or isinstance(value, bool):
            raise DomainMismatch(f"{value!r} is not a semiring constant")
        if self.kind == "booleans":
            if value not in (0, 1):
                raise DomainMismatch(f"{value} is not a Boolean constant")
            return value
        if self.kind == "zmod":
            return value % (self.modulus or 1)
        return value

    def add(self, a: int, b: int) -> int:
        if self.kind == "booleans":
            return a | b
        if self.kind == "zmod":
            return (a + b) % (self.modulus or 1)
        return a + b

    def mul(self, a: int, b: int) -> int:
        if self.kind == "booleans":
            return a & b
        if self.kind == "zmod":
            return (a * b) % (self.modulus or 1)
        return a * b

    def neg(self, a: int) -> int:
        if self.kind == "booleans":
            raise DomainMismatch("the Boolean semiring has no additive inverse")
        if self.kind == "zmod":
            return (-a) % (self.modulus or 1)
        return -a

    def name(self) -> str:
        return f"z{self.modulus}" if self.kind == "zmod" else self.kind


@dataclass(frozen=True, slots=True)
class ArithNode:
    """Expression-tree node: const / var / neg / add / mul."""

    op: str
    value: int | None = None  # const
    index: int | None = None  # var, 1-based
    args: tuple["ArithNode", ...] = ()


@dataclass(frozen=True, slots=True)
class ArithFormula:
    """A semiring-tagged expression tree over indeterminates X1..Xn."""

    semiring: Semiring
    root: ArithNode
    n_indeterminates: int

    def to_sexpr(self) -> str:
        ropes: list = []
        for node in _postorder(self.root):
            if node.op == "const":
                ropes.append(str(node.value))
            elif node.op == "var":
                ropes.append(f"X{node.index}")
            elif node.op == "neg":
                ropes.append(("(- ", ropes.pop(), ")"))
            else:
                b = ropes.pop()
                ropes[-1] = ("(+ " if node.op == "add" else "(* ", ropes[-1], " ", b, ")")
        return _flatten(ropes.pop())


_SEXPR_FORMS = {"+..": "add", "*..": "mul", "-.": "neg"}


def parse_arith(text: str, semiring: Semiring) -> ArithFormula:
    """Parse an S-expression: atoms are integers or ``Xk``; forms are
    ``(+ a b)``, ``(* a b)``, and ``(- a)``."""

    def leaf(tok: str) -> ArithNode:
        var = tok.startswith("X")
        try:
            number = int(tok[1:] if var else tok)
        except ValueError:
            raise FormulaParseError(f"bad atom {tok!r}") from None
        if not var:
            return ArithNode("const", value=semiring.coerce(number))
        if number < 1:
            raise FormulaParseError("indeterminate indices are 1-based")
        return ArithNode("var", index=number)

    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    root = _parse_brackets(tokens, leaf, _SEXPR_FORMS, ArithNode)
    n = max((v.index for v in _postorder(root) if v.op == "var"), default=0)
    return ArithFormula(semiring, root, n)


def eval_arith(formula: ArithFormula, assignment: Sequence[int]) -> int:
    """Evaluate the tree under X_i := assignment[i-1]."""
    if len(assignment) != formula.n_indeterminates:
        raise ArityMismatch(
            f"formula uses X1..X{formula.n_indeterminates}, "
            f"got {len(assignment)} constants"
        )
    ring = formula.semiring
    values = [ring.coerce(c) for c in assignment]
    stack: list[int] = []
    for node in _postorder(formula.root):
        op = node.op
        if op == "const":
            stack.append(ring.coerce(node.value or 0))
        elif op == "var":
            stack.append(values[(node.index or 1) - 1])
        elif op == "neg":
            stack.append(ring.neg(stack.pop()))
        else:
            b = stack.pop()
            stack[-1] = ring.add(stack[-1], b) if op == "add" else ring.mul(stack[-1], b)
    return stack.pop()


# ----------------------------------------------------------- Boolean form

_NOT, _AND, _OR = "¬", "∧", "∨"
_ALIASES = str.maketrans({"!": _NOT, "~": _NOT, "&": _AND, "|": _OR})
_INFIX_FORMS = {f"{_NOT}.": "not", f".{_AND}.": "and", f".{_OR}.": "or"}


@dataclass(frozen=True, slots=True)
class BoolFormula:
    """Closed Boolean formula tree: const / not / and / or."""

    op: str
    value: int | None = None
    args: tuple["BoolFormula", ...] = ()

    def to_infix(self) -> str:
        ropes: list = []
        for node in _postorder(self):
            if node.op == "const":
                ropes.append(str(node.value))
            elif node.op == "not":
                ropes.append((f"({_NOT}", ropes.pop(), ")"))
            else:
                b = ropes.pop()
                ropes[-1] = ("(", ropes[-1], _AND if node.op == "and" else _OR, b, ")")
        return _flatten(ropes.pop())

    def to_postfix(self) -> str:
        """Canonical postfix: the longer operand printed first (the two
        binary connectives are commutative, so swapping preserves value)."""
        ropes: list = []  # (rope, printed length) pairs
        for node in _postorder(self):
            if node.op == "const":
                text = str(node.value)
                ropes.append((text, len(text)))
            elif node.op == "not":
                rope, n = ropes.pop()
                ropes.append((("(", rope, f"{_NOT})"), n + 3))
            else:
                (b, nb), (a, na) = ropes.pop(), ropes.pop()
                if na < nb:
                    a, b = b, a
                sym = _AND if node.op == "and" else _OR
                ropes.append(((a, b, sym), na + nb + 1))
        return _flatten(ropes.pop()[0])


def _canon(text: str) -> str:
    """Aliases replaced by the connectives, whitespace dropped."""
    return "".join(text.translate(_ALIASES).split())


def parse_bool_infix(text: str) -> BoolFormula:
    """Fully parenthesized infix: 0, 1, (NOT f), (f AND g), (f OR g)."""

    def leaf(ch: str) -> BoolFormula:
        if ch not in ("0", "1"):
            raise FormulaParseError(f"unexpected symbol {ch!r}")
        return BoolFormula("const", value=int(ch))

    return _parse_brackets(_canon(text), leaf, _INFIX_FORMS, BoolFormula)


def parse_bool_postfix(text: str) -> BoolFormula:
    """Postfix form: ``<alpha><beta><op>`` with ``len(alpha) >= len(beta)``
    (enforced), negation written ``(<alpha>NOT)`` with its parentheses."""
    s = _canon(text)
    marker = object()
    stack: list = []  # (formula, symbol_length) pairs or open-paren markers
    i = 0
    while i < len(s):
        ch = s[i]
        if ch in "01":
            stack.append((BoolFormula("const", value=int(ch)), 1))
        elif ch == "(":
            stack.append(marker)
        elif ch == _NOT:
            if not stack or stack[-1] is marker:
                raise FormulaParseError(f"negation lacks an operand at {i}")
            inner, length = stack.pop()
            if not stack or stack[-1] is not marker:
                raise FormulaParseError(f"negation must be parenthesized at {i}")
            stack.pop()
            if i + 1 >= len(s) or s[i + 1] != ")":
                raise FormulaParseError(f"negation missing ')' at {i}")
            i += 1
            stack.append((BoolFormula("not", args=(inner,)), length + 3))
        elif ch in (_AND, _OR):
            if len(stack) < 2 or stack[-1] is marker or stack[-2] is marker:
                raise FormulaParseError(f"connective lacks operands at {i}")
            beta, len_beta = stack.pop()
            alpha, len_alpha = stack.pop()
            if len_alpha < len_beta:
                raise FormulaParseError(
                    f"operand order violates the length rule at {i}: "
                    f"{len_alpha} < {len_beta}"
                )
            op = "and" if ch == _AND else "or"
            stack.append(
                (BoolFormula(op, args=(alpha, beta)), len_alpha + len_beta + 1)
            )
        elif ch == ")":
            raise FormulaParseError(f"unmatched ')' at {i}")
        else:
            raise FormulaParseError(f"unexpected symbol {ch!r} at {i}")
        i += 1
    if len(stack) != 1 or stack[0] is marker:
        raise FormulaParseError("formula does not reduce to a single value")
    return stack[0][0]


def eval_bool(formula: BoolFormula) -> int:
    stack: list[int] = []
    for node in _postorder(formula):
        if node.op == "const":
            stack.append(node.value or 0)
        elif node.op == "not":
            stack.append(1 - stack.pop())
        else:
            b = stack.pop()
            stack[-1] = (stack[-1] & b) if node.op == "and" else (stack[-1] | b)
    return stack.pop()


# ------------------------------------------------------------ permutations


@dataclass(frozen=True, slots=True)
class Permutation:
    """Bijection on [n], stored as the image tuple (1-based values)."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.image)
        if sorted(self.image) != list(range(1, n + 1)):
            raise ValueError(f"{self.image} is not a bijection on [{n}]")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_cycle(cls, cycle: Sequence[int], n: int) -> "Permutation":
        image = list(range(1, n + 1))
        for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]]):
            image[a - 1] = b
        return cls(tuple(image))

    @classmethod
    def from_string(cls, text: str) -> "Permutation":
        return cls(tuple(map(int, text.strip())))

    def to_string(self) -> str:
        return "".join(map(str, self.image))

    @property
    def n(self) -> int:
        return len(self.image)

    def apply(self, x: int) -> int:
        return self.image[x - 1]

    def after(self, other: "Permutation") -> "Permutation":
        """Function composition self(other(x)): ``other`` acts first."""
        if self.n != other.n:
            raise DomainMismatch(f"domain sizes differ: {self.n} vs {other.n}")
        return Permutation(tuple(self.image[v - 1] for v in other.image))

    def inverse(self) -> "Permutation":
        return Permutation(_inverse(self.image))

    @property
    def is_identity(self) -> bool:
        return all(v == x for x, v in enumerate(self.image, start=1))


def _inverse(image: tuple[int, ...]) -> tuple[int, ...]:
    """Image tuple of the inverse of the bijection with image ``image``."""
    inverse = [0] * len(image)
    for x, v in enumerate(image, start=1):
        inverse[v - 1] = x
    return tuple(inverse)


def _product(images: Iterable[tuple[int, ...]], n: int) -> tuple[int, ...]:
    """Image tuple of the right-to-left product of bijections on [n].

    ``images`` are the 1-based image tuples of already validated
    permutations, the first applied first.  Each size is checked against
    ``n`` in sequence order, before any is multiplied, so a mismatch raises
    the :class:`DomainMismatch` of the first operand that differs.  The
    product is then folded from the last operand back, ``q = q o p``, as
    one ``itemgetter`` over ``p``'s 0-based images per operand; each
    distinct image builds its getter once per call.
    """
    checked = []
    for image in images:
        if len(image) != n:
            raise DomainMismatch(f"domain sizes differ: {len(image)} vs {n}")
        checked.append(image)
    acc = tuple(range(1, n + 1))
    if n < 2:  # the identity is the only permutation; a getter would return an int
        return acc
    getters: dict[tuple[int, ...], itemgetter] = {}
    for image in reversed(checked):
        step = getters.get(image)
        if step is None:
            step = getters[image] = itemgetter(*[v - 1 for v in image])
        acc = step(acc)
    return acc


def _word_product(perms: Sequence[Permutation]) -> tuple[int, ...]:
    """Image tuple of the product of a non-empty word, sizes checked
    against the first operand's, in order."""
    if not perms:
        raise ValueError("compose requires at least one permutation")
    return _product([p.image for p in perms], perms[0].n)


def compose(perms: Sequence[Permutation]) -> Permutation:
    """Right-to-left product: the first sequence element is applied first.

    The operands were validated when they were built, so only their domain
    sizes are checked here (against the first operand's, in order); only
    the product is built, and checked, as a new :class:`Permutation`.
    """
    return Permutation(_word_product(perms))


def word_problem(perms: Sequence[Permutation]) -> int:
    """1 iff the right-to-left composition is the identity."""
    product = _word_product(perms)
    return int(product == tuple(range(1, len(product) + 1)))


def parse_permutation_line(line: str) -> list[Permutation]:
    """One permutation per whitespace-separated token, each distinct token
    parsed and validated once; the first bad token in line order raises."""
    parsed: dict[str, Permutation] = {}
    perms = []
    for tok in line.split():
        p = parsed.get(tok)
        if p is None:
            p = parsed[tok] = Permutation.from_string(tok)
        perms.append(p)
    return perms


# -------------------------------------------------- branching programs


ACCEPTING_CYCLE = Permutation.from_cycle((1, 2, 3, 4, 5), 5)


@dataclass(frozen=True, slots=True)
class PbpInstruction:
    """Read input bit ``var`` (0-based): contribute ``on_true`` or
    ``on_false`` to the running product."""

    var: int
    on_true: Permutation
    on_false: Permutation


@dataclass(frozen=True, slots=True)
class PbpProgram:
    """Width-5 permutation branching program.

    Accepts an assignment when the instruction-by-instruction product
    (first instruction applied first) equals ``accept``; the construction
    guarantees the product is the identity otherwise.
    """

    instructions: tuple[PbpInstruction, ...]
    n_inputs: int
    accept: Permutation = ACCEPTING_CYCLE

    def __len__(self) -> int:
        return len(self.instructions)


def eval_pbp(program: PbpProgram, bits: Sequence[int]) -> int:
    """Compose the selected permutations; 1 iff the accepting cycle.

    Each instruction is checked in program order: first that it reads a
    bit of the assignment (:class:`IndexOutOfRange`), then that its
    selected permutation acts on [5] (:class:`DomainMismatch`).  The
    permutations were validated when the program was built, so the
    product is taken on their image tuples by the same kernel as
    :func:`compose`.
    """

    def selected() -> Iterator[tuple[int, ...]]:
        for ins in program.instructions:
            if not 0 <= ins.var < len(bits):
                raise IndexOutOfRange(
                    f"instruction reads bit {ins.var}, assignment has {len(bits)}"
                )
            yield (ins.on_true if bits[ins.var] else ins.on_false).image

    return int(_product(selected(), 5) == program.accept.image)


#: Most instructions :func:`barrington_transform` builds for one gate.  A
#: gate's program is at most four times as long as its inputs' longest, so
#: every circuit of depth 8 fits; a 16-input AND chain (98,302) does not.
MAX_PROGRAM_LENGTH = 1 << 16


def _is_five_cycle(image: tuple[int, ...]) -> bool:
    x, seen = 1, 0
    while True:
        x = image[x - 1]
        seen += 1
        if x == 1:
            return seen == 5


@cache
def _find_conjugator(source: tuple[int, ...], target: tuple[int, ...]) -> tuple[int, ...]:
    """Some pi with pi * source * pi^-1 = target (5-cycles are conjugate)."""
    for pi in iter_permutations(range(1, 6)):
        if _product((_inverse(pi), source, pi), 5) == target:
            return pi
    raise ValueError(f"{source} and {target} are not conjugate")


@cache
def _commutator_pair() -> tuple[tuple[int, ...], ...]:
    """Two 5-cycles gamma, delta whose commutator delta^-1 gamma^-1 delta
    gamma is itself a 5-cycle (found by search), and that commutator."""
    cycles = [p for p in iter_permutations(range(1, 6)) if _is_five_cycle(p)]
    for gamma in cycles:
        for delta in cycles:
            commutator = _product((gamma, delta, _inverse(gamma), _inverse(delta)), 5)
            if _is_five_cycle(commutator):
                return gamma, delta, commutator
    raise AssertionError("no commutator pair in S5")  # pragma: no cover


def _retarget(instructions: tuple, source: tuple[int, ...], target: tuple[int, ...]) -> tuple:
    """Conjugate every ``(var, on_true, on_false)`` image triple so a
    source-computing program becomes a target-computing one (interior
    conjugators cancel; length unchanged)."""
    pi = _find_conjugator(source, target)
    pi_inv = _inverse(pi)
    images = {image for _, t, f in instructions for image in (t, f)}
    conjugate = {x: _product((pi_inv, x, pi), 5) for x in images}
    return tuple((var, conjugate[t], conjugate[f]) for var, t, f in instructions)


def lower_or_gates(circuit: Circuit) -> Circuit:
    """Rewrite fan-in-2 OR gates as NOT(AND(NOT, NOT)) (De Morgan).

    The result uses only the basis ``barrington_transform`` accepts; any
    THRESHOLD or wider fan-in raises :class:`UnsupportedGate`.
    """
    b = CircuitBuilder()
    remap: dict[int, int] = {}
    for g in circuit.gates:
        ins = tuple(remap[q] for q in g.inputs)
        if g.kind in ("INPUT", "CONST0", "CONST1", "NOT"):
            remap[g.id] = b.emit(g.kind, ins)
        elif g.kind == "AND":
            if len(ins) != 2:
                raise UnsupportedGate(f"AND gate {g.id} must have fan-in 2")
            remap[g.id] = b.emit("AND", ins)
        elif g.kind == "OR":
            if len(ins) != 2:
                raise UnsupportedGate(f"OR gate {g.id} must have fan-in 2")
            na = b.emit("NOT", (ins[0],))
            nb = b.emit("NOT", (ins[1],))
            both = b.emit("AND", (na, nb))
            remap[g.id] = b.emit("NOT", (both,))
        else:
            raise UnsupportedGate(f"cannot lower {g.kind} gate {g.id}")
    return b.build([remap[o] for o in circuit.outputs])


def _bound_length(gid: int, length: int) -> None:
    """Refuse gate ``gid`` if its program would need ``length`` instructions,
    more than :data:`MAX_PROGRAM_LENGTH`."""
    if length > MAX_PROGRAM_LENGTH:
        raise ValueError(
            f"gate {gid}'s program needs {length} instructions, "
            f"more than the {MAX_PROGRAM_LENGTH} allowed"
        )


def barrington_transform(circuit: Circuit) -> PbpProgram:
    """Standard width-5 construction over the fan-in-2 AND/NOT basis.

    Each gate's subprogram multiplies out to the accepting 5-cycle on
    assignments where the gate is 1 and to the identity otherwise.  An
    input is one instruction; CONST0 is the empty program; CONST1 is one
    constant instruction; NOT appends the inverse cycle and retargets; AND
    concatenates retargeted copies of its operands in commutator order,
    doubling their combined length — hence length <= 4**depth.

    Gates are built in one pass, in order.  A NOT or AND gate's program
    length is bounded from its operands' lengths just before it is built,
    and a gate that needs more than :data:`MAX_PROGRAM_LENGTH` instructions
    raises ``ValueError``, so no over-long program is ever built.  Programs
    are built as image-tuple triples; the returned program holds one
    :class:`Permutation` per distinct image.

    The circuit must have exactly one output; OR/THRESHOLD gates raise
    :class:`UnsupportedGate` (lower them first via :func:`lower_or_gates`).
    Both refusals cover every gate, also one that the output does not read.
    """
    if len(circuit.outputs) != 1:
        raise ValueError("the branching-program transform needs one output")
    if circuit.n_inputs < 1:
        raise ValueError("the transform needs at least one input bit")
    rho = ACCEPTING_CYCLE.image
    rho_inv = _inverse(rho)
    ident = tuple(range(1, 6))
    gamma, delta, commutator = _commutator_pair()
    gamma_inv, delta_inv = _inverse(gamma), _inverse(delta)
    input_pos = {g.id: pos for pos, g in enumerate(
        g for g in circuit.gates if g.kind == "INPUT"
    )}
    programs: dict[int, tuple] = {}
    for g in circuit.gates:
        if g.kind == "INPUT":
            programs[g.id] = ((input_pos[g.id], rho, ident),)
        elif g.kind == "CONST0":
            programs[g.id] = ()
        elif g.kind == "CONST1":
            programs[g.id] = ((0, rho, rho),)
        elif g.kind == "NOT":
            inner = programs[g.inputs[0]]
            _bound_length(g.id, len(inner) + 1)
            programs[g.id] = _retarget(inner + ((0, rho_inv, rho_inv),), rho_inv, rho)
        elif g.kind == "AND":
            if len(g.inputs) != 2:
                raise UnsupportedGate(f"AND gate {g.id} must have fan-in 2")
            left = programs[g.inputs[0]]
            right = programs[g.inputs[1]]
            _bound_length(g.id, 2 * (len(left) + len(right)))
            combined = (
                _retarget(left, rho, gamma)
                + _retarget(right, rho, delta)
                + _retarget(left, rho, gamma_inv)
                + _retarget(right, rho, delta_inv)
            )
            programs[g.id] = _retarget(combined, commutator, rho)
        else:
            raise UnsupportedGate(
                f"{g.kind} gate {g.id}: lower to the AND/NOT basis first"
            )
    program = programs[circuit.outputs[0]]
    images = {image for _, t, f in program for image in (t, f)}
    perms = {image: Permutation(image) for image in images}
    return PbpProgram(
        tuple(PbpInstruction(var, perms[t], perms[f]) for var, t, f in program),
        circuit.n_inputs,
    )


def enumerate_small_circuits(
    n_inputs: int = 3, max_depth: int = 3, include_or: bool = False
) -> list[Circuit]:
    """Fixed deterministic family: one circuit per reachable
    (truth table, depth) class with depth <= ``max_depth``.

    Built by bottom-up closure over the fan-in-2 basis (AND/NOT, optionally
    OR) with leaves X1..Xn, CONST0, CONST1, keeping the first representative
    found for each class; every Boolean function realizable at each depth
    is therefore exercised exactly once.  Each tree carries its truth
    table as an int, bit ``a`` its value on assignment ``a``.
    """
    full = (1 << (1 << n_inputs)) - 1
    Tree = tuple  # ("x", i) | ("c", b) | ("not", t) | ("and"|"or", t, t)
    leaves = [
        (("x", i), sum(1 << a for a in range(1 << n_inputs) if a >> i & 1))
        for i in range(n_inputs)
    ]
    by_depth: list[list[tuple[Tree, int]]] = [leaves + [(("c", 0), 0), (("c", 1), full)]]

    ops = ["and", "or"] if include_or else ["and"]
    for depth in range(1, max_depth + 1):
        layer: dict[int, Tree] = {}  # the first tree found per truth table
        below = [t for lvl in by_depth for t in lvl]
        tops = by_depth[depth - 1]
        for tree, table in tops:
            layer.setdefault(full ^ table, ("not", tree))
        for op in ops:
            for t1, a in tops:
                for t2, b in below:
                    layer.setdefault(a & b if op == "and" else a | b, (op, t1, t2))
        by_depth.append([(tree, table) for table, tree in layer.items()])

    def compile_tree(tree: Tree) -> Circuit:
        b = CircuitBuilder()
        for _ in range(n_inputs):
            b.emit("INPUT")

        def walk(t: Tree) -> int:
            tag = t[0]
            if tag == "x":
                return t[1]
            if tag == "c":
                return b.emit("CONST1" if t[1] else "CONST0")
            if tag == "not":
                return b.emit("NOT", (walk(t[1]),))
            return b.emit(tag.upper(), (walk(t[1]), walk(t[2])))

        return b.build([walk(tree)])

    return [compile_tree(t) for lvl in by_depth for t, _ in lvl]


# ----------------------------------------------------------------- corpora


@dataclass(frozen=True, slots=True)
class Corpus:
    """A labelled instance set; line i of the labels grounds line i of the
    instances.  Serialization is canonical, so equal parameters give
    byte-identical text."""

    kind: str
    size: int
    seed: int
    instances: tuple[str, ...]
    labels: tuple[str, ...]

    def instances_text(self) -> str:
        return "\n".join(self.instances) + "\n"

    def labels_text(self) -> str:
        return "\n".join(self.labels) + "\n"


def _rng_for(kind: str, size: int, seed: int) -> random.Random:
    return random.Random(f"{kind}|{size}|{seed}")


def _random_bool_tree(rng: random.Random, budget: int) -> BoolFormula:
    """A random closed formula whose postfix form fits in ``budget`` symbols."""
    if budget < 4 or rng.random() < 0.2:
        return BoolFormula("const", value=rng.randint(0, 1))
    choice = rng.random()
    if choice < 0.3:
        return BoolFormula("not", args=(_random_bool_tree(rng, budget - 3),))
    left_budget = rng.randint(1, budget - 2)
    left = _random_bool_tree(rng, left_budget)
    right = _random_bool_tree(rng, budget - 1 - left_budget)
    op = "and" if choice < 0.65 else "or"
    return BoolFormula(op, args=(left, right))


def _random_arith_node(
    rng: random.Random, budget: int, ring: Semiring, n_vars: int
) -> ArithNode:
    if budget <= 1 or rng.random() < 0.25:
        if n_vars and rng.random() < 0.5:
            return ArithNode("var", index=rng.randint(1, n_vars))
        hi = (ring.modulus - 1) if ring.kind == "zmod" else 9
        lo = 0 if ring.kind != "integers" else -9
        return ArithNode("const", value=ring.coerce(rng.randint(lo, hi)))
    roll = rng.random()
    if roll < 0.2 and ring.kind != "booleans":
        return ArithNode(
            "neg", args=(_random_arith_node(rng, budget - 1, ring, n_vars),)
        )
    split = rng.randint(1, max(budget - 2, 1))
    left = _random_arith_node(rng, split, ring, n_vars)
    right = _random_arith_node(rng, budget - 1 - split, ring, n_vars)
    return ArithNode("add" if roll < 0.6 else "mul", args=(left, right))


def _random_s5(rng: random.Random) -> tuple[int, ...]:
    image = list(range(1, 6))
    rng.shuffle(image)
    return tuple(image)


def _arith_semiring(kind: str) -> Semiring:
    if kind == "arith":
        return Semiring.integers()
    if kind.startswith("arith-z"):
        return Semiring.zmod(int(kind[len("arith-z") :]))
    raise ValueError(f"unknown arithmetic corpus kind {kind!r}")


def gen_instances(kind: str, size: int, seed: int, count: int = 100) -> Corpus:
    """Deterministic labelled corpus for one problem family.

    Kinds: ``bool`` (postfix formulas of at most ``size`` symbols),
    ``perm`` (lines of ``size`` space-separated S5 image strings, roughly
    half engineered to compose to the identity), ``arith`` (integer
    S-expressions with at most ``size`` operators plus a three-constant
    assignment after ``;``), and ``arith-zM`` (the same over Z_M).
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = _rng_for(kind, size, seed)
    instances: list[str] = []
    labels: list[str] = []
    if kind == "bool":
        for _ in range(count):
            tree = _random_bool_tree(rng, size)
            instances.append(tree.to_postfix())
            labels.append(str(eval_bool(tree)))
    elif kind == "perm":
        identity = tuple(range(1, 6))
        for _ in range(count):
            if size >= 2 and rng.random() < 0.5:
                word = [_random_s5(rng) for _ in range(size - 1)]
                word.append(_inverse(_product(word, 5)))
            else:
                word = [_random_s5(rng) for _ in range(size)]
            instances.append(" ".join("".join(map(str, image)) for image in word))
            labels.append(str(int(_product(word, 5) == identity)))
    elif kind == "arith" or kind.startswith("arith-z"):
        ring = _arith_semiring(kind)
        n_vars = 3
        for _ in range(count):
            node = _random_arith_node(rng, size, ring, n_vars)
            formula = ArithFormula(ring, node, n_vars)
            hi = (ring.modulus - 1) if ring.kind == "zmod" else 9
            lo = -9 if ring.kind == "integers" else 0
            assignment = [rng.randint(lo, hi) for _ in range(n_vars)]
            instances.append(
                formula.to_sexpr() + " ; " + ",".join(str(c) for c in assignment)
            )
            labels.append(str(eval_arith(formula, assignment)))
    else:
        raise ValueError(f"unknown corpus kind {kind!r}")
    return Corpus(kind, size, seed, tuple(instances), tuple(labels))


def eval_instance(kind: str, line: str) -> str:
    """Recompute the ground-truth label of one corpus line."""
    if kind == "bool":
        return str(eval_bool(parse_bool_postfix(line)))
    if kind == "perm":
        return str(word_problem(parse_permutation_line(line)))
    if kind == "arith" or kind.startswith("arith-z"):
        ring = _arith_semiring(kind)
        if ";" not in line:
            raise FormulaParseError("arithmetic instance needs '; assignment'")
        expr, _, assign_text = line.partition(";")
        formula = parse_arith(expr.strip(), ring)
        assign_text = assign_text.strip()
        assignment = (
            [int(tok) for tok in assign_text.split(",")] if assign_text else []
        )
        # Pad to the declared arity: corpus formulas may not use every X_i.
        value = eval_arith(formula, assignment[: formula.n_indeterminates])
        try:
            return str(value)
        except ValueError:
            # Past the interpreter's int-to-string limit: refuse the label
            # rather than raise that limit for the whole process.
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"label has more than {limit} decimal digits") from None
    raise ValueError(f"unknown corpus kind {kind!r}")
