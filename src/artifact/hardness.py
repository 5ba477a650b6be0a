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
(``(<alpha>NOT)``).  The public constructors of :class:`ArithNode`,
:class:`BoolFormula` and :class:`Semiring` check what they build.  The
parsers and corpus generators build nodes they have already checked
without repeating those checks, and share leaves: nodes are immutable, so
the Boolean constants are two module-level nodes, and :func:`parse_arith`
reads each distinct atom once per call.

Permutations are stored as pointwise images and compose right to left:
the first permutation of a sequence is applied first.  A
:class:`Permutation` is checked to be a bijection once, when it is built,
and then carries its kernel step: the getter that composes a product's
image tuple with it.  :func:`compose`, :func:`word_problem` and
:func:`eval_pbp` fold their operands' steps in one private kernel that
checks only that the domain sizes agree.  A product of bijections is one,
so no check is lost: :func:`compose` builds a :class:`Permutation` for
the product alone, and :func:`word_problem` compares the product with the
identity tuple.  :func:`barrington_transform` works on image tuples,
composed by the same steps, and builds one :class:`Permutation` per
distinct image of the program it returns.  ``gen_instances("perm",
...)`` builds none: it draws each element of S5 as four raw
``getrandbits`` draws looked up in a table (:func:`_draw_s5`), byte for
byte the element ``random.shuffle`` of [5] gives on CPython 3.10-3.13,
and works on indices 0-119 into tables built once per process (product,
inverse and text of each element).  ``eval_instance("perm", ...)`` is
:func:`word_problem` of :func:`parse_permutation_line`, which reads each
token through one bounded, process-wide memo from token text to its
:class:`Permutation`, so a token is parsed and checked once per process,
not once per line.

``barrington_transform`` converts a single-output circuit of fan-in-2 AND,
NOT, INPUT and constant gates into a program over S5 whose instruction
count is at most ``4**depth`` and whose composed product is a fixed
5-cycle exactly on accepting assignments (identity otherwise).  AND is the
commutator of conjugated operand programs; NOT appends the inverse cycle
and conjugates; OR gates must be lowered first (:func:`lower_or_gates`).
Every gate's program length is counted first, and a circuit with a gate
past :data:`MAX_PROGRAM_LENGTH` instructions is refused with
``ValueError``; then one walk from the output emits only its program.

``gen_instances`` emits byte-reproducible labelled corpora for each
problem: one plain-text instance per line, ground truth computed by the
evaluators in this module.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import permutations as iter_permutations, product as iter_product
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .circuits import (
    ArityMismatch,
    Circuit,
    CircuitBuilder,
    Gate,
    _ASCII_WHITESPACE,
    _ascii_int,
    _ascii_split,
    _rewrite,
)

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


def _parse_brackets(tokens: Sequence[str], leaf: Callable, forms: dict, make: Callable):
    """Shift-reduce parse of a fully parenthesized grammar.  A group's shape
    spells its operators (the symbols in ``forms``' keys) in place and each
    operand as ``.``; any other token is an operand, ``leaf(token)``.  At
    ``)`` the shape must be a key of ``forms``, and the group becomes the
    operand ``make(forms[shape], operands)``."""
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
            node = make(op, tuple(args))
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_args(node: ArithNode | BoolFormula, arity: dict[str, int]) -> None:
    """Refuse a node whose op is not a key of ``arity``, or whose ``args``
    is not a tuple of that many nodes of its own class."""
    cls = type(node)
    n = arity.get(node.op) if isinstance(node.op, str) else None
    if n is None:
        raise ValueError(f"unknown {cls.__name__} op {node.op!r}")
    args = node.args
    if type(args) is not tuple or len(args) != n or not all(isinstance(a, cls) for a in args):
        raise ValueError(f"{node.op!r} takes a tuple of {n} {cls.__name__} args")


_new = object.__new__


# ------------------------------------------------------------- arithmetic


@dataclass(frozen=True, slots=True)
class Semiring:
    """Carrier tag: arbitrary-precision integers, Booleans (OR/AND), or
    integers modulo m.  ``+``/``*`` are the two semiring operations; unary
    minus exists only where additive inverses do."""

    kind: str
    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("integers", "booleans", "zmod"):
            raise ValueError(f"unknown semiring kind {self.kind!r}")
        m = self.modulus
        if self.kind == "zmod":
            if not _is_int(m) or m < 2:
                raise ValueError(f"modulus must be >= 2, got {m}")
        elif m is not None:
            raise ValueError(f"the {self.kind} semiring takes no modulus, got {m!r}")

    @classmethod
    def integers(cls) -> "Semiring":
        return cls("integers")

    @classmethod
    def booleans(cls) -> "Semiring":
        return cls("booleans")

    @classmethod
    def zmod(cls, m: int) -> "Semiring":
        return cls("zmod", m)

    def coerce(self, value: int) -> int:
        """Bring a constant into the carrier (Z_m reduces, never errors)."""
        if not _is_int(value):
            raise DomainMismatch(f"{value!r} is not a semiring constant")
        if self.kind == "booleans":
            if value not in (0, 1):
                raise DomainMismatch(f"{value} is not a Boolean constant")
            return value
        if self.kind == "zmod":
            return value % self.modulus
        return value

    def add(self, a: int, b: int) -> int:
        if self.kind == "booleans":
            return a | b
        if self.kind == "zmod":
            return (a + b) % self.modulus
        return a + b

    def mul(self, a: int, b: int) -> int:
        if self.kind == "booleans":
            return a & b
        if self.kind == "zmod":
            return (a * b) % self.modulus
        return a * b

    def neg(self, a: int) -> int:
        if self.kind == "booleans":
            raise DomainMismatch("the Boolean semiring has no additive inverse")
        if self.kind == "zmod":
            return (-a) % self.modulus
        return -a


@dataclass(frozen=True, slots=True)
class ArithNode:
    """Expression-tree node: const / var / neg / add / mul.  Built here,
    it is checked: a known op, ``args`` a tuple of as many ArithNodes as
    the op takes, an int ``value`` for const and an int ``index`` >= 1 for
    var."""

    op: str
    value: int | None = None  # const
    index: int | None = None  # var, 1-based
    args: tuple["ArithNode", ...] = ()

    def __post_init__(self) -> None:
        _check_args(self, _ARITH_ARITY)
        if self.op == "const" and not _is_int(self.value):
            raise ValueError(f"a const node holds an int, got {self.value!r}")
        if self.op == "var" and not (_is_int(self.index) and self.index >= 1):
            raise ValueError(f"a var node holds an int index >= 1, got {self.index!r}")


_ARITH_ARITY = {"const": 0, "var": 0, "neg": 1, "add": 2, "mul": 2}
_set_op, _set_value, _set_index, _set_args = (
    ArithNode.op.__set__, ArithNode.value.__set__, ArithNode.index.__set__, ArithNode.args.__set__
)


def _arith_node(op: str, value: int | None, index: int | None, args: tuple) -> ArithNode:
    """An ArithNode whose fields the caller has already checked, built
    without repeating the ``__post_init__`` checks."""
    node = _new(ArithNode)
    _set_op(node, op)
    _set_value(node, value)
    _set_index(node, index)
    _set_args(node, args)
    return node


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
    ``(+ a b)``, ``(* a b)``, and ``(- a)``.  Tokens split only at ASCII
    whitespace (:func:`~artifact.circuits._ascii_split`), so a non-ASCII
    character lands in a token, which is refused by name.  Atoms are read
    once per call: every occurrence of a token shares one leaf."""
    atoms: dict[str, ArithNode] = {}  # token text -> its leaf

    def leaf(tok: str) -> ArithNode:
        node = atoms.get(tok)
        if node is None:
            var = tok.startswith("X")
            number = _ascii_int(tok[1:] if var else tok)
            if number is None:
                raise FormulaParseError(f"bad atom {tok!r}")
            if not var:
                node = _arith_node("const", semiring.coerce(number), None, ())
            elif number < 1:
                raise FormulaParseError("indeterminate indices are 1-based")
            else:
                node = _arith_node("var", None, number, ())
            atoms[tok] = node
        return node

    tokens = _ascii_split(text.replace("(", " ( ").replace(")", " ) "))
    root = _parse_brackets(
        tokens, leaf, _SEXPR_FORMS, lambda op, args: _arith_node(op, None, None, args)
    )
    n = max((v.index for v in atoms.values() if v.op == "var"), default=0)
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
            stack.append(ring.coerce(node.value))
        elif op == "var":
            stack.append(values[node.index - 1])
        elif op == "neg":
            stack.append(ring.neg(stack.pop()))
        else:
            b = stack.pop()
            stack[-1] = ring.add(stack[-1], b) if op == "add" else ring.mul(stack[-1], b)
    return stack.pop()


# ----------------------------------------------------------- Boolean form

_NOT, _AND, _OR = "¬", "∧", "∨"
# The ASCII aliases of the connectives, and the ASCII whitespace that
# ``str.split`` drops, which a formula may hold between its symbols.
# Another script's space is kept, for the parser to refuse by name.
_ALIASES = str.maketrans(
    {"!": _NOT, "~": _NOT, "&": _AND, "|": _OR, **dict.fromkeys(_ASCII_WHITESPACE)}
)
_INFIX_FORMS = {f"{_NOT}.": "not", f".{_AND}.": "and", f".{_OR}.": "or"}


@dataclass(frozen=True, slots=True)
class BoolFormula:
    """Closed Boolean formula tree: const / not / and / or.  Built here, it
    is checked: a known op, ``args`` a tuple of as many BoolFormulas as the
    op takes, and ``value`` 0 or 1 for const."""

    op: str
    value: int | None = None
    args: tuple["BoolFormula", ...] = ()

    def __post_init__(self) -> None:
        _check_args(self, _BOOL_ARITY)
        if self.op == "const" and not (_is_int(self.value) and self.value in (0, 1)):
            raise ValueError(f"a Boolean const is 0 or 1, got {self.value!r}")

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


_BOOL_ARITY = {"const": 0, "not": 1, "and": 2, "or": 2}
_set_bool_op, _set_bool_value, _set_bool_args = (
    BoolFormula.op.__set__, BoolFormula.value.__set__, BoolFormula.args.__set__
)


def _bool_node(op: str, value: int | None, args: tuple) -> BoolFormula:
    """A BoolFormula whose fields the caller has already checked, built
    without repeating the ``__post_init__`` checks."""
    node = _new(BoolFormula)
    _set_bool_op(node, op)
    _set_bool_value(node, value)
    _set_bool_args(node, args)
    return node


#: The two constants, indexed by value.  Nodes are immutable, so every
#: parsed or generated formula shares these leaves.
_BOOL_CONSTS = (_bool_node("const", 0, ()), _bool_node("const", 1, ()))
_BOOL_LEAVES = {"0": _BOOL_CONSTS[0], "1": _BOOL_CONSTS[1]}


def _canon(text: str) -> str:
    """Aliases replaced by the connectives, ASCII whitespace dropped."""
    return text.translate(_ALIASES)


def parse_bool_infix(text: str) -> BoolFormula:
    """Fully parenthesized infix: 0, 1, (NOT f), (f AND g), (f OR g)."""

    def leaf(ch: str) -> BoolFormula:
        node = _BOOL_LEAVES.get(ch)
        if node is None:
            raise FormulaParseError(f"unexpected symbol {ch!r}")
        return node

    return _parse_brackets(
        _canon(text), leaf, _INFIX_FORMS, lambda op, args: _bool_node(op, None, args)
    )


def parse_bool_postfix(text: str) -> BoolFormula:
    """Postfix form: ``<alpha><beta><op>`` with ``len(alpha) >= len(beta)``
    (enforced), negation written ``(<alpha>NOT)`` with its parentheses."""
    s = _canon(text)
    leaves = _BOOL_LEAVES
    marker = object()
    stack: list = []  # (formula, symbol_length) pairs or open-paren markers
    i = 0
    while i < len(s):
        ch = s[i]
        if ch in "01":
            stack.append((leaves[ch], 1))
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
            stack.append((_bool_node("not", None, (inner,)), length + 3))
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
            stack.append((_bool_node(op, None, (alpha, beta)), len_alpha + len_beta + 1))
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
            stack.append(node.value)
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
    # Derived from the image once, at construction: every product folds
    # its operands' steps (see :func:`_step`).
    step: itemgetter | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.image)
        if sorted(self.image) != list(range(1, n + 1)):
            raise ValueError(f"{self.image} is not a bijection on [{n}]")
        object.__setattr__(self, "step", _step(self.image))

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
        # Only ASCII text is stripped: another script's space is refused.
        digits = text.strip() if text.isascii() else text
        if digits.strip("0123456789"):
            raise ValueError(f"permutation {digits!r} is not a string of decimal digits")
        return cls(tuple(map(int, digits)))

    def to_string(self) -> str:
        return "".join(map(str, self.image))

    @property
    def n(self) -> int:
        return len(self.image)

    def apply(self, x: int) -> int:
        return self.image[x - 1]

    def after(self, other: "Permutation") -> "Permutation":
        """Function composition self(other(x)): ``other`` acts first."""
        return Permutation(_product((other, self), other.n))

    def inverse(self) -> "Permutation":
        return Permutation(_inverse(self.image))

    @property
    def is_identity(self) -> bool:
        return bool(_is_identity(self.image))


def _inverse(image: tuple[int, ...]) -> tuple[int, ...]:
    """Image tuple of the inverse of the bijection with image ``image``."""
    inverse = [0] * len(image)
    for x, v in enumerate(image, start=1):
        inverse[v - 1] = x
    return tuple(inverse)


def _step(image: tuple[int, ...]) -> itemgetter | None:
    """The kernel's step for the permutation with image ``image``: the
    getter that maps a product's image tuple ``q`` to ``q o p``, so
    ``_step(a)(b)`` is the image of ``a`` then ``b``.  On fewer than two
    points :func:`_product` takes no step, and the step is None."""
    return itemgetter(*[v - 1 for v in image]) if len(image) > 1 else None


def _product(perms: Iterable[Permutation], n: int) -> tuple[int, ...]:
    """Image tuple of the right-to-left product of permutations on [n],
    the first applied first.

    Each size is checked against ``n`` in sequence order, before any is
    multiplied, so a mismatch raises the :class:`DomainMismatch` of the
    first operand that differs.  The product is then folded from the last
    operand back, ``q = q o p``, by each operand's :attr:`Permutation.step`.
    """
    steps = []
    for p in perms:
        if len(p.image) != n:
            raise DomainMismatch(f"domain sizes differ: {len(p.image)} vs {n}")
        steps.append(p.step)
    acc = tuple(range(1, n + 1))
    if n < 2:  # the identity is the only permutation; a getter would return an int
        return acc
    for step in reversed(steps):
        acc = step(acc)
    return acc


def _is_identity(image: tuple[int, ...]) -> int:
    return int(image == tuple(range(1, len(image) + 1)))


def _word_product(perms: Sequence[Permutation]) -> tuple[int, ...]:
    """Image tuple of the product of a non-empty word, sizes checked
    against the first operand's, in order."""
    if not perms:
        raise ValueError("compose requires at least one permutation")
    return _product(perms, perms[0].n)


def compose(perms: Sequence[Permutation]) -> Permutation:
    """Right-to-left product: the first sequence element is applied first.

    The operands were validated when they were built, so only their domain
    sizes are checked here (against the first operand's, in order); only
    the product is built, and checked, as a new :class:`Permutation`.
    """
    return Permutation(_word_product(perms))


def word_problem(perms: Sequence[Permutation]) -> int:
    """1 iff the right-to-left composition is the identity."""
    return _is_identity(_word_product(perms))


#: Most tokens the memo of :func:`parse_permutation_line` holds at once.
_TOKEN_MEMO_SIZE = 4096
_token_memo: dict[str, Permutation] = {}


def parse_permutation_line(line: str) -> list[Permutation]:
    """One permutation per token, in line order, the tokens split at ASCII
    whitespace only.

    Tokens are read through one process-wide memo from token text to its
    :class:`Permutation`, so a token is parsed and validated once per
    process.  A token missing from it is built by
    :meth:`Permutation.from_string`, so the first bad token in line order
    raises, and it enters the memo only once it has passed.  The memo
    holds at most :data:`_TOKEN_MEMO_SIZE` entries, and is emptied when
    full.
    """
    memo = _token_memo
    perms = []
    for tok in _ascii_split(line):
        perm = memo.get(tok)
        if perm is None:
            perm = Permutation.from_string(tok)
            if len(memo) >= _TOKEN_MEMO_SIZE:
                memo.clear()
            memo[tok] = perm
        perms.append(perm)
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
    product is folded from their steps by the same kernel as
    :func:`compose`.
    """

    def selected() -> Iterator[Permutation]:
        for ins in program.instructions:
            if not 0 <= ins.var < len(bits):
                raise IndexOutOfRange(
                    f"instruction reads bit {ins.var}, assignment has {len(bits)}"
                )
            yield ins.on_true if bits[ins.var] else ins.on_false

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
        if _conjugate(source, pi) == target:
            return pi
    raise ValueError(f"{source} and {target} are not conjugate")


@cache
def _commutator_pair() -> tuple[tuple[int, ...], ...]:
    """Two 5-cycles gamma, delta whose commutator delta^-1 gamma^-1 delta
    gamma is itself a 5-cycle (found by search), and that commutator."""
    cycles = [p for p in iter_permutations(range(1, 6)) if _is_five_cycle(p)]
    for gamma in cycles:
        for delta in cycles:
            commutator = _step(gamma)(_step(delta)(_step(_inverse(gamma))(_inverse(delta))))
            if _is_five_cycle(commutator):
                return gamma, delta, commutator
    raise AssertionError("no commutator pair in S5")  # pragma: no cover


def _de_morgan(b: CircuitBuilder, g: Gate, ins: tuple[int, ...]) -> int:
    if g.kind == "THRESHOLD":
        raise UnsupportedGate(f"cannot lower {g.kind} gate {g.id}")
    if len(ins) != 2:
        raise UnsupportedGate(f"{g.kind} gate {g.id} must have fan-in 2")
    if g.kind == "AND":
        return b.emit("AND", ins)
    na = b.emit("NOT", (ins[0],))
    nb = b.emit("NOT", (ins[1],))
    return b.emit("NOT", (b.emit("AND", (na, nb)),))


def lower_or_gates(circuit: Circuit) -> Circuit:
    """Rewrite fan-in-2 OR gates as NOT(AND(NOT, NOT)) (De Morgan).

    The result uses only the basis ``barrington_transform`` accepts; any
    THRESHOLD or wider fan-in raises :class:`UnsupportedGate`.
    """
    return _rewrite(circuit, _de_morgan)


@cache
def _then(a: tuple[int, ...], c: tuple[int, ...]) -> tuple[int, ...]:
    """The conjugator equal to conjugating by ``a`` and then by ``c``."""
    return _step(a)(c)


@cache
def _conjugate(image: tuple[int, ...], pi: tuple[int, ...]) -> tuple[int, ...]:
    """pi * image * pi^-1: ``pi^-1``, then ``image``, then ``pi``."""
    return _step(_inverse(pi))(_step(image)(pi))


def barrington_transform(circuit: Circuit) -> PbpProgram:
    """Standard width-5 construction over the fan-in-2 AND/NOT basis.

    Each gate's program multiplies out to the accepting 5-cycle on
    assignments where the gate is 1 and to the identity otherwise.  An
    input is one instruction; CONST0 is the empty program; CONST1 is one
    constant instruction; NOT appends the inverse cycle and conjugates;
    AND concatenates conjugated copies of its operands in commutator order
    and conjugates that, doubling their combined length — hence length
    <= 4**depth.

    One pass in gate order counts each gate's program length, and a gate
    that needs more than :data:`MAX_PROGRAM_LENGTH` instructions raises
    ``ValueError``.  Then one walk from the output emits its program in
    order, carrying the product of the conjugators above each gate: every
    instruction is conjugated once, no gate's own program is built, and
    gates of length 0 are not entered.  The returned program holds one
    :class:`Permutation` per distinct image.

    The circuit must have exactly one output; OR/THRESHOLD gates raise
    :class:`UnsupportedGate` (lower them first via :func:`lower_or_gates`).
    Both refusals cover every gate, also one that the output does not read.
    """
    if len(circuit.outputs) != 1:
        raise ValueError("the branching-program transform needs one output")
    if circuit.n_inputs < 1:
        raise ValueError("the transform needs at least one input bit")
    lengths = [0] * len(circuit.gates)
    for g in circuit.gates:
        if g.kind == "CONST0":
            length = 0
        elif g.kind in ("INPUT", "CONST1"):
            length = 1
        elif g.kind == "NOT":
            length = lengths[g.inputs[0]] + 1
        elif g.kind == "AND":
            if len(g.inputs) != 2:
                raise UnsupportedGate(f"AND gate {g.id} must have fan-in 2")
            length = 2 * (lengths[g.inputs[0]] + lengths[g.inputs[1]])
        else:
            raise UnsupportedGate(
                f"{g.kind} gate {g.id}: lower to the AND/NOT basis first"
            )
        if length > MAX_PROGRAM_LENGTH:
            raise ValueError(
                f"gate {g.id}'s program needs {length} instructions, "
                f"more than the {MAX_PROGRAM_LENGTH} allowed"
            )
        lengths[g.id] = length
    rho = ACCEPTING_CYCLE.image
    ident = tuple(range(1, 6))
    gamma, delta, commutator = _commutator_pair()
    # NOT conjugates rho^-1 to rho and pushes its own instruction as gate
    # None.  AND's operand copies go from rho to gamma, delta, gamma^-1,
    # delta^-1, then from the commutator to rho; listed last first, as pushed.
    not_pi = _find_conjugator(_inverse(rho), rho)
    to_rho = _find_conjugator(commutator, rho)
    and_pis = [
        _then(_find_conjugator(rho, target), to_rho)
        for target in (_inverse(delta), _inverse(gamma), delta, gamma)
    ]
    input_pos = {gid: pos for pos, gid in enumerate(circuit._input_ids)}
    program = []
    stack = [(circuit.outputs[0], ident)]
    while stack:
        gid, pi = stack.pop()
        g = None if gid is None else circuit.gates[gid]
        if g is None or g.kind == "CONST1":
            on = _conjugate(rho, pi)
            program.append((0, on, on))
        elif g.kind == "INPUT":
            program.append((input_pos[gid], _conjugate(rho, pi), ident))
        elif g.kind == "NOT":
            stack += [(None, pi), (g.inputs[0], _then(not_pi, pi))]
        elif g.kind == "AND" and lengths[gid]:
            left, right = g.inputs
            stack += [(q, _then(a, pi)) for q, a in zip((right, left, right, left), and_pis)]
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
        return _BOOL_CONSTS[rng.randint(0, 1)]
    choice = rng.random()
    if choice < 0.3:
        return _bool_node("not", None, (_random_bool_tree(rng, budget - 3),))
    left_budget = rng.randint(1, budget - 2)
    left = _random_bool_tree(rng, left_budget)
    right = _random_bool_tree(rng, budget - 1 - left_budget)
    op = "and" if choice < 0.65 else "or"
    return _bool_node(op, None, (left, right))


def _random_arith_node(
    rng: random.Random, budget: int, ring: Semiring, n_vars: int, lo: int, hi: int
) -> ArithNode:
    """A random tree with constants drawn from ``[lo, hi]``."""
    if budget <= 1 or rng.random() < 0.25:
        if n_vars and rng.random() < 0.5:
            return _arith_node("var", None, rng.randint(1, n_vars), ())
        return _arith_node("const", ring.coerce(rng.randint(lo, hi)), None, ())
    roll = rng.random()
    if roll < 0.2:
        return _arith_node(
            "neg", None, None, (_random_arith_node(rng, budget - 1, ring, n_vars, lo, hi),)
        )
    split = rng.randint(1, max(budget - 2, 1))
    left = _random_arith_node(rng, split, ring, n_vars, lo, hi)
    right = _random_arith_node(rng, budget - 1 - split, ring, n_vars, lo, hi)
    return _arith_node("add" if roll < 0.6 else "mul", None, None, (left, right))


@cache
def _s5_tables() -> tuple[
    dict[tuple[int, ...], int],
    tuple[str, ...],
    tuple[tuple[int, ...], ...],
    tuple[int, ...],
    tuple[int, ...],
]:
    """S5 by index, for ``gen_instances("perm", ...)``: each image's index
    (0-119, the images in lexicographic order), each index's text, the
    product table (``products[a][b]`` is the index of ``a`` then ``b``),
    each index's inverse (by :func:`_inverse`) and the draw table.  A
    product is the kernel's one step, ``_step(a)(b)``.  ``draws[d]`` is the
    index of the image that ``random.shuffle`` makes of ``[1, 2, 3, 4, 5]``
    when its swap positions are ``j4, j3, j2, j1`` (each ``j_i`` in
    ``0..i``, swapped with position ``i``) and ``d = ((j4*4 + j3)*3 + j2)*2
    + j1``.  Built on first use, so that importing the module does not pay
    for it."""
    images = list(iter_permutations(range(1, 6)))
    index = {image: i for i, image in enumerate(images)}
    texts = tuple("".join(map(str, image)) for image in images)
    products = tuple(tuple(index[step(b)] for b in images) for step in map(_step, images))
    inverses = tuple(index[_inverse(a)] for a in images)
    draws = []
    for js in iter_product(range(5), range(4), range(3), range(2)):  # in order of d
        x = [1, 2, 3, 4, 5]
        for i, j in zip((4, 3, 2, 1), js):
            x[i], x[j] = x[j], x[i]
        draws.append(index[tuple(x)])
    return index, texts, products, inverses, tuple(draws)


def _draw_s5(rng: random.Random, draws: Sequence[int], count: int) -> list[int]:
    """``count`` S5 indices, each that of the image ``rng.shuffle`` makes of
    ``[1, 2, 3, 4, 5]``, drawn the way CPython 3.10-3.13 draws it:
    ``shuffle`` swaps position ``i`` with ``_randbelow(i + 1)`` for ``i =
    4, 3, 2, 1``, and ``_randbelow(n)`` calls ``getrandbits(n.bit_length())``
    until the result is below ``n``, the rule ``cli._draw_indices`` follows
    too.  ``draws`` is :func:`_s5_tables`' draw table, which maps the four
    positions to the index.  The tests check this against ``shuffle`` call
    for call."""
    getrandbits = rng.getrandbits
    out: list[int] = []
    for _ in range(count):
        j4 = getrandbits(3)
        while j4 >= 5:
            j4 = getrandbits(3)
        j3 = getrandbits(3)
        while j3 >= 4:
            j3 = getrandbits(3)
        j2 = getrandbits(2)
        while j2 >= 3:
            j2 = getrandbits(2)
        j1 = getrandbits(2)
        while j1 >= 2:
            j1 = getrandbits(2)
        out.append(draws[((j4 * 4 + j3) * 3 + j2) * 2 + j1])
    return out


@lru_cache(maxsize=16)  # one shared frozen ring per kind; arith-zM kinds are unbounded
def _arith_semiring(kind: str) -> Semiring:
    if kind == "arith":
        return Semiring.integers()
    modulus = _ascii_int(kind[len("arith-z") :]) if kind.startswith("arith-z") else None
    if modulus is None:
        raise ValueError(f"unknown arithmetic corpus kind {kind!r}")
    return Semiring.zmod(modulus)


def gen_instances(kind: str, size: int, seed: int, count: int = 100) -> Corpus:
    """Deterministic labelled corpus for one problem family.

    Kinds: ``bool`` (postfix formulas of at most ``size`` symbols),
    ``perm`` (lines of ``size`` space-separated S5 image strings, roughly
    half engineered to compose to the identity: the last element is the
    inverse of the product of the others; each element is drawn by
    :func:`_draw_s5`, as ``random.shuffle`` of [5] draws it on CPython
    3.10-3.13, and composed by index in :func:`_s5_tables`, and the label
    is the product of the whole word), ``arith`` (integer S-expressions
    with at most ``size`` operators plus a three-constant assignment after
    ``;``), and ``arith-zM`` (the same over Z_M).
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
        index, texts, products, inverses, draws = _s5_tables()
        identity = index[tuple(range(1, 6))]
        for _ in range(count):
            closed = size >= 2 and rng.random() < 0.5
            word = _draw_s5(rng, draws, size - 1 if closed else size)
            q = identity  # the product of the word so far
            for p in word:
                q = products[q][p]
            if closed:
                p = inverses[q]
                word.append(p)
                q = products[q][p]
            instances.append(" ".join([texts[p] for p in word]))
            labels.append(str(int(q == identity)))
    elif kind == "arith" or kind.startswith("arith-z"):
        ring = _arith_semiring(kind)
        n_vars = 3
        # Constants and assignment values share one range per ring.
        lo, hi = (-9, 9) if ring.kind == "integers" else (0, ring.modulus - 1)
        for _ in range(count):
            node = _random_arith_node(rng, size, ring, n_vars, lo, hi)
            formula = ArithFormula(ring, node, n_vars)
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
        # Only ASCII whitespace is stripped: another script's space stays
        # in its token, which is refused by name.
        expr, _, assign_text = line.partition(";")
        formula = parse_arith(expr, ring)
        assign_text = assign_text.strip(_ASCII_WHITESPACE)
        assignment = []
        for tok in assign_text.split(",") if assign_text else ():
            c = _ascii_int(tok)
            if c is None:
                raise FormulaParseError(
                    f"bad assignment value {tok.strip(_ASCII_WHITESPACE)!r}"
                )
            assignment.append(c)
        # Cut the assignment to the formula's arity, its largest X_i: a
        # corpus line may list values for indeterminates it never reads.
        value = eval_arith(formula, assignment[: formula.n_indeterminates])
        try:
            return str(value)
        except ValueError:
            # Past the interpreter's int-to-string limit: refuse the label
            # rather than raise that limit for the whole process.
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"label has more than {limit} decimal digits") from None
    raise ValueError(f"unknown corpus kind {kind!r}")
