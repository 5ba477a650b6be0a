"""Corpus generators and stack-based reference evaluators.

The benchmark computes the expected label of every corpus line itself, so
`hardness eval` is checked against code that shares nothing with
`artifact.hardness`.  The evaluators use explicit stacks: they handle
formulas of any nesting depth, which is what the deep left-comb
instances need.

Formats (as `artifact hardness eval` reads them):

* ``bool``: postfix, ``<alpha><beta><op>`` with ``len(alpha) >= len(beta)``,
  negation written ``(<alpha>!)``; ``&``, ``|`` and ``!`` are the ASCII
  spellings of the three connectives.
* ``arith`` / ``arith-zM``: an S-expression over integers and ``X1..X3``
  with ``(+ a b)``, ``(* a b)`` and ``(- a)``, then ``; c1,c2,c3``.
* ``perm``: space-separated S5 image strings such as ``32451``; the label
  is 1 iff the product, first permutation applied first, is the identity.
"""

from __future__ import annotations

import random

N_VARS = 3
_IDENTITY = (1, 2, 3, 4, 5)


def modulus_of(kind: str) -> int | None:
    """``None`` for ``arith`` (plain integers), M for ``arith-zM``."""
    if kind == "arith":
        return None
    if kind.startswith("arith-z"):
        return int(kind[len("arith-z"):])
    raise ValueError(f"not an arithmetic corpus kind: {kind!r}")


# ------------------------------------------------------------ evaluators


def eval_bool_postfix(text: str) -> int:
    """Value of a closed postfix formula."""
    stack: list[int] = []
    for ch in text:
        if ch in "01":
            stack.append(int(ch))
        elif ch in "!~¬":
            stack.append(1 - stack.pop())
        elif ch in "&∧|∨":
            b = stack.pop()
            a = stack.pop()
            stack.append(a & b if ch in "&∧" else a | b)
        elif ch not in "() \t":
            raise ValueError(f"unexpected symbol {ch!r}")
    if len(stack) != 1:
        raise ValueError("formula does not reduce to one value")
    return stack[0]


def eval_arith_sexpr(expr: str, assignment: list[int], modulus: int | None) -> int:
    """Value of an S-expression with ``Xi := assignment[i-1]``, reduced
    modulo ``modulus`` when one is given."""

    def norm(v: int) -> int:
        return v % modulus if modulus else v

    def apply(op: str, args: list[int]) -> int:
        if op == "-" and len(args) == 1:
            return norm(-args[0])
        if op in "+*" and len(args) == 2:
            a, b = args
            return norm(a + b if op == "+" else a * b)
        raise ValueError(f"bad form ({op} with {len(args)} operands)")

    frames: list[list] = []  # [operator or None, operand values]
    result: list[int] = []
    expect_op = False
    for tok in expr.replace("(", " ( ").replace(")", " ) ").split():
        if expect_op:
            frames[-1][0] = tok
            expect_op = False
            continue
        if tok == "(":
            frames.append([None, []])
            expect_op = True
            continue
        if tok == ")":
            op, args = frames.pop()
            value = apply(op, args)
        elif tok.startswith("X"):
            value = norm(assignment[int(tok[1:]) - 1])
        else:
            value = norm(int(tok))
        (frames[-1][1] if frames else result).append(value)
    if frames or len(result) != 1:
        raise ValueError("unbalanced S-expression")
    return result[0]


def eval_arith_line(line: str, modulus: int | None) -> int:
    expr, _, assign = line.partition(";")
    return eval_arith_sexpr(expr, [int(t) for t in assign.split(",")], modulus)


def _compose(perms: list[tuple[int, ...]]) -> tuple[int, ...]:
    acc = _IDENTITY
    for p in perms:
        acc = tuple(p[v - 1] for v in acc)
    return acc


def eval_perm_line(line: str) -> int:
    perms = [tuple(int(c) for c in tok) for tok in line.split()]
    return int(_compose(perms) == _IDENTITY)


def label(kind: str, line: str) -> str:
    """Expected `hardness eval` label of one corpus line."""
    if kind == "bool":
        return str(eval_bool_postfix(line))
    if kind == "perm":
        return str(eval_perm_line(line))
    return str(eval_arith_line(line, modulus_of(kind)))


# ------------------------------------------------------------ generators


def _bool_text(rng: random.Random, budget: int) -> str:
    if budget < 4 or rng.random() < 0.2:
        return rng.choice("01")
    roll = rng.random()
    if roll < 0.3:
        return "(" + _bool_text(rng, budget - 3) + "!)"
    left = rng.randint(1, budget - 2)
    a = _bool_text(rng, left)
    b = _bool_text(rng, budget - 1 - left)
    if len(a) < len(b):
        a, b = b, a
    return a + b + ("&" if roll < 0.65 else "|")


def _const_range(modulus: int | None) -> tuple[int, int]:
    return (0, modulus - 1) if modulus else (-9, 9)


def _arith_text(rng: random.Random, budget: int, modulus: int | None) -> str:
    if budget <= 1 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return f"X{rng.randint(1, N_VARS)}"
        return str(rng.randint(*_const_range(modulus)))
    roll = rng.random()
    if roll < 0.2:
        return f"(- {_arith_text(rng, budget - 1, modulus)})"
    split = rng.randint(1, max(budget - 2, 1))
    a = _arith_text(rng, split, modulus)
    b = _arith_text(rng, budget - 1 - split, modulus)
    return f"({'+' if roll < 0.6 else '*'} {a} {b})"


def _assignment(rng: random.Random, modulus: int | None) -> str:
    return ",".join(str(rng.randint(*_const_range(modulus))) for _ in range(N_VARS))


def _perm_line(rng: random.Random, size: int) -> str:
    perms = []
    for _ in range(size):
        image = list(_IDENTITY)
        rng.shuffle(image)
        perms.append(tuple(image))
    if size >= 2 and rng.random() < 0.5:
        # Close the word with the inverse of its prefix: label 1.
        prefix = _compose(perms[:-1])
        closing = [0] * 5
        for x, v in enumerate(prefix, start=1):
            closing[v - 1] = x
        perms[-1] = tuple(closing)
    return " ".join("".join(map(str, p)) for p in perms)


def random_corpus(kind: str, size: int, count: int, rng: random.Random) -> list[str]:
    """``count`` random lines: ``size`` bounds the postfix symbols (bool),
    the operators (arith) or is the word length (perm)."""
    if kind == "bool":
        return [_bool_text(rng, size) for _ in range(count)]
    if kind == "perm":
        return [_perm_line(rng, size) for _ in range(count)]
    modulus = modulus_of(kind)
    return [
        f"{_arith_text(rng, size, modulus)} ; {_assignment(rng, modulus)}"
        for _ in range(count)
    ]


def deep_comb(kind: str, depth: int, rng: random.Random) -> str:
    """A left comb nested ``depth`` levels deep: each level combines the
    whole formula so far with one fresh leaf."""
    if kind == "bool":
        return rng.choice("01") + "".join(
            rng.choice("01") + rng.choice("&|") for _ in range(depth)
        )
    modulus = modulus_of(kind)
    ops = [rng.choice("+*") for _ in range(depth)]
    leaves = [
        f"X{rng.randint(1, N_VARS)}" if rng.random() < 0.5
        else str(rng.randint(*_const_range(modulus)))
        for _ in range(depth)
    ]
    expr = (
        "".join(f"({op} " for op in reversed(ops))
        + "X1"
        + "".join(f" {leaf})" for leaf in leaves)
    )
    return f"{expr} ; {_assignment(rng, modulus)}"
