"""Tests for the formula/word-problem reference suite and the width-5
branching-program construction.

Every evaluator is checked against an independently written oracle: a
stack machine for arithmetic formulas, a direct recursive evaluator over
test-built trees for Boolean formulas, and a pointwise chase for
permutation composition.  Branching programs are checked exhaustively
against circuit evaluation on a fixed small-circuit family.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import pickle
import random
import re
import subprocess
import sys
import time
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import hardness
from artifact.circuits import (
    ArityMismatch,
    Circuit,
    Gate,
    evaluate,
    serialize_netlist,
    to_majority_only,
)
from artifact.hardness import (
    ACCEPTING_CYCLE,
    ArithFormula,
    ArithNode,
    BoolFormula,
    DomainMismatch,
    FormulaParseError,
    IndexOutOfRange,
    MAX_PROGRAM_LENGTH,
    PbpInstruction,
    PbpProgram,
    Permutation,
    Semiring,
    UnsupportedGate,
    barrington_transform,
    compose,
    enumerate_small_circuits,
    eval_arith,
    eval_bool,
    eval_instance,
    eval_pbp,
    gen_instances,
    lower_or_gates,
    parse_arith,
    parse_bool_infix,
    parse_bool_postfix,
    parse_permutation_line,
    word_problem,
)
from artifact.synthesis import synth_primitive
from oracles import OracleUnsupportedGate, oracle_barrington

# --------------------------------------------------------------- oracles


def arith_to_rpn(node: ArithNode) -> list:
    """Flatten an expression tree to reverse Polish notation."""
    if node.op == "const":
        return [("push", node.value)]
    if node.op == "var":
        return [("load", node.index)]
    tokens = []
    for arg in node.args:
        tokens.extend(arith_to_rpn(arg))
    return tokens + [("op", node.op)]


def run_rpn(tokens: list, assignment: list[int], ring: Semiring) -> int:
    """Stack-machine evaluation, with the ring operations written inline."""
    m = ring.modulus
    stack: list[int] = []
    for tag, payload in tokens:
        if tag == "push":
            stack.append(payload % m if ring.kind == "zmod" else payload)
        elif tag == "load":
            c = assignment[payload - 1]
            stack.append(c % m if ring.kind == "zmod" else c)
        elif payload == "neg":
            stack.append((-stack.pop()) % m if ring.kind == "zmod" else -stack.pop())
        else:
            b, a = stack.pop(), stack.pop()
            if ring.kind == "booleans":
                stack.append((a | b) if payload == "add" else (a & b))
            elif ring.kind == "zmod":
                stack.append((a + b) % m if payload == "add" else (a * b) % m)
            else:
                stack.append(a + b if payload == "add" else a * b)
    assert len(stack) == 1
    return stack[0]


def random_arith_tree(
    rng: random.Random, depth: int, ring: Semiring, n_vars: int
) -> ArithNode:
    """Test-local generator: a tree of the exact requested depth."""
    if depth == 0:
        if n_vars and rng.random() < 0.5:
            return ArithNode("var", index=rng.randint(1, n_vars))
        if ring.kind == "zmod":
            lo, hi = 0, ring.modulus - 1
        elif ring.kind == "booleans":
            lo, hi = 0, 1
        else:
            lo, hi = -4, 4
        return ArithNode("const", value=ring.coerce(rng.randint(lo, hi)))
    roll = rng.random()
    deep = random_arith_tree(rng, depth - 1, ring, n_vars)
    if roll < 0.25 and ring.kind != "booleans":
        return ArithNode("neg", args=(deep,))
    other = random_arith_tree(rng, rng.randint(0, depth - 1), ring, n_vars)
    pair = (deep, other) if rng.random() < 0.5 else (other, deep)
    return ArithNode("add" if roll < 0.6 else "mul", args=pair)


def random_bool_tree(rng: random.Random, budget: int) -> BoolFormula:
    """Test-local generator, independent of the library's corpus builder."""
    if budget < 4 or rng.random() < 0.25:
        return BoolFormula("const", value=rng.randint(0, 1))
    roll = rng.random()
    if roll < 0.3:
        return BoolFormula("not", args=(random_bool_tree(rng, budget - 3),))
    left = random_bool_tree(rng, rng.randint(1, budget - 2))
    right = random_bool_tree(rng, budget - 1 - len(left.to_postfix()) - 1)
    op = "and" if roll < 0.65 else "or"
    return BoolFormula(op, args=(left, right))


def oracle_bool(tree: BoolFormula) -> int:
    """Direct recursion over the test-built tree, no parsing involved."""
    if tree.op == "const":
        return tree.value
    if tree.op == "not":
        return 0 if oracle_bool(tree.args[0]) else 1
    vals = [oracle_bool(a) for a in tree.args]
    return min(vals) if tree.op == "and" else max(vals)


def chase(perms: list[Permutation], x: int) -> int:
    """Apply each permutation in turn to a single point."""
    for p in perms:
        x = p.image[x - 1]
    return x


def fold_after(perms: list[Permutation]) -> Permutation:
    """Right-to-left product as a fold of ``Permutation.after``, one
    validated intermediate per step."""
    return reduce(lambda acc, p: p.after(acc), perms, Permutation.identity(perms[0].n))


def random_perm(rng: random.Random) -> Permutation:
    image = list(range(1, 6))
    rng.shuffle(image)
    return Permutation(tuple(image))


# ----------------------------------------------------------------- tests


class TestSemiring:
    """Carrier tags and their operations."""

    def test_integer_ops(self):
        ring = Semiring.integers()
        assert ring.add(3, 4) == 7
        assert ring.mul(-2, 5) == -10
        assert ring.neg(6) == -6
        assert ring.coerce(-123) == -123

    def test_zmod_reduces_and_never_errors(self):
        ring = Semiring.zmod(7)
        assert ring.coerce(12) == 5
        assert ring.coerce(-1) == 6
        assert ring.add(5, 4) == 2
        assert ring.mul(3, 5) == 1
        assert ring.neg(2) == 5

    def test_boolean_semiring(self):
        ring = Semiring.booleans()
        assert ring.add(1, 1) == 1  # join
        assert ring.mul(1, 0) == 0  # meet
        with pytest.raises(DomainMismatch):
            ring.neg(1)
        with pytest.raises(DomainMismatch):
            ring.coerce(2)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            Semiring.zmod(1)

    @pytest.mark.parametrize(
        "args,message",
        [
            (("zmod",), "modulus must be >= 2, got None"),
            (("zmod", 1), "modulus must be >= 2, got 1"),
            (("zmod", 7.0), "modulus must be >= 2, got 7.0"),
            (("zmod", True), "modulus must be >= 2, got True"),
            (("ints",), "unknown semiring kind 'ints'"),
            (("integers", 5), "the integers semiring takes no modulus, got 5"),
            (("booleans", 2), "the booleans semiring takes no modulus, got 2"),
        ],
        ids=["zmod-none", "zmod-1", "zmod-float", "zmod-bool", "unknown-kind",
             "integers-modulus", "booleans-modulus"],
    )
    def test_constructor_checks_kind_and_modulus(self, args, message):
        """Built directly, a semiring is checked as the named constructors
        check it: no ring evaluates every formula to 0, and no unknown
        kind acts as the integers."""
        with pytest.raises(ValueError) as err:
            Semiring(*args)
        assert str(err.value) == message
        with pytest.raises(ValueError, match="^modulus must be >= 2, got 1$"):
            Semiring.zmod(1)
        assert Semiring("zmod", 7) == Semiring.zmod(7)
        assert Semiring("integers") == Semiring.integers()


class TestArithFormula:
    """S-expression parsing, printing, and evaluation."""

    def test_parse_print_round_trip(self):
        text = "(+ (* X1 3) (- X2))"
        f = parse_arith(text, Semiring.integers())
        assert f.to_sexpr() == text
        assert f.n_indeterminates == 2

    def test_hand_checked_values(self):
        ring = Semiring.integers()
        assert eval_arith(parse_arith("(+ 2 3)", ring), []) == 5
        assert eval_arith(parse_arith("(* (- 2) 3)", ring), []) == -6
        f = parse_arith("(+ (* X1 X2) (- X1))", ring)
        assert eval_arith(f, [4, 5]) == 16

    def test_zmod_values(self):
        ring = Semiring.zmod(7)
        assert eval_arith(parse_arith("(+ 5 4)", ring), []) == 2
        assert eval_arith(parse_arith("(* X1 X1)", ring), [3]) == 2

    def test_boolean_values_and_missing_inverse(self):
        ring = Semiring.booleans()
        assert eval_arith(parse_arith("(+ 1 1)", ring), []) == 1
        assert eval_arith(parse_arith("(* 1 0)", ring), []) == 0
        with pytest.raises(DomainMismatch):
            eval_arith(parse_arith("(- 1)", ring), [])
        with pytest.raises(DomainMismatch):
            eval_arith(parse_arith("X1", ring), [2])

    def test_assignment_arity_checked(self):
        f = parse_arith("(+ X1 X2)", Semiring.integers())
        with pytest.raises(ArityMismatch):
            eval_arith(f, [1])
        with pytest.raises(ArityMismatch):
            eval_arith(f, [1, 2, 3])

    def test_parse_errors(self):
        ring = Semiring.integers()
        for bad in (
            "",
            "(",
            "()",
            "(+ 1)",
            "(- 1 2)",
            "(& 1 2)",
            "(+ 1 2))",
            "1 2",
            "Xa",
            "X0",
            "(+ 1 2",
        ):
            with pytest.raises(FormulaParseError):
                parse_arith(bad, ring)

    def test_against_stack_machine_depth8_zmod7(self):
        """1000 random depth-8 formulas over Z_7 agree with the RPN oracle."""
        rng = random.Random(801)
        ring = Semiring.zmod(7)
        for _ in range(1000):
            node = random_arith_tree(rng, 8, ring, n_vars=3)
            assignment = [rng.randint(0, 6) for _ in range(3)]
            formula = ArithFormula(ring, node, 3)
            got = eval_arith(formula, assignment)
            want = run_rpn(arith_to_rpn(node), assignment, ring)
            assert got == want

    def test_against_stack_machine_other_rings(self):
        rng = random.Random(802)
        for ring in (Semiring.integers(), Semiring.booleans()):
            for _ in range(300):
                node = random_arith_tree(rng, rng.randint(1, 6), ring, 2)
                hi = 1 if ring.kind == "booleans" else 9
                lo = 0 if ring.kind == "booleans" else -9
                assignment = [rng.randint(lo, hi) for _ in range(2)]
                formula = ArithFormula(ring, node, 2)
                assert eval_arith(formula, assignment) == run_rpn(
                    arith_to_rpn(node), assignment, ring
                )

    def test_parse_of_printed_tree_matches_direct_eval(self):
        rng = random.Random(803)
        ring = Semiring.integers()
        for _ in range(200):
            node = random_arith_tree(rng, rng.randint(0, 5), ring, 3)
            formula = ArithFormula(ring, node, 3)
            reparsed = parse_arith(formula.to_sexpr(), ring)
            assignment = [rng.randint(-5, 5) for _ in range(3)]
            assert eval_arith(
                ArithFormula(ring, reparsed.root, 3), assignment
            ) == eval_arith(formula, assignment)


class TestBoolFormula:
    """Infix and postfix grammars for closed Boolean formulas."""

    def test_infix_hand_values(self):
        assert eval_bool(parse_bool_infix("(0∧1)")) == 0
        assert eval_bool(parse_bool_infix("((0∧1)∨(¬0))")) == 1
        assert eval_bool(parse_bool_infix("(¬(1∨0))")) == 0
        assert eval_bool(parse_bool_infix("1")) == 1

    def test_ascii_aliases(self):
        assert eval_bool(parse_bool_infix("((0&1)|(!0))")) == 1

    def test_whitespace_dropped_is_ascii_only(self):
        """Every ASCII character ``str.split`` drops is dropped between
        symbols; another script's space is an unexpected symbol."""
        spaced = "\t\n\v\f\r\x1c\x1d\x1e\x1f ".join("(0¬)01∧∨") + " "
        assert parse_bool_postfix(spaced) == parse_bool_postfix("(0¬)01∧∨")
        assert parse_bool_infix("(0 ∧\x1f1)") == parse_bool_infix("(0∧1)")
        for space in ("\u00a0", "\u3000"):
            with pytest.raises(FormulaParseError, match="unexpected symbol"):
                parse_bool_postfix(f"0{space}1∧")
            with pytest.raises(FormulaParseError, match="unexpected symbol"):
                parse_bool_infix(f"(0∧{space}1)")

    def test_postfix_hand_values(self):
        assert eval_bool(parse_bool_postfix("01∧")) == 0
        assert eval_bool(parse_bool_postfix("(0¬)01∧∨")) == 1
        assert eval_bool(parse_bool_postfix("(01∧¬)")) == 1

    def test_postfix_length_rule_enforced(self):
        # alpha has 3 symbols, beta has 4 — the shorter operand came first.
        with pytest.raises(FormulaParseError):
            parse_bool_postfix("01∧(0¬)∨")

    def test_printer_swaps_to_satisfy_length_rule(self):
        tree = BoolFormula(
            "or",
            args=(
                BoolFormula("and", args=(
                    BoolFormula("const", value=0), BoolFormula("const", value=1),
                )),
                BoolFormula("not", args=(BoolFormula("const", value=0),)),
            ),
        )
        printed = tree.to_postfix()
        assert printed == "(0¬)01∧∨"
        assert eval_bool(parse_bool_postfix(printed)) == eval_bool(tree)

    def test_infix_parse_errors(self):
        for bad in ("", "0∧1", "(0∧1", "(¬)", "(01)", "(0∧1))", "(2∧1)", ")"):
            with pytest.raises(FormulaParseError):
                parse_bool_infix(bad)

    def test_postfix_parse_errors(self):
        for bad in ("", "01", "∧", "01∧)", "0¬", "(0¬", "01", "(01∧"):
            with pytest.raises(FormulaParseError):
                parse_bool_postfix(bad)

    def test_random_formulas_agree_with_recursive_oracle(self):
        """1000 random formulas of at most 31 symbols: both parsers and the
        printer round trip agree with direct recursion over the tree."""
        rng = random.Random(811)
        for _ in range(1000):
            tree = random_bool_tree(rng, 31)
            want = oracle_bool(tree)
            postfix = tree.to_postfix()
            infix = tree.to_infix()
            assert len(postfix) <= 31
            assert eval_bool(tree) == want
            assert eval_bool(parse_bool_postfix(postfix)) == want
            assert eval_bool(parse_bool_infix(infix)) == want

    def test_postfix_canonical_form_is_stable(self):
        rng = random.Random(812)
        for _ in range(300):
            tree = random_bool_tree(rng, 23)
            printed = tree.to_postfix()
            assert parse_bool_postfix(printed).to_postfix() == printed

    def test_infix_round_trip_preserves_tree(self):
        rng = random.Random(813)
        for _ in range(300):
            tree = random_bool_tree(rng, 23)
            assert parse_bool_infix(tree.to_infix()) == tree


_C3, _C4 = ArithNode("const", value=3), ArithNode("const", value=4)
_T, _F = BoolFormula("const", value=1), BoolFormula("const", value=0)


class TestNodeChecks:
    """The public node constructors refuse a node the evaluators and
    printers would misread, with a one-line ``ValueError``."""

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: ArithNode("sub", args=(_C3, _C4)), "unknown ArithNode op 'sub'"),
            (lambda: ArithNode("add", args=(_C3, _C4, _C3)),
             "'add' takes a tuple of 2 ArithNode args"),
            (lambda: ArithNode("mul", args=(_C3,)), "'mul' takes a tuple of 2 ArithNode args"),
            (lambda: ArithNode("neg", args=[_C3]), "'neg' takes a tuple of 1 ArithNode args"),
            (lambda: ArithNode("neg", args=(_T,)), "'neg' takes a tuple of 1 ArithNode args"),
            (lambda: ArithNode("const", value=3, args=(_C4,)),
             "'const' takes a tuple of 0 ArithNode args"),
            (lambda: ArithNode("const"), "a const node holds an int, got None"),
            (lambda: ArithNode("const", value="3"), "a const node holds an int, got '3'"),
            (lambda: ArithNode("const", value=True), "a const node holds an int, got True"),
            (lambda: ArithNode("var"), "a var node holds an int index >= 1, got None"),
            (lambda: ArithNode("var", index=0), "a var node holds an int index >= 1, got 0"),
            (lambda: ArithNode("var", index=1.0),
             "a var node holds an int index >= 1, got 1.0"),
            (lambda: BoolFormula("xor", args=(_T, _F)), "unknown BoolFormula op 'xor'"),
            (lambda: BoolFormula("not", args=(_T, _F)),
             "'not' takes a tuple of 1 BoolFormula args"),
            (lambda: BoolFormula("and", args=(_T, _C3)),
             "'and' takes a tuple of 2 BoolFormula args"),
            (lambda: BoolFormula("const", value=7), "a Boolean const is 0 or 1, got 7"),
            (lambda: BoolFormula("const"), "a Boolean const is 0 or 1, got None"),
            (lambda: BoolFormula("const", value=True), "a Boolean const is 0 or 1, got True"),
            (lambda: BoolFormula(["or"]), "unknown BoolFormula op ['or']"),
        ],
        ids=["arith-unknown-op", "arith-wide", "arith-narrow", "arith-list-args",
             "arith-bool-arg", "const-with-args", "const-none", "const-str", "const-bool",
             "var-none", "var-zero", "var-float", "bool-unknown-op", "bool-wide",
             "bool-arith-arg", "bool-const-7", "bool-const-none", "bool-const-bool",
             "bool-list-op"],
    )
    def test_refused(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


class TestPermutation:
    """Image-tuple permutations and the word problem."""

    def test_string_round_trip(self):
        p = Permutation.from_string("23451")
        assert p.to_string() == "23451"
        assert p.apply(5) == 1

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3, 4, 5))

    def test_inverse_and_identity(self):
        rng = random.Random(821)
        for _ in range(100):
            p = random_perm(rng)
            assert p.after(p.inverse()).is_identity
            assert p.inverse().after(p).is_identity
        assert Permutation.identity(5).is_identity

    def test_compose_applies_first_element_first(self):
        swap12 = Permutation.from_string("21345")
        swap23 = Permutation.from_string("13245")
        got = compose([swap12, swap23])
        # 1 -> 2 -> 3, 2 -> 1 -> 1, 3 -> 3 -> 2.
        assert got.image == (3, 1, 2, 4, 5)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            compose([Permutation.identity(5), Permutation.identity(4)])

    def test_accepting_cycle_has_order_five(self):
        assert ACCEPTING_CYCLE.image == (2, 3, 4, 5, 1)
        assert not ACCEPTING_CYCLE.is_identity
        assert compose([ACCEPTING_CYCLE] * 5).is_identity

    def test_compose_matches_pointwise_chase(self):
        """1000 length-100 sequences: composition equals chasing points."""
        rng = random.Random(822)
        for _ in range(1000):
            perms = [random_perm(rng) for _ in range(100)]
            total = compose(perms)
            for x in range(1, 6):
                assert total.apply(x) == chase(perms, x)

    def test_compose_is_associative(self):
        rng = random.Random(823)
        for _ in range(200):
            a, b, c = (random_perm(rng) for _ in range(3))
            left = compose([compose([a, b]), c])
            right = compose([a, compose([b, c])])
            assert left.image == compose([a, b, c]).image == right.image

    def test_word_problem_on_sequence_and_its_inverse(self):
        rng = random.Random(824)
        for _ in range(200):
            perms = [random_perm(rng) for _ in range(rng.randint(1, 20))]
            padded = perms + [compose(perms).inverse()]
            assert word_problem(padded) == 1
            assert word_problem(perms) == int(compose(perms).is_identity)

    def test_parse_permutation_line(self):
        perms = parse_permutation_line("21345 13245")
        assert [p.to_string() for p in perms] == ["21345", "13245"]


class TestCompositionKernel:
    """`compose`, `word_problem`, `parse_permutation_line` and `eval_pbp`
    share one kernel on image tuples; it must agree with a fold of
    ``Permutation.after`` on value and on every error."""

    @staticmethod
    def words(min_size: int = 1):
        return st.integers(1, 7).flatmap(
            lambda n: st.lists(
                st.permutations(range(1, n + 1)).map(lambda im: Permutation(tuple(im))),
                min_size=min_size, max_size=300,
            )
        )

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_matches_after_fold(self, data):
        word = data.draw(self.words())
        want = fold_after(word)
        assert compose(word) == want
        assert word_problem(word) == int(want.is_identity)
        line = " ".join(p.to_string() for p in word)
        assert parse_permutation_line(line) == word
        assert eval_instance("perm", line) == str(int(want.is_identity))

    def test_empty_word_raises(self):
        with pytest.raises(ValueError, match="at least one permutation"):
            compose([])
        with pytest.raises(ValueError, match="at least one permutation"):
            word_problem(parse_permutation_line("   "))

    @pytest.mark.parametrize("n", [0, 1])
    def test_words_on_fewer_than_two_points(self, n):
        word = [Permutation.identity(n)] * 3
        assert compose(word) == fold_after(word) == Permutation.identity(n)
        assert word_problem(word) == 1

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_mixed_sizes_raise_at_first_mismatch(self, data):
        word = data.draw(self.words(min_size=2))
        n = word[0].n
        # Replace one or more operands after the first with other sizes.
        positions = data.draw(
            st.lists(st.integers(1, len(word) - 1), min_size=1, max_size=3, unique=True)
        )
        for i in positions:
            m = data.draw(st.integers(1, 8).filter(lambda m: m != n))
            word[i] = Permutation.identity(m)
        first = min(positions)
        with pytest.raises(DomainMismatch) as ref:
            fold_after(word)
        message = f"domain sizes differ: {word[first].n} vs {n}"
        assert str(ref.value) == message
        with pytest.raises(DomainMismatch, match=f"^{re.escape(message)}$"):
            compose(word)
        with pytest.raises(DomainMismatch, match=f"^{re.escape(message)}$"):
            word_problem(word)

    @pytest.mark.parametrize("include_or", [False, True], ids=["and-not", "lowered-or"])
    def test_eval_pbp_matches_after_fold(self, include_or):
        circuits = enumerate_small_circuits(3, 3, include_or=include_or)
        assert circuits and all(c.n_inputs == 3 for c in circuits)
        for circuit in circuits:
            program = barrington_transform(lower_or_gates(circuit))
            for a in range(8):
                bits = [(a >> i) & 1 for i in range(3)]
                chosen = [ins.on_true if bits[ins.var] else ins.on_false
                          for ins in program.instructions]
                want = int(fold_after([Permutation.identity(5)] + chosen) == program.accept)
                assert eval_pbp(program, bits) == want == evaluate(circuit, bits)[0]

    def test_eval_pbp_checks_each_instruction_in_order(self):
        small = Permutation.identity(4)
        five = Permutation.identity(5)
        size_first = PbpProgram((PbpInstruction(0, small, small), PbpInstruction(9, five, five)), 1)
        with pytest.raises(DomainMismatch, match="^domain sizes differ: 4 vs 5$"):
            eval_pbp(size_first, [1])
        index_first = PbpProgram((PbpInstruction(9, five, five), PbpInstruction(0, small, small)), 1)
        with pytest.raises(IndexOutOfRange):
            eval_pbp(index_first, [1])


class TestS5Tables:
    """``gen_instances("perm", ...)`` composes S5 by index: its tables
    agree with the kernel on every pair, its draws agree with
    ``random.shuffle``, and the tables are built on first use only."""

    def test_tables_match_the_kernel(self):
        index, texts, products, inverses, draws = hardness._s5_tables()
        images = sorted(index, key=index.get)
        assert sorted(index.values()) == list(range(120))
        assert sorted(images) == sorted(itertools.permutations(range(1, 6)))
        assert len(products) == len(inverses) == len(texts) == 120
        for i, a in enumerate(images):
            assert texts[i] == Permutation(a).to_string()
            assert images[inverses[i]] == hardness._inverse(a)
            assert len(products[i]) == 120
            for j, b in enumerate(images):
                assert images[products[i][j]] == compose([Permutation(a), Permutation(b)]).image
        assert len(draws) == 120 and sorted(draws) == list(range(120))
        for d, (j4, j3, j2, j1) in enumerate(
            itertools.product(range(5), range(4), range(3), range(2))
        ):
            x = [1, 2, 3, 4, 5]
            x[4], x[j4] = x[j4], x[4]
            x[3], x[j3] = x[j3], x[3]
            x[2], x[j2] = x[j2], x[2]
            x[1], x[j1] = x[j1], x[1]
            assert images[draws[d]] == tuple(x)

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**31 - 1, 2**64 + 3, "perm|1000|7"])
    def test_draw_is_rng_shuffle(self, seed):
        """Call for call, and leaving the generator in the same state."""
        index, *_, draws = hardness._s5_tables()
        ours, theirs = random.Random(seed), random.Random(seed)
        got = hardness._draw_s5(ours, draws, 5000)
        want = []
        for _ in range(5000):
            x = [1, 2, 3, 4, 5]
            theirs.shuffle(x)
            want.append(index[tuple(x)])
        assert got == want
        assert ours.getstate() == theirs.getstate()
        assert hardness._draw_s5(random.Random(seed), draws, 0) == []

    def test_import_leaves_tables_unbuilt(self):
        """Importing the command line builds nothing that only ``gen perm``
        reads; the first perm corpus builds the tables once."""
        root = Path(__file__).resolve().parents[1]
        code = "\n".join([
            "import sys",
            f"sys.path.insert(0, {str(root / 'src')!r})",
            "import artifact.cli",
            "from artifact import hardness",
            "print(hardness._s5_tables.cache_info())",
            "hardness.gen_instances('perm', 3, 0, count=2)",
            "hardness.gen_instances('perm', 4, 1, count=2)",
            "print(hardness._s5_tables.cache_info())",
        ])
        run = subprocess.run(
            [sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == [
            "CacheInfo(hits=0, misses=0, maxsize=None, currsize=0)",
            "CacheInfo(hits=1, misses=1, maxsize=None, currsize=1)",
        ]


class TestTokenMemo:
    """The eval path reads tokens through one bounded, process-wide memo
    from token text to its validated permutation."""

    @pytest.fixture
    def memo(self, monkeypatch):
        """An empty memo, for this test alone."""
        fresh: dict = {}
        monkeypatch.setattr(hardness, "_token_memo", fresh)
        return fresh

    @staticmethod
    def check_entries(memo):
        for tok, perm in memo.items():
            assert type(perm) is Permutation
            assert len(tok) <= 9
            assert perm == Permutation.from_string(tok)
            assert perm.step(Permutation.identity(perm.n).image) == perm.image

    def test_all_of_s7(self, memo):
        tokens = ["".join(map(str, im)) for im in itertools.permutations(range(1, 8))]
        assert len(tokens) == 5040 > hardness._TOKEN_MEMO_SIZE
        peak = 0
        for tok in tokens:
            assert parse_permutation_line(tok) == [Permutation.from_string(tok)]
            assert len(memo) <= hardness._TOKEN_MEMO_SIZE
            peak = max(peak, len(memo))
        assert peak == hardness._TOKEN_MEMO_SIZE
        self.check_entries(memo)
        rng = random.Random(834)
        rng.shuffle(tokens)
        for start in range(0, len(tokens), 90):
            word = [Permutation.from_string(t) for t in tokens[start:start + 90]]
            for word in (word, word + [fold_after(word).inverse()]):
                want = fold_after(word)
                line = " ".join(p.to_string() for p in word)
                assert eval_instance("perm", line) == str(int(want.is_identity))
                assert parse_permutation_line(line) == word
                assert len(memo) <= hardness._TOKEN_MEMO_SIZE
        self.check_entries(memo)

    @pytest.mark.parametrize(
        "bad", ["12a4567", "1134567", "0123456", "+234567", "\u0661234567", "1234567x"]
    )
    def test_bad_token_never_enters(self, memo, bad):
        line = f"1234567 7654321 {bad} 2134567"
        with pytest.raises(ValueError) as want:
            Permutation.from_string(bad)
        for warm in (False, True):
            if warm:
                eval_instance("perm", "1234567 7654321 2134567")
                assert {"1234567", "7654321", "2134567"} <= set(memo)
            for read in (parse_permutation_line, lambda ln: eval_instance("perm", ln)):
                with pytest.raises(ValueError) as got:
                    read(line)
                assert type(got.value) is type(want.value)
                assert str(got.value) == str(want.value)
                assert bad not in memo
        self.check_entries(memo)

    @staticmethod
    def assert_refused(line, token):
        """Both readers refuse ``line`` at ``token`` with the ``ValueError``
        that ``hardness eval perm`` prints before it exits 2."""
        message = f"permutation {token!r} is not a string of decimal digits"
        for read in (parse_permutation_line, lambda ln: eval_instance("perm", ln)):
            with pytest.raises(ValueError) as got:
                read(line)
            assert type(got.value) is ValueError
            assert str(got.value) == message

    def test_long_valid_token_is_not_kept(self, memo, tmp_path, capsys):
        """Digits padded with other scripts' spaces are refused as read, so
        every valid token is at most nine ASCII digits; the padded token
        never enters the memo."""
        from artifact.cli import main

        padded = "\u00a0" * 8 + "21345"
        self.assert_refused(f"21345 {padded}", padded)
        assert set(memo) == {"21345"}
        corpus = tmp_path / "c.txt"
        corpus.write_text(f"21345 {padded}\n", encoding="utf-8")
        assert main(["hardness", "eval", "perm", str(corpus)]) == 2
        out, err = capsys.readouterr()
        message = f"permutation {padded!r} is not a string of decimal digits"
        assert not out and err == f"ValueError: {message}\n"
        assert set(memo) == {"21345"}

    @pytest.mark.parametrize("line", ["1 1", "\u00a0", "\u00a0 \u00a0", "1 1 1 1 1"])
    def test_words_on_fewer_than_two_points(self, memo, line):
        """Words on [1] fold no step.  A token of other scripts' spaces
        alone is refused, not read as the permutation of [0]."""
        if not line.isascii():
            for _ in range(2):
                self.assert_refused(line, "\u00a0")
            assert not memo
            return
        word = [Permutation.from_string(t) for t in line.split(" ")]
        assert parse_permutation_line(line) == word
        for _ in range(2):
            assert eval_instance("perm", line) == "1" == str(int(fold_after(word).is_identity))

    @pytest.mark.parametrize(
        "line", ["1234567 21 7654321 123", "21 12 1", "123 12345 21 1234", "1 \u00a0"]
    )
    def test_mixed_sizes_raise_as_compose(self, memo, line):
        """Sizes are checked once every token has been read, so a refused
        token raises first: a space of another script after ``1`` is
        refused, not compared as a permutation of [0]."""
        if not line.isascii():
            for _ in range(2):
                self.assert_refused(line, "\u00a0")
            assert set(memo) == {"1"}
            return
        word = [Permutation.from_string(t) for t in line.split(" ")]
        with pytest.raises(DomainMismatch) as want:
            compose(word)
        for _ in range(2):  # cold, then with every token memoized
            with pytest.raises(DomainMismatch) as got:
                eval_instance("perm", line)
            assert str(got.value) == str(want.value)
        assert set(memo) == set(line.split(" "))


class TestPermutationStep:
    """A permutation carries its kernel step, built once with it, and
    every product folds the operands' steps."""

    @pytest.mark.parametrize(
        "image", [(), (1,), (2, 1), (2, 3, 4, 5, 1), (3, 1, 2, 7, 6, 5, 4)], ids=str
    )
    def test_step_is_derived_and_left_out(self, image):
        perm, want = Permutation(image), hardness._step(image)
        q = tuple(random.Random(8340).sample(range(1, len(image) + 1), len(image)))
        back = pickle.loads(pickle.dumps(perm))
        for p in (perm, back):
            assert p.step is None if want is None else p.step(q) == want(q)
            assert p == Permutation(image) and hash(p) == hash((image,))
            assert repr(p) == f"Permutation(image={image!r})"
        if len(image) > 1:
            assert perm != Permutation(tuple(reversed(image)))

    def test_eval_reads_through_the_public_names(self, monkeypatch):
        """The perm label is :func:`word_problem` of
        :func:`parse_permutation_line`, looked up on the module, so a
        wrapper there (a profiler's span, say) sees every line."""
        calls = []
        for name in ("parse_permutation_line", "word_problem"):
            real = getattr(hardness, name)
            monkeypatch.setattr(
                hardness, name, lambda arg, real=real, name=name: calls.append(name) or real(arg)
            )
        assert eval_instance("perm", "23451 51234") == "1"
        assert eval_instance("perm", "23451 23451") == "0"
        assert calls == ["parse_permutation_line", "word_problem"] * 2

    def test_products_build_no_operand_step(self, monkeypatch):
        rng = random.Random(8341)
        word = [random_perm(rng) for _ in range(60)]
        program = barrington_transform(enumerate_small_circuits(3, 3)[-1])
        assignments = [[(a >> i) & 1 for i in range(3)] for a in range(8)]
        want = word_problem(word), [eval_pbp(program, bits) for bits in assignments]
        product = compose(word)
        built = []
        real = hardness._step
        monkeypatch.setattr(hardness, "_step", lambda image: built.append(image) or real(image))
        assert (word_problem(word), [eval_pbp(program, bits) for bits in assignments]) == want
        assert built == []
        assert compose(word) == product and built == [product.image]  # the product's own step


class TestBranchingPrograms:
    """Width-5 programs and the commutator-based circuit transform."""

    def test_empty_program_rejects(self):
        assert eval_pbp(PbpProgram((), 1), [0]) == 0
        assert eval_pbp(PbpProgram((), 1), [1]) == 0

    def test_constant_instruction_accepts(self):
        prog = PbpProgram(
            (PbpInstruction(0, ACCEPTING_CYCLE, ACCEPTING_CYCLE),), 1
        )
        assert eval_pbp(prog, [0]) == 1
        assert eval_pbp(prog, [1]) == 1

    def test_out_of_range_variable(self):
        prog = PbpProgram(
            (PbpInstruction(3, ACCEPTING_CYCLE, Permutation.identity(5)),), 4
        )
        with pytest.raises(IndexOutOfRange):
            eval_pbp(prog, [0, 1])

    def test_single_input_is_one_instruction(self):
        circuit = Circuit([Gate(0, "INPUT")], [0])
        prog = barrington_transform(circuit)
        assert len(prog) == 1
        assert eval_pbp(prog, [1]) == 1
        assert eval_pbp(prog, [0]) == 0

    def test_and_of_two_inputs_has_length_four(self):
        circuit = Circuit(
            [Gate(0, "INPUT"), Gate(1, "INPUT"), Gate(2, "AND", (0, 1))], [2]
        )
        prog = barrington_transform(circuit)
        assert len(prog) == 4
        for a in range(2):
            for b in range(2):
                assert eval_pbp(prog, [a, b]) == (a & b)

    def test_not_gate(self):
        circuit = Circuit([Gate(0, "INPUT"), Gate(1, "NOT", (0,))], [1])
        prog = barrington_transform(circuit)
        assert len(prog) == 2
        assert eval_pbp(prog, [0]) == 1
        assert eval_pbp(prog, [1]) == 0

    def test_constant_gates(self):
        zero = Circuit([Gate(0, "INPUT"), Gate(1, "CONST0")], [1])
        one = Circuit([Gate(0, "INPUT"), Gate(1, "CONST1")], [1])
        assert len(barrington_transform(zero)) == 0
        assert len(barrington_transform(one)) == 1
        for bit in range(2):
            assert eval_pbp(barrington_transform(zero), [bit]) == 0
            assert eval_pbp(barrington_transform(one), [bit]) == 1

    def test_rejects_or_threshold_and_wide_fanin(self):
        with_or = Circuit(
            [Gate(0, "INPUT"), Gate(1, "INPUT"), Gate(2, "OR", (0, 1))], [2]
        )
        with pytest.raises(UnsupportedGate):
            barrington_transform(with_or)
        with_thr = Circuit(
            [Gate(0, "INPUT"), Gate(1, "THRESHOLD", (0, 0), k=1)], [1]
        )
        with pytest.raises(UnsupportedGate):
            barrington_transform(with_thr)
        with pytest.raises(UnsupportedGate):
            lower_or_gates(with_thr)
        wide = Circuit(
            [Gate(0, "INPUT"), Gate(1, "AND", (0,))], [1]
        )
        with pytest.raises(UnsupportedGate):
            barrington_transform(wide)

    def test_refuses_unsupported_gate_outside_the_output_cone(self):
        """The documented rule: every gate of the netlist is held to the
        basis, also one that no output reads."""
        unused_or = Circuit(
            [Gate(0, "INPUT"), Gate(1, "INPUT"), Gate(2, "OR", (0, 1)), Gate(3, "NOT", (0,))],
            [3],
        )
        with pytest.raises(UnsupportedGate, match="OR gate 2"):
            barrington_transform(unused_or)

    def test_refuses_long_program_outside_the_output_cone(self):
        """An unused 20-input AND chain is refused by the length bound even
        though the output is one NOT of an input."""
        chain = and_chain(20)
        n = len(chain.gates)
        circuit = Circuit(list(chain.gates) + [Gate(n, "NOT", (0,))], [n])
        with pytest.raises(ValueError, match="gate 34's program needs 98302 instructions"):
            barrington_transform(circuit)

    def test_rejects_multi_output(self):
        circuit = Circuit([Gate(0, "INPUT"), Gate(1, "NOT", (0,))], [0, 1])
        with pytest.raises(ValueError):
            barrington_transform(circuit)

    def test_exhaustive_small_family(self):
        """Every (truth table, depth) class with depth <= 3 over 3 inputs:
        the program agrees with the circuit on all 8 assignments and its
        length never exceeds 4**depth."""
        family = enumerate_small_circuits(n_inputs=3, max_depth=3)
        assert len(family) >= 50
        depths = {c.depth for c in family}
        assert depths == {0, 1, 2, 3}
        for circuit in family:
            prog = barrington_transform(circuit)
            assert len(prog) <= 4 ** circuit.depth
            for a in range(8):
                bits = [(a >> i) & 1 for i in range(3)]
                assert eval_pbp(prog, bits) == evaluate(circuit, bits)[0]

    def test_or_gates_after_de_morgan_lowering(self):
        family = enumerate_small_circuits(n_inputs=2, max_depth=2, include_or=True)
        with_or = [
            c for c in family if any(g.kind == "OR" for g in c.gates)
        ]
        assert with_or
        for circuit in with_or:
            lowered = lower_or_gates(circuit)
            assert all(g.kind != "OR" for g in lowered.gates)
            prog = barrington_transform(lowered)
            assert len(prog) <= 4 ** lowered.depth
            for a in range(4):
                bits = [(a >> i) & 1 for i in range(2)]
                assert evaluate(lowered, bits) == evaluate(circuit, bits)
                assert eval_pbp(prog, bits) == evaluate(circuit, bits)[0]

    def test_random_circuits_match_program(self):
        """Random AND/NOT trees over 4 inputs, checked on all assignments."""
        rng = random.Random(831)

        def random_tree(depth: int) -> tuple:
            if depth == 0 or rng.random() < 0.2:
                return ("x", rng.randrange(4))
            if rng.random() < 0.35:
                return ("not", random_tree(depth - 1))
            return ("and", random_tree(depth - 1), random_tree(depth - 1))

        def compile_tree(tree: tuple) -> Circuit:
            gates = [Gate(i, "INPUT") for i in range(4)]

            def walk(t: tuple) -> int:
                if t[0] == "x":
                    return t[1]
                if t[0] == "not":
                    inner = walk(t[1])
                    gid = len(gates)
                    gates.append(Gate(gid, "NOT", (inner,)))
                else:
                    left = walk(t[1])
                    right = walk(t[2])
                    gid = len(gates)
                    gates.append(Gate(gid, "AND", (left, right)))
                return gid

            out = walk(tree)
            return Circuit(gates, [out])

        for _ in range(60):
            circuit = compile_tree(random_tree(4))
            prog = barrington_transform(circuit)
            assert len(prog) <= 4 ** circuit.depth
            for a in range(16):
                bits = [(a >> i) & 1 for i in range(4)]
                assert eval_pbp(prog, bits) == evaluate(circuit, bits)[0]


# sha256 of the concatenated `serialize_netlist` text of every circuit of
# `enumerate_small_circuits(n_inputs, max_depth, include_or)`, in order.
_FAMILY_SHA256 = {
    (3, 3, False): "d80a84af67d5e604e55f70e2f721200a03b850eff7a07ac51d45e0063e6505b2",
    (3, 3, True): "0f5602cb6d837a6b5a7656fcf554b1c56184f36f86322e6dd076c759e7106b4f",
    (2, 4, False): "7d7648693e019cdaf2ea46c253287236d29f0c5325bfcd37f33a7a5c4a9aed2c",
    (4, 2, True): "cb70c42a9170f250e1a8e082c9d6dd6f78608a65c3a5e1684a00228b67d5813c",
    (3, 4, False): "d3ba53c6f980d135426fa63990df733875f82ba13fb9ee82716c256f20937c43",
}
# sha256 of the concatenated `serialize_netlist` text of the rewriters'
# output: `to_majority_only` and `lower_or_gates` over every circuit of
# `enumerate_small_circuits(3, 3, include_or=True)`, and `to_majority_only`
# over the circuits the exhaustive checks sweep, `synth_primitive(kind, p)`
# for p = 2, 3 and kind = compare, add, mul, in that order.
_REWRITE_SHA256 = {
    "majority-family": "83ee09c511a5ef0da2b946270e754d52489153d837c28f262810a0cddb292ef7",
    "lowered-family": "3a435d4ecbe57ebd7dbcc8c8c4844073ad4d4efeefd32519a7198655bd476098",
    "majority-synthesized": "8b6781c9531aa6a3c8c887a3ec380c06099a234a69448ef95691156fadad2044",
}
# sha256 of the repr of, per circuit of `enumerate_small_circuits(3, 3,
# include_or)`, the `(var, on_true.image, on_false.image)` of every
# instruction of `barrington_transform(lower_or_gates(circuit))`; with the
# circuit count and the total instruction count.
_PROGRAM_SHA256 = {
    False: (96, 878, "eb94dbd65d285ad8178342fafbeeff2c969976f52615e6f8f626a405a829820d"),
    True: (237, 7464, "30b3a52f174579ce02c4dcc42f30164cbed3757273818eb5d6aa8dfe176b21cb"),
}


def and_chain(n: int) -> Circuit:
    """((x0 AND x1) AND x2) ... AND x(n-1): its program has 3 * 2**(n-1) - 2
    instructions."""
    gates = [Gate(i, "INPUT") for i in range(n)]
    last = 0
    for i in range(1, n):
        gates.append(Gate(len(gates), "AND", (last, i)))
        last = len(gates) - 1
    return Circuit(gates, [last])


class TestPlainValues:
    """The small-circuit family, the programs built from it and the perm
    corpus are pinned; the transform builds one `Permutation` per distinct
    image it returns, and `gen perm` builds none."""

    @pytest.fixture
    def constructions(self, monkeypatch):
        """A one-item list counting `Permutation` constructions."""
        count = [0]
        check = Permutation.__post_init__

        def counted(perm):
            count[0] += 1
            check(perm)

        monkeypatch.setattr(Permutation, "__post_init__", counted)
        return count

    @pytest.mark.parametrize("args", sorted(_FAMILY_SHA256))
    def test_family_netlists_pinned(self, args):
        text = "".join(serialize_netlist(c) for c in enumerate_small_circuits(*args))
        assert hashlib.sha256(text.encode()).hexdigest() == _FAMILY_SHA256[args]

    @pytest.mark.parametrize("name", sorted(_REWRITE_SHA256))
    def test_rewritten_netlists_pinned(self, name):
        family = enumerate_small_circuits(3, 3, include_or=True)
        circuits = {
            "majority-family": lambda: map(to_majority_only, family),
            "lowered-family": lambda: map(lower_or_gates, family),
            "majority-synthesized": lambda: (
                to_majority_only(synth_primitive(kind, p).circuit)
                for p in (2, 3)
                for kind in ("compare", "add", "mul")
            ),
        }[name]()
        text = "".join(serialize_netlist(c) for c in circuits)
        assert hashlib.sha256(text.encode()).hexdigest() == _REWRITE_SHA256[name]

    @pytest.mark.parametrize("include_or", [False, True], ids=["and-not", "lowered-or"])
    def test_program_instructions_pinned(self, include_or):
        rows = [
            [(ins.var, ins.on_true.image, ins.on_false.image) for ins in program.instructions]
            for program in (
                barrington_transform(lower_or_gates(c))
                for c in enumerate_small_circuits(3, 3, include_or=include_or)
            )
        ]
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert (len(rows), sum(map(len, rows)), digest) == _PROGRAM_SHA256[include_or]

    def test_barrington_builds_one_permutation_per_image(self, constructions):
        for circuit in enumerate_small_circuits(3, 3) + [and_chain(8)]:
            constructions[0] = 0
            program = barrington_transform(circuit)
            perms = {id(p): p for ins in program.instructions for p in (ins.on_true, ins.on_false)}
            images = {p.image for p in perms.values()}
            assert constructions[0] <= len(images) == len(perms)

    def test_gen_perm_builds_no_permutation(self, constructions):
        corpora = [gen_instances("perm", 20, seed, count=100) for seed in (0, 1)]
        assert constructions[0] == 0
        for corpus in corpora:
            assert [eval_instance("perm", line) for line in corpus.instances] == list(corpus.labels)

    def test_program_length_bound(self):
        assert MAX_PROGRAM_LENGTH == 1 << 16
        assert len(barrington_transform(and_chain(15))) == 3 * 2**14 - 2 <= MAX_PROGRAM_LENGTH
        message = (
            f"^gate 30's program needs {3 * 2**15 - 2} instructions, "
            f"more than the {MAX_PROGRAM_LENGTH} allowed$"
        )
        with pytest.raises(ValueError, match=message):
            barrington_transform(and_chain(16))


@st.composite
def and_not_dags(draw) -> Circuit:
    """A random DAG over 1-4 inputs of shared AND, NOT, CONST0 and CONST1
    gates with one output, then gates past the output that no output
    reads: maybe an OR gate, and maybe a tower of AND(g, g) gates, each
    four times as long as the one below."""
    gates = [Gate(i, "INPUT") for i in range(draw(st.integers(1, 4)))]

    def operand() -> int:
        return draw(st.integers(0, len(gates) - 1))

    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["AND", "AND", "NOT", "CONST0", "CONST1"]))
        arity = {"AND": 2, "NOT": 1}.get(kind, 0)
        gates.append(Gate(len(gates), kind, tuple(operand() for _ in range(arity))))
    output = operand()
    if draw(st.booleans()):
        gates.append(Gate(len(gates), "OR", (operand(), operand())))
    top = operand()
    for _ in range(draw(st.integers(0, 4))):
        gates.append(Gate(len(gates), "AND", (top, top)))
        top = len(gates) - 1
    return Circuit(gates, [output])


def _transform_outcome(transform, circuit: Circuit) -> tuple:
    """The ``(var, on_true image, on_false image)`` rows of a program, or
    the kind and message of its refusal."""
    try:
        program = transform(circuit)
    except (UnsupportedGate, OracleUnsupportedGate) as exc:
        return "unsupported", str(exc)
    except ValueError as exc:
        return "too long", str(exc)
    if isinstance(program, PbpProgram):
        return tuple((i.var, i.on_true.image, i.on_false.image) for i in program.instructions)
    return program


class TestBarringtonOracle:
    """The transform emits, instruction for instruction, the program that
    the per-gate construction of ``oracle_barrington`` builds, and refuses
    what it refuses, with the same message."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(circuit=and_not_dags(), cap=st.integers(1, 64) | st.just(MAX_PROGRAM_LENGTH))
    def test_matches_oracle(self, circuit, cap):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hardness, "MAX_PROGRAM_LENGTH", cap)
            got = _transform_outcome(barrington_transform, circuit)
        want = _transform_outcome(lambda c: oracle_barrington(c, max_length=cap), circuit)
        assert got == want

    def test_zero_length_tower_is_not_entered(self):
        """NOT(AND(tower, x)) over a 200-level AND(g, g) tower on CONST0:
        walking the tower would visit 4**200 gates."""
        gates = [Gate(0, "INPUT"), Gate(1, "CONST0")]
        for _ in range(200):
            gates.append(Gate(len(gates), "AND", (len(gates) - 1, len(gates) - 1)))
        gates.append(Gate(len(gates), "AND", (len(gates) - 1, 0)))
        gates.append(Gate(len(gates), "NOT", (len(gates) - 1,)))
        circuit = Circuit(gates, [len(gates) - 1])
        start = time.perf_counter()
        rows = _transform_outcome(barrington_transform, circuit)
        assert time.perf_counter() - start < 1.0
        assert len(rows) == 3 and rows == oracle_barrington(circuit)


class TestCorpora:
    """Deterministic labelled instance generation."""

    def test_byte_reproducible(self):
        for kind in ("bool", "perm", "arith", "arith-z7"):
            a = gen_instances(kind, 15, 42, count=50)
            b = gen_instances(kind, 15, 42, count=50)
            assert a.instances_text() == b.instances_text()
            assert a.labels_text() == b.labels_text()
            c = gen_instances(kind, 15, 43, count=50)
            assert a.instances_text() != c.instances_text()

    def test_labels_rederivable_from_instances(self):
        for kind in ("bool", "perm", "arith", "arith-z7"):
            corpus = gen_instances(kind, 12, 7, count=100)
            assert len(corpus.instances) == 100
            for line, label in zip(corpus.instances, corpus.labels):
                assert eval_instance(kind, line) == label

    def test_bool_instances_respect_size(self):
        corpus = gen_instances("bool", 31, 3, count=200)
        for line in corpus.instances:
            assert len(line) <= 31
            parse_bool_postfix(line)

    def test_perm_labels_cover_both_outcomes(self):
        corpus = gen_instances("perm", 10, 5, count=100)
        assert set(corpus.labels) == {"0", "1"}
        for line in corpus.instances:
            tokens = line.split()
            assert len(tokens) == 10
            assert all(len(t) == 5 for t in tokens)

    def test_arith_labels_match_stack_machine(self):
        for kind, ring in (
            ("arith", Semiring.integers()),
            ("arith-z11", Semiring.zmod(11)),
        ):
            corpus = gen_instances(kind, 9, 13, count=100)
            for line, label in zip(corpus.instances, corpus.labels):
                expr, _, assign_text = line.partition(";")
                formula = parse_arith(expr.strip(), ring)
                assignment = [int(t) for t in assign_text.strip().split(",")]
                want = run_rpn(
                    arith_to_rpn(formula.root), assignment, ring
                )
                assert str(want) == label

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_instances("nosuch", 5, 1)
        with pytest.raises(ValueError):
            gen_instances("bool", 0, 1)
        with pytest.raises(ValueError):
            gen_instances("bool", 5, 1, count=0)
        with pytest.raises(ValueError):
            eval_instance("nosuch", "1")


DEEP = 100_000  # nesting depth, a hundred times the default recursion limit


class TestDeepFormulas:
    """Formulas nested 10^5 levels deep parse, evaluate and print under the
    default recursion limit: the library walks trees on explicit stacks."""

    def test_bool_left_comb(self):
        rng = random.Random(831)
        bits = [rng.randint(0, 1) for _ in range(DEEP + 1)]
        ops = [rng.choice("∧∨") for _ in range(DEEP)]
        want = bits[0]
        for b, op in zip(bits[1:], ops):
            want = (want & b) if op == "∧" else (want | b)
        postfix = f"{bits[0]}" + "".join(f"{b}{op}" for b, op in zip(bits[1:], ops))
        tree = parse_bool_postfix(postfix)
        assert eval_bool(tree) == want
        assert tree.to_postfix() == postfix

    def test_bool_negation_chain(self):
        """The chain wraps a binary node whose printed operands swap in
        postfix, so the length rule is applied at the bottom of the chain."""
        infix = "(¬" * DEEP + "(1∨(¬0))" + ")" * DEEP
        tree = parse_bool_infix(infix)
        assert eval_bool(tree) == 1  # an even number of negations of 1
        assert tree.to_infix() == infix
        postfix = "(" * DEEP + "(0¬)1∨" + "¬)" * DEEP
        assert tree.to_postfix() == postfix

    def test_arith_comb_over_z7(self):
        rng = random.Random(832)
        ops = [rng.choice("+*") for _ in range(DEEP)]
        leaves = [rng.choice(["X1", "X2", "3", "5"]) for _ in range(DEEP)]
        text = "".join(f"({op} " for op in reversed(ops)) + "X2" + "".join(
            f" {leaf})" for leaf in leaves
        )
        x = {"X1": 4, "X2": 6, "3": 3, "5": 5}
        want = x["X2"]
        for op, leaf in zip(ops, leaves):
            want = (want + x[leaf]) % 7 if op == "+" else (want * x[leaf]) % 7
        formula = parse_arith(text, Semiring.zmod(7))
        assert formula.n_indeterminates == 2
        assert eval_arith(formula, [4, 6]) == want
        assert formula.to_sexpr() == text

    def test_integer_negation_chain_instance(self):
        line = "(- " * DEEP + "(+ X1 2)" + ")" * DEEP + " ; 5"
        assert eval_instance("arith", line) == "7"  # DEEP is even


# sha256 of `instances_text()` and of `labels_text()` of
# `gen_instances(kind, size, seed)` at the default count of 100, recorded
# while the generators built every node through the public constructors
# and drew each permutation with `random.shuffle`.
_CORPUS_SHA256 = {
    ("bool", 15, 0): ("42f4f7a5a378f9c34213860f2f68155e9a95462b67dc19fb4c27335f95d6e609", "8f3dc929a529806a72ef3ee1f1781d12b19bbca9d6a8e106f9dcd1a9fb80e434"),
    ("bool", 31, 7): ("9e478451db969823bc9d8068d4de646e915c628e9ccb73a8f25c04331577d4f1", "09b4222727bc16de94c989084c093e3a3b82bbfc357421ee49b655ed4763e3b6"),
    ("bool", 200, 1): ("c5067920b2e4237f664926f86683621f6a89dd1c5990a13f47e07d825e3e2d34", "16e6be3d2943c0e71e41d31f60e301bfdaef79738782d5d041c16f82fa82fa51"),
    ("perm", 5, 0): ("5e8bbcd6b9ed158c6e08e52a8be99f3776b5d28e2e9a572d95b350edc6cd21c5", "7e2ac233d931aaa59a550e7c3c0648f46f3d0be01de0af77b4c44fb50b508d5c"),
    ("perm", 1000, 7): ("96de2dc7e384fba97389052c00eb5206969eb2891f4448b2ef09a4f682ccacf1", "5e9858047bd54b88918d8f139152d5d639e2801b6e3ed037226d55db504cacc5"),
    ("perm", 20, 3): ("613785d63b83cccb9bc7a38f00464f8cfa778a97d0eed970340bde8583b6bc8d", "7b085c794f4c988a030e7ccbf42a5732aa3fb9d8d957f16901abd86b62402132"),
    ("arith", 9, 0): ("a297e7df173a87fb6de4195322872a895ba69e2bbf74c112effc5ace07f33882", "29875868715398fb74018013b2546a8aa6fea1c5e1c29ddaf1722539b6ad4e4b"),
    ("arith", 40, 5): ("94d278d9f442290ddbb21280697f96d1efbc42a9dcb2f1b6529d834dfd0b8b0e", "426d3a3b6ae8a9784fa925848a587f6ba10987ae4b9bd437875bb9f1ba55cfdb"),
    ("arith-z7", 9, 0): ("0e2ee6d73b51a05e0a0da0418eefab262838ec42c71e73707ce1644ded5c3a17", "f0cbd7175619679ade0ad727cc7d10258bc5f5bf67d812d0d9feea41d5bf062e"),
    ("arith-z7", 40, 5): ("bd6a9e0f7a5e94e45081f1ee83b0dd1409222dedc703eceb7cff2bcee89e2385", "bf9ccc64f72023097e5f3399baea03ab80a4bae07f7d3b95230d7ab22ed537b0"),
    ("arith-z2", 12, 3): ("7670d6c0591744dfbd0e6d3f5ab1fa6d3b0406a316196b60c6b28d49e3d653a7", "04136d31a081db305c7915d153b2bc7bb77b736dfade2a92ced806591634def5"),
}


class TestGeneratedCorpusPins:
    """Generated corpora are byte-identical to the pinned ones, each kind
    at a few sizes and seeds."""

    @pytest.mark.parametrize("key", sorted(_CORPUS_SHA256), ids=lambda k: "-".join(map(str, k)))
    def test_pinned(self, key):
        corpus = gen_instances(*key)
        digests = tuple(
            hashlib.sha256(text.encode()).hexdigest()
            for text in (corpus.instances_text(), corpus.labels_text())
        )
        assert digests == _CORPUS_SHA256[key]


def rebuild(node: ArithNode | BoolFormula) -> ArithNode | BoolFormula:
    """The same tree, every node built (and checked) by the public
    constructor."""
    args = tuple(rebuild(a) for a in node.args)
    if isinstance(node, ArithNode):
        return ArithNode(node.op, node.value, node.index, args)
    return BoolFormula(node.op, node.value, args)


def max_index(node: ArithNode) -> int:
    """The largest indeterminate index under ``node``, by a tree walk."""
    best, stack = 0, [node]
    while stack:
        node = stack.pop()
        if node.op == "var":
            best = max(best, node.index)
        stack += node.args
    return best


class TestNodeConstruction:
    """Parsers and generators build nodes without the public constructor,
    sharing leaves; the trees they build equal the public ones."""

    @pytest.fixture
    def public_nodes(self, monkeypatch):
        """A counter of nodes built through the public constructors."""
        count = [0]
        for cls in (ArithNode, BoolFormula):

            def counted(node, check=cls.__post_init__):
                count[0] += 1
                check(node)

            monkeypatch.setattr(cls, "__post_init__", counted)
        return count

    @staticmethod
    def parsed_trees(kind: str, corpus) -> list:
        if kind == "bool":
            trees = [parse_bool_postfix(line) for line in corpus.instances]
            return trees + [parse_bool_infix(tree.to_infix()) for tree in trees]
        ring = hardness._arith_semiring(kind)
        return [parse_arith(line.partition(";")[0], ring).root for line in corpus.instances]

    @pytest.mark.parametrize("kind", ["bool", "arith", "arith-z7"])
    def test_parsers_and_generators_build_no_public_node(self, public_nodes, kind):
        corpus = gen_instances(kind, 40, 5)
        trees = self.parsed_trees(kind, corpus)
        assert [eval_instance(kind, line) for line in corpus.instances] == list(corpus.labels)
        assert len(trees) >= 100 and public_nodes[0] == 0
        rebuild(trees[0])
        assert public_nodes[0] > 0  # the counter sees the public constructor

    def test_deep_parses_build_no_public_node(self, public_nodes):
        parse_bool_postfix("0" + "1∧" * DEEP)
        parse_bool_infix("(¬" * DEEP + "1" + ")" * DEEP)
        parse_arith("(- " * DEEP + "X1" + ")" * DEEP, Semiring.zmod(7))
        assert public_nodes[0] == 0

    @pytest.mark.parametrize("kind", ["bool", "arith", "arith-z7"])
    def test_parsed_trees_equal_public_ones(self, kind):
        for tree in self.parsed_trees(kind, gen_instances(kind, 40, 9)):
            public = rebuild(tree)
            assert tree == public
            assert hash(tree) == hash(public)
            assert repr(tree) == repr(public)

    def test_generated_trees_equal_public_ones(self):
        rng = random.Random(841)
        for _ in range(200):
            for tree in (
                hardness._random_bool_tree(rng, 40),
                hardness._random_arith_node(rng, 20, Semiring.zmod(7), 3, 0, 6),
            ):
                public = rebuild(tree)
                assert tree == public and hash(tree) == hash(public)

    def test_deep_combs_print_as_public_ones(self):
        """Dataclass ``==`` recurses, so the depth-10^5 combs are compared
        by their printed form."""
        rng = random.Random(842)
        bits = [rng.randint(0, 1) for _ in range(DEEP + 1)]
        ops = [rng.choice(["and", "or"]) for _ in range(DEEP)]
        tree = BoolFormula("const", value=bits[0])
        for bit, op in zip(bits[1:], ops):
            tree = BoolFormula(op, args=(tree, BoolFormula("const", value=bit)))
        postfix = tree.to_postfix()
        assert parse_bool_postfix(postfix).to_postfix() == postfix
        assert parse_bool_infix(tree.to_infix()).to_infix() == tree.to_infix()
        atoms = {"X1": ArithNode("var", index=1), "5": ArithNode("const", value=5)}
        leaves = [rng.choice(sorted(atoms)) for _ in range(DEEP)]
        node = atoms["X1"]
        for op, leaf in zip(ops, leaves):
            node = ArithNode("add" if op == "and" else "mul", args=(node, atoms[leaf]))
        text = ArithFormula(Semiring.zmod(7), node, 1).to_sexpr()
        assert parse_arith(text, Semiring.zmod(7)).to_sexpr() == text

    def test_repeated_atoms_share_one_leaf(self):
        ring = Semiring.integers()
        root = parse_arith("(+ (* X1 3) (+ X1 3))", ring).root
        (x1, three), (x1_again, three_again) = (arg.args for arg in root.args)
        assert x1 is x1_again and three is three_again
        # Tokens are memoized by their text, for one call only.
        assert parse_arith("(+ 03 3)", ring).root.args[0] is not three
        assert parse_arith("X1", ring).root is not parse_arith("X1", ring).root
        leaves = [
            parse_bool_postfix("(0¬)01∧∨"),
            parse_bool_infix("((0∧1)∨(¬0))"),
        ]
        zeros = {id(tree.args[0].args[0]) for tree in leaves}
        zeros |= {id(tree.args[1].args[0]) for tree in leaves}
        assert len(zeros) == 1

    def test_bad_atom_refused_at_first_occurrence(self):
        ring = Semiring.integers()
        for text, message in [
            ("(+ (* 2 Xa) Xb)", "bad atom 'Xa'"),
            ("(+ X0 Xa)", "indeterminate indices are 1-based"),
            ("(+ Xa X0)", "bad atom 'Xa'"),
            ("(+ 1 (+ 1 1x))", "bad atom '1x'"),
        ]:
            with pytest.raises(FormulaParseError, match=f"^{re.escape(message)}$"):
                parse_arith(text, ring)
        with pytest.raises(DomainMismatch, match="^2 is not a Boolean constant$"):
            parse_arith("(+ 1 (* 1 2))", Semiring.booleans())

    def test_n_indeterminates_is_the_largest_index(self):
        ring = Semiring.integers()
        assert parse_arith("X3", ring).n_indeterminates == 3
        assert parse_arith("(+ X5 (* X2 X5))", ring).n_indeterminates == 5
        assert parse_arith("(+ 1 2)", ring).n_indeterminates == 0
        for line in gen_instances("arith", 12, 11).instances:
            formula = parse_arith(line.partition(";")[0], ring)
            assert formula.n_indeterminates == max_index(formula.root)

    def test_nodes_stay_frozen(self):
        ring = Semiring.integers()
        for node in (
            parse_arith("(+ X1 2)", ring).root,
            parse_arith("X1", ring).root,
            parse_bool_postfix("01∧"),
            parse_bool_postfix("0"),
            parse_bool_infix("1"),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                node.op = "mul"
            with pytest.raises(dataclasses.FrozenInstanceError):
                node.value = 1
        assert parse_bool_postfix("0").value == 0
