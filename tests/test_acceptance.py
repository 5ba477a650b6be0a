"""Acceptance gate: eight end-to-end checks, one test per criterion.

Each test enforces its stated tolerance and runtime budget and prints a
single ``[criterion N] PASS`` line (visible with ``-s`` / ``-rA``).  The
checks, in order: exhaustive scalar-float conformance against the
enumeration oracle; relative-error bounds of the elementary functions
against a 256-bit reference; exact and p-bit agreement of the two
state-space evaluation routes; shape-independence of every traced depth;
per-component depth-formula equality plus the dual-route headline formula
check; exhaustive circuit-synthesis conformance with the constant-depth /
polynomial-size aggregation property; exhaustive branching-program
equivalence with the 4**depth length bound; and hardness-evaluator
agreement with independent oracles plus corpus reproducibility.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction

import mpmath

import oracles
from artifact.circuits import evaluate
from artifact.contexts import ExactScalars, PBitScalars
from artifact.depth import default_shape_grid, depth_report
from artifact.elementary import (
    exp_fp,
    log_fp,
    sigmoid_fp,
    silu_fp,
    softplus_fp,
    sqrt_fp,
)
from artifact.floats import (
    DivisionByZero,
    FpNumber,
    Overflow,
    fp_add,
    fp_compare,
    fp_div,
    fp_floor,
    fp_mul,
    round_p,
)
from artifact.hardness import (
    ArithFormula,
    Permutation,
    Semiring,
    barrington_transform,
    compose,
    enumerate_small_circuits,
    eval_arith,
    eval_bool,
    eval_pbp,
    gen_instances,
    parse_bool_postfix,
)
from artifact.mamba import (
    ShapeConfig,
    conv_kernel,
    discretize,
    forward_matrix,
    random_params,
    ssm_convolution,
    ssm_recurrent,
    ssm_select,
    wrap_params,
    wrap_values,
)
from artifact.matrices import FpMatrix, max_rel_gap
from artifact.synthesis import check_op, synth_primitive
from test_hardness import (
    arith_to_rpn,
    chase,
    oracle_bool,
    random_arith_tree,
    random_bool_tree,
    random_perm,
    run_rpn,
)

mpmath.mp.prec = 256


def report(n: int, message: str) -> None:
    print(f"[criterion {n}] PASS: {message}", flush=True)


def me(x: FpNumber) -> tuple[int, int]:
    return (x.m, x.e)


class TestAcceptance:
    """The eight acceptance criteria."""

    def test_criterion_1_float_conformance(self):
        """p=3, operand window e in [-4,4): all five scalar operations agree
        exhaustively and exactly with the enumeration oracle."""
        t0 = time.perf_counter()
        p = 3
        values = [(0, 0)] + [
            (s * m, e)
            for e in range(-4, 4)
            for m in range(4, 8)
            for s in (1, -1)
        ]
        assert len(values) == 65

        def both(op, oracle_op, *ops):
            try:
                got = me(op(*(FpNumber(m, e, p) for (m, e) in ops)))
            except Overflow:
                got = "overflow"
            except DivisionByZero:
                got = "division"
            try:
                want = oracle_op(*ops, p)
            except oracles.OracleOverflow:
                want = "overflow"
            except oracles.OracleDivisionByZero:
                want = "division"
            assert got == want, f"{op.__name__}{ops}: {got} != {want}"

        checked = 0
        for a in values:
            for b in values:
                both(fp_add, oracles.oracle_add, a, b)
                both(fp_mul, oracles.oracle_mul, a, b)
                both(fp_div, oracles.oracle_div, a, b)
                got_cmp = fp_compare(
                    FpNumber(*a, p), FpNumber(*b, p)
                ).value
                assert got_cmp == oracles.oracle_compare(a, b)
                checked += 4
        for a in values:
            assert me(fp_floor(FpNumber(*a, p))) == oracles.oracle_floor(a, p)
            checked += 1
        elapsed = time.perf_counter() - t0
        assert elapsed <= 120
        report(1, f"{checked} exhaustive op evaluations exact ({elapsed:.1f}s)")

    def test_criterion_2_elementary_error_bounds(self):
        """exp/sqrt/log within 2^-p and sigmoid/silu/softplus within 4*2^-p
        relative error on 10^4 seeded inputs per p in {8, 16, 24}."""
        t0 = time.perf_counter()

        def mp_of(x: FpNumber):
            fr = x.to_fraction()
            return mpmath.mpf(fr.numerator) / mpmath.mpf(fr.denominator)

        def rel_err(got: FpNumber, true) -> Fraction:
            sign, man, exp, _ = true._mpf_
            t = Fraction(man) * (
                Fraction(1 << exp) if exp >= 0 else Fraction(1, 1 << -exp)
            )
            if sign:
                t = -t
            assert t != 0
            return abs(got.to_fraction() - t) / abs(t)

        cases = [
            ("exp", exp_fp, lambda v: mpmath.exp(v), -16.0, 16.0, 1),
            ("sqrt", sqrt_fp, lambda v: mpmath.sqrt(v), 2.0**-12, 2.0**12, 1),
            ("log", log_fp, lambda v: mpmath.log(v), 2.0**-12, 2.0**12, 1),
            ("sigmoid", sigmoid_fp, lambda v: mpmath.sigmoid(v), -20.0, 20.0, 4),
            ("silu", silu_fp, lambda v: v * mpmath.sigmoid(v), -8.0, 8.0, 4),
            (
                "softplus",
                softplus_fp,
                lambda v: mpmath.log1p(mpmath.exp(v)),
                -20.0,
                20.0,
                4,
            ),
        ]
        n_inputs = 10_000
        for p in (8, 16, 24):
            for name, fn, ref, lo, hi, factor in cases:
                rng = random.Random(f"acc2|{name}|{p}")
                bound = Fraction(factor, 1 << p)
                worst = Fraction(0)
                for _ in range(n_inputs):
                    x = round_p(
                        Fraction(rng.uniform(lo, hi)).limit_denominator(1 << 30),
                        p,
                    )
                    if x.m == 0 and name in ("log", "sqrt", "silu"):
                        continue
                    true = ref(mp_of(x))
                    if true == 0:
                        continue
                    err = rel_err(fn(x), true)
                    worst = max(worst, err)
                assert worst <= bound, f"{name} p={p}: {float(worst)}"
        elapsed = time.perf_counter() - t0
        assert elapsed <= 300
        report(2, f"18 (function, p) sweeps x {n_inputs} inputs within "
                  f"bounds ({elapsed:.1f}s)")

    def test_criterion_3_ssm_route_equivalence(self):
        """Recurrent and convolutional state-space evaluation: exactly equal
        in exact-rational mode, within 64*L*2^-16 entrywise in p-bit mode,
        on 100 seeded instances with L <= 8 and n, E <= 3."""
        t0 = time.perf_counter()
        rng = random.Random(30_001)
        p = 16
        pbit_checked = 0
        for i in range(100):
            shape = ShapeConfig(
                seq_len=rng.randint(1, 8),
                d_model=rng.randint(1, 3),
                d_inner=rng.randint(1, 3),
                d_state=rng.randint(1, 3),
                kernel_size=1,
            )
            shape = ShapeConfig(
                shape.seq_len,
                shape.d_model,
                shape.d_inner,
                shape.d_state,
                rng.randint(1, shape.seq_len),
            )
            # Exact route equality on the bare recurrence/convolution pair.
            params = random_params(shape, seed=1000 + i)
            ctx = ExactScalars()
            pw = wrap_params(ctx, params)
            x_inner = wrap_values(
                ctx,
                [
                    [Fraction(rng.randint(-16, 16), 8)
                     for _ in range(shape.d_inner)]
                    for _ in range(shape.seq_len)
                ],
            )
            delta = ctx.input(Fraction(rng.randint(1, 8), 8))
            disc = discretize(ctx, pw.a_diag, pw.b_base, pw.c_base, delta)
            y_rec = ssm_recurrent(ctx, disc, x_inner)
            kern = conv_kernel(ctx, disc, shape.seq_len)
            y_conv = ssm_convolution(ctx, kern, x_inner)
            assert y_rec == y_conv
            # Exact selective pipeline and full block agree exactly too.
            y_sel_rec = ssm_select(ctx, pw, x_inner, "recurrent")
            y_sel_conv = ssm_select(ctx, pw, x_inner, "convolution")
            assert y_sel_rec == y_sel_conv
            # p-bit mode on a cancellation-free instance obeys the bound.
            pos_params = random_params(shape, seed=2000 + i, positive=True)
            entries = oracles.positive_input(shape, seed=3000 + i)
            x = FpMatrix.from_fractions(entries, "pbit", p)
            rec = forward_matrix(shape, pos_params, x, form="recurrent")
            conv = forward_matrix(shape, pos_params, x, form="convolution")
            gap = max_rel_gap(rec, conv)
            assert gap <= Fraction(64 * shape.seq_len, 1 << p)
            pbit_checked += 1
        elapsed = time.perf_counter() - t0
        assert elapsed <= 120
        report(3, f"100 exact-equality instances and {pbit_checked} p-bit "
                  f"gap checks ({elapsed:.1f}s)")

    def test_criterion_4_constant_depth_across_shapes(self):
        """Symbolic critical depth of every component and of the full block
        is identical over the grid L in {1,2,4,8}, D,E,n in {1,2,3}; the
        report's bytes are pinned by the sha256 of its sorted-key JSON."""
        t0 = time.perf_counter()
        shapes = default_shape_grid()
        assert len(shapes) == 108
        assert sorted({s.seq_len for s in shapes}) == [1, 2, 4, 8]
        assert sorted({s.d_model for s in shapes}) == [1, 2, 3]
        rep = depth_report(shapes=shapes)
        for name, comp in rep["components"].items():
            assert comp["identical_across_shapes"], name
            assert comp["shapes_checked"] == 108
        digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
        assert digest == "ca6d6ee34555733418703397707d7df7afae53f5d3dbd300fbb38403fb3a93b1"
        elapsed = time.perf_counter() - t0
        assert elapsed <= 60
        report(4, f"{len(rep['components'])} components constant over "
                  f"{len(shapes)} shapes ({elapsed:.1f}s)")

    def test_criterion_5_registry_formulas(self):
        """Traced depths equal the registry formulas exactly for all ten
        components; the headline block formula is dual-checked, with the
        literal transcription reported and the compositional bound required."""
        t0 = time.perf_counter()
        rep = depth_report(shapes=[ShapeConfig(2, 2, 2, 2, 2)])
        registry_components = [
            name
            for name, comp in rep["components"].items()
            if "registry_formula" in comp
        ]
        assert len(registry_components) == 10
        for name in registry_components:
            comp = rep["components"][name]
            assert comp["matches_registry_exactly"], name
            assert comp["check"]["verdict"] == "within_bound", name
        literal = rep["mamba"]["headline"]["verdict"]
        compositional = rep["mamba"]["compositional"]["verdict"]
        assert compositional == "within_bound"
        elapsed = time.perf_counter() - t0
        assert elapsed <= 60
        report(5, f"10 registry formulas exact; headline dual check: "
                  f"literal={literal}, compositional={compositional} "
                  f"({elapsed:.1f}s)")

    def test_criterion_6_circuit_synthesis(self):
        """p=3 compare and add circuits match the scalar semantics on every
        encodable operand pair; aggregation depth is independent of the
        operand count and size grows at most cubically."""
        t0 = time.perf_counter()
        counts = {}
        for kind in ("compare", "add"):
            op = synth_primitive(kind, 3)
            result = check_op(op)
            assert result["ok"], result["mismatches"][:3]
            counts[kind] = result["cases"]
            assert result["cases"] == 65 * 65
        ms = (2, 4, 8, 16, 32, 64)
        stats = {}
        for m in ms:
            op = synth_primitive("iter_add", 3, m=m)
            stats[m] = (op.circuit.depth, op.circuit.size)
        depths = {d for d, _ in stats.values()}
        assert len(depths) == 1, stats
        sizes = [stats[m][1] for m in ms]
        assert sizes == sorted(sizes)
        residual = oracles.polyfit_max_rel_residual(list(ms), sizes, 3)
        assert residual <= Fraction(1, 20), float(residual)
        elapsed = time.perf_counter() - t0
        assert elapsed <= 300
        report(6, f"compare/add exhaustive ({counts['compare']} pairs each); "
                  f"iter_add depth {depths.pop()} constant for m in {ms}, "
                  f"cubic-fit residual {float(residual):.3f} ({elapsed:.1f}s)")

    def test_criterion_7_barrington(self):
        """Every circuit in the exhaustive depth<=3, <=3-input family: the
        branching program equals the circuit on all assignments and its
        length is at most 4**depth."""
        t0 = time.perf_counter()
        family = enumerate_small_circuits(n_inputs=3, max_depth=3)
        assert {c.depth for c in family} == {0, 1, 2, 3}
        assignments = [[(a >> i) & 1 for i in range(3)] for a in range(8)]
        for circuit in family:
            program = barrington_transform(circuit)
            assert len(program) <= 4**circuit.depth
            for bits in assignments:
                assert eval_pbp(program, bits) == evaluate(circuit, bits)[0]
        elapsed = time.perf_counter() - t0
        assert elapsed <= 60
        report(7, f"{len(family)} circuits x 8 assignments, length bound "
                  f"4^depth held ({elapsed:.1f}s)")

    def test_criterion_8_hardness_evaluators(self):
        """Each evaluator agrees with its independent oracle on >= 10^3
        seeded instances, and corpus generation is byte-reproducible."""
        t0 = time.perf_counter()
        # Arithmetic formulas vs the stack machine (depth-8 trees over Z_7).
        rng = random.Random(80_001)
        ring = Semiring.zmod(7)
        for _ in range(1000):
            node = random_arith_tree(rng, 8, ring, n_vars=3)
            assignment = [rng.randint(0, 6) for _ in range(3)]
            got = eval_arith(ArithFormula(ring, node, 3), assignment)
            assert got == run_rpn(arith_to_rpn(node), assignment, ring)
        # Boolean formulas vs direct recursion, through both grammars.
        rng = random.Random(80_002)
        for _ in range(1000):
            tree = random_bool_tree(rng, 31)
            want = oracle_bool(tree)
            assert eval_bool(parse_bool_postfix(tree.to_postfix())) == want
        # Permutation composition vs the pointwise chase.
        rng = random.Random(80_003)
        for _ in range(1000):
            perms = [random_perm(rng) for _ in range(100)]
            total = compose(perms)
            for x in range(1, 6):
                assert total.apply(x) == chase(perms, x)
        # Byte-reproducible corpora for every kind.
        for kind in ("bool", "perm", "arith", "arith-z7"):
            a = gen_instances(kind, 15, 42, count=100)
            b = gen_instances(kind, 15, 42, count=100)
            assert a.instances_text() == b.instances_text()
            assert a.labels_text() == b.labels_text()
        elapsed = time.perf_counter() - t0
        assert elapsed <= 120
        report(8, f"3 evaluator/oracle pairs x 1000 instances; 4 corpus "
                  f"kinds byte-stable ({elapsed:.1f}s)")
