"""Tests for the selective state-space block.

Component values are checked against direct transcriptions of their
defining operation sequences (same scalar primitives, written out by
hand), and the two state-space evaluation routes are checked against each
other: in exact arithmetic they must agree entry for entry, and under
p-bit rounding they must stay within a small relative gap on
cancellation-free instances.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import re
from fractions import Fraction

import pytest

import artifact.mamba as mamba
import oracles
from artifact.contexts import ExactScalars, PBitScalars, exact_value
from artifact.elementary import exp_fp
from artifact.floats import FpNumber, fp_add, fp_div, fp_mul, iter_add, round_p
from artifact.matrices import FpMatrix, ShapeMismatch, max_rel_gap
from artifact.cli import _load_model, main
from artifact.mamba import (
    GATE_SCHEMA,
    PARAM_SCHEMA,
    MambaParams,
    ShapeConfig,
    conv1d,
    discretize,
    forward_matrix,
    forward_routes,
    hidden_recurrence,
    input_projection,
    mamba_forward,
    random_input,
    random_params,
    select_params,
    silu_map,
    ssm_select,
    wrap_params,
    wrap_values,
)

F = Fraction


def me(x: FpNumber) -> tuple[int, int]:
    """The ``(m, e)`` pair of a p-bit float, as ``PBitScalars`` holds it."""
    return x.m, x.e


def fp(v: tuple[int, int], p: int) -> FpNumber:
    """A ``PBitScalars`` value as the p-bit float it stands for."""
    return FpNumber(*v, p)


def shape_small() -> ShapeConfig:
    return ShapeConfig(seq_len=3, d_model=2, d_inner=2, d_state=2, kernel_size=2)


class TestShapesAndParams:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ShapeConfig(seq_len=1, d_model=1, d_inner=1, d_state=1, kernel_size=2)
        with pytest.raises(ValueError):
            ShapeConfig(seq_len=0, d_model=1, d_inner=1, d_state=1, kernel_size=1)

    def test_params_validate_catches_bad_dims(self):
        shape = shape_small()
        params = random_params(shape, seed=0)
        params.validate(shape)
        bad = ShapeConfig(seq_len=3, d_model=2, d_inner=3, d_state=2, kernel_size=2)
        with pytest.raises(ShapeMismatch):
            params.validate(bad)

    @pytest.mark.parametrize(
        "name,dims", PARAM_SCHEMA + GATE_SCHEMA, ids=[n for n, _ in PARAM_SCHEMA + GATE_SCHEMA]
    )
    def test_params_validate_catches_bad_dims_per_field(self, name, dims):
        """Dropping the last entry along any axis of any field, or nesting
        the field one level deeper, is a ``ShapeMismatch`` naming it."""
        shape = ShapeConfig(seq_len=4, d_model=2, d_inner=3, d_state=2, kernel_size=2)
        base = random_params(shape, seed=0)
        params = dataclasses.replace(base, w_gate=base.w_x_in, b_gate=base.b_x_in)
        params.validate(shape)

        def knock(value, axis):
            return value[:-1] if axis == 0 else tuple(knock(v, axis - 1) for v in value)

        value = getattr(params, name)
        for bad in [knock(value, axis) for axis in range(len(dims))] + [(value,)]:
            with pytest.raises(ShapeMismatch, match=name):
                dataclasses.replace(params, **{name: bad}).validate(shape)

    @pytest.mark.parametrize("present", [n for n, _ in GATE_SCHEMA])
    def test_params_validate_rejects_half_gate(self, present):
        shape = shape_small()
        base = random_params(shape, seed=0)
        gated = dataclasses.replace(base, w_gate=base.w_x_in, b_gate=base.b_x_in)
        half = dataclasses.replace(base, **{present: getattr(gated, present)})
        with pytest.raises(ShapeMismatch, match="come together"):
            half.validate(shape)

    def test_params_json_round_trip(self):
        shape = shape_small()
        params = random_params(shape, seed=7)
        again = MambaParams.from_json_dict(params.to_json_dict())
        assert again == params
        assert ShapeConfig.from_json_dict(shape.to_json_dict()) == shape

    def test_random_generators_deterministic(self):
        shape = shape_small()
        assert random_params(shape, seed=3) == random_params(shape, seed=3)
        assert random_params(shape, seed=3) != random_params(shape, seed=4)
        assert random_input(shape, seed=3) == random_input(shape, seed=3)

    @pytest.mark.parametrize("seed", [-1, -7])
    def test_negative_seed_refused(self, seed):
        """``random.Random`` seeds with an int's absolute value: unrefused,
        ``random_params(shape, -7)`` drew ``random_params(shape, 7)`` and
        ``random_input(shape, -7)`` drew ``random_input(shape, 1)``."""
        shape = ShapeConfig(4, 2, 2, 2, 2)
        message = f"^seed must be at least 0, not {seed}$"
        for build in (
            lambda: random_params(shape, seed),
            lambda: random_params(shape, seed, positive=True),
            lambda: random_input(shape, seed),
        ):
            with pytest.raises(ValueError, match=message):
                build()

    def test_seed_zero_unchanged(self):
        """sha256 of the seed-0 draws, taken before negative seeds were refused."""
        shape = ShapeConfig(4, 2, 2, 2, 2)
        digests = [
            hashlib.sha256(json.dumps(random_params(shape, 0).to_json_dict()).encode()),
            hashlib.sha256(
                json.dumps(random_params(shape, 0, positive=True).to_json_dict()).encode()
            ),
            hashlib.sha256(repr(random_input(shape, 0)).encode()),
        ]
        assert [d.hexdigest() for d in digests] == [
            "563d1286e5d22a1d4eb32ae9e76d7da8637aaa74aee7db2a6e020c15b4bbd9bc",
            "ecb241e8c8604fc7ce6729b6107f65cacf6a00951d12270f615478717d0fa250",
            "d3ea85ee645cc794c4d5f1d0bef2df96419c688bffe4f5eea420d709871e6c47",
        ]

    @pytest.mark.parametrize(
        "dims,seed,digest",
        [
            ((5, 3, 2, 4, 5), 1,
             "ecc8b811f9ad3523a7a76b3fa3e8d96f9bf2409cbadf66fa2bdb601998698dfb"),
            ((16, 4, 8, 4, 4), 7,
             "1d04de30a5151068e10c9afbe49d2cc71cfc6dc89fa97617d0c784512a42893f"),
        ],
    )
    def test_random_input_unchanged(self, dims, seed, digest):
        """sha256 of the input rows, taken while each entry was its own
        ``Fraction(n, 16)``."""
        rows = random_input(ShapeConfig(*dims), seed)
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


class TestBuildContract:
    """``MambaParams.build`` asks ``leaves(name, count)`` once per schema
    field and reads the answer row-major."""

    SHAPE = ShapeConfig(5, 3, 2, 4, 5)  # L, D, E, n, K

    def test_one_call_per_field_in_schema_order(self):
        calls = []

        def leaves(name, count):
            calls.append((name, count))
            return [Fraction(0)] * count

        MambaParams.build(self.SHAPE, leaves)
        assert [name for name, _ in calls] == [name for name, _ in PARAM_SCHEMA]
        assert dict(calls) == {
            "w_x_in": 6, "b_x_in": 2, "w_conv": 20, "a_diag": 4, "b_base": 8,
            "c_base": 8, "w_b": 20, "p_b": 4, "w_c": 10, "p_c": 8, "w_delta": 5,
            "p_delta": 2, "w_delta_scalar": 1, "w_x_out": 6, "b_x_out": 3,
        }

    def test_fields_are_row_major(self):
        L, D, E, n, K = 5, 3, 2, 4, 5
        params = MambaParams.build(self.SHAPE, lambda name, count: list(range(count)))
        params.validate(self.SHAPE)
        assert params.w_conv == tuple(
            tuple(tuple((k * E + d) * E + j for j in range(E)) for d in range(E))
            for k in range(K)
        )
        assert params.w_x_in == tuple(tuple(d * E + j for j in range(E)) for d in range(D))
        assert params.w_b == tuple(tuple(i * L + t for t in range(L)) for i in range(n))
        assert params.a_diag == (0, 1, 2, 3)
        assert params.w_delta_scalar == 0
        assert params.w_gate is None and params.b_gate is None


def _zero_model(tmp_path, shape: ShapeConfig) -> MambaParams:
    path = tmp_path / f"zero_{shape.seq_len}_{shape.d_model}_{shape.d_inner}.json"
    path.write_text(json.dumps({"shape": shape.to_json_dict(), "params": "zero"}))
    args = argparse.Namespace(model=str(path), shape=None, seed=0, positive=False)
    return _load_model(args)[1]


class TestParamLayoutPinned:
    """The parameter builders, pinned by the sha256 of their sorted-key
    JSON over a few shapes.  A change to the field order, the draw order or
    a leaf value changes the digest."""

    SHAPES = [(1, 1, 1, 1, 1), (3, 2, 2, 2, 2), (4, 1, 3, 2, 2), (5, 3, 2, 4, 5)]

    @pytest.mark.parametrize(
        "build,digest",
        [
            (lambda s, _: random_params(s, 0),
             "201617a8612aa6e75080144d61489188ef70301dd50f7d170c3a9044ed69ebd5"),
            (lambda s, _: random_params(s, 1, positive=True),
             "2ab6e2558c6e75af46ae8a619a74989e887a0a32d3b82a7ce5c7c0a7700ef07c"),
            (lambda s, _: random_params(s, 2),
             "8c29b045df0952d1d5083eba84f286fab26f525967dc2f08a12fe8a6b03a4f37"),
            (lambda s, _: random_params(s, 2, positive=True),
             "5a505dacb25bc93da20302244e71ad11d3b02d2c22f5c98c83f33431dcd29fcb"),
            (lambda s, tmp: _zero_model(tmp, s),
             "9ce089575633f246e907f850d0a7d5bef94c6d1a3d65b886d7bbb1dae5c6e5d0"),
        ],
        ids=["random-0", "random-1-positive", "random-2", "random-2-positive",
             "cli-zero"],
    )
    def test_builder_digest(self, tmp_path, build, digest):
        acc = hashlib.sha256()
        for dims in self.SHAPES:
            params = build(ShapeConfig(*dims), tmp_path)
            acc.update(json.dumps(params.to_json_dict(), sort_keys=True).encode())
        assert acc.hexdigest() == digest


class TestInputProjection:
    def test_single_rounding_with_bias(self):
        """Each entry aggregates products and bias in one rounding."""
        p = 3
        ctx = PBitScalars(p)
        # 6 + 1/4 + 1/4 + 1/2 = 7 exactly; a fold would lose the quarters.
        x = [[ctx.input(F(6)), ctx.input(F(1, 4))]]
        w = [[ctx.input(F(1))], [ctx.input(F(1))]]
        b = [ctx.input(F(1, 4))]
        # Row sum 6 + 1/4 + 1/4 = 13/2 rounds to 6 at p=3 only if aggregated
        # after an exact sum; 13/2 -> nearest even significand -> 6.
        out = input_projection(ctx, x, w, b)
        direct = iter_add(
            [
                fp_mul(round_p(F(6), p), round_p(F(1), p)),
                fp_mul(round_p(F(1, 4), p), round_p(F(1), p)),
                round_p(F(1, 4), p),
            ]
        )
        assert out[0][0] == me(direct)

    def test_exact_mode_is_plain_affine_map(self):
        ctx = ExactScalars()
        x = [[F(1), F(2)], [F(3), F(4)]]
        w = [[F(1, 2)], [F(1, 3)]]
        b = [F(5)]
        out = input_projection(ctx, wrap_values(ctx, x), [[ctx.input(v) for v in r] for r in w], [ctx.input(F(5))])
        assert exact_value(out[0][0]) == F(1) * F(1, 2) + F(2) * F(1, 3) + F(5)
        assert exact_value(out[1][0]) == F(3) * F(1, 2) + F(4) * F(1, 3) + F(5)


class TestConv1d:
    def test_zero_padding_and_window(self):
        ctx = ExactScalars()
        # L=3, E=1, K=2: out[t] = w0*x[t] + w1*x[t-1] (x[-1] = dropped).
        x = [[ctx.input(F(1))], [ctx.input(F(2))], [ctx.input(F(3))]]
        w = [
            [[ctx.input(F(10))]],
            [[ctx.input(F(100))]],
        ]
        out = conv1d(ctx, x, w)
        assert [exact_value(row[0]) for row in out] == [F(10), F(120), F(230)]

    def test_feature_mixing(self):
        ctx = ExactScalars()
        # K=1, E=2: out[t, j] = sum_d w[0][d][j] x[t][d].
        x = [[ctx.input(F(1)), ctx.input(F(2))]]
        w = [[[ctx.input(F(1)), ctx.input(F(3))], [ctx.input(F(5)), ctx.input(F(7))]]]
        out = conv1d(ctx, x, w)
        assert [exact_value(v) for v in out[0]] == [F(11), F(17)]


class TestSelectParams:
    def test_exact_matches_sandwich_products(self):
        """Kronecker-form evaluation equals W_B X P_B etc. exactly."""
        shape = shape_small()
        params = random_params(shape, seed=11)
        ctx = ExactScalars()
        pw = wrap_params(ctx, params)
        x = random_input(ShapeConfig(3, 2, 2, 2, 2), seed=5)
        # select consumes an L x E activation; build one of the right shape.
        xs = [[x[t][d] for d in range(shape.d_inner)] for t in range(shape.seq_len)]
        xw = wrap_values(ctx, xs)
        s_b, s_c, delta = select_params(
            ctx, xw, pw.w_b, pw.p_b, pw.w_c, pw.p_c, pw.w_delta, pw.p_delta, pw.w_delta_scalar
        )
        L, E, n = shape.seq_len, shape.d_inner, shape.d_state

        def matmul(a, bm):
            return [
                [sum(a[i][k] * bm[k][j] for k in range(len(bm))) for j in range(len(bm[0]))]
                for i in range(len(a))
            ]

        ref_b = matmul(matmul([list(r) for r in params.w_b], xs), [list(r) for r in params.p_b])
        ref_c = matmul(matmul([list(r) for r in params.w_c], xs), [list(r) for r in params.p_c])
        assert [[exact_value(s_b[i][k]) for k in range(E)] for i in range(n)] == ref_b
        assert [[exact_value(s_c[d][j]) for j in range(n)] for d in range(E)] == ref_c
        raw = sum(
            params.w_delta[t] * xs[t][d] * params.p_delta[d]
            for t in range(L)
            for d in range(E)
        )
        sp = ctx.softplus(ctx.input(params.w_delta_scalar))
        assert exact_value(delta) == exact_value(sp) * raw


class TestDiscretize:
    def test_pbit_matches_transcription(self):
        """b_bar follows the staged ratio formula with a recomputed exp."""
        p = 16
        ctx = PBitScalars(p)
        a = ctx.input(F(-1, 2))
        b = [[ctx.input(F(3, 4))]]
        c = [[ctx.input(F(1))]]
        delta = ctx.input(F(1, 2))
        disc = discretize(ctx, [a], b, c, delta)

        da = fp_mul(fp(delta, p), fp(a, p))
        one = round_p(F(1), p)
        minus_one = round_p(F(-1), p)
        assert disc.a_bar[0] == me(exp_fp(da))
        ratio = fp_mul(fp_div(one, da), fp_add(exp_fp(da), minus_one))
        expected = iter_add([fp_mul(ratio, fp_mul(fp(delta, p), fp(b[0][0], p)))])
        assert disc.b_bar[0][0] == me(expected)
        assert disc.c_bar == ((c[0][0],),)
        assert disc.delta == delta

    def test_guard_branch_uses_limit_form(self):
        p = 16
        ctx = PBitScalars(p)
        # |delta * a| = 2^-20 < 2^-8 threshold: limit form delta * b.
        a = ctx.input(F(-1, 1 << 10))
        delta = ctx.input(F(1, 1 << 10))
        b = [[ctx.input(F(3, 4))]]
        disc = discretize(ctx, [a], b, [[ctx.input(F(1))]], delta)
        assert disc.b_bar[0][0] == me(fp_mul(fp(delta, p), fp(b[0][0], p)))
        assert disc.a_bar[0] == me(exp_fp(fp_mul(fp(delta, p), fp(a, p))))

    def test_exact_zero_delta_takes_guard(self):
        ctx = ExactScalars()
        disc = discretize(
            ctx, [ctx.input(F(-1))], [[ctx.input(F(1))]], [[ctx.input(F(1))]], ctx.input(F(0))
        )
        assert exact_value(disc.b_bar[0][0]) == F(0)


class TestRecurrence:
    def test_closed_form_exact(self):
        """H[t] = sum_{k<=t} a^k b x[t-k] for the scalar system."""
        ctx = ExactScalars()
        a_bar, b_bar = F(1, 2), F(3)
        from artifact.mamba import SsmDiscrete

        one = ctx.input(F(1))
        disc = SsmDiscrete((ctx.input(a_bar),), ((ctx.input(b_bar),),), ((one,),), one)
        x = wrap_values(ctx, [[F(1)], [F(1)], [F(1)]])
        h = hidden_recurrence(ctx, disc, x)
        vals = [exact_value(h[t][0]) for t in range(3)]
        assert vals == [F(3), F(3) + F(3, 2), F(3) + F(3, 2) + F(3, 4)]


class TestRouteEquality:
    def test_exact_recurrent_equals_convolution(self):
        for seed in range(8):
            shape = ShapeConfig(
                seq_len=1 + seed % 5,
                d_model=1 + seed % 2,
                d_inner=1 + seed % 3,
                d_state=1 + (seed + 1) % 3,
                kernel_size=1,
            )
            params = random_params(shape, seed=seed)
            ctx = ExactScalars()
            pw = wrap_params(ctx, params)
            xs = [
                [F(seed + t + d + 1, 8) for d in range(shape.d_inner)]
                for t in range(shape.seq_len)
            ]
            xw = wrap_values(ctx, xs)
            y_rec, y_conv = ssm_select(ctx, pw, xw, BOTH)
            assert y_rec == y_conv

    def test_pbit_routes_close_on_positive_instance(self):
        p = 16
        shape = ShapeConfig(seq_len=6, d_model=2, d_inner=3, d_state=3, kernel_size=2)
        params = random_params(shape, seed=42, positive=True)
        ctx = PBitScalars(p)
        pw = wrap_params(ctx, params)
        xs = [
            [F(1 + (t + d) % 8, 8) for d in range(shape.d_inner)]
            for t in range(shape.seq_len)
        ]
        xw = wrap_values(ctx, xs)
        y_rec, y_conv = ssm_select(ctx, pw, xw, BOTH)
        a = FpMatrix.pbit([[fp(v, p) for v in row] for row in y_rec], p)
        b = FpMatrix.pbit([[fp(v, p) for v in row] for row in y_conv], p)
        assert max_rel_gap(a, b) <= F(64 * shape.seq_len, 1 << p)

    def test_unknown_form_rejected(self):
        shape = shape_small()
        ctx = ExactScalars()
        pw = wrap_params(ctx, random_params(shape, seed=0))
        xw = wrap_values(ctx, [[F(1)] * shape.d_inner] * shape.seq_len)
        with pytest.raises(ValueError):
            ssm_select(ctx, pw, xw, ("spectral",))


class TestAlgebraicProperties:
    @staticmethod
    def _fixed_disc(ctx, params):
        """Discrete operators from the direct (non-selective) maps."""
        pw = wrap_params(ctx, params)
        return discretize(ctx, pw.a_diag, pw.b_base, pw.c_base, ctx.input(F(1, 2)))

    def test_causality_with_fixed_operators(self):
        """Perturbing X[t] leaves Y[s] unchanged for s < t, both routes."""
        from artifact.mamba import conv_kernel as ck, ssm_convolution as sco, ssm_recurrent as sre

        shape = ShapeConfig(seq_len=4, d_model=2, d_inner=2, d_state=2, kernel_size=2)
        params = random_params(shape, seed=21)
        ctx = ExactScalars()
        disc = self._fixed_disc(ctx, params)
        xs = random_input(shape, seed=21)
        xs2 = [list(r) for r in xs]
        xs2[2][0] += F(7, 8)
        for xa, xb in [(xs, xs2)]:
            ya_r = sre(ctx, disc, wrap_values(ctx, xa))
            yb_r = sre(ctx, disc, wrap_values(ctx, xb))
            kern = ck(ctx, disc, shape.seq_len)
            ya_c = sco(ctx, kern, wrap_values(ctx, xa))
            yb_c = sco(ctx, kern, wrap_values(ctx, xb))
            assert ya_r[:2] == yb_r[:2] and ya_c[:2] == yb_c[:2]
            assert ya_r[2:] != yb_r[2:]

    def test_conv1d_causality(self):
        ctx = ExactScalars()
        w = [[[ctx.input(F(1, 2))]], [[ctx.input(F(1, 3))]]]
        xa = [[ctx.input(F(i))] for i in (1, 2, 3)]
        xb = [[ctx.input(F(i))] for i in (1, 2, 9)]
        assert conv1d(ctx, xa, w)[:2] == conv1d(ctx, xb, w)[:2]

    def test_linearity_of_discrete_ssm(self):
        from artifact.mamba import ssm_recurrent as sre

        shape = ShapeConfig(seq_len=3, d_model=2, d_inner=2, d_state=2, kernel_size=1)
        params = random_params(shape, seed=33)
        ctx = ExactScalars()
        disc = self._fixed_disc(ctx, params)
        x1 = random_input(shape, seed=1)
        x2 = random_input(shape, seed=2)
        a, b = F(2, 3), F(-5, 4)
        mix = [
            [a * x1[t][d] + b * x2[t][d] for d in range(shape.d_inner)]
            for t in range(shape.seq_len)
        ]
        y1 = sre(ctx, disc, wrap_values(ctx, x1))
        y2 = sre(ctx, disc, wrap_values(ctx, x2))
        ym = sre(ctx, disc, wrap_values(ctx, mix))
        for t in range(shape.seq_len):
            for d in range(shape.d_inner):
                mixed = a * exact_value(y1[t][d]) + b * exact_value(y2[t][d])
                assert exact_value(ym[t][d]) == mixed

    def test_zero_input_collapses_selection_and_state(self):
        shape = shape_small()
        params = random_params(shape, seed=4)
        ctx = ExactScalars()
        pw = wrap_params(ctx, params)
        zeros = [[ctx.input(F(0))] * shape.d_inner for _ in range(shape.seq_len)]
        s_b, s_c, delta = select_params(
            ctx, zeros, pw.w_b, pw.p_b, pw.w_c, pw.p_c, pw.w_delta, pw.p_delta, pw.w_delta_scalar
        )
        assert all(exact_value(v) == 0 for row in s_b for v in row)
        assert all(exact_value(v) == 0 for row in s_c for v in row)
        assert exact_value(delta) == 0
        [y] = ssm_select(ctx, pw, zeros, ("recurrent",))
        assert all(exact_value(v) == 0 for row in y for v in row)

    def test_two_step_recurrence_algebra(self):
        """n = E = 1: H1 = b x1 and H2 = a b x1 + b x2, exactly."""
        ctx = ExactScalars()
        from artifact.mamba import SsmDiscrete

        a, b = F(2, 3), F(5, 7)
        one = ctx.input(F(1))
        disc = SsmDiscrete((ctx.input(a),), ((ctx.input(b),),), ((one,),), one)
        x = [[F(11, 8)], [F(-3, 8)]]
        h = hidden_recurrence(ctx, disc, wrap_values(ctx, x))
        assert exact_value(h[0][0]) == b * x[0][0]
        assert exact_value(h[1][0]) == a * b * x[0][0] + b * x[1][0]

    def test_pbit_first_step_is_plain_input_map(self):
        """With zero initial state, H1 equals the rounded b-sum alone."""
        p = 16
        ctx = PBitScalars(p)
        from artifact.mamba import SsmDiscrete
        from artifact.floats import round_p as rp

        a_bar = rp(F(1, 2), p)
        b_bar = rp(F(3, 7), p)
        one = me(rp(F(1), p))
        disc = SsmDiscrete((me(a_bar),), ((me(b_bar),),), ((one,),), one)
        x = rp(F(5, 8), p)
        h = hidden_recurrence(ctx, disc, [[me(x)]])
        assert h[0][0] == me(iter_add([fp_mul(b_bar, x)]))

    def test_impulse_recovers_kernel_slices(self):
        ctx = ExactScalars()
        w = [[[ctx.input(F(k + 1, 2))]] for k in range(3)]
        x = [[ctx.input(F(1))], [ctx.input(F(0))], [ctx.input(F(0))]]
        out = conv1d(ctx, x, w)
        assert [exact_value(r[0]) for r in out] == [F(1, 2), F(1), F(3, 2)]

    def test_discretize_delta_zero_identity_transition(self):
        ctx = ExactScalars()
        disc = discretize(
            ctx, [ctx.input(F(-2))], [[ctx.input(F(5))]], [[ctx.input(F(1))]], ctx.input(F(0))
        )
        assert exact_value(disc.a_bar[0]) == F(1) and exact_value(disc.b_bar[0][0]) == F(0)

    def test_discretize_log2_diagonal_doubles(self):
        """delta = 1 and a = round(ln 2) give a_bar close to 2."""
        p = 16
        ctx = PBitScalars(p)
        from artifact.elementary import log_fp
        ln2 = log_fp(round_p(F(2), p))
        disc = discretize(
            ctx, [ctx.input(ln2.to_fraction())], [[ctx.input(F(1))]],
            [[ctx.input(F(1))]], ctx.input(F(1)),
        )
        rel = abs(oracles.value(disc.a_bar[0]) - 2) / 2
        assert rel <= F(4, 1 << p)

    def test_zero_delta_weight_scales_by_log_two(self):
        """w_delta_scalar = 0: the softplus factor is log 2 (to tolerance)."""
        p = 16
        shape = shape_small()
        base = random_params(shape, seed=6, positive=True)
        params = MambaParams(
            **{
                **{f: getattr(base, f) for f in base.__dataclass_fields__},
                "w_delta_scalar": F(0),
            }
        )
        xs = oracles.positive_input(shape, seed=6)
        xa = [[xs[t][d] for d in range(shape.d_inner)] for t in range(shape.seq_len)]
        ctx = PBitScalars(p)
        pw = wrap_params(ctx, params)
        _, _, delta = select_params(
            ctx, wrap_values(ctx, xa), pw.w_b, pw.p_b, pw.w_c, pw.p_c,
            pw.w_delta, pw.p_delta, pw.w_delta_scalar,
        )
        ctxe = ExactScalars()
        pwe = wrap_params(ctxe, params)
        _, _, delta_e = select_params(
            ctxe, wrap_values(ctxe, xa), pwe.w_b, pwe.p_b, pwe.w_c, pwe.p_c,
            pwe.w_delta, pwe.p_delta, pwe.w_delta_scalar,
        )
        rel = abs(oracles.value(delta) - exact_value(delta_e)) / abs(exact_value(delta_e))
        assert rel <= F(16, 1 << p)


class TestForward:
    def test_tied_gate_matches_stage_by_stage_recomputation(self):
        shape = shape_small()
        params = random_params(shape, seed=9)
        ctx = ExactScalars()
        pw = wrap_params(ctx, params)
        xw = wrap_values(ctx, random_input(shape, seed=9))
        [y] = mamba_forward(ctx, pw, xw, ("recurrent",))
        # A tied gate is silu of the input projection, so the block is
        # OutProj(SSM(silu(conv1d(u))) ⊙ silu(u)) with u = InProj(X).
        u = input_projection(ctx, xw, pw.w_x_in, pw.b_x_in)
        [ya] = ssm_select(ctx, pw, silu_map(ctx, conv1d(ctx, u, pw.w_conv)), ("recurrent",))
        gate = silu_map(ctx, u)
        gated = [[ctx.mul(a, g) for a, g in zip(ra, rg)] for ra, rg in zip(ya, gate)]
        ref = input_projection(ctx, gated, pw.w_x_out, pw.b_x_out)
        assert [[exact_value(v) for v in row] for row in y] == [
            [exact_value(v) for v in row] for row in ref
        ]

    def test_zero_gate_projection_yields_bias_only(self):
        shape = shape_small()
        base = random_params(shape, seed=1)
        zeros_w = tuple(tuple(F(0) for _ in range(shape.d_inner)) for _ in range(shape.d_model))
        zeros_b = tuple(F(0) for _ in range(shape.d_inner))
        params = MambaParams(
            **{
                **{f: getattr(base, f) for f in base.__dataclass_fields__},
                "w_gate": zeros_w,
                "b_gate": zeros_b,
            }
        )
        ctx = ExactScalars()
        pw = wrap_params(ctx, params)
        xw = wrap_values(ctx, random_input(shape, seed=1))
        [y] = mamba_forward(ctx, pw, xw, ("recurrent",))
        # silu(0) = 0 gates everything off; only the output bias remains.
        for row in y:
            assert [exact_value(v) for v in row] == list(params.b_x_out)

    def test_tied_gate_equals_explicit_copy(self):
        shape = shape_small()
        base = random_params(shape, seed=2)
        tied = MambaParams(
            **{
                **{f: getattr(base, f) for f in base.__dataclass_fields__},
                "w_gate": base.w_x_in,
                "b_gate": base.b_x_in,
            }
        )
        ctx = ExactScalars()
        xs = random_input(shape, seed=2)
        y1 = mamba_forward(ctx, wrap_params(ctx, base), wrap_values(ctx, xs), BOTH)
        y2 = mamba_forward(ctx, wrap_params(ctx, tied), wrap_values(ctx, xs), BOTH)
        assert y1 == y2

    def test_forward_matrix_modes(self):
        shape = shape_small()
        params = random_params(shape, seed=5)
        xs = random_input(shape, seed=5)
        xm_exact = FpMatrix.exact(xs)
        out_exact = forward_matrix(shape, params, xm_exact)
        assert (out_exact.rows, out_exact.cols) == (shape.seq_len, shape.d_model)
        assert out_exact.mode == "exact"
        xm_pbit = FpMatrix.from_fractions(xs, "pbit", 16)
        out_pbit = forward_matrix(shape, params, xm_pbit)
        assert out_pbit.mode == "pbit" and out_pbit.p == 16
        gap = max_rel_gap(out_pbit, out_exact)
        assert gap < F(1, 1 << 4)

    def test_forward_matrix_shape_check(self):
        shape = shape_small()
        params = random_params(shape, seed=5)
        bad = FpMatrix.exact([[F(1)] * (shape.d_model + 1)] * shape.seq_len)
        with pytest.raises(ShapeMismatch):
            forward_matrix(shape, params, bad)


BOTH = ("recurrent", "convolution")


def _untied(params: MambaParams, seed: int) -> MambaParams:
    """``params`` with a gate projection of its own."""
    other = random_params(ShapeConfig(1, len(params.w_x_in), len(params.b_x_in), 1, 1), seed)
    return dataclasses.replace(params, w_gate=other.w_x_in, b_gate=other.b_x_in)


class TestSharedStages:
    """Both routes come from one prefix (projections, ``conv1d``, selection,
    discretization) and equal two separate single-route runs."""

    SHAPES = [
        ShapeConfig(1, 1, 1, 1, 1),  # K = L, n = 1
        ShapeConfig(3, 2, 2, 1, 3),  # K = L, n = 1
        ShapeConfig(4, 2, 3, 2, 2),
        ShapeConfig(6, 3, 2, 3, 4),
        ShapeConfig(5, 1, 3, 2, 5),  # K = L
    ]

    @pytest.mark.parametrize("mode", ["exact", "pbit"])
    @pytest.mark.parametrize(
        "shape", SHAPES, ids=lambda s: ",".join(map(str, dataclasses.astuple(s)))
    )
    def test_both_routes_equal_separate_runs(self, shape, mode):
        for seed, positive, tied in [(1, False, True), (2, True, True), (3, False, False)]:
            params = random_params(shape, seed, positive)
            if not tied:
                params = _untied(params, seed + 10)
            p = 16 if mode == "pbit" else None
            x = FpMatrix.from_fractions(random_input(shape, seed), mode, p)
            separate = tuple(forward_matrix(shape, params, x, form) for form in BOTH)
            assert forward_routes(shape, params, x, BOTH) == separate
            assert forward_routes(shape, params, x, BOTH[::-1]) == separate[::-1]
            assert forward_routes(shape, params, x, ("convolution",)) == separate[1:]

    STAGES = ("input_projection", "conv1d", "silu_map", "select_params", "discretize",
              "ssm_recurrent", "conv_kernel", "ssm_convolution")

    @staticmethod
    def _count(monkeypatch, names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _name=name, _fn=getattr(mamba, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mamba, name, counted)
        return calls

    def test_compare_runs_the_prefix_once(self, monkeypatch, capsys):
        calls = self._count(monkeypatch, self.STAGES)
        assert main(["mamba", "compare", "--shape", "4,2,3,2,2", "-p", "16"]) == 0
        capsys.readouterr()
        # one input projection for both branches, one output projection per
        # route; silu once for the tied gate and once after conv1d.
        assert calls == {"input_projection": 3, "conv1d": 1, "silu_map": 2, "select_params": 1,
                         "discretize": 1, "ssm_recurrent": 1, "conv_kernel": 1,
                         "ssm_convolution": 1}

    @pytest.mark.parametrize("tied, projections", [(True, 2), (False, 3)], ids=["tied", "untied"])
    @pytest.mark.parametrize("form", BOTH)
    def test_forward_projection_count(self, monkeypatch, form, tied, projections):
        shape = ShapeConfig(4, 2, 3, 2, 2)
        params = random_params(shape, 4)
        if not tied:
            params = _untied(params, 5)
        x = FpMatrix.from_fractions(random_input(shape, 4), "pbit", 16)
        calls = self._count(monkeypatch, self.STAGES)
        forward_matrix(shape, params, x, form)
        assert calls["input_projection"] == projections
        assert calls["silu_map"] == 2
        assert calls["select_params"] == calls["discretize"] == calls["conv1d"] == 1

    def _refused_before_any_stage(self, monkeypatch, forms, error, message):
        """``forward_routes``, ``mamba_forward`` and ``ssm_select`` each
        refuse ``forms`` with ``error`` before a stage runs."""

        def stage(*args, **kwargs):
            raise AssertionError("a stage ran")

        for name in self.STAGES:
            monkeypatch.setattr(mamba, name, stage)
        shape = shape_small()
        params = random_params(shape, 0)
        x = FpMatrix.from_fractions(random_input(shape, 0), "pbit", 16)
        ctx = PBitScalars(16)
        pw = wrap_params(ctx, params)
        with pytest.raises(error, match=re.escape(message)):
            forward_routes(shape, params, x, forms)
        with pytest.raises(error, match=re.escape(message)):
            mamba_forward(ctx, pw, wrap_values(ctx, random_input(shape, 0)), forms)
        with pytest.raises(error, match=re.escape(message)):
            ssm_select(ctx, pw, [[ctx.input(F(1))] * shape.d_inner] * shape.seq_len, forms)
        return shape, params, x

    @pytest.mark.parametrize(
        "forms", [("spectral",), ("recurrent", "spectral")], ids=["only", "second"]
    )
    def test_unknown_form_refused_before_any_stage(self, monkeypatch, forms):
        message = "unknown evaluation form 'spectral'"
        shape, params, x = self._refused_before_any_stage(monkeypatch, forms, ValueError, message)
        if len(forms) == 1:
            with pytest.raises(ValueError, match=message):
                forward_matrix(shape, params, x, forms[0])

    @pytest.mark.parametrize("forms", [(), []], ids=["tuple", "list"])
    def test_empty_forms_refused_before_any_stage(self, monkeypatch, forms):
        """No form asks for no result: the shared prefix does not run, so
        ``discretize`` is called 0 times on each of the three entries."""
        calls = self._count(monkeypatch, self.STAGES)
        shape = shape_small()
        params = random_params(shape, 0)
        x = FpMatrix.from_fractions(random_input(shape, 0), "pbit", 16)
        ctx = PBitScalars(16)
        pw = wrap_params(ctx, params)
        message = "forms is empty: name at least one evaluation form"
        with pytest.raises(ValueError, match=message):
            forward_routes(shape, params, x, forms)
        with pytest.raises(ValueError, match=message):
            mamba_forward(ctx, pw, wrap_values(ctx, random_input(shape, 0)), forms)
        with pytest.raises(ValueError, match=message):
            ssm_select(ctx, pw, [[ctx.input(F(1))] * shape.d_inner] * shape.seq_len, forms)
        assert calls["discretize"] == 0
        assert not any(calls.values())

    @pytest.mark.parametrize("forms", ["recurrent", "convolution", "spectral"])
    def test_bare_string_refused_by_name(self, monkeypatch, forms):
        """A string is a sequence of one-letter forms; it is refused as a
        string, not letter by letter."""
        message = f"forms must be a sequence of form names, not the string {forms!r}"
        self._refused_before_any_stage(monkeypatch, forms, TypeError, message)
