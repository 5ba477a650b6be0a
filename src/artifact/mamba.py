"""Selective state-space forward pass, generic over evaluation contexts.

Every function here takes a :class:`~artifact.contexts.ScalarContext` first
and nested lists of context values after it, so the identical code runs
under p-bit floats, exact rationals, and the depth tracer.  The scheduling
of operations is deliberate and is part of the contract: each output entry
of a projection is one ``iter_add`` whose operands are the products *plus
the bias leaf* (one rounding, depth one multiply-level plus one
aggregation); the selection's sandwiches ``W·X·P`` (for B, for C, and the
1x1 one for the step size) are evaluated in Kronecker form by one helper,
folding the parameter-parameter products into precomputed constants so
each selected entry is again a single product family plus one
aggregation; the discretization stages its exponentials serially (the
``exp`` feeding the ratio factor is genuinely recomputed rather than
reused); the recurrence consumes its carried state through ``reinject``,
making each step's cost independent of the sequence index; and the
convolution kernel realizes every power, including the zeroth, as one
``iter_mul`` so all kernel slices share one schedule.

The block runs its stages up to and including the discretization once,
whatever the number of routes asked for: the input projection (read by
both the state-space branch and a tied gate), ``conv1d``, ``silu``,
selection and discretization are shared, and each route adds only its
state-space evaluation, the gating and the output projection
(:func:`mamba_forward`).  Asked for one form, its sequence of context
calls is what the depth tracer records; that order is part of the depth
contract.
:func:`forward_routes` converts values only at its ends: a p-bit input
matrix enters as its entries' ``(m, e)`` pairs, an exact one through
``input``, and each result leaves as an ``FpMatrix``.

Sequence/feature conventions: the input ``X`` is ``L x D`` (a row per time
step), the inner activation is ``L x E``, the state is ``n``-dimensional,
and the depthwise convolution looks back ``K <= L`` steps with zero
padding.  The recurrent and convolutional state-space evaluations are
algebraically identical; in exact arithmetic they agree entry for entry.
"""

from __future__ import annotations

import math
import random
from dataclasses import MISSING, asdict, dataclass, field, fields
from fractions import Fraction
from typing import Callable, Sequence

from artifact._text import _ascii_int
from artifact.contexts import ExactScalars, PBitScalars, ScalarContext, exact_value
from artifact.floats import _normal
from artifact.matrices import FpMatrix, ShapeMismatch

__all__ = [
    "GATE_SCHEMA",
    "MambaParams",
    "PARAM_SCHEMA",
    "ShapeConfig",
    "SsmDiscrete",
    "conv1d",
    "conv_kernel",
    "discretize",
    "forward_matrix",
    "forward_routes",
    "hidden_recurrence",
    "input_projection",
    "mamba_forward",
    "random_input",
    "random_params",
    "select_params",
    "silu_map",
    "ssm_convolution",
    "ssm_recurrent",
    "ssm_select",
    "wrap_params",
]

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


@dataclass(frozen=True, slots=True)
class ShapeConfig:
    """Model dimensions: sequence length, embedding, inner width, state
    size, and convolution window (``kernel_size <= seq_len``).  The number
    of kernel slices materialized for the convolutional evaluation equals
    ``seq_len``."""

    seq_len: int
    d_model: int
    d_inner: int
    d_state: int
    kernel_size: int

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1")
        if self.kernel_size > self.seq_len:
            raise ValueError("kernel_size must not exceed seq_len")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ShapeConfig":
        if not isinstance(obj, dict):
            raise ValueError(f"shape must be an object, not {obj!r}")
        names = [f.name for f in fields(cls)]
        for name in obj:
            if name not in names:
                raise ValueError(f"unknown shape field {name!r}")
        for name in names:
            if name not in obj:
                raise ValueError(f"missing shape field {name!r}")
        return cls(**{k: _json_int(v) for k, v in obj.items()})


def _dims(*dims: str, default=MISSING):
    """A parameter field with its dimensions as ``ShapeConfig`` attribute
    names, outermost first (none for a scalar)."""
    return field(default=default, metadata={"dims": dims})


@dataclass(frozen=True, slots=True)
class MambaParams:
    """All model parameters, each field declared once with its dimensions.

    The fields without a default make up :data:`PARAM_SCHEMA`, the two
    ``None``-default ones :data:`GATE_SCHEMA`; both are read off the field
    list.  Leaves are exact rationals, or context values once
    :func:`wrap_params` has run.

    ``b_base``/``c_base`` are the direct (non-selective) state-space input
    and output maps, used when the discretization and recurrence run on
    their own; the selective path replaces them with the input-dependent
    ``w_b/p_b`` and ``w_c/p_c`` sandwich products.  The state matrix is
    diagonal and stored as its diagonal ``a_diag``.  ``w_gate``/``b_gate``
    are the gate-branch projection: both set, or both ``None``, and then
    the gate shares the main input projection (the default tying).
    """

    w_x_in: Mat = _dims("d_model", "d_inner")
    b_x_in: Vec = _dims("d_inner")
    w_conv: tuple[Mat, ...] = _dims("kernel_size", "d_inner", "d_inner")
    a_diag: Vec = _dims("d_state")
    b_base: Mat = _dims("d_state", "d_inner")
    c_base: Mat = _dims("d_inner", "d_state")
    w_b: Mat = _dims("d_state", "seq_len")
    p_b: Mat = _dims("d_inner", "d_inner")
    w_c: Mat = _dims("d_inner", "seq_len")
    p_c: Mat = _dims("d_inner", "d_state")
    w_delta: Vec = _dims("seq_len")
    p_delta: Vec = _dims("d_inner")
    w_delta_scalar: Fraction = _dims()
    w_x_out: Mat = _dims("d_inner", "d_model")
    b_x_out: Vec = _dims("d_model")
    w_gate: Mat | None = _dims("d_model", "d_inner", default=None)
    b_gate: Vec | None = _dims("d_inner", default=None)

    @classmethod
    def build(cls, shape: ShapeConfig, leaves: Callable[[str, int], Sequence]) -> "MambaParams":
        """Fill every :data:`PARAM_SCHEMA` field, in schema order, from
        ``leaves(name, count)``: the field's ``count`` leaves as one
        row-major sequence.  The gate stays tied."""
        values = {}
        for name, dims in PARAM_SCHEMA:
            sizes = [getattr(shape, d) for d in dims]
            values[name] = _reshape(leaves(name, math.prod(sizes)), sizes)
        return cls(**values)

    def _schema(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """The schema entries this instance sets: a tied gate is left out."""
        if all(getattr(self, name) is None for name, _ in GATE_SCHEMA):
            return PARAM_SCHEMA
        return PARAM_SCHEMA + GATE_SCHEMA

    def validate(self, shape: ShapeConfig) -> None:
        if len({getattr(self, name) is None for name, _ in GATE_SCHEMA}) > 1:
            raise ShapeMismatch("gate weight and bias must come together")
        for name, dims in self._schema():
            sizes = [getattr(shape, d) for d in dims]
            if not _has_dims(getattr(self, name), sizes):
                want = "x".join(map(str, sizes)) or "a scalar"
                raise ShapeMismatch(f"{name} must be {want} ({' x '.join(dims)})")

    # ------------------------------------------------------------- json
    def to_json_dict(self) -> dict:
        return {
            name: _nested(_fr_json, getattr(self, name), len(dims), list)
            for name, dims in self._schema()
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "MambaParams":
        """Decode :meth:`to_json_dict` output.  A malformed entry, an
        unknown field or a missing one raises ``ValueError``."""
        if not isinstance(obj, dict):
            raise ValueError(f"params must be an object, not {obj!r}")
        schema = dict(PARAM_SCHEMA + GATE_SCHEMA)
        decoded = {}
        for name, value in obj.items():
            if name not in schema:
                raise ValueError(f"unknown params field {name!r}")
            try:
                decoded[name] = _nested(_fr_parse, value, len(schema[name]))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name}: {exc}") from None
        for name, _ in PARAM_SCHEMA:
            if name not in decoded:
                raise ValueError(f"missing params field {name!r}")
        return cls(**decoded)


# The parameter layout, read off the fields in order: each field's name
# and dimensions.  The required fields, in the order ``MambaParams.build``
# fills them in, then the optional gate pair.
PARAM_SCHEMA: tuple[tuple[str, tuple[str, ...]], ...] = tuple(
    (f.name, f.metadata["dims"]) for f in fields(MambaParams) if f.default is MISSING
)
GATE_SCHEMA: tuple[tuple[str, tuple[str, ...]], ...] = tuple(
    (f.name, f.metadata["dims"]) for f in fields(MambaParams) if f.default is None
)


def _has_dims(value, sizes: Sequence[int]) -> bool:
    if not isinstance(value, (tuple, list)):
        return not sizes
    if not sizes or len(value) != sizes[0]:
        return False
    return len(sizes) == 1 or all(_has_dims(v, sizes[1:]) for v in value)


def _reshape(flat: Sequence, sizes: Sequence[int]):
    """A row-major sequence of leaves as nested tuples of ``sizes``,
    outermost first; no sizes gives its one leaf."""
    if not sizes:
        return flat[0]
    rows = tuple(flat)
    for size in reversed(sizes[1:]):
        rows = tuple([rows[i:i + size] for i in range(0, len(rows), size)])
    return rows


def _nested(fn, value, depth: int, seq=tuple):
    """``fn`` over every leaf of a ``depth``-deep nesting, rebuilt with ``seq``."""
    if depth == 0:
        return fn(value)
    return seq([_nested(fn, v, depth - 1, seq) for v in value])


def _json_int(x: object) -> int:
    """A JSON integer, or a string by the command line's integer rule
    (``_text._ascii_int``); booleans and floats are refused."""
    n = x if type(x) is int else _ascii_int(x) if isinstance(x, str) else None
    if n is None:
        raise ValueError(f"not an integer: {x!r}")
    return n


def _fr_json(x: Fraction) -> dict:
    return {"n": str(x.numerator), "d": str(x.denominator)}


def _fr_parse(obj: dict) -> Fraction:
    if not isinstance(obj, dict) or set(obj) != {"n", "d"}:
        raise ValueError(f"bad rational entry {obj!r}")
    d = _json_int(obj["d"])
    if d == 0:
        raise ValueError(f"zero denominator in {obj!r}")
    return Fraction(_json_int(obj["n"]), d)


@dataclass(frozen=True, slots=True)
class SsmDiscrete:
    """Discrete-time state-space operators (context values)."""

    a_bar: tuple  # n        diagonal transition
    b_bar: tuple  # n x E    input map
    c_bar: tuple  # E x n    output map
    delta: object  # scalar step size


# ----------------------------------------------------------------- wiring


def wrap_params(ctx: ScalarContext, params: MambaParams) -> MambaParams:
    """The parameters with every leaf converted to a context value, in
    schema order; a tied gate stays ``None``."""
    return MambaParams(**{
        name: _nested(ctx.input, getattr(params, name), len(dims))
        for name, dims in params._schema()
    })


def wrap_values(ctx: ScalarContext, rows: Sequence[Sequence[Fraction]]):
    return [[ctx.input(x) for x in row] for row in rows]


# ------------------------------------------------------------- components


def input_projection(ctx: ScalarContext, x, w, b):
    """``X W + 1 b^T``: each entry is one aggregation of the products and
    the bias leaf, so the whole projection costs one multiply level plus
    one ``iter_add``."""
    L, D, E = len(x), len(w), len(w[0])
    return [
        [
            ctx.iter_add([ctx.mul(x[t][d], w[d][j]) for d in range(D)] + [b[j]])
            for j in range(E)
        ]
        for t in range(L)
    ]


def conv1d(ctx: ScalarContext, x, w):
    """Depthwise-window convolution with zero padding at the left edge.

    ``out[t, j] = sum_k sum_d w[k][d][j] * x[t-k][d]`` over the in-range
    ``k``; each retrieval of a shifted row is an ``index`` operation, the
    inner sum aggregates the feature axis, the outer sum the window axis.
    """
    L, E = len(x), len(w[0][0])
    K = len(w)
    out = []
    for t in range(L):
        row = []
        for j in range(E):
            per_k = []
            for k in range(min(K, t + 1)):
                per_k.append(
                    ctx.iter_add(
                        [
                            ctx.mul(w[k][d][j], ctx.index(x[t - k][d]))
                            for d in range(len(x[0]))
                        ]
                    )
                )
            row.append(ctx.iter_add(per_k))
        out.append(row)
    return out


def silu_map(ctx: ScalarContext, x):
    return [[ctx.silu(v) for v in row] for row in x]


def _sandwich(ctx: ScalarContext, W, P, x):
    """``W·X·P`` in Kronecker form: entry ``(i, k)`` is one ``iter_add``
    over ``(t, d)``, ``t`` outer, of ``mul(const_mul(W[i][t], P[d][k]),
    x[t][d])``."""
    cols = list(zip(*P))
    return [
        [
            ctx.iter_add([
                ctx.mul(ctx.const_mul(w, p), v)
                for w, row in zip(w_row, x)
                for p, v in zip(col, row)
            ])
            for col in cols
        ]
        for w_row in W
    ]


def select_params(ctx: ScalarContext, x, w_b, p_b, w_c, p_c, w_delta, p_delta, w_delta_scalar):
    """Input-dependent state-space parameters.

    The two sandwiches ``W_B X P_B`` and ``W_C X P_C`` and the raw step
    size ``w_delta^T X p_delta`` (a 1x1 sandwich) are evaluated in
    Kronecker form by one helper: the parameter-parameter coefficient
    ``W[i,t] * P[d,k]`` is a precomputed constant (``const_mul``), so each
    output entry is one product family over the input entries plus one
    aggregation.  The raw step size is broadcast (``dup``), a stage barrier
    closes the linear phase, and the positive step size
    ``softplus(w_delta_scalar) * raw`` is formed after it.
    """
    s_b = _sandwich(ctx, w_b, p_b, x)
    s_c = _sandwich(ctx, w_c, p_c, x)
    raw = _sandwich(ctx, [w_delta], [[v] for v in p_delta], x)[0][0]
    raw_b = ctx.dup(raw)
    ctx.seq_point([v for row in s_b for v in row] + [v for row in s_c for v in row] + [raw_b])
    delta = ctx.mul(ctx.softplus(w_delta_scalar), raw_b)
    return s_b, s_c, delta


def discretize(ctx: ScalarContext, a_diag, b, c, delta) -> SsmDiscrete:
    """Zero-order-hold style discretization of the diagonal system.

    ``a_bar_i = exp(delta * a_i)`` and ``b_bar[i,k] = ((exp(delta * a_i) -
    1) / (delta * a_i)) * delta * b[i,k]``, except that rows whose
    ``|delta * a_i|`` falls below the context's singularity threshold
    (``ctx.guard_small``; never for the tracer) use the limit form
    ``delta * b[i,k]``.  The evaluation is staged serially — products,
    first exponential, reciprocal, a *recomputed* exponential, shift,
    ratio, product, aggregation — with barriers between the stages.
    """
    n, E = len(a_diag), len(b[0])
    one = ctx.const(Fraction(1))
    minus_one = ctx.const(Fraction(-1))
    da = [ctx.mul(delta, a_diag[i]) for i in range(n)]
    db = [[ctx.mul(delta, b[i][k]) for k in range(E)] for i in range(n)]
    guard = [ctx.guard_small(da[i]) for i in range(n)]
    a_bar = [ctx.exp(da[i]) for i in range(n)]
    ctx.seq_point(a_bar)
    inv = {i: ctx.div(one, da[i]) for i in range(n) if not guard[i]}
    ctx.seq_point(list(inv.values()) if inv else a_bar)
    b_bar = []
    for i in range(n):
        if guard[i]:
            b_bar.append(tuple(db[i]))
            continue
        e2 = ctx.exp(da[i])
        shifted = ctx.add(e2, minus_one)
        ratio = ctx.mul(inv[i], shifted)
        b_bar.append(
            tuple(ctx.iter_add([ctx.mul(ratio, db[i][k])]) for k in range(E))
        )
    return SsmDiscrete(tuple(a_bar), tuple(b_bar), tuple(tuple(r) for r in c), delta)


def hidden_recurrence(ctx: ScalarContext, disc: SsmDiscrete, x):
    """State sequence ``H[t] = diag(a_bar) H[t-1] + b_bar X[t]``, zero
    initial state.  Carried state re-enters each step through ``reinject``,
    so one step's cost never depends on the sequence index."""
    L, E = len(x), len(x[0])
    n = len(disc.a_bar)
    h_prev = [ctx.const(Fraction(0)) for _ in range(n)]
    out = []
    for t in range(L):
        carried = [ctx.reinject(h) for h in h_prev]
        row = []
        for i in range(n):
            ah = ctx.mul(disc.a_bar[i], carried[i])
            bx = ctx.iter_add([ctx.mul(disc.b_bar[i][k], x[t][k]) for k in range(E)])
            row.append(ctx.add(ah, bx))
        out.append(row)
        h_prev = row
    return out


def ssm_recurrent(ctx: ScalarContext, disc: SsmDiscrete, x):
    """Outputs ``Y[t] = c_bar H[t]`` from the step-by-step recurrence."""
    h = hidden_recurrence(ctx, disc, x)
    E = len(disc.c_bar)
    n = len(disc.a_bar)
    return [
        [
            ctx.iter_add([ctx.mul(disc.c_bar[d][i], h[t][i]) for i in range(n)])
            for d in range(E)
        ]
        for t in range(len(x))
    ]


def conv_kernel(ctx: ScalarContext, disc: SsmDiscrete, m: int):
    """Kernel slices ``K[d', d, k] = sum_i c_bar[d',i] a_bar_i^k b_bar[i,d]``.

    Every power, including ``a^0``, is one ``iter_mul`` (the zeroth over the
    constant one), so all ``m`` slices share the same schedule and the cost
    is independent of ``k``.
    """
    n = len(disc.a_bar)
    E = len(disc.c_bar)
    one = ctx.const(Fraction(1))
    powers = [
        [
            ctx.iter_mul([disc.a_bar[i]] * k) if k > 0 else ctx.iter_mul([one])
            for k in range(m)
        ]
        for i in range(n)
    ]
    ab = [
        [
            [ctx.iter_add([ctx.mul(powers[i][k], disc.b_bar[i][d])]) for k in range(m)]
            for d in range(len(disc.b_bar[0]))
        ]
        for i in range(n)
    ]
    return [
        [
            [
                ctx.iter_add([ctx.mul(disc.c_bar[dp][i], ab[i][d][k]) for i in range(n)])
                for k in range(m)
            ]
            for d in range(len(disc.b_bar[0]))
        ]
        for dp in range(E)
    ]


def ssm_convolution(ctx: ScalarContext, kern, x):
    """Outputs by direct convolution with the kernel slices:
    ``Y[t, d'] = sum_k sum_d K[d', d, k] X[t-k, d]`` (zero padding)."""
    L, E_in = len(x), len(x[0])
    E_out = len(kern)
    out = []
    for t in range(L):
        row = []
        for dp in range(E_out):
            per_k = [
                ctx.iter_add([ctx.mul(kern[dp][d][k], x[t - k][d]) for d in range(E_in)])
                for k in range(min(len(kern[0][0]), t + 1))
            ]
            row.append(ctx.iter_add(per_k))
        out.append(row)
    return out


def _check_forms(forms: Sequence[str]) -> None:
    if isinstance(forms, str):
        raise TypeError(f"forms must be a sequence of form names, not the string {forms!r}")
    if not forms:
        raise ValueError("forms is empty: name at least one evaluation form")
    for form in forms:
        if form not in ("recurrent", "convolution"):
            raise ValueError(f"unknown evaluation form {form!r}")


def ssm_select(ctx: ScalarContext, pw: MambaParams, x, forms: Sequence[str]) -> list:
    """Selection and discretization once, then one state-space evaluation
    per form in ``forms``, one result each.

    Each form is ``"recurrent"`` or ``"convolution"``; the two are
    algebraically identical.  A stage barrier separates the discretization
    from the evaluations so the phases compose serially.  An unknown form,
    an empty ``forms``, or a bare string for it, is refused before any
    stage runs.
    """
    _check_forms(forms)
    s_b, s_c, delta = select_params(
        ctx, x, pw.w_b, pw.p_b, pw.w_c, pw.p_c, pw.w_delta, pw.p_delta, pw.w_delta_scalar
    )
    disc = discretize(ctx, pw.a_diag, s_b, s_c, delta)
    ctx.seq_point(list(disc.a_bar) + [v for row in disc.b_bar for v in row])
    return [
        ssm_recurrent(ctx, disc, x)
        if form == "recurrent"
        else ssm_convolution(ctx, conv_kernel(ctx, disc, len(x)), x)
        for form in forms
    ]


def mamba_forward(ctx: ScalarContext, pw: MambaParams, x, forms: Sequence[str]) -> list:
    """Full block, one output per form in ``forms``: projections, window
    convolution, gated state space.

    ``out = OutProj( SSM(silu(conv1d(InProj(X)))) ⊙ silu(GateProj(X)) )``,
    with ``pw`` the parameters as context values (:func:`wrap_params`).
    The block up to the discretization runs once; each form adds its
    evaluation, the gating and the output projection.  The gate branch
    belongs to the pre-barrier stage of the pipeline: an untied gate is
    projected first, and a tied one (``pw.w_gate is None``) is ``silu`` of
    the input projection, computed once and read by both branches.  An
    unknown form, an empty ``forms``, or a bare string for it, is refused
    before any stage runs.  The order of context calls for one form is
    part of the depth contract: the tracer's graphs, and so every ``mamba
    depth`` byte, follow from it.
    """
    _check_forms(forms)
    if pw.w_gate is not None:
        gate = silu_map(ctx, input_projection(ctx, x, pw.w_gate, pw.b_gate))
    u = input_projection(ctx, x, pw.w_x_in, pw.b_x_in)
    if pw.w_gate is None:
        gate = silu_map(ctx, u)  # tied: the gate shares the input projection
    a = silu_map(ctx, conv1d(ctx, u, pw.w_conv))
    return [
        input_projection(
            ctx,
            [[ctx.mul(y[t][j], gate[t][j]) for j in range(len(y[0]))] for t in range(len(y))],
            pw.w_x_out,
            pw.b_x_out,
        )
        for y in ssm_select(ctx, pw, a, forms)
    ]


# ------------------------------------------------------- instance builders


def _seed(seed: int) -> int:
    if seed < 0:
        raise ValueError(f"seed must be at least 0, not {seed}")
    return seed


# Every value the random builders draw, ``n/16`` for ``n`` in [-32, 16],
# at index ``n + 32``: a draw indexes a shared leaf, not a new Fraction.
_SIXTEENTHS = tuple(Fraction(n, 16) for n in range(-32, 17))


def random_params(shape: ShapeConfig, seed: int, positive: bool = False) -> MambaParams:
    """Deterministic random parameters.

    With ``positive=True`` every weight is drawn from ``[1/16, 1]`` (and the
    state diagonal from ``[-2, -1/4]``), which makes both state-space
    evaluation routes cancellation-free: the transition stays in ``(0, 1)``
    and every product and sum keeps one sign.  A negative ``seed`` raises
    ``ValueError``: ``random.Random`` seeds with an int's absolute value,
    so it would draw what its positive draws.
    """
    randrange = random.Random(_seed(seed)).randrange
    lo = 1 if positive else -16

    def leaves(name: str, count: int) -> list[Fraction]:
        if name == "a_diag":
            return [_SIXTEENTHS[32 - randrange(4, 33)] for _ in range(count)]
        return [_SIXTEENTHS[randrange(lo, 17) + 32] for _ in range(count)]

    return MambaParams.build(shape, leaves)


def random_input(shape: ShapeConfig, seed: int) -> list[list[Fraction]]:
    """Deterministic random input rows; a negative ``seed`` raises
    ``ValueError``, as in :func:`random_params`."""
    rng = random.Random(_seed(seed) ^ 0x5EED)
    return [
        [_SIXTEENTHS[rng.randrange(-16, 17) + 32] for _ in range(shape.d_model)]
        for _ in range(shape.seq_len)
    ]


# --------------------------------------------------------- matrix frontend


def forward_routes(
    shape: ShapeConfig,
    params: MambaParams,
    x: FpMatrix,
    forms: Sequence[str],
) -> tuple[FpMatrix, ...]:
    """Run the block on an ``FpMatrix`` in its own mode, one result per
    form in ``forms``.  The projections, ``conv1d``, selection and
    discretization run once and are shared; each form adds only its
    state-space evaluation, gating and output projection."""
    params.validate(shape)
    if (x.rows, x.cols) != (shape.seq_len, shape.d_model):
        raise ShapeMismatch("input must be seq_len x d_model")
    if x.mode == "pbit":
        ctx: ScalarContext = PBitScalars(x.p)
        # The entries are already at the context's precision.
        xin = [[(v.m, v.e) for v in row] for row in x.data]
    else:
        ctx = ExactScalars()
        xin = wrap_values(ctx, x.data)
    ys = mamba_forward(ctx, wrap_params(ctx, params), xin, forms)
    if x.mode == "pbit":
        return tuple(FpMatrix.pbit([[_normal(m, e, x.p) for m, e in row] for row in y], x.p)
                     for y in ys)
    return tuple(FpMatrix.exact([[exact_value(v) for v in row] for row in y]) for y in ys)


def forward_matrix(
    shape: ShapeConfig,
    params: MambaParams,
    x: FpMatrix,
    form: str = "recurrent",
) -> FpMatrix:
    """Run the block on an ``FpMatrix`` in its own mode and return one:
    :func:`forward_routes` for the one form."""
    return forward_routes(shape, params, x, (form,))[0]
