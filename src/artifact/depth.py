"""Symbolic depth calculus over traced computations.

Every primitive operation carries one of a fixed set of named depth
constants: ``d_std`` (one standard arithmetic level: binary add/mul/div,
comparison-flavoured selection, floor), ``d_oplus`` (one single-rounding
iterated addition of any width), ``d_otimes`` (one single-rounding iterated
multiplication), ``d_exp``/``d_sqrt`` (one exponential / square-root
block), and ``d_dup`` (a broadcast, default weight zero — wiring, not
gates).  ``d_log`` and ``d_sp`` are composite constants defined by the
formula registry in terms of that base set.

:class:`TracedScalars` is an evaluation context that records structure
only: it runs the model code on node ids, computes no values, and records
every operation as a node in a :class:`CostTrace` DAG.  Value-dependent
control flow takes the general branch (the discretization is traced on
its full schedule), so a trace, and every depth in :func:`depth_report`,
depends on the shape alone, never on values or precision.  The
critical-path depth of a trace is a :class:`DepthExpr` — a
nonnegative integer combination of the base constants.  It is the top of
a Pareto frontier of incomparable path sums (two symbolic sums are
comparable only coefficient-wise, since the constants may take any
nonnegative weights).  Path sums have one representation: a coefficient
vector indexed like ``BASE_CONSTANTS``.  The frontier is computed on bare
vectors as each node enters the trace, memoized in one table on the
node's cost and its predecessors' distinct frontiers, so a step met
before costs one dictionary lookup.  The model's component traces share
one such table for the life of the process.
The critical frontier is read on demand, as the Pareto maxima over the
distinct frontiers of the trace's own nodes.  A vector read out of a frontier
is wrapped as ``DepthExpr(vec)``; ``DepthExpr.of`` also accepts the
composite names and writes them out through the registry, so the checker
compares two expressions directly.  Component traces are built from the
shape alone: every leaf is a fresh input whose value is never read.
:func:`depth_report` builds no trace: it runs the model on frontier
indices, each route pair (``ssm_select_*``, ``mamba_forward_*``) once per
shape with both routes after one shared prefix, and reads every
component's depth at its own outputs.  A node may name a predecessor more
than once as it enters the trace (``mul(a, a)``, or a member of the stage
barrier it also takes); the frontier does not change, and the trace folds
the node's predecessors as it enters, so each is named once, in
first-occurrence order.

The elementary functions are traced on their *reference schedules*: the
logarithm as two parallel standard levels (shift and scale), an iterated
multiplication per series term, an aggregation, a stage barrier, the
constant series, and two closing standard levels; softplus as an
exponential, one standard level, and the logarithm schedule; SiLU and the
logistic as an exponential plus one fused standard level (the closing
rational function is a single constant-depth block in the cost model, and
is recorded as one event).  Term events inside a series schedule all sit
at one level, so a representative handful is recorded rather than the full
tuned term count.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import add, le, sub
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from artifact.contexts import ScalarContext
from artifact.mamba import (
    MambaParams,
    ShapeConfig,
    SsmDiscrete,
    conv1d,
    conv_kernel,
    discretize,
    hidden_recurrence,
    input_projection,
    mamba_forward,
    select_params,
    ssm_convolution,
    ssm_recurrent,
    ssm_select,
    wrap_params,
)

__all__ = [
    "BASE_CONSTANTS",
    "COMPONENT_REGISTRY_KEYS",
    "CostTrace",
    "CycleDetected",
    "DEFAULT_ASSIGNMENT",
    "DepthCheck",
    "DepthExpr",
    "TraceNode",
    "TracedScalars",
    "Verdict",
    "check_depth",
    "component_names",
    "critical_depth",
    "default_shape_grid",
    "depth_report",
    "formula_registry",
    "resolve_assignment",
    "trace_component",
    "trace_run",
]


#: The constants that appear as event tags, in coefficient-vector order.
BASE_CONSTANTS: tuple[str, ...] = (
    "d_std",
    "d_oplus",
    "d_otimes",
    "d_exp",
    "d_sqrt",
    "d_dup",
)
#: Composite constants, defined by the formula registry over the base set.
_COMPOSITES = ("d_log", "d_sp")

#: Numeric weights used when a depth expression is evaluated to a single
#: integer.  Broadcast is wiring, not gates, so d_dup defaults to zero.
DEFAULT_ASSIGNMENT: Mapping[str, int] = MappingProxyType(
    {"d_std": 1, "d_oplus": 1, "d_otimes": 1, "d_exp": 1, "d_sqrt": 1, "d_dup": 0}
)


def resolve_assignment(assignment: Mapping[str, int] | None = None) -> dict[str, int]:
    """``DEFAULT_ASSIGNMENT`` overridden by ``assignment``.  Depth weights
    count gates along a path, so a negative one raises ``ValueError``."""
    weights = {**DEFAULT_ASSIGNMENT, **(assignment or {})}
    negative = [f"{name}={w}" for name, w in weights.items() if w < 0]
    if negative:
        raise ValueError(f"depth weights must be nonnegative: {', '.join(negative)}")
    return weights


class CycleDetected(ValueError):
    """A trace's predecessor ids do not respect sequence order."""


#: A path sum as a vector of coefficients indexed like ``BASE_CONSTANTS``.
_Sum = tuple[int, ...]
_ZERO: _Sum = (0,) * len(BASE_CONSTANTS)
_ORIGIN: tuple[_Sum, ...] = (_ZERO,)
#: The unit vector each event cost adds to a path sum.
_STEPS: dict[str, _Sum] = {
    name: tuple(int(i == k) for i in range(len(BASE_CONSTANTS)))
    for k, name in enumerate(BASE_CONSTANTS)
}
#: (name, index) pairs in name order, the key order of ``as_dict``.
_BY_NAME = sorted((name, k) for k, name in enumerate(BASE_CONSTANTS))


@dataclass(frozen=True, slots=True)
class DepthExpr:
    """A nonnegative integer combination of the base depth constants.

    ``coeffs`` is the coefficient vector, indexed like ``BASE_CONSTANTS``:
    the same vectors a :class:`CostTrace` holds as path sums, so a frontier
    entry is read out as ``DepthExpr(vec)``.  Immutable; supports addition,
    scaling by nonnegative integers, coefficient-wise comparison (a partial
    order), and numeric evaluation under a weight assignment.  :meth:`of`
    also accepts the composites ``d_log`` and ``d_sp`` and writes them out
    through the formula registry.
    """

    coeffs: _Sum

    def __post_init__(self) -> None:
        if len(self.coeffs) != len(BASE_CONSTANTS):
            raise ValueError(f"need {len(BASE_CONSTANTS)} coefficients, got {len(self.coeffs)}")
        if min(self.coeffs) < 0:
            raise ValueError("coefficients must be nonnegative")

    @classmethod
    def of(cls, mapping: Mapping[str, int]) -> "DepthExpr":
        vec = _ZERO
        for name, c in mapping.items():
            if not c:
                continue
            if c < 0:
                raise ValueError("coefficients must be nonnegative")
            if name in _STEPS:
                unit = _STEPS[name]
            elif name in _COMPOSITES:
                unit = _REGISTRY[name].coeffs
            else:
                raise ValueError(f"unknown depth constant {name!r}")
            vec = tuple([v + c * u for v, u in zip(vec, unit)])
        return cls(vec)

    @classmethod
    def zero(cls) -> "DepthExpr":
        return cls(_ZERO)

    @classmethod
    def single(cls, name: str) -> "DepthExpr":
        return cls.of({name: 1})

    def as_dict(self) -> dict[str, int]:
        """The nonzero coefficients, keyed by constant name in name order."""
        return {name: self.coeffs[k] for name, k in _BY_NAME if self.coeffs[k]}

    def __add__(self, other: "DepthExpr") -> "DepthExpr":
        return DepthExpr(tuple(map(add, self.coeffs, other.coeffs)))

    def __mul__(self, k: int) -> "DepthExpr":
        if k < 0:
            raise ValueError("scale must be nonnegative")
        return DepthExpr(tuple([c * k for c in self.coeffs]))

    __rmul__ = __mul__

    def __le__(self, other: "DepthExpr") -> bool:
        return all(map(le, self.coeffs, other.coeffs))

    def minus(self, other: "DepthExpr") -> "DepthExpr":
        """Coefficient-wise difference; requires ``other <= self``."""
        if not other <= self:
            raise ValueError("difference would have a negative coefficient")
        return DepthExpr(tuple(map(sub, self.coeffs, other.coeffs)))

    def evaluate(self, assignment: Mapping[str, int] | None = None) -> int:
        weights = resolve_assignment(assignment)
        return sum(c * weights[name] for name, c in zip(BASE_CONSTANTS, self.coeffs))

    def __str__(self) -> str:
        parts = [
            name if c == 1 else f"{c}*{name}"
            for name, c in zip(BASE_CONSTANTS, self.coeffs)
            if c
        ]
        return " + ".join(parts) or "0"


class TraceNode(NamedTuple):
    """One event, leaf or stage barrier in a trace: a label for humans, the
    depth constant it costs (``None`` for leaves and barriers), and
    predecessor ids.  A node read back from a :class:`CostTrace` names each
    predecessor once, in first-occurrence order."""

    id: int
    label: str
    cost: str | None
    preds: tuple[int, ...]


def _maxima(sums: Iterable[_Sum]) -> tuple[_Sum, ...]:
    """Pareto maxima of path sums, deduplicated, in first-occurrence order."""
    uniq = list(dict.fromkeys(sums))
    if len(uniq) < 2:
        return tuple(uniq)
    # Plain loops: a frontier holds a handful of sums, and nested
    # generators cost more per call than they save per item.
    front = []
    for s in uniq:
        for t in uniq:
            if s is not t and all(map(le, s, t)):
                break
        else:
            front.append(s)
    return tuple(front)


class _FrontierTable:
    """Distinct frontiers, each stored once and named by its index, and the
    memo of frontier steps that produced them.

    A step is keyed on ``(cost, *distinct predecessor frontier indices)``:
    a node's frontier depends on nothing else, so one table can serve any
    number of traces, and its answers are those of a private table.  The
    table is append-only, so an index, once given out, keeps its meaning.
    """

    __slots__ = ("frontiers", "index", "steps")

    def __init__(self) -> None:
        self.frontiers: list[tuple[_Sum, ...]] = [_ORIGIN]
        self.index: dict[tuple[_Sum, ...], int] = {_ORIGIN: 0}
        self.steps: dict[tuple[str | None | int, ...], int] = {}

    def step(self, key: tuple[str | None | int, ...]) -> int:
        """The frontier index of a node whose cost and predecessors'
        distinct frontiers are ``key``.  An unknown cost is never memoized,
        so it raises ``ValueError`` every time it is met."""
        f = self.steps.get(key)
        if f is None:
            cost, *preds = key
            f = self._merge(preds)
            if cost is not None:
                f = self._bump(f, cost)
            self.steps[key] = f
        return f

    def _intern(self, front: tuple[_Sum, ...]) -> int:
        f = self.index.setdefault(front, len(self.frontiers))
        if f == len(self.frontiers):
            self.frontiers.append(front)
        return f

    def _merge(self, preds: list[int]) -> int:
        """The frontier index of a node whose predecessors' distinct
        frontiers are ``preds``."""
        if len(preds) < 2:
            return preds[0] if preds else 0
        return self._intern(self.maxima_of(preds))

    def _bump(self, f: int, cost: str) -> int:
        """The frontier index after an event of ``cost`` on frontier ``f``."""
        step = _STEPS.get(cost)
        if step is None:
            raise ValueError(f"unknown event cost {cost!r}")
        return self._intern(tuple([tuple(map(add, s, step)) for s in self.frontiers[f]]))

    def maxima_of(self, indices: Iterable[int]) -> tuple[_Sum, ...]:
        """Pareto maxima of the path sums in the frontiers at ``indices``,
        in first-occurrence order."""
        frontiers = self.frontiers
        return _maxima([s for f in indices for s in frontiers[f]])


#: The frontier table of the model's own components.  Every trace that
#: :func:`trace_component` and :func:`depth_report` build interns into it,
#: so the frontier algebra of the Mamba stages (110 frontiers and 137
#: steps over the default grid, and no more at any longer shape tried) is
#: worked out once per process.  Not safe to share between threads.
_MODEL_TABLE = _FrontierTable()


class CostTrace:
    """An acyclic event DAG with marked outputs, and the Pareto frontier of
    path sums ending at each node.

    A path sum is a tuple of ints indexed like ``BASE_CONSTANTS``.  A node
    without predecessors starts at zero, one predecessor's frontier is
    reused as is, several are deduplicated and cut to their Pareto maxima,
    and a cost-bearing node adds one to its constant's coordinate.  Each
    node's frontier is computed once, as the node enters the trace.  The
    frontier of the whole trace is read on demand: the Pareto maxima over
    the distinct frontiers of the trace's own nodes.

    Frontiers live in a frontier table, each stored once, and a node holds
    its index.  A node's frontier depends only on its cost and on its
    predecessors' frontiers, so the table memoizes each step on ``(cost,
    *distinct predecessor frontier indices)``.  A trace built here, from
    explicit nodes, has a table of its own.  The traces of the model's
    components (:func:`trace_component`) share one table, ``_MODEL_TABLE``,
    with :func:`depth_report` for the life of the process: across the
    default grid and every longer shape tried, the Mamba stages have 110
    distinct frontiers and 137 distinct steps, so after the first traces
    no step is worked out again.  The shared table is not locked: trace
    from one thread at a time.  The table's memo is the only one: a trace
    keeps no step memo of its own.

    Each node is stored as the :class:`TraceNode` row that :attr:`nodes`
    returns, its predecessors folded to distinct ids in first-occurrence
    order once, as the node enters; path sums become :class:`DepthExpr`
    only when read.  ``size`` counts cost-bearing events only.
    """

    def __init__(self, nodes: Iterable[TraceNode] = (), outputs: Sequence[int] = ()):
        self._nodes: list[TraceNode] = []  # a node's id is its position
        self._fronts: list[int] = []  # per node, an index into the table
        self._table = _FrontierTable()
        self.outputs: tuple[int, ...] = tuple(outputs)
        for node in nodes:
            self.append(node)

    def append(self, node: TraceNode) -> None:
        """Add ``node``, which must carry the next id, and its frontier."""
        if node.id != len(self._fronts):
            raise ValueError("node ids must be dense and in order")
        self._add(node.label, node.cost, node.preds)

    def _add(self, label: str, cost: str | None, preds: tuple[int, ...]) -> int:
        """Add the next node and its frontier; return the node's id.

        Predecessors must be earlier nodes (else :class:`CycleDetected`)
        with nonnegative ids.  An unknown cost is never memoized, so it
        raises ``ValueError`` every time it is met.
        """
        fronts = self._fronts
        i = len(fronts)
        preds = tuple(dict.fromkeys(preds))
        # A loop, not max() and min(): a node has few predecessors, and the
        # builtins cost more per call than the loop does per item.
        key = [cost]
        for q in preds:
            if not 0 <= q < i:
                if max(preds) >= i:
                    raise CycleDetected(f"node {i} depends on a later node")
                raise ValueError(f"node {i} has a negative predecessor id")
            key.append(fronts[q])
        # The cost is a name or None, never an index, so one fold keeps it
        # first and leaves the distinct frontier indices after it.
        fronts.append(self._table.step(tuple(dict.fromkeys(key))))
        self._nodes.append(TraceNode(i, label, cost, preds))
        return i

    def _distinct_fronts(self) -> Iterable[int]:
        """The table indices of the nodes' frontiers, each once, in node
        order; the origin alone for a trace with no nodes."""
        return dict.fromkeys(self._fronts) or (0,)

    def __len__(self) -> int:
        return len(self._fronts)

    @property
    def nodes(self) -> tuple[TraceNode, ...]:
        """The nodes as :class:`TraceNode` rows, each with its predecessors
        distinct, in first-occurrence order."""
        return tuple(self._nodes)

    @property
    def size(self) -> int:
        return sum(node.cost is not None for node in self._nodes)

    def depth_frontiers(self) -> list[tuple[DepthExpr, ...]]:
        """Per-node Pareto frontier of path sums ending at the node."""
        frontiers = self._table.frontiers
        exprs = {f: tuple(map(DepthExpr, frontiers[f])) for f in self._distinct_fronts()}
        return [exprs[f] for f in self._fronts]

    def critical_frontier(self) -> tuple[DepthExpr, ...]:
        """Pareto frontier of every path sum in the trace."""
        return tuple(map(DepthExpr, self._table.maxima_of(self._distinct_fronts())))

    def critical_depth(self) -> DepthExpr:
        """The unique maximal path sum.

        Raises ``ValueError`` when the trace's deepest paths are mutually
        incomparable (no single symbolic maximum exists).
        """
        return _unique(self._table.maxima_of(self._distinct_fronts()))


def _unique(front: tuple[_Sum, ...]) -> DepthExpr:
    """The one sum of a frontier, or ``ValueError`` naming them all."""
    if len(front) != 1:
        raise ValueError(
            "critical depth is not unique: " + ", ".join(str(DepthExpr(s)) for s in front)
        )
    return DepthExpr(front[0])


def critical_depth(trace: CostTrace) -> DepthExpr:
    return trace.critical_depth()


# ------------------------------------------------------------ the registry


def _build_registry() -> Mapping[str, DepthExpr]:
    s = DepthExpr.single("d_std")
    op = DepthExpr.single("d_oplus")
    ot = DepthExpr.single("d_otimes")
    ex = DepthExpr.single("d_exp")
    dup = DepthExpr.single("d_dup")
    d_log = 3 * s + 2 * ot + 2 * op
    d_sp = ex + s + d_log
    d_disc = 5 * s + 2 * ex + op
    d_h = 2 * s + op
    d_k = ot + 2 * s + 2 * op
    d_1dconv = 2 * s + 2 * op
    d_select = 2 * s + op + dup + d_sp
    d_recur = d_h + (s + op)
    d_conv = s + 2 * op
    d_ssm = d_select + d_disc + d_recur
    d_mamba = d_1dconv + ex + d_select + 4 * s + op
    d_mamba_comp = 2 * (s + op) + d_1dconv + 2 * (ex + s) + d_ssm + s
    return MappingProxyType(
        {
            "d_log": d_log,
            "d_sp": d_sp,
            "d_disc": d_disc,
            "d_h": d_h,
            "d_k": d_k,
            "d_1dconv": d_1dconv,
            "d_select": d_select,
            "d_recur": d_recur,
            "d_conv": d_conv,
            "d_SSM": d_ssm,
            "d_mamba": d_mamba,
            "d_mamba_compositional": d_mamba_comp,
        }
    )


_REGISTRY = _build_registry()


def formula_registry() -> Mapping[str, DepthExpr]:
    """Named depth formulas, expanded to base constants.

    ``d_mamba`` is the literal end-to-end formula (which omits the
    discretization and recurrence stages inside the selective block);
    ``d_mamba_compositional`` is the recomputed stage-by-stage sum
    ``2(d_std+d_oplus) + d_1dconv + 2(d_exp+d_std) + d_SSM + d_std``.
    Checks compare traces against both rather than asserting the literal
    one.
    """
    return _REGISTRY


# ------------------------------------------------------------- the checker


class Verdict(Enum):
    WITHIN_BOUND = "within_bound"
    EXCEEDS = "exceeds"
    NOT_COMPARABLE = "not_comparable"


@dataclass(frozen=True, slots=True)
class DepthCheck:
    verdict: Verdict
    excess: DepthExpr | None = None

    def to_json_dict(self) -> dict:
        out: dict[str, Any] = {"verdict": self.verdict.value}
        if self.excess is not None:
            out["excess"] = self.excess.as_dict()
        return out


def check_depth(traced: DepthExpr, formula: DepthExpr) -> DepthCheck:
    """Coefficient-wise comparison of a traced depth against a formula.

    ``WithinBound`` when ``traced <= formula`` everywhere (equality
    included); ``Exceeds`` with the offending difference when the trace
    dominates; ``NotComparable`` when neither does.
    """
    if traced <= formula:
        return DepthCheck(Verdict.WITHIN_BOUND)
    if formula <= traced:
        return DepthCheck(Verdict.EXCEEDS, traced.minus(formula))
    return DepthCheck(Verdict.NOT_COMPARABLE)


# -------------------------------------------------------------- the tracer


class TracedScalars(ScalarContext[int]):
    """Records the event DAG of a computation and computes no values.

    A traced value is the id of the node that produced it; ``input`` and
    ``const`` ignore their argument and emit a leaf.  :meth:`guard_small`
    always answers ``False``, so the discretization is traced on its
    general branch, the schedule ``d_disc`` counts: a trace, and every
    depth read from it, depends on the shape alone.

    A stage barrier (:meth:`seq_point`) is one zero-cost node whose
    predecessors are the stage's members; every later event takes it as a
    predecessor, serializing pipeline phases the way the depth formulas
    count them.  A new barrier replaces the previous one.  Each node enters
    the trace as it is emitted, through the same checks, fold and frontier
    table as :meth:`CostTrace.append`, so the frontiers are ready when
    tracing ends.  Predecessors go in as the operation names them, repeats
    included, with the barrier last; the trace folds repeats as the node
    enters.
    """

    def __init__(self) -> None:
        self._trace = CostTrace()
        self._barrier: int | None = None

    # ------------------------------------------------------ trace plumbing
    def _emit(self, label: str, cost: str | None, preds: tuple[int, ...]) -> int:
        if self._barrier is not None:
            preds += (self._barrier,)
        return self._trace._add(label, cost, preds)

    # --------------------------------------------------------------- leaves
    def input(self, q: Fraction) -> int:
        return self._emit("input", None, ())

    def const(self, q: Fraction) -> int:
        return self._emit("const", None, ())

    def const_mul(self, a: int, b: int) -> int:
        # A parameter-parameter product is constant folding, not a gate.
        return self._emit("const_mul", None, (a, b))

    def reinject(self, a: int) -> int:
        # Carried state re-enters as a fresh level-zero leaf.
        return self._emit("reinject", None, ())

    # --------------------------------------------------------------- events
    def add(self, a: int, b: int) -> int:
        return self._emit("add", "d_std", (a, b))

    def mul(self, a: int, b: int) -> int:
        return self._emit("mul", "d_std", (a, b))

    def div(self, a: int, b: int) -> int:
        return self._emit("div", "d_std", (a, b))

    def floor(self, a: int) -> int:
        return self._emit("floor", "d_std", (a,))

    def index(self, a: int) -> int:
        return self._emit("index", "d_std", (a,))

    def dup(self, a: int) -> int:
        return self._emit("dup", "d_dup", (a,))

    def iter_add(self, xs: Sequence[int]) -> int:
        return self._emit("iter_add", "d_oplus", tuple(xs))

    def iter_mul(self, xs: Sequence[int]) -> int:
        return self._emit("iter_mul", "d_otimes", tuple(xs))

    def exp(self, a: int) -> int:
        return self._emit("exp", "d_exp", (a,))

    def sqrt(self, a: int) -> int:
        return self._emit("sqrt", "d_sqrt", (a,))

    # ------------------------------------------------- composite schedules
    _SERIES_TERMS = 3  # representative; all terms share one level

    def _log_schedule(self, a: int) -> int:
        """The reference logarithm schedule; returns the final node id.

        Shift and scale extraction in parallel (std), the argument series
        (one iter_mul level, one aggregation), a stage barrier, the
        constant series (same two levels), the scale product, the final
        add: critical path 3*d_std + 2*d_otimes + 2*d_oplus.
        """
        u = self._emit("log_shift", "d_std", (a,))
        k = self._emit("log_scale", "d_std", (a,))
        terms = [
            self._emit("log_series_term", "d_otimes", (u,))
            for _ in range(self._SERIES_TERMS)
        ]
        series = self._emit("log_series_sum", "d_oplus", tuple(terms))
        # The constant series is scheduled strictly after the argument
        # series (stage barrier), keeping the phases serial.
        cterms = [
            self._emit("log_const_term", "d_otimes", (series,))
            for _ in range(self._SERIES_TERMS)
        ]
        cseries = self._emit("log_const_sum", "d_oplus", tuple(cterms))
        scaled = self._emit("log_scale_mul", "d_std", (k, cseries))
        return self._emit("log_combine", "d_std", (series, scaled))

    def log(self, a: int) -> int:
        return self._log_schedule(a)

    def softplus(self, a: int) -> int:
        e = self._emit("exp", "d_exp", (a,))
        one = self._emit("const", None, ())
        return self._log_schedule(self._emit("add", "d_std", (e, one)))

    def sigmoid(self, a: int) -> int:
        return self._emit("sigmoid_combine", "d_std", (self._emit("exp", "d_exp", (a,)), a))

    def silu(self, a: int) -> int:
        return self._emit("silu_combine", "d_std", (self._emit("exp", "d_exp", (a,)), a))

    # ----------------------------------------------------- control features
    def seq_point(self, xs: Sequence[int]) -> None:
        # The barrier's preds are exactly the members, not the last barrier.
        self._barrier = None
        self._barrier = self._emit("barrier", None, tuple(xs))

    def guard_small(self, a: int) -> bool:
        # Structure only: always the general branch.
        return False


def _outputs(obj: Any) -> list[int]:
    """Every node id in ``obj``, in nesting order."""
    if isinstance(obj, int):
        return [obj]
    if isinstance(obj, SsmDiscrete):
        obj = (obj.a_bar, obj.b_bar, obj.c_bar, obj.delta)
    if isinstance(obj, (list, tuple)):
        return [v for item in obj for v in _outputs(item)]
    return []


def trace_run(fn: Callable[[TracedScalars], Any]) -> CostTrace:
    """Run ``fn`` under a fresh tracing context and return its trace, with
    every node id in the function's result marked as an output."""
    return _run(TracedScalars(), fn)


def _run(ctx: TracedScalars, fn: Callable[[TracedScalars], Any]) -> CostTrace:
    # The context ends here, so its own trace is marked, not a copy.
    ctx._trace.outputs = tuple(_outputs(fn(ctx)))
    return ctx._trace


def _model_context() -> TracedScalars:
    """A tracing context whose trace interns into ``_MODEL_TABLE``: only
    the model's own components are traced this way, so the shared table
    holds their frontier algebra and nothing a caller's function adds."""
    ctx = TracedScalars()
    ctx._trace._table = _MODEL_TABLE
    return ctx


class _FrontScalars(TracedScalars):
    """Runs the model on frontier indices into ``_MODEL_TABLE``: a value is
    the index of the frontier of path sums ending at it, and no per-node
    state is kept.

    Each operation is one lookup in a step memo of the context's own, on
    ``(cost, *predecessor frontiers, barrier)`` as given, the barrier
    ``None`` outside a stage.  The hot operations (``mul``, ``iter_add``,
    ...) build that key themselves; the composite schedules and the rarer
    events go through :meth:`_emit`.  A miss drops a ``None`` barrier and
    folds the key into the shared table's step, so the table sees the keys
    a trace of the same component gives it.  A leaf's frontier is the
    barrier's, or the origin outside a stage: it is stepped once when the
    context starts and once per :meth:`seq_point`, so a leaf needs no
    lookup and the table still sees the step of a traced leaf.  The memo
    lives as long as the context."""

    def __init__(self) -> None:
        self._barrier: int | None = None
        self._steps: dict[tuple[str | None | int, ...], int] = {}
        self._leaf = _MODEL_TABLE.step((None,))

    def _miss(self, key: tuple[str | None | int, ...]) -> int:
        table_key = key if key[-1] is not None else key[:-1]
        f = self._steps[key] = _MODEL_TABLE.step(tuple(dict.fromkeys(table_key)))
        return f

    def _emit(self, label: str, cost: str | None, preds: tuple[int, ...]) -> int:
        key = (cost, *preds, self._barrier)
        f = self._steps.get(key)
        return self._miss(key) if f is None else f

    def input(self, q: Any) -> int:
        return self._leaf

    const = reinject = input

    def const_mul(self, a: int, b: int) -> int:
        key = (None, a, b, self._barrier)
        f = self._steps.get(key)
        return self._miss(key) if f is None else f

    def mul(self, a: int, b: int) -> int:
        key = ("d_std", a, b, self._barrier)
        f = self._steps.get(key)
        return self._miss(key) if f is None else f

    add = div = mul

    def index(self, a: int) -> int:
        key = ("d_std", a, self._barrier)
        f = self._steps.get(key)
        return self._miss(key) if f is None else f

    floor = index

    def iter_add(self, xs: Sequence[int]) -> int:
        key = ("d_oplus", *xs, self._barrier)
        f = self._steps.get(key)
        return self._miss(key) if f is None else f

    def iter_mul(self, xs: Sequence[int]) -> int:
        key = ("d_otimes", *xs, self._barrier)
        f = self._steps.get(key)
        return self._miss(key) if f is None else f

    def seq_point(self, xs: Sequence[int]) -> None:
        super().seq_point(xs)
        self._leaf = _MODEL_TABLE.step((None, self._barrier))


# ----------------------------------------------------- component instances


def _leaves(ctx: ScalarContext, *dims: int) -> Any:
    """A ``dims``-shaped nesting of fresh input leaves, emitted row-major;
    no dims gives one leaf.  The tracer ignores values, so every leaf is 0."""
    if not dims:
        return ctx.input(0)
    return [_leaves(ctx, *dims[1:]) for _ in range(dims[0])]


def _params(ctx: ScalarContext, shape: ShapeConfig) -> MambaParams:
    return wrap_params(ctx, MambaParams.build(shape, lambda name, count: [0] * count))


def _disc_leaves(ctx: ScalarContext, shape: ShapeConfig) -> SsmDiscrete:
    n, E = shape.d_state, shape.d_inner
    return SsmDiscrete(_leaves(ctx, n), _leaves(ctx, n, E), _leaves(ctx, E, n), _leaves(ctx))


def _components() -> dict[str, tuple[Callable[..., Any], str | None, str | None]]:
    def scalar(fn_name):
        def run(ctx: TracedScalars, shape: ShapeConfig):
            return getattr(ctx, fn_name)(_leaves(ctx))

        return run

    def b_input_projection(ctx, shape):
        L, D, E = shape.seq_len, shape.d_model, shape.d_inner
        return input_projection(ctx, _leaves(ctx, L, D), _leaves(ctx, D, E), _leaves(ctx, E))

    def b_conv1d(ctx, shape):
        L, E, K = shape.seq_len, shape.d_inner, shape.kernel_size
        return conv1d(ctx, _leaves(ctx, L, E), _leaves(ctx, K, E, E))

    def b_select(ctx, shape):
        pw = _params(ctx, shape)
        x = _leaves(ctx, shape.seq_len, shape.d_inner)
        return select_params(
            ctx, x, pw.w_b, pw.p_b, pw.w_c, pw.p_c, pw.w_delta, pw.p_delta, pw.w_delta_scalar
        )

    def b_discretize(ctx, shape):
        d = _disc_leaves(ctx, shape)
        return discretize(ctx, d.a_bar, d.b_bar, d.c_bar, d.delta)

    def b_hidden(ctx, shape):
        disc = _disc_leaves(ctx, shape)
        return hidden_recurrence(ctx, disc, _leaves(ctx, shape.seq_len, shape.d_inner))

    def b_recurrent(ctx, shape):
        disc = _disc_leaves(ctx, shape)
        return ssm_recurrent(ctx, disc, _leaves(ctx, shape.seq_len, shape.d_inner))

    def b_kernel(ctx, shape):
        return conv_kernel(ctx, _disc_leaves(ctx, shape), shape.seq_len)

    def b_convolution(ctx, shape):
        E, L = shape.d_inner, shape.seq_len
        return ssm_convolution(ctx, _leaves(ctx, E, E, L), _leaves(ctx, L, E))

    # A route builder takes the forms to trace and returns one result per
    # form, each route after the shared prefix.
    def b_ssm(ctx, shape, forms):
        pw = _params(ctx, shape)
        return ssm_select(ctx, pw, _leaves(ctx, shape.seq_len, shape.d_inner), forms)

    def b_mamba(ctx, shape, forms):
        pw = _params(ctx, shape)
        return mamba_forward(ctx, pw, _leaves(ctx, shape.seq_len, shape.d_model), forms)

    # Each component's builder, the form it reads of a route builder (None
    # for a plain one), and the registry formula it is checked against, or
    # None.  The registered ones come in registry order, the order
    # COMPONENT_REGISTRY_KEYS keeps.
    return {
        "log": (scalar("log"), None, "d_log"),
        "softplus": (scalar("softplus"), None, "d_sp"),
        "silu": (scalar("silu"), None, None),
        "sigmoid": (scalar("sigmoid"), None, None),
        "exp": (scalar("exp"), None, None),
        "sqrt": (scalar("sqrt"), None, None),
        "discretize": (b_discretize, None, "d_disc"),
        "hidden_recurrence": (b_hidden, None, "d_h"),
        "conv_kernel": (b_kernel, None, "d_k"),
        "input_projection": (b_input_projection, None, None),
        "conv1d": (b_conv1d, None, "d_1dconv"),
        "select_params": (b_select, None, "d_select"),
        "ssm_recurrent": (b_recurrent, None, "d_recur"),
        "ssm_convolution": (b_convolution, None, "d_conv"),
        "ssm_select_recurrent": (b_ssm, "recurrent", "d_SSM"),
        "ssm_select_convolution": (b_ssm, "convolution", None),
        "mamba_forward_recurrent": (b_mamba, "recurrent", None),
        "mamba_forward_convolution": (b_mamba, "convolution", None),
    }


_COMPONENTS = _components()

#: Which registry formula each traceable component is checked against.
COMPONENT_REGISTRY_KEYS: Mapping[str, str] = MappingProxyType(
    {name: key for name, (_, _, key) in _COMPONENTS.items() if key is not None}
)


def component_names() -> tuple[str, ...]:
    return tuple(_COMPONENTS)


def trace_component(name: str, shape: ShapeConfig) -> CostTrace:
    """Trace one component at one shape; a route is traced alone."""
    try:
        build, form, _ = _COMPONENTS[name]
    except KeyError:
        raise ValueError(f"unknown component {name!r}") from None
    if form is None:
        return _run(_model_context(), lambda ctx: build(ctx, shape))
    return _run(_model_context(), lambda ctx: build(ctx, shape, (form,))[0])


def _shape_depths(shape: ShapeConfig) -> dict[str, DepthExpr]:
    """Every component's critical depth at ``shape``, the Pareto maxima of
    its outputs' frontiers.  Each builder runs once on fresh
    :class:`_FrontScalars`; a route builder runs with every form read of
    it."""

    def depth(result: Any) -> DepthExpr:
        return _unique(_MODEL_TABLE.maxima_of(dict.fromkeys(_outputs(result))))

    depths = {}
    routes: dict[Callable[..., Any], dict[str, str]] = {}
    for name, (build, form, _) in _COMPONENTS.items():
        if form is None:
            depths[name] = depth(build(_FrontScalars(), shape))
        else:
            routes.setdefault(build, {})[name] = form
    for build, forms in routes.items():
        for name, result in zip(forms, build(_FrontScalars(), shape, tuple(forms.values()))):
            depths[name] = depth(result)
    return depths


def default_shape_grid() -> list[ShapeConfig]:
    """The constant-depth verification grid: L in {1,2,4,8}, D, E, n in
    {1,2,3}, window min(2, L)."""
    return [
        ShapeConfig(L, D, E, n, min(2, L))
        for L in (1, 2, 4, 8)
        for D in (1, 2, 3)
        for E in (1, 2, 3)
        for n in (1, 2, 3)
    ]


def depth_report(
    shapes: Sequence[ShapeConfig] | None = None,
    assignment: Mapping[str, int] | None = None,
) -> dict:
    """Run every component over a shape grid and check the formulas.

    The model runs on frontier indices, not node ids, so no trace is kept.
    Each route pair runs once per shape: the prefix up to the
    discretization runs once and both routes follow from its last stage
    barrier, which no route replaces.  Every component's depth is read at
    its own outputs, as the Pareto maxima of their frontiers;
    :func:`trace_component` gives the same depth.  An empty grid raises
    ``ValueError`` before any work.

    The report lists, per component: the symbolic depth at the first shape,
    its numeric value under the weight assignment, whether the depth was
    identical across every shape (``identical_across_shapes``: the
    constant-depth property, which callers check), and the verdict against
    the component's registry formula.  The end-to-end block is dual-checked
    against the literal formula and the recomputed compositional one.
    """
    weights = resolve_assignment(assignment)
    grid = list(shapes) if shapes is not None else default_shape_grid()
    if not grid:
        raise ValueError("shapes is empty: name at least one shape")
    registry = formula_registry()
    report: dict[str, Any] = {
        "shapes": [s.to_json_dict() for s in grid],
        "assignment": weights,
        "components": {},
    }
    per_shape = [_shape_depths(shape) for shape in grid]
    for name, (_, _, key) in _COMPONENTS.items():
        depths = [d[name] for d in per_shape]
        identical = all(d == depths[0] for d in depths)
        entry: dict[str, Any] = {
            "depth": depths[0].as_dict(),
            "depth_str": str(depths[0]),
            "numeric_depth": depths[0].evaluate(weights),
            "identical_across_shapes": identical,
            "shapes_checked": len(grid),
        }
        if key is not None:
            formula = registry[key]
            entry["registry_formula"] = key
            entry["matches_registry_exactly"] = depths[0] == formula
            entry["check"] = check_depth(depths[0], formula).to_json_dict()
        report["components"][name] = entry
    traced_mamba = per_shape[0]["mamba_forward_recurrent"]
    report["mamba"] = {
        "traced": traced_mamba.as_dict(),
        "traced_str": str(traced_mamba),
        "headline": {
            "formula": registry["d_mamba"].as_dict(),
            **check_depth(traced_mamba, registry["d_mamba"]).to_json_dict(),
        },
        "compositional": {
            "formula": registry["d_mamba_compositional"].as_dict(),
            **check_depth(traced_mamba, registry["d_mamba_compositional"]).to_json_dict(),
        },
    }
    return report
