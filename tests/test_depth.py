"""Tests for the symbolic depth calculus.

Formula coefficients asserted here come from the registry's defining
linear combinations; expansions are re-derived independently with plain
dict arithmetic so a registry typo cannot vouch for itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tracemalloc
from fractions import Fraction
from operator import le

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artifact import elementary, floats
from artifact import depth as depth_mod
from artifact.cli import main
from artifact.depth import (
    BASE_CONSTANTS,
    COMPONENT_REGISTRY_KEYS,
    CostTrace,
    CycleDetected,
    DEFAULT_ASSIGNMENT,
    DepthExpr,
    TraceNode,
    TracedScalars,
    Verdict,
    _MODEL_TABLE,
    _FrontierTable,
    _FrontScalars,
    _maxima,
    _shape_depths,
    check_depth,
    component_names,
    critical_depth,
    default_shape_grid,
    depth_report,
    formula_registry,
    trace_component,
    trace_run,
)
from artifact.mamba import (
    ShapeConfig,
    discretize,
    mamba_forward,
    random_input,
    random_params,
    wrap_params,
    wrap_values,
)

F = Fraction


def expr(**kw) -> DepthExpr:
    return DepthExpr.of(kw)


class TestDepthExpr:
    def test_algebra(self):
        a = expr(d_std=2, d_oplus=1)
        b = expr(d_std=1, d_exp=1)
        assert a + b == expr(d_std=3, d_oplus=1, d_exp=1)
        assert 3 * b == expr(d_std=3, d_exp=3)
        assert 0 * a == DepthExpr.zero()
        assert a + DepthExpr.zero() == a

    def test_partial_order(self):
        small = expr(d_std=1)
        big = expr(d_std=2, d_oplus=1)
        assert small <= big and not big <= small
        left = expr(d_std=2)
        right = expr(d_oplus=2)
        assert not left <= right and not right <= left
        assert big.minus(small) == expr(d_std=1, d_oplus=1)
        with pytest.raises(ValueError):
            small.minus(big)

    def test_validation(self):
        with pytest.raises(ValueError):
            expr(d_weird=1)
        with pytest.raises(ValueError):
            DepthExpr((-1, 0, 0, 0, 0, 0))

    def test_numeric_evaluation_default_weights(self):
        # All weights 1 except broadcast, which is wiring (weight 0).
        e = expr(d_std=2, d_oplus=1, d_dup=5)
        assert e.evaluate() == 3
        assert e.evaluate({"d_dup": 2, "d_std": 10}) == 31

    def test_negative_weights_refused(self):
        """The library refuses negative weights itself, before any tracing."""
        with pytest.raises(ValueError, match="nonnegative: d_std=-1"):
            depth_report(shapes=[ShapeConfig(1, 1, 1, 1, 1)], assignment={"d_std": -1})
        with pytest.raises(ValueError, match="nonnegative"):
            expr(d_std=1).evaluate({"d_dup": -2})

    def test_composite_constants_expand(self):
        reg = formula_registry()
        assert expr(d_log=1) == reg["d_log"]
        assert expr(d_sp=1, d_std=1) == reg["d_sp"] + expr(d_std=1)
        # Evaluation goes through expansion.
        assert expr(d_log=1).evaluate() == reg["d_log"].evaluate()

    def test_str_is_readable(self):
        assert str(expr(d_std=2, d_oplus=1)) == "2*d_std + d_oplus"
        assert str(DepthExpr.zero()) == "0"


class TestRegistry:
    def test_pinned_formulas(self):
        reg = formula_registry()
        assert reg["d_h"] == expr(d_std=2, d_oplus=1)
        assert reg["d_conv"] == expr(d_std=1, d_oplus=2)
        assert reg["d_log"] == expr(d_std=3, d_oplus=2, d_otimes=2)
        assert reg["d_k"] == expr(d_otimes=1, d_std=2, d_oplus=2)
        assert reg["d_1dconv"] == expr(d_std=2, d_oplus=2)
        assert reg["d_disc"] == expr(d_std=5, d_exp=2, d_oplus=1)

    def test_softplus_expansion_independent(self):
        # d_sp = d_exp + d_std + d_log, expanded by plain dict arithmetic.
        reg = formula_registry()
        log_c = reg["d_log"].as_dict()
        manual = {"d_exp": 1, "d_std": 1 + log_c["d_std"]}
        manual["d_oplus"] = log_c["d_oplus"]
        manual["d_otimes"] = log_c["d_otimes"]
        assert reg["d_sp"].as_dict() == manual
        assert manual == {"d_exp": 1, "d_std": 4, "d_oplus": 2, "d_otimes": 2}

    def test_ssm_self_consistency(self):
        reg = formula_registry()
        resum = {}
        for part in ("d_select", "d_disc", "d_recur"):
            for k, v in reg[part].as_dict().items():
                resum[k] = resum.get(k, 0) + v
        assert reg["d_SSM"].as_dict() == resum

    def test_select_and_recur_compositions(self):
        reg = formula_registry()
        assert reg["d_select"] == expr(d_std=2, d_oplus=1, d_dup=1) + reg["d_sp"]
        assert reg["d_recur"] == reg["d_h"] + expr(d_std=1, d_oplus=1)

    def test_mamba_formulas(self):
        reg = formula_registry()
        literal = reg["d_1dconv"] + expr(d_exp=1) + reg["d_select"] + expr(d_std=4, d_oplus=1)
        assert reg["d_mamba"] == literal
        comp = (
            2 * expr(d_std=1, d_oplus=1)
            + reg["d_1dconv"]
            + 2 * expr(d_exp=1, d_std=1)
            + reg["d_SSM"]
            + expr(d_std=1)
        )
        assert reg["d_mamba_compositional"] == comp


class TestCostTrace:
    def test_single_add_event(self):
        def run(ctx):
            return ctx.add(ctx.input(F(1)), ctx.input(F(2)))

        trace = trace_run(run)
        assert trace.size == 1
        assert critical_depth(trace) == expr(d_std=1)

    def test_wide_iter_add_is_one_level(self):
        def run(ctx):
            return ctx.iter_add([ctx.input(F(i + 1, 64)) for i in range(100)])

        trace = trace_run(run)
        assert trace.size == 1
        assert trace.critical_depth() == expr(d_oplus=1)

    def test_chain_and_parallel(self):
        def chain(ctx):
            v = ctx.input(F(1))
            for _ in range(3):
                v = ctx.add(v, v)
            return v

        assert trace_run(chain).critical_depth() == expr(d_std=3)

        def parallel(ctx):
            return [
                ctx.mul(ctx.input(F(1, 2)), ctx.input(F(1, 4))),
                ctx.mul(ctx.input(F(3, 4)), ctx.input(F(1, 8))),
            ]

        assert trace_run(parallel).critical_depth() == expr(d_std=1)

    def test_matmul_critical_path(self):
        """Products in parallel, one aggregation per entry: d_std+d_oplus."""

        def run(ctx):
            a = [[ctx.input(F(i + j + 1, 8)) for j in range(4)] for i in range(4)]
            b = [[ctx.input(F(i + 2 * j + 1, 8)) for j in range(4)] for i in range(4)]
            return [
                [
                    ctx.iter_add([ctx.mul(a[i][k], b[k][j]) for k in range(4)])
                    for j in range(4)
                ]
                for i in range(4)
            ]

        trace = trace_run(run)
        assert trace.critical_depth() == expr(d_std=1, d_oplus=1)
        assert trace.size == 4 * 4 * 4 + 16

    def test_outputs_marked(self):
        def run(ctx):
            return ctx.mul(ctx.input(F(1, 2)), ctx.input(F(1, 2)))

        trace = trace_run(run)
        assert len(trace.outputs) == 1
        assert trace.nodes[trace.outputs[0]].cost == "d_std"

    def test_cycle_detection(self):
        nodes = [
            TraceNode(0, "input", None, ()),
            TraceNode(1, "add", "d_std", (0, 2)),
            TraceNode(2, "add", "d_std", (0,)),
        ]
        with pytest.raises(CycleDetected):
            CostTrace(nodes)

    def test_append_checks_ids_preds_and_costs(self):
        trace = CostTrace()
        trace.append(TraceNode(0, "input", None, ()))
        with pytest.raises(ValueError, match="dense"):
            trace.append(TraceNode(2, "add", "d_std", (0,)))
        with pytest.raises(CycleDetected):
            trace.append(TraceNode(1, "add", "d_std", (0, 1)))
        with pytest.raises(ValueError, match="negative"):
            trace.append(TraceNode(1, "add", "d_std", (-1,)))
        with pytest.raises(ValueError, match="unknown event cost"):
            trace.append(TraceNode(1, "add", "d_bogus", (0,)))
        trace.append(TraceNode(1, "exp", "d_exp", (0,)))
        assert len(trace) == 2 and trace.critical_depth() == expr(d_exp=1)

    def test_tracer_checks_preds_and_costs(self):
        """The tracer's nodes pass the checks of ``append``; an unknown cost
        raises each time, even when its step key has been met before.  A
        refused node does not enter the trace."""

        def run(ctx):
            a = ctx.input(F(1))
            for later in (a + 1, a + 5):  # the node's own id, and a later one
                with pytest.raises(CycleDetected):
                    ctx.add(a, later)
            with pytest.raises(ValueError, match="negative"):
                ctx.add(a, -1)
            for _ in range(2):
                with pytest.raises(ValueError, match="unknown event cost"):
                    ctx._emit("bogus", "d_bogus", (a,))
            return ctx.exp(a)

        trace = trace_run(run)
        assert [n.label for n in trace.nodes] == ["input", "exp"]
        assert trace.critical_depth() == expr(d_exp=1)

    def test_monotone_under_added_dependency(self):
        """Serializing two events never decreases the critical depth."""
        base = CostTrace(
            [
                TraceNode(0, "input", None, ()),
                TraceNode(1, "exp", "d_exp", (0,)),
                TraceNode(2, "iter_add", "d_oplus", (0,)),
            ]
        )
        serial = CostTrace(
            [
                TraceNode(0, "input", None, ()),
                TraceNode(1, "exp", "d_exp", (0,)),
                TraceNode(2, "iter_add", "d_oplus", (0, 1)),
            ]
        )
        for e in base.critical_frontier():
            assert any(e <= f for f in serial.critical_frontier())
        assert serial.critical_depth() == expr(d_exp=1, d_oplus=1)

    def test_incomparable_frontier_is_reported(self):
        """The message names the critical frontier in the order its sums
        first appear among the nodes' frontiers: the add after the
        iter_mul comes before the sqrt after the exp."""
        trace = CostTrace(
            [
                TraceNode(0, "input", None, ()),
                TraceNode(1, "exp", "d_exp", (0,)),
                TraceNode(2, "iter_mul", "d_otimes", (0,)),
                TraceNode(3, "add", "d_std", (2,)),
                TraceNode(4, "sqrt", "d_sqrt", (1,)),
            ]
        )
        message = "critical depth is not unique: d_std + d_otimes, d_exp + d_sqrt"
        assert trace.critical_frontier() == (
            expr(d_std=1, d_otimes=1),
            expr(d_exp=1, d_sqrt=1),
        )
        for read in (trace.critical_depth, lambda: critical_depth(trace)):
            with pytest.raises(ValueError) as err:
                read()
            assert str(err.value) == message

    def test_barrier_serializes_stages(self):
        def run(ctx):
            a = ctx.mul(ctx.input(F(1, 2)), ctx.input(F(1, 2)))
            ctx.seq_point([a])
            # Data-independent of `a`, but in the next stage.
            return ctx.mul(ctx.input(F(3, 4)), ctx.input(F(3, 4)))

        assert trace_run(run).critical_depth() == expr(d_std=2)


def _pareto(sums: set[DepthExpr]) -> set[DepthExpr]:
    return {e for e in sums if not any(e != f and e <= f for f in sums)}


def _brute_force_frontiers(nodes):
    """Every path sum into each node (a path may start at any node, so zero
    is always among them), cut to the Pareto maxima by coefficient; and the
    maxima over every path sum in the DAG."""
    sums: list[set[DepthExpr]] = []
    for node in nodes:
        into = {DepthExpr.zero()}.union(*(sums[q] for q in node.preds))
        step = DepthExpr.single(node.cost) if node.cost else DepthExpr.zero()
        sums.append({e + step for e in into})
    return [_pareto(s) for s in sums], _pareto({DepthExpr.zero()}.union(*sums))


@st.composite
def _dags(draw):
    """Up to 12 nodes with random costs (``None`` included) and random,
    possibly repeated, earlier predecessors."""
    nodes = []
    for i in range(draw(st.integers(1, 12))):
        cost = draw(st.sampled_from((*BASE_CONSTANTS, None)))
        preds = draw(st.lists(st.integers(0, i - 1), max_size=4)) if i else []
        nodes.append(TraceNode(i, "n", cost, tuple(preds)))
    return nodes


# Node 4 merges two incomparable sums; node 6 merges them, bumped, with a third.
_INCOMPARABLE = [
    TraceNode(0, "n", None, ()),
    TraceNode(1, "n", "d_exp", (0,)),
    TraceNode(2, "n", "d_otimes", (0,)),
    TraceNode(3, "n", "d_sqrt", ()),
    TraceNode(4, "n", None, (1, 2, 1)),
    TraceNode(5, "n", "d_std", (4,)),
    TraceNode(6, "n", "d_oplus", (5, 3, 4)),
]


def _frontiers_without_memo(nodes) -> list[tuple[tuple[int, ...], ...]]:
    """Each node's frontier straight from its predecessors' frontiers, on
    bare vectors and with no memo: zero for a source, else the Pareto
    maxima of their entries in first-occurrence order; then one step of
    the node's cost."""
    fronts: list[tuple[tuple[int, ...], ...]] = []
    for node in nodes:
        sums = list(dict.fromkeys(s for q in node.preds for s in fronts[q]))
        sums = sums or [(0,) * len(BASE_CONSTANTS)]
        front = [s for s in sums if not any(s != t and all(map(le, s, t)) for t in sums)]
        if node.cost is not None:
            k = BASE_CONSTANTS.index(node.cost)
            front = [(*s[:k], s[k] + 1, *s[k + 1:]) for s in front]
        fronts.append(tuple(front))
    return fronts


class TestTracedNodes:
    """The frontiers the tracer computes through the frontier table's memo
    equal those of the same nodes rebuilt through the public ``CostTrace``,
    and those of a memo-free recomputation, for every component."""

    SHAPES = [ShapeConfig(3, 2, 3, 2, 2), ShapeConfig(16, 2, 2, 2, 2), ShapeConfig(32, 2, 1, 3, 2)]

    @pytest.mark.parametrize("name", component_names())
    def test_rebuilt_trace_agrees(self, name):
        for shape in self.SHAPES:
            traced = trace_component(name, shape)
            rebuilt = CostTrace(traced.nodes, traced.outputs)
            assert rebuilt.nodes == traced.nodes and rebuilt.outputs == traced.outputs
            assert rebuilt.depth_frontiers() == traced.depth_frontiers()
            assert rebuilt.critical_frontier() == traced.critical_frontier()
            want = _frontiers_without_memo(traced.nodes)
            assert [tuple(e.coeffs for e in f) for f in traced.depth_frontiers()] == want
            assert set(traced.critical_frontier()) == _pareto(
                {DepthExpr(s) for f in want for s in f}
            )

    def test_nodes_are_plain_tuples(self):
        nodes = trace_component("log", self.SHAPES[0]).nodes
        assert nodes[0] == (0, "input", None, ()) and isinstance(nodes[0], TraceNode)
        assert [n.id for n in nodes] == list(range(len(nodes)))


class TestPredecessorFolding:
    """The tracer hands repeated predecessors to the trace as they come, and
    the trace folds them once, as each node enters: every node read back
    names each predecessor once, in first-occurrence order.  The tracer's
    own repeats are checked in ``TestStructureOnlyTracer``, and the
    round trip through ``CostTrace(trace.nodes, trace.outputs)`` in
    ``TestTracedNodes``."""

    def test_appended_repeats_read_back_once(self):
        trace = CostTrace([TraceNode(0, "input", None, ()), TraceNode(1, "add", "d_std", (0, 0))])
        assert trace.nodes[1].preds == (0,)
        assert trace.critical_depth() == expr(d_std=1)

    def test_reads_return_the_stored_rows(self):
        """``nodes`` builds no rows: two reads give the same row objects."""
        trace = trace_component("log", ShapeConfig(3, 2, 3, 2, 2))
        first, second = trace.nodes, trace.nodes
        assert len(first) == len(second) > 1
        assert all(a is b for a, b in zip(first, second))

    def test_long_shape_counts(self):
        """Node and distinct-edge counts at the widest barrier fan-in the
        benchmark traces."""
        nodes = trace_component("mamba_forward_convolution", ShapeConfig(32, 2, 2, 2, 2)).nodes
        assert len(nodes) == 6808
        assert sum(len(n.preds) for n in nodes) == 18348


_VECTORS = st.tuples(*[st.integers(0, 2)] * len(BASE_CONSTANTS))


@st.composite
def _sum_lists(draw):
    """Path sums drawn from a small pool, so lists repeat entries; small
    coordinates give both dominated and incomparable pairs."""
    pool = draw(st.lists(_VECTORS, min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), max_size=12))


class TestMaxima:
    """``_maxima`` against the brute-force ``_pareto`` on bare vectors."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(_sum_lists())
    @example([])
    @example([(0,) * 6, (0,) * 6])
    @example([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)])
    @example([(0, 0, 1, 0, 0, 0), (1, 0, 1, 0, 0, 0), (0, 0, 1, 0, 0, 0)])
    def test_matches_brute_force(self, sums):
        got = _maxima(sums)
        assert len(got) == len(set(got))
        assert {DepthExpr(s) for s in got} == _pareto({DepthExpr(s) for s in sums})
        kept = set(got)
        assert list(got) == [s for s in dict.fromkeys(sums) if s in kept]


class TestFrontierOracle:
    """The per-node and critical frontiers agree with brute force on random
    DAGs, including frontiers with several incomparable entries, which real
    traces never have."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(_dags())
    @example(_INCOMPARABLE)
    def test_frontiers_match_brute_force(self, nodes):
        trace = CostTrace(nodes)
        fronts, critical = _brute_force_frontiers(nodes)
        for got, want in zip(trace.depth_frontiers(), fronts, strict=True):
            assert len(got) == len(set(got)) and set(got) == want
        got = trace.critical_frontier()
        assert len(got) == len(set(got)) and set(got) == critical
        if len(critical) == 1:
            assert trace.critical_depth() in critical
        else:
            with pytest.raises(ValueError, match="not unique"):
                trace.critical_depth()

    def test_example_has_incomparable_frontiers(self):
        fronts, critical = _brute_force_frontiers(_INCOMPARABLE)
        assert [len(f) for f in fronts] == [1, 1, 1, 1, 2, 2, 3]
        assert len(critical) == 3


class TestCheckDepth:
    def test_within_including_equality(self):
        r = check_depth(expr(d_std=2), expr(d_std=2, d_oplus=1))
        assert r.verdict is Verdict.WITHIN_BOUND and r.excess is None
        assert check_depth(expr(d_std=2), expr(d_std=2)).verdict is Verdict.WITHIN_BOUND

    def test_exceeds_with_difference(self):
        r = check_depth(expr(d_std=3), expr(d_std=2))
        assert r.verdict is Verdict.EXCEEDS
        assert r.excess == expr(d_std=1)

    def test_not_comparable(self):
        r = check_depth(expr(d_std=1), expr(d_oplus=1))
        assert r.verdict is Verdict.NOT_COMPARABLE and r.excess is None

    def test_composites_compared_after_expansion(self):
        reg = formula_registry()
        assert check_depth(reg["d_log"], expr(d_log=1)).verdict is Verdict.WITHIN_BOUND


class TestStructureOnlyTracer:
    """The tracer records structure: no values, no precision, one barrier
    node per stage."""

    def test_small_rows_trace_the_general_branch(self):
        """|delta * a| = 2^-10 is below the p=16 guard threshold 2^-8, yet
        the row is traced on the full discretization schedule."""

        def run(ctx):
            a = [ctx.input(F(-1, 1 << 9))]
            b = [[ctx.input(F(1, 2)), ctx.input(F(3, 4))]]
            c = [[ctx.input(F(1, 2))], [ctx.input(F(1, 4))]]
            return discretize(ctx, a, b, c, ctx.input(F(1, 2)))

        assert trace_run(run).critical_depth() == formula_registry()["d_disc"]

    def test_one_barrier_node_per_stage(self, monkeypatch):
        added = []
        seq_point = TracedScalars.seq_point

        def recording(ctx, xs):
            before = len(ctx._trace)
            seq_point(ctx, xs)
            added.append((list(xs), before, len(ctx._trace)))

        monkeypatch.setattr(TracedScalars, "seq_point", recording)
        trace = trace_component("mamba_forward_convolution", ShapeConfig(4, 2, 2, 2, 2))
        assert added
        for members, before, after in added:
            new = trace.nodes[before:after]
            assert [(n.label, n.cost) for n in new] == [("barrier", None)]
            # Exactly the members: the barrier replaces, not chains, the last one.
            assert new[0].preds == tuple(dict.fromkeys(members))
        barriers = {n.id for n in trace.nodes if n.label == "barrier"}
        assert len(barriers) == len(added)
        assert all(sum(q in barriers for q in n.preds) <= 1 for n in trace.nodes)

    def test_preds_are_distinct_in_first_occurrence_order(self):
        a, b, barrier = 0, 1, 4

        def run(ctx):
            assert (ctx.input(F(1)), ctx.input(F(2))) == (a, b)
            ctx.mul(a, a)
            ctx.iter_add([b, a, b, a])
            ctx.seq_point([a, b, a])
            ctx.add(b, b)
            ctx.iter_mul([5, a, 5])
            ctx.iter_mul([a, a, a])
            ctx.add(a, barrier)  # names the barrier that every event also takes

        assert [n.preds for n in trace_run(run).nodes[2:]] == [
            (a,), (b, a), (a, b), (b, barrier), (5, a, barrier), (a, barrier), (a, barrier)
        ]

    def test_tracing_does_no_arithmetic(self, monkeypatch):
        shape = ShapeConfig(2, 2, 2, 2, 2)
        want = trace_component("mamba_forward_convolution", shape)

        def refuse(*args):
            raise AssertionError("the tracer rounded a value")

        # The rounding kernel, at the binding each of its callers reads.
        for module in (floats, elementary):
            monkeypatch.setattr(module, "_round", refuse)
        got = trace_component("mamba_forward_convolution", shape)
        assert got.nodes == want.nodes and got.outputs == want.outputs

    @pytest.mark.parametrize("form", ["recurrent", "convolution"])
    @pytest.mark.parametrize("dims", [(3, 2, 3, 2, 2), (4, 3, 2, 3, 3)])
    def test_trace_depends_on_the_shape_alone(self, form, dims):
        """Random signed parameters and inputs give the trace that
        ``trace_component`` builds from the shape alone: the premise that
        lets the component builders emit value-free leaves."""
        shape = ShapeConfig(*dims)
        want = trace_component(f"mamba_forward_{form}", shape)
        for seed in (0, 1):
            got = trace_run(
                lambda ctx: mamba_forward(
                    ctx,
                    wrap_params(ctx, random_params(shape, seed)),
                    wrap_values(ctx, random_input(shape, seed)),
                    (form,),
                )
            )
            assert [(n.id, n.label, n.cost, n.preds) for n in got.nodes] == [
                (n.id, n.label, n.cost, n.preds) for n in want.nodes
            ]
            assert got.outputs == want.outputs


class TestComponentTraces:
    SHAPES = [
        ShapeConfig(1, 1, 1, 1, 1),
        ShapeConfig(4, 2, 3, 2, 2),
        ShapeConfig(8, 3, 2, 3, 2),
    ]

    def test_registry_equality_per_component(self):
        reg = formula_registry()
        for name, key in COMPONENT_REGISTRY_KEYS.items():
            for shape in self.SHAPES:
                depth = trace_component(name, shape).critical_depth()
                assert depth == reg[key], (name, shape)

    def test_unregistered_components_have_stable_depth(self):
        for name in ("silu", "sigmoid", "input_projection", "ssm_select_convolution"):
            depths = {trace_component(name, s).critical_depth() for s in self.SHAPES}
            assert len(depths) == 1
        assert trace_component("input_projection", self.SHAPES[0]).critical_depth() == expr(
            d_std=1, d_oplus=1
        )
        assert trace_component("silu", self.SHAPES[0]).critical_depth() == expr(
            d_std=1, d_exp=1
        )

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError):
            trace_component("attention", self.SHAPES[0])

    def test_mamba_dual_check(self):
        reg = formula_registry()
        traced = trace_component("mamba_forward_recurrent", self.SHAPES[1]).critical_depth()
        literal = check_depth(traced, reg["d_mamba"])
        comp = check_depth(traced, reg["d_mamba_compositional"])
        assert comp.verdict is Verdict.WITHIN_BOUND
        # The headline formula is reported, not asserted; it omits two
        # pipeline stages, so the reference schedule lands above it.
        assert literal.verdict in (Verdict.WITHIN_BOUND, Verdict.EXCEEDS, Verdict.NOT_COMPARABLE)

    def test_trace_size_grows_with_shape_but_depth_constant(self):
        small = trace_component("ssm_select_recurrent", ShapeConfig(2, 1, 1, 1, 1))
        large = trace_component("ssm_select_recurrent", ShapeConfig(8, 1, 3, 3, 2))
        assert large.size > small.size
        assert large.critical_depth() == small.critical_depth()


class TestDepthReport:
    def test_report_on_small_grid(self):
        grid = [ShapeConfig(L, D, 2, 2, min(2, L)) for L in (1, 4) for D in (1, 3)]
        report = depth_report(shapes=grid)
        assert set(report["components"]) == set(component_names())
        for entry in report["components"].values():
            assert entry["identical_across_shapes"]
            assert entry["shapes_checked"] == len(grid)
            if "registry_formula" in entry:
                assert entry["matches_registry_exactly"]
        assert report["mamba"]["compositional"]["verdict"] == "within_bound"
        assert "verdict" in report["mamba"]["headline"]

    def test_empty_grid_refused_before_any_work(self, monkeypatch):
        """An empty grid has no first shape to report: it is refused by
        name, and no component runs."""
        calls = []
        monkeypatch.setattr(depth_mod, "_shape_depths", calls.append)
        for shapes in ([], ()):
            with pytest.raises(ValueError, match="shapes is empty"):
                depth_report(shapes=shapes)
        assert calls == []

    def test_default_grid_covers_full_range(self):
        grid = default_shape_grid()
        assert {s.seq_len for s in grid} == {1, 2, 4, 8}
        assert {s.d_model for s in grid} == {1, 2, 3}
        assert {s.d_inner for s in grid} == {1, 2, 3}
        assert {s.d_state for s in grid} == {1, 2, 3}
        assert len(grid) == 4 * 27


class TestSharedRouteTraces:
    """``depth_report`` runs each route pair once per shape and reads every
    component at its own outputs.  Both rest on premises checked here: no
    route sets a stage barrier after the fork, so a route read off the
    shared trace has the depth of its own trace; and every deepest path of
    a component ends at one of its outputs."""

    SHAPES = TestComponentTraces.SHAPES + TestTracedNodes.SHAPES
    ROUTES = (
        "ssm_select_recurrent",
        "ssm_select_convolution",
        "mamba_forward_recurrent",
        "mamba_forward_convolution",
    )

    @pytest.mark.parametrize(
        "shape", SHAPES, ids=lambda s: ",".join(map(str, s.to_json_dict().values()))
    )
    def test_shared_route_depth_equals_separate_trace(self, shape):
        components = depth_report(shapes=[shape])["components"]
        for name in self.ROUTES:
            alone = trace_component(name, shape).critical_depth()
            assert DepthExpr.of(components[name]["depth"]) == alone, name

    @pytest.mark.parametrize("name", component_names())
    def test_frontier_at_outputs_is_the_critical_frontier(self, name):
        for shape in self.SHAPES:
            trace = trace_component(name, shape)
            assert set(_frontier_at_outputs(trace)) == set(trace.critical_frontier()), shape


def _frontier_at_outputs(trace: CostTrace) -> tuple[DepthExpr, ...]:
    """Pareto maxima of the path sums ending at the trace's outputs, read
    off its per-node frontiers."""
    fronts = trace.depth_frontiers()
    sums = _maxima(e.coeffs for o in trace.outputs for e in fronts[o])
    return tuple(map(DepthExpr, sums))


LONG_SHAPE = "128,4,8,8,4"


@pytest.fixture(scope="module")
def long_shape_run() -> tuple[int, str]:
    """Exit code and stdout of ``mamba depth --shape 128,4,8,8,4``, run
    once for the module: the stdout pin and the frontier-table check both
    read it, and each run takes about 4 s."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["mamba", "depth", "--shape", LONG_SHAPE])
    return code, out.getvalue()


class TestSharedFrontierTable:
    """The model's component traces intern into one frontier table, which
    the default grid fills and no longer shape grows.  Sharing changes no
    answer, each trace still reads only its own nodes' frontiers, and a
    trace of explicit nodes or of a caller's function has a table of its
    own."""

    SHAPES = [ShapeConfig(1, 1, 1, 1, 1), ShapeConfig(4, 2, 2, 2, 2), ShapeConfig(32, 2, 2, 2, 2)]

    @pytest.fixture(scope="class")
    def filled(self):
        depth_report()
        return _MODEL_TABLE

    @staticmethod
    def _sizes(table) -> tuple[int, int]:
        return len(table.frontiers), len(table.steps)

    def test_default_grid_bounds_the_table(self, filled):
        assert self._sizes(filled) == (110, 137)
        depth_report(shapes=[self.SHAPES[2]])
        for name in component_names():
            trace_component(name, self.SHAPES[2])
        assert self._sizes(filled) == (110, 137)

    @pytest.mark.parametrize("name", component_names())
    def test_private_table_agrees(self, filled, name):
        for shape in self.SHAPES:
            shared = trace_component(name, shape)
            private = CostTrace(shared.nodes, shared.outputs)
            assert shared._table is filled and private._table is not filled
            assert private.depth_frontiers() == shared.depth_frontiers()
            assert private.critical_frontier() == shared.critical_frontier()
            assert private.critical_depth() == shared.critical_depth()
            assert private.outputs == shared.outputs
            assert _frontier_at_outputs(private) == _frontier_at_outputs(shared)

    @pytest.mark.parametrize("name", component_names())
    def test_frontiers_without_memo_on_a_filled_table(self, filled, name):
        for shape in TestTracedNodes.SHAPES[:2]:
            trace = trace_component(name, shape)
            want = _frontiers_without_memo(trace.nodes)
            assert [tuple(e.coeffs for e in f) for f in trace.depth_frontiers()] == want

    def test_small_trace_reads_only_its_own_nodes(self, filled):
        deep = trace_component("mamba_forward_recurrent", self.SHAPES[1])
        small = trace_component("exp", self.SHAPES[1])
        assert small._table is deep._table is filled
        assert small.critical_frontier() == (expr(d_exp=1),)
        assert small.critical_depth() == expr(d_exp=1)
        assert small.depth_frontiers() == [(DepthExpr.zero(),), (expr(d_exp=1),)]

    def test_long_shape_adds_nothing_to_the_table(self, filled, long_shape_run):
        # The fixture's report at (128,4,8,8,4) has run by now, beside the
        # default grid's: the table holds no more than the grid's frontiers.
        assert long_shape_run[0] == 0
        assert self._sizes(filled) == (110, 137)

    def test_report_memory_on_a_filled_table(self, filled):
        """Run on frontier indices, one report at (32,2,2,2,2) peaks well
        under the 1.2 MB that keeping every node's row takes."""
        shapes = [self.SHAPES[2]]
        depth_report(shapes=shapes)
        tracemalloc.start()
        try:
            depth_report(shapes=shapes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20

    def test_traces_outside_the_model_keep_their_own_table(self, filled):
        sizes = self._sizes(filled)
        chain = CostTrace(
            TraceNode(i, "n", "d_std", (i - 1,) if i else ()) for i in range(1000)
        )
        assert chain.critical_depth() == expr(d_std=1000)
        assert len(chain._table.frontiers) == 1001
        run = trace_run(lambda ctx: [ctx.sqrt(ctx.sqrt(ctx.input(F(1))))])
        assert run._table is not filled and run.critical_depth() == expr(d_sqrt=2)
        assert CostTrace().critical_frontier() == (DepthExpr.zero(),)
        assert self._sizes(filled) == sizes


class TestFrontierOnlyTraces:
    """``depth_report`` reads its depths off a run that keeps frontiers
    only, on frontier indices with no rows.  Each component's depth there
    is the one maximum of the frontier that a trace keeping rows reads."""

    SHAPES = TestSharedFrontierTable.SHAPES

    @pytest.mark.parametrize(
        "shape", SHAPES, ids=lambda s: ",".join(map(str, s.to_json_dict().values()))
    )
    def test_same_frontiers_as_a_trace_with_rows(self, shape):
        depths = _shape_depths(shape)
        assert set(depths) == set(component_names())
        for name in component_names():
            full = trace_component(name, shape)
            assert (depths[name],) == full.critical_frontier(), name
            assert (depths[name],) == _frontier_at_outputs(full), name


class TestFrontierValuedReport:
    """``depth_report`` runs the model on frontier indices instead of
    tracing it; every component's depth there is its traced depth."""

    def test_depths_equal_traced_depths(self):
        for shape in default_shape_grid():
            depths = _shape_depths(shape)
            assert set(depths) == set(component_names()), shape
            for name in component_names():
                traced = trace_component(name, shape).critical_depth()
                assert depths[name] == traced, (name, shape)


class TestLeanFrontierOps:
    """``_FrontScalars`` builds the step key of each hot operation itself.
    Each such operation returns what ``_emit`` returns for the same event,
    and what the frontier table steps to on the key the row-keeping trace
    folds, outside a stage and under a barrier, with repeated predecessors
    and with the barrier among them.  Each test runs on a private table,
    so the shared one keeps the model's algebra only."""

    # The lean operations and how many operands each takes; "n" is a list.
    OPS = {
        "input": 0, "const": 0, "reinject": 1, "const_mul": 2, "add": 2, "mul": 2,
        "div": 2, "floor": 1, "index": 1, "iter_add": "n", "iter_mul": "n",
    }
    # The cost of the event each operation stands for.
    COSTS = {"input": None, "const": None, "reinject": None, "const_mul": None,
             "iter_add": "d_oplus", "iter_mul": "d_otimes"}

    @pytest.fixture
    def table(self, monkeypatch):
        table = _FrontierTable()
        monkeypatch.setattr(depth_mod, "_MODEL_TABLE", table)
        return table

    @staticmethod
    def _values(ctx) -> list[int]:
        """Distinct frontier indices: the origin, one event of each of three
        costs, and two events deep."""
        a = ctx.input(F(0))
        e = ctx.exp(a)
        return [a, e, ctx.sqrt(a), ctx.dup(e), ctx.sqrt(e)]

    def _cases(self, name, values, barrier):
        arity = self.OPS[name]
        pool = values + ([barrier] if barrier is not None else [])
        if arity == 0:
            return [(F(1),)]
        if arity == "n":
            lists = [[], [pool[1]], [pool[1], pool[1]], pool, pool[::-1] + pool]
            return [(xs,) for xs in lists]
        return list(itertools.product(pool, repeat=arity))

    def _preds(self, name, args):
        """The predecessors the traced event names: none for a leaf."""
        if name in ("input", "const", "reinject"):
            return ()
        return tuple(args[0]) if self.OPS[name] == "n" else args

    @pytest.mark.parametrize("stage", ["none", "origin", "members"])
    @pytest.mark.parametrize("name", list(OPS))
    def test_lean_op_is_emit(self, table, name, stage):
        values = self._values(_FrontScalars())
        lean, ref = _FrontScalars(), _FrontScalars()
        members = {"none": None, "origin": [values[0]], "members": values[1:3]}[stage]
        if members is not None:
            lean.seq_point(members)
            ref.seq_point(members)
        barrier = lean._barrier
        assert ref._barrier == barrier
        assert (barrier is None) == (stage == "none")
        cost = self.COSTS.get(name, "d_std")
        for args in self._cases(name, values, barrier):
            got = getattr(lean, name)(*args)
            # The TracedScalars operation goes through ``_emit``.
            assert got == getattr(TracedScalars, name)(ref, *args), (name, args)
            preds = self._preds(name, args) + (() if barrier is None else (barrier,))
            assert got == table.step(tuple(dict.fromkeys((cost, *preds)))), (name, args)
            assert getattr(lean, name)(*args) == got  # a hit in the memo

    def test_misses_give_the_table_folded_keys(self, monkeypatch):
        """A miss hands the table a key without ``None`` barrier and with
        each frontier once, the key a trace of the same event folds."""

        class Recording(_FrontierTable):
            def __init__(self):
                super().__init__()
                self.keys = []

            def step(self, key):
                self.keys.append(key)
                return super().step(key)

        table = Recording()
        monkeypatch.setattr(depth_mod, "_MODEL_TABLE", table)
        values = self._values(_FrontScalars())
        table.keys.clear()
        ctx = _FrontScalars()
        ctx.mul(values[1], values[1])
        ctx.iter_add([values[2], values[1], values[2]])
        ctx.seq_point([values[1]])
        ctx.add(values[1], values[3])
        ctx.iter_mul([values[1]])
        b = ctx._barrier
        assert table.keys == [
            (None,),
            ("d_std", values[1]),
            ("d_oplus", values[2], values[1]),
            (None, values[1]),
            (None, b),
            ("d_std", values[1], values[3]),
            ("d_otimes", values[1]),
        ]

    def test_report_fills_the_table_as_traces_do(self, table, monkeypatch):
        """A report at the CLI's default shapes steps a fresh table through
        exactly the steps, with the same frontiers, that row-keeping traces
        of every component at the same shapes step it through."""

        def content(t):
            fr = t.frontiers
            return {(k[0], *[fr[i] for i in k[1:]]): fr[f] for k, f in t.steps.items()}

        shapes = [ShapeConfig(1, 1, 1, 1, 1), ShapeConfig(2, 2, 2, 2, 2), ShapeConfig(4, 3, 3, 3, 2)]
        depth_report(shapes=shapes)
        traced = _FrontierTable()
        monkeypatch.setattr(depth_mod, "_MODEL_TABLE", traced)
        for shape in shapes:
            for name in component_names():
                trace_component(name, shape)
        assert content(table) == content(traced)
        assert len(table.steps) == len(traced.steps)

    def test_report_reaches_emit_only_from_schedules(self, monkeypatch):
        """At (2,2,2,2,2) a report reaches ``_emit`` from the composite
        schedules and ``seq_point``, and from ``exp``, ``sqrt`` and ``dup``,
        single events the model asks for a few times per shape; never from
        a lean operation."""
        callers = {}
        real = _FrontScalars._emit

        def spy(self, label, cost, preds):
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame
                frame = frame.f_back
            callers[frame.f_code.co_name] = callers.get(frame.f_code.co_name, 0) + 1
            return real(self, label, cost, preds)

        monkeypatch.setattr(_FrontScalars, "_emit", spy)
        depth_report(shapes=[ShapeConfig(2, 2, 2, 2, 2)])
        assert set(callers) == {
            "_log_schedule", "softplus", "sigmoid", "silu", "seq_point", "exp", "sqrt", "dup"
        }


class TestDepthReportPinned:
    """The report bytes, pinned by the sha256 of its sorted-key JSON over
    the CLI's three default shapes plus a long one, by the sha256 of the
    CLI's stdout at four long shapes, and by that of its full-grid
    stdout."""

    SHAPES = [(1, 1, 1, 1, 1), (2, 2, 2, 2, 2), (4, 3, 3, 3, 2), (16, 2, 2, 2, 2)]

    @pytest.mark.parametrize(
        "assignment,digest",
        [
            (None, "b1c41324fbcc47569bee5e0d09d0db5e7f33e756783a0369ba52c1f54310ab82"),
            (dict.fromkeys(DEFAULT_ASSIGNMENT, 1),
             "c243f9c395ff09abcb5bf1de2c4b4ba136f5f7fccc44fdffb5e1b3fd925d8b81"),
        ],
        ids=["default", "all-1"],
    )
    def test_report_digest(self, assignment, digest):
        report = depth_report(shapes=[ShapeConfig(*s) for s in self.SHAPES], assignment=assignment)
        assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "shape,digest",
        [
            ("32,2,2,2,2", "127ba20deaa88bc7290f5be10eb12543e2900224ae7652fcc3a594f064088a29"),
            ("16,2,2,2,4", "ba71169f56b7a99b3168763e838bde2860f158023a971c3fc9be2b7206e89d0c"),
            ("16,1,1,1,2", "1f18d1e760bb521f40a791de320c6b8aaedfbe156b7c3e2be4bd6985284454d2"),
            ("128,4,8,8,4", "992d48b0c0c15b3699d095e6375576687087ca00c792f2ea42c8174c2d0ec5e1"),
        ],
    )
    def test_long_shape_stdout_digest(self, capsys, request, shape, digest):
        """`mamba depth --shape S` at long shapes, where barrier fan-in is
        widest; the full grid stops at L = 8."""
        if shape == LONG_SHAPE:
            code, out = request.getfixturevalue("long_shape_run")
        else:
            code, out = main(["mamba", "depth", "--shape", shape]), capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_full_grid_stdout_digest(self, capsys):
        """`mamba depth --full-grid`: all 108 grid shapes, 18 components each."""
        assert main(["mamba", "depth", "--full-grid"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "83e8c87e4972a50b3bea0999a4367dd84461d9554a2fbbc47979042b75dc62da"
