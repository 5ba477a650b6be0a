"""Spans around the program's layer functions, recorded from outside.

`Tracer.install()` replaces each listed function or method with a wrapper
at every binding in the ``artifact`` package: a function imported with
``from artifact.floats import fp_add`` is a second name for the same
object, and calls through it must be seen too.  Each call records one
span (name, start, end, parent span, op id) into flat arrays that stay in
memory until `write` puts them on disk after the run.

A function that calls itself through its module global (``eval_bool``)
gets one span per outer call: while it runs, its own module binding points
back at the original, so the recursion adds no wrapper frames and the
traced program hits the interpreter's recursion limit at the same depth as
the untraced one.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import types
from array import array
from time import perf_counter

# (module, attribute path, span name).  A class attribute path wraps every
# public method the class defines; the span name is then the group name.
SPANS = [
    ("floats", "fp_add", "floats.fp_add"),
    ("floats", "fp_mul", "floats.fp_mul"),
    ("floats", "fp_div", "floats.fp_div"),
    ("floats", "fp_compare", "floats.fp_compare"),
    ("floats", "iter_add", "floats.iter_add"),
    ("floats", "round_p", "floats.round_p"),
    ("elementary", "exp_fp", "elementary.exp"),
    ("elementary", "log_fp", "elementary.log"),
    ("elementary", "sqrt_fp", "elementary.sqrt"),
    ("elementary", "sigmoid_fp", "elementary.sigmoid"),
    ("elementary", "softplus_fp", "elementary.softplus"),
    ("elementary", "silu_fp", "elementary.silu"),
    ("contexts", "PBitScalars", "contexts.pbit"),
    ("contexts", "ExactScalars", "contexts.exact"),
    ("matrices", "matmul", "matrices"),
    ("matrices", "hadamard", "matrices"),
    ("matrices", "max_rel_gap", "matrices"),
    ("matrices", "FpMatrix", "matrices"),
    ("mamba", "forward_matrix", "mamba.forward_matrix"),
    ("mamba", "random_params", "mamba.random_params"),
    ("mamba", "input_projection", "mamba.input_projection"),
    ("mamba", "conv1d", "mamba.conv1d"),
    ("mamba", "silu_map", "mamba.silu_map"),
    ("mamba", "select_params", "mamba.select_params"),
    ("mamba", "discretize", "mamba.discretize"),
    ("mamba", "hidden_recurrence", "mamba.hidden_recurrence"),
    ("mamba", "conv_kernel", "mamba.conv_kernel"),
    ("mamba", "ssm_convolution", "mamba.ssm_convolution"),
    ("depth", "trace_component", "depth.trace_component"),
    ("depth", "critical_depth", "depth.critical_depth"),
    ("depth", "CostTrace.critical_depth", "depth.critical_depth"),
    ("depth", "TracedScalars", "depth.traced"),
    ("circuits", "evaluate_many", "circuits.evaluate_many"),
    ("circuits", "parse_netlist", "circuits.parse_netlist"),
    ("synthesis", "synth_primitive", "synthesis.synth_primitive"),
    ("synthesis", "check_op", "synthesis.check_op"),
    ("hardness", "gen_instances", "hardness.gen_instances"),
    ("hardness", "eval_instance", "hardness.eval_instance"),
    ("hardness", "parse_bool_postfix", "hardness.parse"),
    ("hardness", "parse_bool_infix", "hardness.parse"),
    ("hardness", "parse_arith", "hardness.parse"),
    ("hardness", "parse_permutation_line", "hardness.parse"),
    ("hardness", "eval_bool", "hardness.eval"),
    ("hardness", "eval_arith", "hardness.eval"),
    ("hardness", "word_problem", "hardness.eval"),
    ("hardness", "barrington_transform", "hardness.barrington_transform"),
    ("hardness", "eval_pbp", "hardness.eval_pbp"),
    ("cli", "main", "cli"),
]


def _count_trace(counts, args, result):
    counts["depth.trace_nodes"] += len(result.nodes)
    counts["depth.trace_edges"] += sum(len(n.preds) for n in result.nodes)


def _count_lanes(counts, args, result):
    counts["circuits.gate_lanes"] += len(args[0].gates) * len(args[1])


def _count_gates(counts, args, result):
    counts["synthesis.gates_built"] += len(result.circuit.gates)


def _count_cases(counts, args, result):
    counts["synthesis.cases"] += result["cases"]


def _count_generated(counts, args, result):
    counts["hardness.instances"] += len(result.instances)


def _count_evaluated(counts, args, result):
    counts["hardness.instances"] += 1


def _count_program(counts, args, result):
    counts["hardness.pbp_instructions"] += len(result)


# Counts read from the arguments and results of completed calls.
COUNTERS = {
    "depth.trace_component": _count_trace,
    "circuits.evaluate_many": _count_lanes,
    "synthesis.synth_primitive": _count_gates,
    "synthesis.check_op": _count_cases,
    "hardness.gen_instances": _count_generated,
    "hardness.eval_instance": _count_evaluated,
    "hardness.barrington_transform": _count_program,
}
COUNT_NAMES = (
    "depth.trace_nodes",
    "depth.trace_edges",
    "circuits.gate_lanes",
    "synthesis.gates_built",
    "synthesis.cases",
    "hardness.instances",
    "hardness.pbp_instructions",
)


class SpanLog:
    """Flat, append-only span storage: span i has name ``names[name[i]]``,
    runs from ``start[i]`` to ``end[i]`` and was called from span
    ``parent[i]`` (-1 at the top) during op ``op[i]``; ``raised[i]`` is 1
    when it ended by an exception."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def add(self, name: str, parent: int, op: int, start: float, end: float,
            raised: bool = False) -> int:
        """Record a finished span (for tests and synthetic trees)."""
        i = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.op.append(op)
        self.start.append(start)
        self.end.append(end)
        self.raised.append(int(raised))
        return i

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Duration minus the time covered by child spans.  Calls are
        nested on one thread, so children never overlap each other."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def write(self, stem: str) -> None:
        """Write the columns to ``stem.spans`` and their layout to
        ``stem.spans.json``."""
        columns = ("name", "parent", "op", "start", "end", "raised")
        with open(stem + ".spans", "wb") as fh:
            for col in columns:
                getattr(self, col).tofile(fh)
        layout = {
            "spans": len(self),
            "names": self.names,
            "columns": [[c, getattr(self, c).typecode] for c in columns],
        }
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(layout, fh, indent=1)


def layer_metrics(log: SpanLog, counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics from a span log.

    ``<group>.calls`` / ``.ops`` count spans; ``.self_s`` sums self time;
    ``.busy_s`` sums the durations of spans with no enclosing span of the
    same group; ``<layer>.errors`` counts exceptions that left the layer
    (the span raised and its caller is outside the layer).
    """
    names = log.names
    layers = [n.split(".")[0] for n in names]
    bits = [1 << k for k in range(len(names))]
    selfs = log.self_times()
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    busy_s = [0.0] * len(names)
    errors: dict[str, int] = {}
    enclosing = []  # bit set of the groups of span i and its ancestors
    for i, (k, p) in enumerate(zip(log.name, log.parent)):
        above = enclosing[p] if p >= 0 else 0
        enclosing.append(above | bits[k])
        calls[k] += 1
        self_s[k] += selfs[i]
        if not above & bits[k]:
            busy_s[k] += log.end[i] - log.start[i]
        if log.raised[i] and (p < 0 or layers[log.name[p]] != layers[k]):
            errors[layers[k]] = errors.get(layers[k], 0) + 1
    out: dict[str, float] = {}
    for group in dict.fromkeys(name for _, _, name in SPANS):
        k = names.index(group) if group in names else None
        out[group + ".calls"] = out[group + ".ops"] = calls[k] if k is not None else 0
        out[group + ".self_s"] = self_s[k] if k is not None else 0.0
        out[group + ".busy_s"] = busy_s[k] if k is not None else 0.0
    for layer in ("floats", "hardness"):
        out[layer + ".errors"] = errors.get(layer, 0)
    for name in COUNT_NAMES:
        out[name] = counts.get(name, 0)
    return out


class Tracer:
    """Installs span wrappers into the loaded ``artifact`` modules."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.current = -1
        self.op_id = -1
        self._undo: list[tuple[object, str, object]] = []


    def _wrap(self, fn, name: str, home: types.ModuleType | None):
        log = self.log
        sid = log.name_id(name)
        counter = COUNTERS.get(name)
        recursive = home is not None and fn.__name__ in fn.__code__.co_names
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.current
            i = len(log.start)
            log.name.append(sid)
            log.parent.append(parent)
            log.op.append(tracer.op_id)
            log.raised.append(0)
            log.end.append(0.0)
            tracer.current = i
            if recursive:
                setattr(home, fn.__name__, fn)
            log.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                log.raised[i] = 1
                raise
            finally:
                log.end[i] = perf_counter()
                tracer.current = parent
                if recursive:
                    setattr(home, fn.__name__, wrapper)
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "artifact" or name.startswith("artifact.")]
        for mod_name, path, span in SPANS:
            home = sys.modules["artifact." + mod_name]
            obj = home
            *outer, leaf = path.split(".")
            for part in outer:
                obj = getattr(obj, part)
            target = getattr(obj, leaf)
            if isinstance(obj, type):  # a single method
                self._set(obj, leaf, self._wrap(target, span, None))
            elif isinstance(target, type):  # every public method, inherited too
                for attr in dir(target):
                    if attr.startswith("_"):
                        continue
                    member = inspect.getattr_static(target, attr)
                    if isinstance(member, (classmethod, staticmethod)):
                        wrapped = type(member)(self._wrap(member.__func__, span, None))
                    elif isinstance(member, types.FunctionType):
                        wrapped = self._wrap(member, span, None)
                    else:
                        continue
                    self._set(target, attr, wrapped)
            else:  # a module function, at every binding
                wrapped = self._wrap(target, span, home)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is target:
                            self._set(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


_ABSENT = object()
