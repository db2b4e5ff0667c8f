"""Outside-in span tracing of the solver layers.

The solver is not changed: `instrument` swaps the module attributes that the
solver looks up at call time for wrappers that record a span around each
call, and restores them on exit.  A span records its name, start, end,
parent and thread.  A span opened on a worker thread with nothing open on
that thread takes as parent the span open on the main thread, which is the
one that dispatched the work.
"""

import contextlib
import itertools
import math
import statistics
import threading
import time
from collections import defaultdict

import ocp.harness.experiments as experiments
import ocp.newton as newton
import ocp.schwarz as schwarz


class Tracer:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def parent(self):
        """The innermost open span seen from the calling thread, or None."""
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    @contextlib.contextmanager
    def span(self, name):
        parent = self.parent()
        record = {"id": next(self._ids), "name": name,
                  "parent": parent["id"] if parent else None,
                  "thread": threading.get_ident(), "start": time.perf_counter(),
                  "end": None}
        stack = self._stack()
        stack.append(record)
        try:
            yield record
        except BaseException:
            record["error"] = True
            raise
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, name, fn, after=None):
        """fn with a span per call; after(record, result) may replace the result."""
        def traced(*args, **kwargs):
            span_name = name(self.parent()) if callable(name) else name
            with self.span(span_name) as record:
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(record, result)
            return result
        return traced


class _TracedLU:
    """A SuperLU factor whose solve is traced."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, key):
        return getattr(self._lu, key)


class _TracedSparseLinalg:
    """Stand-in for scipy.sparse.linalg as seen by one solver module."""

    def __init__(self, module, splu):
        self._module = module
        self.splu = splu

    def __getattr__(self, key):
        return getattr(self._module, key)


def _traced_splu(tracer, layer, spla):
    def after(record, lu):
        # entries SuperLU stores for L and U; lu.L and lu.U would copy them
        record["fill"] = lu.nnz
        return _TracedLU(lu, tracer.wrap(f"{layer}.lu_solve", lu.solve))
    return _TracedSparseLinalg(
        spla, tracer.wrap(f"{layer}.lu_factor", spla.splu, after))


def _traced_gmres(tracer, gmres):
    def traced(apply_op, b, cfg=None, precond=None, x0=None):
        apply_op = tracer.wrap("krylov.matvec", apply_op)
        if precond is not None:
            precond = tracer.wrap("krylov.precond", precond)

        def after(record, result):
            record["iters"] = result.iters
            return result
        return tracer.wrap("krylov.gmres", gmres, after)(
            apply_op, b, cfg, precond=precond, x0=x0)
    return traced


def _linesearch_trials(record, result):
    alpha, _ = result
    # backtrack tries alpha = 1, 1/2, 1/4, ... and returns the first accepted
    record["trials"] = round(-math.log2(alpha)) + 1
    return result


def _record_iters(record, result):
    record["iters"] = result[1].outer_iters
    return result


def _continuation_name(parent):
    # schwarz.newton_continuation serves both the outer RASPEN iteration
    # and every local subdomain solve; the local ones run inside a residual
    if parent is not None and parent["name"] == "schwarz.raspen_residual":
        return "schwarz.local_newton"
    return "schwarz.outer_newton"


def _patches(tracer):
    def ras_build_after(record, apply):
        return tracer.wrap("schwarz.ras_apply", apply)

    return [
        (experiments, "residual",
         tracer.wrap("system.residual", experiments.residual)),
        (experiments, "jacobian",
         tracer.wrap("system.jacobian", experiments.jacobian)),
        (experiments, "ras_preconditioner",
         tracer.wrap("schwarz.ras_build", experiments.ras_preconditioner,
                     ras_build_after)),
        (newton, "gmres", _traced_gmres(tracer, newton.gmres)),
        (newton, "backtrack",
         tracer.wrap("newton.linesearch", newton.backtrack, _linesearch_trials)),
        (newton, "spla", _traced_splu(tracer, "newton", newton.spla)),
        (schwarz, "spla", _traced_splu(tracer, "schwarz", schwarz.spla)),
        (schwarz, "raspen_residual",
         tracer.wrap("schwarz.raspen_residual", schwarz.raspen_residual)),
        (schwarz, "raspen_jacobian_apply",
         tracer.wrap("schwarz.raspen_matvec", schwarz.raspen_jacobian_apply)),
        (schwarz, "newton_continuation",
         tracer.wrap(_continuation_name, schwarz.newton_continuation,
                     _record_iters)),
    ]


@contextlib.contextmanager
def instrument(tracer):
    """Route the solver's layer calls through tracer for the duration."""
    patches = _patches(tracer)
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, _ in patches]
    for module, attr, wrapper in patches:
        setattr(module, attr, wrapper)
    try:
        yield tracer
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)


SETUP_LAYERS = ("harness.build_problem", "schwarz.decompose",
                "schwarz.build_local_systems")


def _duration(span):
    return span["end"] - span["start"]


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _self_time(span, children):
    return _duration(span) - _covered(
        (max(c["start"], span["start"]), min(c["end"], span["end"]))
        for c in children)


def spans_under(spans, root):
    """Every span that descends from root, root excluded."""
    kids = defaultdict(list)
    for s in spans:
        kids[s["parent"]].append(s)
    out, todo = [], [root["id"]]
    while todo:
        for child in kids[todo.pop()]:
            out.append(child)
            todo.append(child["id"])
    return out


def layer_metrics(spans, threads):
    """Per-layer metrics of one solve from the spans below its root span.

    Returns (metrics, bases), where bases holds the denominator of every ratio.
    """
    by_name = defaultdict(list)
    kids = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        kids[s["parent"]].append(s)

    def calls(name):
        return len(by_name[name])

    def seconds(name):
        return sum(_duration(s) for s in by_name[name])

    def attr_sum(name, key):
        return sum(s.get(key, 0) for s in by_name[name])

    def mean_fill(name):
        return attr_sum(name, "fill") / calls(name) if calls(name) else 0.0

    m = {}
    for name in ("system.residual", "system.jacobian", "newton.lu_factor",
                 "newton.lu_solve", "schwarz.ras_build", "schwarz.lu_factor",
                 "schwarz.ras_apply", "schwarz.lu_solve",
                 "schwarz.raspen_residual", "schwarz.raspen_matvec"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = seconds(name)
    m["newton.lu_fill_nnz"] = mean_fill("newton.lu_factor")
    m["schwarz.lu_fill_nnz"] = mean_fill("schwarz.lu_factor")

    trials = attr_sum("newton.linesearch", "trials")
    accepted = sum(1 for s in by_name["newton.linesearch"] if not s.get("error"))
    m["newton.linesearch.trials"] = trials
    m["newton.step_accept_ratio"] = accepted / trials if trials else 0.0

    m["krylov.gmres.calls"] = calls("krylov.gmres")
    m["krylov.gmres.iters"] = attr_sum("krylov.gmres", "iters")
    m["krylov.gmres.self_s"] = sum(_self_time(s, kids[s["id"]])
                                   for s in by_name["krylov.gmres"])
    m["krylov.matvec.calls"] = calls("krylov.matvec")

    busy = seconds("schwarz.local_newton")
    m["schwarz.local_newton.calls"] = calls("schwarz.local_newton")
    m["schwarz.local_newton.busy_s"] = busy
    m["schwarz.local_newton.iters"] = attr_sum("schwarz.local_newton", "iters")
    residual_s = seconds("schwarz.raspen_residual")
    m["schwarz.map.parallel_eff"] = busy / (threads * residual_s) if residual_s else 0.0
    imbalances = []
    for evaluation in by_name["schwarz.raspen_residual"]:
        local = [_duration(c) for c in kids[evaluation["id"]]
                 if c["name"] == "schwarz.local_newton"]
        if local:
            imbalances.append(max(local) / statistics.fmean(local))
    m["schwarz.map.imbalance"] = statistics.fmean(imbalances) if imbalances else 0.0

    bases = {"newton.step_accept_ratio": {"linesearch_trials": trials},
             "schwarz.map.parallel_eff": {"threads": threads,
                                          "raspen_residual_s": residual_s},
             "schwarz.map.imbalance": {"evaluations": len(imbalances)}}
    return m, bases


def setup_metrics(spans):
    """Total seconds of each setup layer among the given spans."""
    m = {f"{name}.s": 0.0 for name in SETUP_LAYERS}
    for s in spans:
        if s["name"] in SETUP_LAYERS:
            m[f"{s['name']}.s"] += _duration(s)
    return m
