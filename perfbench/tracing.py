"""Span tracing of liftctl's layers from outside the program.

``Tracer.install`` wraps the public functions of each layer in every liftctl
module that holds them by name (``liftctl.planner`` imports ``integrate_base``,
``liftctl.cli`` imports ``plan_chain``, and so on), plus the methods of the
oracle, manifold and output classes. Each call records a span (name, start,
end, parent, attribute) in memory; ``uninstall`` restores the originals.
Per-step counts come from the returned trajectories, never from wrapping the
per-step calls. ``layer_metrics`` turns the spans into per-operation figures.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

from checks import grid_steps

# (span name, module, attribute): a function found in a liftctl module.
FUNCTIONS = [
    ("flow.integrate_base", "liftctl.flow", "integrate_base"),
    ("flow.integrate_lifted", "liftctl.flow", "integrate_lifted"),
    ("planner.plan_chain", "liftctl.planner", "plan_chain"),
    ("planner.verify_chain", "liftctl.planner", "verify_chain"),
    ("sasaki.distance", "liftctl.sasaki", "distance"),
    ("fields.lie_bracket", "liftctl.fields", "lie_bracket"),
    ("liealg.generate_brackets", "liftctl.liealg", "generate_brackets"),
    ("liealg.rank_at", "liftctl.liealg", "rank_at"),
    ("liealg.lifted_rank_at", "liftctl.liealg", "lifted_rank_at"),
    ("cli.resolve_oracle", "liftctl.cli", "resolve_oracle"),
]
# (span name, module, class, method): methods wrapped on the class itself.
METHODS = [
    ("planner.solve", "liftctl.planner", "LinearGramianOracle", "solve"),
    ("planner.solve", "liftctl.planner", "SphereRotationOracle", "solve"),
    ("planner.solve", "liftctl.planner", "SearchOracle", "solve"),
    ("manifold.base_distance", "liftctl.manifold", "Manifold", "base_distance"),
    ("manifold.tangent_basis", "liftctl.manifold", "Manifold", "tangent_basis"),
    ("manifold.parallel_transport", "liftctl.manifold", "Manifold", "parallel_transport"),
    ("cli.load", "liftctl.cli", "SystemDefinition", "load"),
    ("cli.output", "liftctl.flow", "Trajectory", "write_csv"),
    ("cli.output", "liftctl.flow", "Trajectory", "to_json"),
    ("cli.output", "liftctl.planner", "Chain", "to_json"),
    ("cli.output", "liftctl.planner", "VerificationReport", "to_json"),
    ("cli.output", "liftctl.liealg", "RankReport", "to_json"),
]


def _attribute(name: str, args, result):
    """A number recorded with the span, taken from the call's result."""
    if name in ("flow.integrate_base", "flow.integrate_lifted"):
        return len(result.times) - 1
    if name == "planner.plan_chain":
        return sum(grid_steps(seg[0], result.step)
                   for leg in result.legs for seg in leg.control.segments)
    if name == "planner.verify_chain":
        return len(result.legs)
    if name in ("liealg.rank_at", "liealg.lifted_rank_at"):
        return int(result.generated_vectors.shape[1])
    if name == "planner.solve":
        return (args[1].tobytes(), args[2].tobytes())
    return None


class Tracer:
    """In-memory span recorder. Spans are lists [name, start, end, parent, attr]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []
        self.paused = False
        self.missing: list = []

    def span(self, name: str, attr=None) -> int:
        """Open a span by hand (the benchmark's own operation spans)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attr])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if tracer.paused:
                return func(*args, **kwargs)
            index = tracer.span(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(index)
            tracer.spans[index][4] = _attribute(name, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "liftctl"]
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            traced = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, value))
                        setattr(mod, key, traced)
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            raw = inspect.getattr_static(cls, attr, None) if cls is not None else None
            if raw is None:
                self.missing.append(f"{module}.{cls_name}.{attr}")
                continue
            self._saved.append((cls, attr, raw))
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, attr in self.spans:
                if isinstance(attr, tuple):
                    attr = None
                fh.write(json.dumps([name, start, end, parent, attr]) + "\n")


def layer_metrics(spans: list, op_name: str = "op") -> dict:
    """Per-operation layer figures from the spans of the traced operations."""
    n = len(spans)
    names = [s[0] for s in spans]
    durations = [s[2] - s[1] for s in spans]
    parents = [s[3] for s in spans]
    child_time = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child_time[parents[i]] += durations[i]

    def under(i: int, ancestor: str) -> bool:
        p = parents[i]
        while p >= 0:
            if names[p] == ancestor:
                return True
            p = parents[p]
        return False

    calls: dict = {}
    busy: dict = {}
    self_time: dict = {}
    for i, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + durations[i]
        self_time[name] = self_time.get(name, 0.0) + durations[i] - child_time[i]

    def total_attr(name: str, ancestor: str | None = None) -> int:
        return sum(spans[i][4] or 0 for i in range(n)
                   if names[i] == name and (ancestor is None or under(i, ancestor)))

    ops = max(1, calls.get(op_name, 0))
    op_time = busy.get(op_name, 0.0)
    base_steps = total_attr("flow.integrate_base")
    lifted_steps = total_attr("flow.integrate_lifted")
    plan_lifted_steps = total_attr("flow.integrate_lifted", "planner.plan_chain")
    plan_lifted_busy = sum(durations[i] for i in range(n) if names[i] == "flow.integrate_lifted"
                           and under(i, "planner.plan_chain"))
    itinerary_steps = total_attr("planner.plan_chain")
    transition_steps = plan_lifted_steps - itinerary_steps
    candidates = sum(1 for i in range(n) if names[i] == "flow.integrate_base"
                     and under(i, "planner.solve"))

    solves = repeats = 0
    seen: set = set()
    for i in range(n):
        if names[i] == "planner.plan_chain":
            seen = set()
        elif names[i] == "planner.solve" and under(i, "planner.plan_chain"):
            solves += 1
            repeats += spans[i][4] in seen
            seen.add(spans[i][4])

    def per_op(value):
        return value / ops

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer in ("flow.integrate_base", "flow.integrate_lifted"):
        out[f"{layer}.calls"] = per_op(calls.get(layer, 0))
        out[f"{layer}.busy_s"] = per_op(busy.get(layer, 0.0))
    out["flow.integrate_base.steps"] = per_op(base_steps)
    out["flow.integrate_lifted.steps"] = per_op(lifted_steps)
    out["flow.base_step_us"] = 1e6 * ratio(busy.get("flow.integrate_base", 0.0), base_steps)
    out["flow.lifted_step_us"] = 1e6 * ratio(busy.get("flow.integrate_lifted", 0.0), lifted_steps)
    out["flow.rhs_evals"] = per_op(4 * (base_steps + lifted_steps))

    out["planner.solve.calls"] = per_op(calls.get("planner.solve", 0))
    out["planner.solve.busy_s"] = per_op(busy.get("planner.solve", 0.0))
    out["planner.solve.repeat_ratio"] = ratio(repeats, solves)
    out["planner.search.candidates"] = per_op(candidates)
    out["planner.search.candidates_per_solve"] = ratio(candidates, calls.get("planner.solve", 0))
    out["planner.plan_chain.busy_s"] = per_op(busy.get("planner.plan_chain", 0.0))
    out["planner.plan_chain.self_s"] = per_op(self_time.get("planner.plan_chain", 0.0))
    out["planner.itinerary_steps"] = per_op(itinerary_steps)
    out["planner.fiber_transition_steps"] = per_op(transition_steps)
    verify_legs = total_attr("planner.verify_chain")
    out["planner.verify_chain.busy_s"] = per_op(busy.get("planner.verify_chain", 0.0))
    out["planner.verify_chain.legs"] = per_op(verify_legs)
    out["planner.verify_us_per_leg"] = 1e6 * ratio(busy.get("planner.verify_chain", 0.0),
                                                   verify_legs)
    # Shares of operation time. Transition time is the planner's lifted
    # integration time in proportion to its transition steps.
    transition_s = plan_lifted_busy * ratio(transition_steps, plan_lifted_steps)
    out["planner.search_share"] = ratio(busy.get("planner.solve", 0.0), op_time)
    out["planner.transition_share"] = ratio(transition_s, op_time)
    out["planner.legs_share"] = ratio(plan_lifted_busy - transition_s, op_time)
    out["planner.verify_share"] = ratio(busy.get("planner.verify_chain", 0.0), op_time)

    for layer in ("fields.lie_bracket", "liealg.generate_brackets", "sasaki.distance",
                  "manifold.base_distance", "manifold.tangent_basis",
                  "manifold.parallel_transport"):
        out[f"{layer}.calls"] = per_op(calls.get(layer, 0))
        out[f"{layer}.busy_s"] = per_op(busy.get(layer, 0.0))
    out["liealg.columns"] = per_op(total_attr("liealg.lifted_rank_at")
                                   + total_attr("liealg.rank_at"))
    out["liealg.lifted_rank_at.self_s"] = per_op(self_time.get("liealg.lifted_rank_at", 0.0))

    for layer in ("cli.load", "cli.resolve_oracle", "cli.output"):
        out[f"{layer}.busy_s"] = per_op(busy.get(layer, 0.0))
    out["cli.op.self_s"] = per_op(self_time.get(op_name, 0.0))
    return out
