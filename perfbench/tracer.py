"""Outside-in tracer for the blindmfg package.

The tracer wraps public functions of the `blindmfg` modules from outside
the package: every module namespace that holds a reference to a traced
function gets the wrapper (``solver`` imports ``implicit_diffusion`` by
name, so patching ``hjb_fp`` alone would miss the calls made from
``solver``).  Uninstalling puts the originals back.

Each call adds to its function's count, total time and wrapped-child
time, so functions called 10^5-10^6 times cost a few counter updates.
Full spans are kept only for the coarse calls in COARSE, and per-call
durations only for the calls in DURATIONS.  `layer_metrics` turns the
raw record into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# "<module>.<attribute>"; a method is "<module>.<Class>.<method>" and is
# reported as "<module>.<method>".
TRACED = (
    "torus.density_from_values",
    "torus.mollified_dirac",
    "hjb_fp.solve_hjb_backward",
    "hjb_fp.godunov_hamiltonian",
    "hjb_fp.optimal_drift",
    "hjb_fp.solve_fp_forward",
    "hjb_fp.fp_step",
    "hjb_fp.implicit_diffusion",
    "beliefs.push_forward",
    "beliefs.aggregate_running",
    "beliefs.aggregate_terminal",
    "beliefs.BeliefPath.belief_at",
    "solver.solve_blind",
    "monotonicity.random_belief",
    "monotonicity.lifted_pairing",
    "monotonicity.certify_blind_monotone",
    "payments.simulate_observed",
    "cli.main",
)

COARSE = frozenset({
    "cli.main",
    "solver.solve_blind",
    "payments.simulate_observed",
    "beliefs.push_forward",
    "hjb_fp.solve_hjb_backward",
    "hjb_fp.optimal_drift",
    "monotonicity.certify_blind_monotone",
})

# name -> caller whose calls keep per-call durations for the percentile
# metrics; None keeps them under any caller.
DURATIONS = {
    "solver.solve_blind": "payments.simulate_observed",
    "monotonicity.lifted_pairing": None,
}


def metric_name(target: str) -> str:
    module, *rest = target.split(".")
    return f"{module}.{rest[-1]}"


def retained_nbytes(obj) -> int:
    """Bytes of the distinct numpy buffers reachable from `obj`.

    Walks dataclass fields, dicts, lists and tuples; views count their
    owning buffer once.
    """
    seen_buffers = set()
    seen_objects = set()
    total = 0
    todo = [obj]
    while todo:
        item = todo.pop()
        if id(item) in seen_objects:
            continue
        seen_objects.add(id(item))
        if isinstance(item, np.ndarray):
            owner = item
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            if id(owner) not in seen_buffers:
                seen_buffers.add(id(owner))
                total += owner.nbytes
        elif isinstance(item, dict):
            todo.extend(item.values())
        elif isinstance(item, (list, tuple)):
            todo.extend(item)
        elif hasattr(item, "__dataclass_fields__"):
            todo.extend(getattr(item, f) for f in item.__dataclass_fields__)
    return total


def _count_fp_nodes(tracer, result):
    tracer.counts["node_steps"] += result.size


def _count_hjb_nodes(tracer, result):
    tracer.counts["node_steps"] += result.values.size - result.values[0].size


def _count_solve(tracer, result):
    tracer.counts["iterations"] += result.diagnostics["iterations"]
    tracer.counts["converged"] += bool(result.diagnostics["converged"])


def _count_trace(tracer, result):
    tracer.counts["events"] += len(result.events)
    tracer.counts["trace_retained_bytes"] += retained_nbytes(result)


# Called with the return value after the call has been timed; their own
# time counts as neither the function's nor its caller's.
HOOKS = {
    "hjb_fp.fp_step": _count_fp_nodes,
    "hjb_fp.solve_hjb_backward": _count_hjb_nodes,
    "solver.solve_blind": _count_solve,
    "payments.simulate_observed": _count_trace,
}


class Tracer:
    """Counts, times and spans of the traced blindmfg functions."""

    def __init__(self):
        self.stats = {}      # name -> [calls, total_s, child_s]
        self.edges = {}      # (parent, name) -> calls
        self.durations = {}  # name -> [seconds]
        self.spans = []      # [name, start, end, parent span index]
        self.counts = {"node_steps": 0, "iterations": 0, "converged": 0,
                       "events": 0, "trace_retained_bytes": 0}
        self._stack = []     # frames: [name, child_s, span index]
        self._patched = []   # (owner, attribute, original)

    def install(self) -> None:
        for target in TRACED:
            importlib.import_module("blindmfg." + target.split(".")[0])
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "blindmfg" or k.startswith("blindmfg.")]
        for target in TRACED:
            module, *path = target.split(".")
            owner = sys.modules[f"blindmfg.{module}"]
            if len(path) == 2:
                owner = getattr(owner, path[0])
                original = owner.__dict__[path[1]]
                self._patch(owner, path[1], self._wrap(metric_name(target), original))
                continue
            original = getattr(owner, path[0])
            wrapper = self._wrap(metric_name(target), original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def _patch(self, owner, key, wrapper) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        edges = self.edges
        durations = self.durations
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        coarse = name in COARSE
        keep = name in DURATIONS
        caller = DURATIONS.get(name)
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_name = parent[0] if parent else None
            edge = (parent_name, name)
            edges[edge] = edges.get(edge, 0) + 1
            span = -1
            if coarse:
                span = len(spans)
                up = next((f[2] for f in reversed(stack) if f[2] >= 0), -1)
                spans.append([name, 0.0, 0.0, up])
            frame = [name, 0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += frame[1]
                if parent is not None:
                    parent[1] += elapsed
                if coarse:
                    spans[span][1] = start
                    spans[span][2] = start + elapsed
                if keep and (caller is None or caller == parent_name):
                    durations.setdefault(name, []).append(elapsed)
            if hook is not None:
                hook_start = clock()
                hook(tracer, result)
                if parent is not None:
                    # tracer overhead: keep it out of the caller's self time
                    parent[1] += clock() - hook_start
            return result

        return traced

    def record(self) -> dict:
        """JSON-ready raw record, for `layer_metrics`."""
        return {
            "stats": self.stats,
            "edges": [[p, n, c] for (p, n), c in self.edges.items()],
            "durations": self.durations,
            "spans": self.spans,
            "counts": self.counts,
        }


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> (unit, better); the order is the order of BENCHMARK.json.
LAYER_METRICS = {
    "torus.density_from_values.n": ("count", "lower"),
    "torus.density_from_values.self_s": ("s", "lower"),
    "torus.mollified_dirac.n": ("count", "lower"),
    "torus.mollified_dirac.self_s": ("s", "lower"),
    "hjb_fp.solve_hjb_backward.n": ("count", "lower"),
    "hjb_fp.solve_hjb_backward.self_s": ("s", "lower"),
    "hjb_fp.godunov_hamiltonian.self_s": ("s", "lower"),
    "hjb_fp.optimal_drift.n": ("count", "lower"),
    "hjb_fp.optimal_drift.self_s": ("s", "lower"),
    "hjb_fp.solve_fp_forward.n": ("count", "lower"),
    "hjb_fp.solve_fp_forward.self_s": ("s", "lower"),
    "hjb_fp.fp_step.n": ("count", "lower"),
    "hjb_fp.fp_step.self_s": ("s", "lower"),
    "hjb_fp.implicit_diffusion.n": ("count", "lower"),
    "hjb_fp.implicit_diffusion.self_s": ("s", "lower"),
    "hjb_fp.node_steps": ("count", "lower"),
    "beliefs.push_forward.n": ("count", "lower"),
    "beliefs.push_forward.s": ("s", "lower"),
    "beliefs.aggregate_running.n": ("count", "lower"),
    "beliefs.aggregate_running.self_s": ("s", "lower"),
    "beliefs.belief_at.n": ("count", "lower"),
    "beliefs.belief_at.self_s": ("s", "lower"),
    "beliefs.cost_s": ("s", "lower"),
    "solver.solve_blind.n": ("count", "lower"),
    "solver.solve_blind.s": ("s", "lower"),
    "solver.solve_blind.self_s": ("s", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.map_apps_per_iter": ("ratio", "lower"),
    "solver.pushforwards_per_iter": ("ratio", "lower"),
    "solver.converged_frac": ("fraction", "higher"),
    "solver.iter_s": ("s", "lower"),
    "monotonicity.random_belief.n": ("count", "lower"),
    "monotonicity.random_belief.self_s": ("s", "lower"),
    "monotonicity.lifted_pairing.n": ("count", "lower"),
    "monotonicity.lifted_pairing.self_s": ("s", "lower"),
    "monotonicity.lifted_pairing.p50_us": ("us", "lower"),
    "monotonicity.lifted_pairing.p99_us": ("us", "lower"),
    "monotonicity.trials_per_s": ("1/s", "higher"),
    "payments.simulate_observed.self_s": ("s", "lower"),
    "payments.replan.n": ("count", "lower"),
    "payments.replan.p50_s": ("s", "lower"),
    "payments.replan.p95_s": ("s", "lower"),
    "payments.fp_advance.n": ("count", "lower"),
    "payments.events": ("count", "lower"),
    "payments.trace_retained_mb": ("MB", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "cli.write_mb_per_s": ("MB/s", "higher"),
    "cli.cpu_s": ("s", "lower"),
    "tracing.overhead_frac": ("fraction", "lower"),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _percentile(values, q) -> float:
    """Nearest-rank percentile; 0 when nothing was recorded."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(np.ceil(q * len(ordered))) - 1)]


def layer_metrics(record: dict, cpu_s: float, bytes_written: int) -> dict:
    """Per-layer values of one traced run, except tracing.overhead_frac.

    A function that did not run on the workload reads 0, as does a
    ratio whose base is 0.
    """
    stats = record["stats"]
    edges = {(p, n): c for p, n, c in record["edges"]}
    durations = record["durations"]
    counts = record["counts"]

    def n(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        _, tot, child = stats.get(name, [0, 0.0, 0.0])
        return tot - child

    traced = {metric_name(t) for t in TRACED}
    per_stat = {"n": n, "s": total, "self_s": self_s}
    out = {}
    for key in LAYER_METRICS:
        name, _, stat = key.rpartition(".")
        if name in traced and stat in per_stat:
            out[key] = per_stat[stat](name)

    iterations = counts["iterations"]
    replans = durations.get("solver.solve_blind", [])
    pairings = durations.get("monotonicity.lifted_pairing", [])
    write_s = self_s("cli.main")
    out.update({
        "hjb_fp.node_steps": counts["node_steps"],
        "beliefs.cost_s": (total("beliefs.aggregate_running")
                           + total("beliefs.aggregate_terminal")
                           + total("beliefs.belief_at")),
        "solver.iterations": iterations,
        "solver.map_apps_per_iter": _ratio(n("hjb_fp.solve_hjb_backward"), iterations),
        "solver.pushforwards_per_iter": _ratio(n("beliefs.push_forward"), iterations),
        "solver.converged_frac": _ratio(counts["converged"], n("solver.solve_blind")),
        "solver.iter_s": _ratio(total("solver.solve_blind"), iterations),
        "monotonicity.lifted_pairing.p50_us": 1e6 * _percentile(pairings, 0.50),
        "monotonicity.lifted_pairing.p99_us": 1e6 * _percentile(pairings, 0.99),
        "monotonicity.trials_per_s": _ratio(
            edges.get(("monotonicity.certify_blind_monotone",
                       "monotonicity.lifted_pairing"), 0),
            total("monotonicity.certify_blind_monotone")),
        "payments.replan.n": len(replans),
        "payments.replan.p50_s": _percentile(replans, 0.50),
        "payments.replan.p95_s": _percentile(replans, 0.95),
        "payments.fp_advance.n": edges.get(("payments.simulate_observed",
                                            "hjb_fp.fp_step"), 0),
        "payments.events": counts["events"],
        "payments.trace_retained_mb": counts["trace_retained_bytes"] / 1e6,
        "cli.bytes_written": bytes_written,
        "cli.write_mb_per_s": _ratio(bytes_written / 1e6, write_s),
        "cli.cpu_s": cpu_s,
    })
    return out

