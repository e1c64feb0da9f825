"""Atomic beliefs over densities: pushforward, cost aggregation, metrics.

A belief is a finitely supported probability measure on the set of
densities.  Beliefs are pushed forward under a common Fokker-Planck
flow, all atoms in one stacked array; running/terminal costs are
averaged linearly over atoms; the belief metric is the exact W1 with the
circle W1 as ground cost, solved as a small dense transportation LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hjb_fp import DensityPath, DriftField, TimeGrid, solve_fp_stack, upwind_advection
from .torus import (
    Density,
    ScalarField,
    TorusGrid,
    integrate_stack,
    laplacian_array,
    normalize_stack,
    wasserstein1_circle,
)

__all__ = [
    "Belief",
    "BeliefPath",
    "CostModel",
    "CylinderFunctional",
    "push_forward",
    "aggregate_running",
    "running_cost_path",
    "aggregate_terminal",
    "belief_distance",
    "belief_holder_modulus",
    "weak_solution_residual",
    "WeakLadder",
    "weak_ladder",
    "product_form_cost",
    "moment_form_cost",
    "illustrative_cost",
    "constant_cost",
]

MAX_ATOMS = 64


@dataclass(frozen=True)
class Belief:
    weights: np.ndarray
    atoms: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        w.flags.writeable = False
        atoms = tuple(self.atoms)
        if not 1 <= len(atoms) <= MAX_ATOMS:
            raise ValueError(f"belief must have between 1 and {MAX_ATOMS} atoms")
        if w.shape != (len(atoms),):
            raise ValueError("one weight per atom required")
        if not np.all(w > 0):
            raise ValueError("atom weights must be positive")
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {w.sum()}, expected 1")
        grid = atoms[0].grid
        if any(a.grid != grid for a in atoms):
            raise ValueError("all atoms must share one grid")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "atoms", atoms)

    @property
    def grid(self) -> TorusGrid:
        return self.atoms[0].grid

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def values(self) -> np.ndarray:
        """Atom values stacked (K, *grid.shape), in atom order."""
        return np.stack([a.values for a in self.atoms])


@dataclass(frozen=True)
class BeliefPath:
    """Atom density paths transported by one common flow.

    `values` stacks the K atom paths as one (K, steps+1) + grid.shape
    array; slices are raw solver output, made densities by `belief_at`.
    """

    grid: TorusGrid
    time_grid: TimeGrid
    weights: np.ndarray
    values: np.ndarray

    @property
    def atom_paths(self) -> tuple:
        return tuple(DensityPath(self.grid, self.time_grid, v) for v in self.values)

    def belief_at(self, k: int) -> Belief:
        atoms = normalize_stack(self.grid, self.values[:, k])
        return Belief(self.weights, tuple(Density(self.grid, a) for a in atoms))


@dataclass(frozen=True, eq=False)
class CostModel:
    """Running cost f(m) = a + b * G(∫b dm) and terminal cost U0(m) = terminal.

    `a`, `b` and `terminal` are fixed grid arrays or None, `G` an
    elementwise map.  A cost with `b` needs `G` and adds `a` when it is
    set; a cost with no `b` needs `a` and is f(m) = a.  No `terminal`
    means U0 = 0.  `running_values(grid, m)` and `terminal_values(grid, m)`
    map density values of shape (..., *grid.shape) to cost values of the
    same shape, one field per leading index; they are the model's only
    cost formulas.
    """

    kind: str
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    G: Callable | None = None
    terminal: np.ndarray | None = None

    def __post_init__(self):
        if self.b is None and self.a is None:
            raise ValueError(f"{self.kind} cost needs a field a when it has no b")
        if self.b is not None and self.G is None:
            raise ValueError(f"{self.kind} cost with a field b needs a map G")

    def running_values(self, grid: TorusGrid, m: np.ndarray) -> np.ndarray:
        if self.b is None:
            return np.broadcast_to(self.a, m.shape)
        s = integrate_stack(grid, self.b, m)
        vals = self.b * self.G(s.reshape(s.shape + (1,) * grid.dim))
        return vals if self.a is None else self.a + vals

    def terminal_values(self, grid: TorusGrid, m: np.ndarray) -> np.ndarray:
        if self.terminal is None:
            return np.zeros(m.shape)
        return np.broadcast_to(self.terminal, m.shape)

    def running(self, m: Density) -> ScalarField:
        return ScalarField(m.grid, self.running_values(m.grid, m.values))


def product_form_cost(phi: ScalarField, base: ScalarField | None = None) -> CostModel:
    """f(m) = base + phi * ∫phi dm; monotone in the lifted sense."""
    return CostModel("product_form", a=None if base is None else base.values,
                     b=phi.values, G=lambda s: s)


def moment_form_cost(g: Callable, grid: TorusGrid) -> CostModel:
    """f(m)(x) = x * g(first moment of m); d = 1 only, g elementwise."""
    if grid.dim != 1:
        raise ValueError("moment_form cost requires d = 1")
    x = grid.axis_coords()
    return CostModel("moment_form", b=x, G=g)


def illustrative_cost(f0: ScalarField, c: float) -> CostModel:
    """f(m) = f0 + c * f0 * ∫f0 dm; the observed-payments demo coupling."""
    if not 0 < c < 1:
        raise ValueError("coupling strength c must lie in (0,1)")
    return CostModel("illustrative", b=f0.values, G=lambda s: 1.0 + c * s)


def constant_cost(f_field: ScalarField,
                  terminal_field: ScalarField | None = None) -> CostModel:
    return CostModel("constant", a=f_field.values,
                     terminal=None if terminal_field is None else terminal_field.values)


# ---------------------------------------------------------------------------
# operations

def push_forward(mu0: Belief, b: DriftField, sigma: float, tg: TimeGrid) -> BeliefPath:
    """Transport every atom along the same FP flow; weights never change."""
    m0 = mu0.values
    return BeliefPath(mu0.grid, tg, mu0.weights, solve_fp_stack(mu0.grid, m0, b, sigma, tg))


def _sum_in_order(total: float, terms) -> float:
    """total + terms[0] + terms[1] + ..., added left to right."""
    for term in terms:
        total += term
    return total


def _weighted_sum(weights: np.ndarray, fields: np.ndarray) -> np.ndarray:
    """sum_i w_i * fields[i] over a (K, ...) stack.

    One axis-0 sum adds the K products in atom order: the bits of adding
    them to zeros one by one.
    """
    return (np.reshape(weights, (-1,) + (1,) * (fields.ndim - 1)) * fields).sum(axis=0)


def aggregate_running(mu: Belief, cm: CostModel) -> ScalarField:
    return ScalarField(mu.grid, _weighted_sum(mu.weights, cm.running_values(mu.grid, mu.values)))


def running_cost_path(bp: BeliefPath, cm: CostModel) -> np.ndarray:
    """Belief-averaged running cost along a path, (steps+1,) + grid.shape.

    Slice k equals aggregate_running(bp.belief_at(k), cm) bit for bit:
    every slice is clipped and renormalized as density_from_values does.
    The products of _weighted_sum are written in place, one atom path at
    a time, so no second (K, steps+1, *grid) stack forms.
    """
    terms = np.empty(bp.values.shape)
    for w, path, out in zip(bp.weights, bp.values, terms):
        np.multiply(w, cm.running_values(bp.grid, normalize_stack(bp.grid, path)), out=out)
    return terms.sum(axis=0)


def aggregate_terminal(mu: Belief, cm: CostModel) -> ScalarField:
    return ScalarField(mu.grid, _weighted_sum(mu.weights,
                                              cm.terminal_values(mu.grid, mu.values)))


def _transport_lp(w1: np.ndarray, w2: np.ndarray, cost: np.ndarray) -> float:
    """Exact optimal transport value on a dense bipartite instance."""
    k1, k2 = cost.shape
    if k1 == 1 or k2 == 1:
        # transport plan is forced
        return float(np.sum(np.outer(w1, w2) * cost))
    from scipy.optimize import linprog  # heavy import, needed by the W1 metric only

    A_eq = np.zeros((k1 + k2 - 1, k1 * k2))
    b_eq = np.concatenate([w1, w2[:-1]])
    for i in range(k1):
        A_eq[i, i * k2:(i + 1) * k2] = 1.0
    for j in range(k2 - 1):
        A_eq[k1 + j, j::k2] = 1.0
    res = linprog(cost.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def belief_distance(mu: Belief, nu: Belief) -> float:
    """Exact W1 between two atomic beliefs, ground metric W1 on the circle."""
    if mu.grid != nu.grid:
        raise ValueError("beliefs on different grids")
    if mu.grid.dim != 1:
        raise ValueError("belief_distance requires d = 1")
    cost = np.empty((mu.n_atoms, nu.n_atoms))
    for i, a in enumerate(mu.atoms):
        for j, b in enumerate(nu.atoms):
            cost[i, j] = wasserstein1_circle(a, b)
    return _transport_lp(mu.weights, nu.weights, cost)


def belief_holder_modulus(path: BeliefPath) -> float:
    """Max over sampled pairs of d1(mu_s, mu_t)/sqrt|t-s| (d = 1 only).

    A one-atom path is a density path, and d1 is then the circle W1.
    """
    if path.grid.dim != 1:
        raise ValueError("belief_holder_modulus requires d = 1")
    steps = path.time_grid.steps
    # fixed coarse sample times so the modulus is stable under dt refinement
    idx = np.unique(np.linspace(0, steps, min(16, steps) + 1).round().astype(int))
    times = path.time_grid.times
    beliefs = [path.belief_at(int(k)) for k in idx]
    best = 0.0
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            dtau = times[idx[b]] - times[idx[a]]
            best = max(best, belief_distance(beliefs[a], beliefs[b]) / np.sqrt(dtau))
    return best


# ---------------------------------------------------------------------------
# cylinder test functionals and the weak-solution residual

@dataclass(frozen=True)
class CylinderFunctional:
    """phi(t, m) = psi(t, ∫ inner dm) with psi', d/dt psi available."""

    inner: ScalarField
    psi: Callable[[float, float], float]
    psi_s: Callable[[float, float], float]
    psi_t: Callable[[float, float], float]

    def value_belief(self, t: float, mu: Belief) -> float:
        s = integrate_stack(mu.grid, self.inner.values, mu.values).tolist()
        return float(_sum_in_order(0.0, [w * self.psi(t, si) for w, si in zip(mu.weights, s)]))


def static_cylinder(inner: ScalarField) -> CylinderFunctional:
    """∫inner dm, time-independent."""
    return CylinderFunctional(inner, lambda t, s: s, lambda t, s: 1.0, lambda t, s: 0.0)


def ramp_cylinder(inner: ScalarField, horizon: float) -> CylinderFunctional:
    """(T - t) * ∫inner dm; vanishes at the horizon as required."""
    return CylinderFunctional(inner, lambda t, s: (horizon - t) * s,
                              lambda t, s: horizon - t, lambda t, s: -s)


def _generator_field(grid: TorusGrid, h_vals: np.ndarray, lap_h: np.ndarray,
                     b_slice: np.ndarray, sigma: float) -> np.ndarray:
    """sigma*Lap(h) + b.grad(h), with the solver's upwind gradient."""
    return sigma * lap_h + upwind_advection(grid, h_vals, b_slice)


def _weak_terms(path, b: DriftField, sigma: float, phi: CylinderFunctional) -> tuple:
    """The weight series of `path` and the weight-free terms of its weak-form
    residual, one list per step: -psi_t - psi_s ∫gen dm_i, then psi(0, ∫h dm_i)."""
    tg, grid, h_vals = b.time_grid, b.grid, phi.inner.values
    if isinstance(path, BeliefPath):
        weights = [path.weights.tolist()] * (tg.steps + 1)
        at = lambda k: normalize_stack(grid, path.values[:, k])
    else:
        path = list(path)
        if len(path) != tg.steps + 1:
            raise ValueError("belief sequence length must match the time grid")
        weights = [mu.weights.tolist() for mu in path]
        at = lambda k: path[k].values
    s_at = lambda k: integrate_stack(grid, h_vals, at(k)).tolist()
    # terminal-vanishing check on the values the path actually visits
    if any(abs(phi.psi(tg.horizon, si)) > 1e-12 for si in s_at(tg.steps)):
        raise ValueError("test functional must vanish at the horizon")
    lap_h = laplacian_array(grid, h_vals)
    terms = []
    for k, t in enumerate(tg.times[:-1]):
        m = at(k)
        gen = _generator_field(grid, h_vals, lap_h, b.values[k], sigma)
        terms.append([-phi.psi_t(t, si) - phi.psi_s(t, si) * gi for si, gi in
                      zip(integrate_stack(grid, h_vals, m).tolist(),
                          integrate_stack(grid, gen, m).tolist())])
    return weights, terms + [[phi.psi(0.0, si) for si in s_at(0)]]


def _weak_sum(weights: list, terms: list, dt: float) -> float:
    """|the dt w_i x_i of each step k < steps, then the -w_i psi_i|, added
    left to right; row k of the weight series weighs step k, row 0 the psi."""
    flat = [dt * wi * xi for w, x in zip(weights, terms[:-1]) for wi, xi in zip(w, x)]
    return abs(_sum_in_order(0.0, flat + [-(wi * xi) for wi, xi in zip(weights[0], terms[-1])]))


def weak_solution_residual(path, b: DriftField, sigma: float,
                           phi: CylinderFunctional) -> float:
    """|discrete weak-form residual| of the lifted continuity equation.

    `path` is a BeliefPath or a sequence of Beliefs with len(steps)+1
    entries (the latter allows deliberately inconsistent paths for
    violation detection).  Requires phi(T, .) = 0.
    """
    return _weak_sum(*_weak_terms(path, b, sigma, phi), b.time_grid.dt)


@dataclass(frozen=True)
class WeakLadder:
    """Residuals coarse to fine, their orders log2(r_l / r_l+1), whether all
    reach 0.8, and a perturbed residual, if any, and whether it is >= 10 r_finest."""

    residuals: list
    orders: list
    order_ok: bool
    perturbed_residual: float | None
    detected: bool | None


def weak_ladder(levels, sigma: float, perturb=None) -> WeakLadder:
    """The ramp cylinder's weak residual on `levels`, (Belief, DriftField, inner
    ScalarField) each, swept once; `perturb` = (at_fraction, weights) weighs the
    finest level's terms by `weights` from step int(at_fraction * steps) on."""
    residuals = []
    for mu0, b, inner in levels:
        tg = b.time_grid
        weights, terms = _weak_terms(push_forward(mu0, b, sigma, tg), b, sigma,
                                     ramp_cylinder(inner, tg.horizon))
        residuals.append(_weak_sum(weights, terms, tg.dt))
    orders = [float(np.log2(r / finer)) for r, finer in zip(residuals, residuals[1:])]
    pert = None
    if perturb is not None:
        series = np.array(weights)
        series[int(perturb[0] * tg.steps):] = perturb[1]
        pert = _weak_sum(series.tolist(), terms, tg.dt)
    return WeakLadder(residuals, orders, all(o >= 0.8 for o in orders), pert,
                      None if pert is None else bool(pert >= 10 * residuals[-1]))
