"""Observed-payments model: consistency set, hard-conditioning filter,
tower identity, and a receding-horizon game simulator.

Payments are full cost fields on the torus; conditioning is 0/1 (an atom
either matches the observed field within the sup-norm tolerance or is
eliminated).  The simulator replays the blind game on the remaining
horizon after every observation; this replanning loop is a heuristic
embodiment of the model, labeled as such in its outputs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .beliefs import (
    Belief,
    CostModel,
    CylinderFunctional,
    illustrative_cost,
    push_forward,
)
from .hjb_fp import DriftField, Hamiltonian, TimeGrid
from .solver import SolverConfig, solve_blind
from .torus import ScalarField, TorusGrid, build_grid, integrate_stack, mollified_dirac

__all__ = [
    "FilterConfig",
    "FilterTrace",
    "in_consistency_set",
    "partition_by_payment",
    "filter_step",
    "tower_check",
    "simulate_observed",
    "illustrative_scenario",
    "ScenarioBundle",
    "smoothed_well_profile",
    "trace_to_json",
    "write_trace_csv",
]


@dataclass(frozen=True)
class FilterConfig:
    tolerance: float = 1e-6
    observation_dt: float = 0.0  # 0 means one observation per solver step

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")
        if not 0 <= self.observation_dt < math.inf:
            raise ValueError("observation_dt must be finite and >= 0")


@dataclass
class FilterTrace:
    times: list
    beliefs: list
    payment_gaps: list  # largest sup-norm payment gap among the atoms alive
    events: list  # (time, tuple of eliminated original atom indices)
    true_atom: int
    surviving_indices: list  # original atom indices alive at each trace time
    # replanning records {t_start, solution, converged}; solution is None
    # except for the opening solve and the first solve after an elimination
    segments: list

    def n_atoms_series(self):
        return [b.n_atoms for b in self.beliefs]


def _signatures(mu: Belief, cm: CostModel) -> np.ndarray:
    """Payment field of every atom, stacked (K, *grid.shape) in atom order."""
    return cm.running_values(mu.grid, mu.values)


def _sup_gaps(sigs: np.ndarray, field: np.ndarray) -> np.ndarray:
    """Sup-norm distance from every stacked payment field to `field`, (K,)."""
    return np.max(np.abs(sigs - field), axis=tuple(range(1, sigs.ndim)))


def _consistent(sigs: np.ndarray, tau: float) -> bool:
    """True iff all stacked payment fields lie within tau of one another."""
    return all(np.all(_sup_gaps(sigs[i + 1:], s) <= tau) for i, s in enumerate(sigs))


def _matching(sigs: np.ndarray, field: np.ndarray, tau: float):
    """Atoms whose payment lies within tau of `field`, and every atom's gap."""
    gaps = _sup_gaps(sigs, field)
    return np.flatnonzero(gaps <= tau).tolist(), gaps


def _condition(mu: Belief, kept: list) -> Belief:
    """mu restricted to the atoms `kept`, weights renormalized (mu if all are kept)."""
    if len(kept) == mu.n_atoms:
        return mu
    w = mu.weights[kept]
    return Belief(w / w.sum(), tuple(mu.atoms[i] for i in kept))


def in_consistency_set(mu: Belief, cm: CostModel, tau: float) -> bool:
    """True iff all atoms induce the same payment field within tau."""
    return _consistent(_signatures(mu, cm), tau)


def partition_by_payment(mu: Belief, cm: CostModel, tau: float):
    """Partition atom indices into payment-equivalence groups.

    Groups are the connected components of the relation "payments within
    tau in sup norm", so they always partition the atoms.
    """
    sigs = _signatures(mu, cm)
    k = len(sigs)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        near = np.flatnonzero(_sup_gaps(sigs[i + 1:], sigs[i]) <= tau) + i + 1
        for j in near.tolist():
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    groups: dict = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    return [tuple(groups[r]) for r in sorted(groups)]


def filter_step(mu: Belief, observed: ScalarField, cm: CostModel,
                fc: FilterConfig) -> Belief:
    """Hard conditioning on an observed payment field; weights renormalized."""
    if observed.grid != mu.grid:
        raise ValueError("observed payment and belief on different grids")
    kept, _ = _matching(_signatures(mu, cm), observed.values, fc.tolerance)
    if not kept:
        raise ValueError("inconsistent observation: no atom matches the payment")
    return _condition(mu, kept)


def tower_check(mu: Belief, b: DriftField, sigma: float, tg: TimeGrid,
                t: float, phi: CylinderFunctional, cm: CostModel,
                tau: float = 1e-9) -> float:
    """|sum_i w_i E_{conditioned_i}[phi] - E_{pushforward}[phi]| at time t.

    Each atom's conditioned belief is its payment-partition class of the
    pushed-forward belief, renormalized; averaging the classes over the
    prior recombines them exactly, so the return value sits at machine
    scale whenever the payment classes form a genuine partition.
    """
    k = int(round(t / tg.dt))
    if abs(k * tg.dt - t) > 1e-9 * max(1.0, tg.horizon):
        raise ValueError("t must be a time node")
    bp = push_forward(mu, b, sigma, tg)
    mu_t = bp.belief_at(k)
    groups = partition_by_payment(mu_t, cm, tau)
    class_of = {}
    for g in groups:
        for i in g:
            class_of[i] = g
    phi_vals = [phi.psi(t, s) for s in
                integrate_stack(mu_t.grid, phi.inner.values, mu_t.values).tolist()]
    w = mu_t.weights
    lhs = 0.0
    for i in range(mu_t.n_atoms):
        g = class_of[i]
        wg = float(sum(w[j] for j in g))
        cond = sum(w[j] * phi_vals[j] for j in g) / wg
        lhs += w[i] * cond
    rhs = float(sum(w[j] * phi_vals[j] for j in range(mu_t.n_atoms)))
    return abs(lhs - rhs)


def _observation_steps(tg: TimeGrid, fc: FilterConfig) -> int:
    """Solver steps between two observations; observation_dt must be a
    whole multiple of the solver dt (0 observes at every step)."""
    dt = tg.dt
    obs_dt = fc.observation_dt if fc.observation_dt > 0 else dt
    ratio = obs_dt / dt
    steps = round(ratio) if math.isfinite(ratio) else 0
    if steps < 1 or abs(steps * dt - obs_dt) > 1e-9 * tg.horizon:
        raise ValueError(f"observation_dt {obs_dt:.6g} is not a multiple of "
                         f"the solver dt {dt:.6g}")
    return steps


def simulate_observed(mu0: Belief, true_atom: int, cm: CostModel, H: Hamiltonian,
                      sigma: float, tg: TimeGrid, fc: FilterConfig,
                      cfg: SolverConfig | None = None) -> FilterTrace:
    """Receding-horizon play with payment observations and belief filtering.

    Each observation reads the latest solve's belief path.  The trace stops
    early at a non-finite solve gap or true-atom payment gap."""
    cfg = cfg or SolverConfig()
    if not 0 <= true_atom < mu0.n_atoms:
        raise ValueError(f"true_atom index {true_atom} out of range")
    sigs = _signatures(mu0, cm)
    if not _consistent(sigs, fc.tolerance):
        raise ValueError("initial belief is not payment-consistent within tolerance")
    dt = tg.dt
    steps_per_obs = _observation_steps(tg, fc)

    belief = mu0
    alive = list(range(mu0.n_atoms))
    t_now = 0.0
    steps_left = tg.steps

    sol = solve_blind(belief, cm, H, sigma, TimeGrid(tg.horizon, tg.steps), cfg)
    segments = [{"t_start": 0.0, "solution": sol,
                 "converged": sol.diagnostics["converged"]}]

    gap0 = float(_sup_gaps(sigs, sigs[true_atom]).max())
    trace = FilterTrace(times=[0.0], beliefs=[belief], payment_gaps=[gap0],
                        events=[], true_atom=true_atom,
                        surviving_indices=[tuple(alive)], segments=segments)

    while steps_left > 0 and math.isfinite(sol.diagnostics["final_gap"]):
        n_adv = min(steps_per_obs, steps_left)
        belief = sol.belief.belief_at(n_adv)
        t_now += n_adv * dt
        steps_left -= n_adv

        true_local = alive.index(true_atom)
        sigs = _signatures(belief, cm)
        kept, gaps = _matching(sigs, sigs[true_local], fc.tolerance)
        if true_local not in kept:  # its own gap is NaN
            break
        informed = len(kept) < belief.n_atoms
        if informed:
            eliminated = tuple(alive[i] for i in range(belief.n_atoms) if i not in kept)
            trace.events.append((t_now, eliminated))
            alive = [alive[i] for i in kept]
        belief = _condition(belief, kept)

        if steps_left > 0:
            sub_tg = TimeGrid(steps_left * dt, steps_left)
            warm = DriftField(mu0.grid, sub_tg, sol.drift.values[n_adv:].copy())
            sol = solve_blind(belief, cm, H, sigma, sub_tg, cfg, initial_drift=warm)
            trace.segments.append({"t_start": t_now,
                                   "solution": sol if informed else None,
                                   "converged": sol.diagnostics["converged"]})

        trace.times.append(t_now)
        trace.beliefs.append(belief)
        trace.payment_gaps.append(float(gaps[kept].max()))
        trace.surviving_indices.append(tuple(alive))

    return trace


# ---------------------------------------------------------------------------
# the illustrative observed-payments scenario

def _smoothstep(q: np.ndarray) -> np.ndarray:
    q = np.clip(q, 0.0, 1.0)
    return q * q * q * (10.0 + q * (-15.0 + 6.0 * q))


def smoothed_well_profile(grid: TorusGrid) -> ScalarField:
    """C^2 well: 0 outside (1/4, 7/16), -2 on [5/16, 3/8], quintic ramps."""
    if grid.dim != 1:
        raise ValueError("the well profile is one-dimensional")
    x = grid.axis_coords()
    vals = np.zeros_like(x)
    down = (x > 0.25) & (x < 0.3125)
    vals[down] = -2.0 * _smoothstep((x[down] - 0.25) / 0.0625)
    vals[(x >= 0.3125) & (x <= 0.375)] = -2.0
    up = (x > 0.375) & (x < 0.4375)
    vals[up] = -2.0 * (1.0 - _smoothstep((x[up] - 0.375) / 0.0625))
    return ScalarField(grid, vals)


@dataclass(frozen=True)
class ScenarioBundle:
    grid: TorusGrid
    belief: Belief
    cost: CostModel
    hamiltonian: Hamiltonian
    time_grid: TimeGrid
    sigma: float
    filter_config: FilterConfig
    predicted_window: tuple
    epsilon: float
    coupling: float
    # undamped Picard: the bang-bang drift map lands exactly on its fixed
    # point, while relaxation would keep the drift fractional forever
    solver_config: SolverConfig = SolverConfig(relaxation=1.0, tol=1e-9, max_iter=60)

    def to_config(self) -> dict:
        """CLI-compatible config for cmd_simulate_observed."""
        return {
            "grid": {"dim": 1, "n": self.grid.n},
            "time": {"T": self.time_grid.horizon, "steps": self.time_grid.steps},
            "sigma": self.sigma,
            "hamiltonian": {"kind": "abs"},
            "cost": {"id": "illustrative", "coupling": self.coupling},
            "belief": {
                "weights": [float(w) for w in self.belief.weights],
                "atoms": [{"kind": "dirac", "center": 0.0},
                          {"kind": "dirac", "center": self.epsilon}],
            },
            "filter": {"tolerance": self.filter_config.tolerance,
                       "observation_dt": self.filter_config.observation_dt},
            "true_atom": 0,
            "solver": asdict(self.solver_config),
        }


def illustrative_scenario(epsilon: float, p1: float, c: float, n: int,
                          N_t: int | None = None,
                          observation_dt: float | None = None,
                          tolerance: float = 0.05) -> ScenarioBundle:
    """Two-Dirac prior racing toward a payment well; horizon 2, pure transport.

    The predicted elimination window is [1/4 - eps, 5/16 - eps]: payments
    start to differ once the shifted atom enters the well support, while
    the stated split time is the window's upper end.
    """
    if not 0 < epsilon < 0.25:
        raise ValueError("epsilon must lie in (0, 1/4)")
    if not 0 < p1 < 1:
        raise ValueError("p1 must lie in (0, 1)")
    if not 0 < c < 1:
        raise ValueError("c must lie in (0, 1)")
    grid = build_grid(1, n)
    T = 2.0
    if N_t is None:
        N_t = 2 * n  # dt = h: unit-speed donor-cell transport is an exact shift
    tg = TimeGrid(T, N_t)
    f0 = smoothed_well_profile(grid)
    cm = illustrative_cost(f0, c)
    mu0 = Belief(np.array([p1, 1.0 - p1]),
                 (mollified_dirac(grid, 0.0), mollified_dirac(grid, epsilon)))
    if observation_dt is None:
        observation_dt = T / 200
    fc = FilterConfig(tolerance=tolerance, observation_dt=observation_dt)
    window = (0.25 - epsilon, 0.3125 - epsilon)
    return ScenarioBundle(grid=grid, belief=mu0, cost=cm,
                          hamiltonian=Hamiltonian("abs"), time_grid=tg,
                          sigma=0.0, filter_config=fc, predicted_window=window,
                          epsilon=epsilon, coupling=c)


# ---------------------------------------------------------------------------
# trace output

def trace_to_json(trace: FilterTrace) -> dict:
    return {
        "replanning": "blind-equilibrium receding horizon (heuristic)",
        "true_atom": trace.true_atom,
        "times": [float(t) for t in trace.times],
        "n_atoms": trace.n_atoms_series(),
        "weights": [[float(w) for w in b.weights] for b in trace.beliefs],
        "surviving_indices": [list(s) for s in trace.surviving_indices],
        "events": [{"time": float(t), "eliminated": list(e)} for t, e in trace.events],
        "segments_converged": [bool(s["converged"]) for s in trace.segments],
    }


def write_trace_csv(trace: FilterTrace, path) -> None:
    import csv as _csv

    max_atoms = max(b.n_atoms for b in trace.beliefs)
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        header = ["t", "n_atoms"] + [f"weight_{i}" for i in range(max_atoms)]
        header.append("payment_sup_gap")
        writer.writerow(header)
        for t, b, gap in zip(trace.times, trace.beliefs, trace.payment_gaps):
            weights = [f"{float(w):.17g}" for w in b.weights]
            weights += [""] * (max_atoms - b.n_atoms)
            writer.writerow([f"{t:.17g}", b.n_atoms] + weights + [f"{gap:.17g}"])
