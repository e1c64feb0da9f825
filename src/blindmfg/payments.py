"""Observed-payments model: consistency set, hard-conditioning filter,
tower identity, and a receding-horizon game simulator.

Payments are full cost fields on the torus; conditioning is 0/1 (an atom
either matches the observed field within the sup-norm tolerance or is
eliminated).  The simulator replays the blind game on the remaining
horizon after an elimination or an unconverged solve, and otherwise plays
on along the converged solve it holds; this replanning loop is a heuristic
embodiment of the model, labeled as such in its outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beliefs import Belief, CostModel, CylinderFunctional, push_forward
from .hjb_fp import DriftField, Hamiltonian, TimeGrid
from .solver import SolverConfig, solve_blind
from .torus import ScalarField, TorusGrid, integrate_stack


@dataclass(frozen=True)
class FilterConfig:
    tolerance: float
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
    # replanning records {t_start, solution, converged, reused}; solution is
    # None except for the opening solve and the solve after an elimination
    segments: list


def _signatures(mu: Belief, cm: CostModel) -> np.ndarray:
    """Payment field of every atom, stacked (K, *grid.shape) in atom order."""
    return cm.running_values(mu.grid, mu.values)


def _sup_gaps(sigs: np.ndarray, field: np.ndarray) -> np.ndarray:
    """Sup-norm distance from every stacked payment field to `field`, (K,)."""
    return np.max(np.abs(sigs - field), axis=tuple(range(1, sigs.ndim)))


def _within(sigs: np.ndarray, tau: float) -> np.ndarray:
    """(K, K) table of the relation "payments within tau in sup norm"."""
    return np.array([_sup_gaps(sigs, s) <= tau for s in sigs])


def _condition(mu: Belief, kept: list) -> Belief:
    """mu restricted to the atoms `kept`, weights renormalized (mu if all are kept)."""
    if len(kept) == mu.n_atoms:
        return mu
    w = mu.weights[kept]
    return Belief.from_stack(mu.grid, w / w.sum(), mu.values[kept])


def _consistent(sigs: np.ndarray, tau: float) -> bool:
    """True iff the stacked payment fields agree within tau.  The diagonal
    is not read: one atom is consistent even when its payment is not finite."""
    return bool(np.all(_within(sigs, tau) | np.eye(len(sigs), dtype=bool)))


def in_consistency_set(mu: Belief, cm: CostModel, tau: float) -> bool:
    """True iff all atoms induce the same payment field within tau."""
    return _consistent(_signatures(mu, cm), tau)


def partition_by_payment(mu: Belief, cm: CostModel, tau: float):
    """Partition atom indices into payment-equivalence groups.

    Groups are the connected components of the relation "payments within
    tau in sup norm", so they always partition the atoms; they are listed
    by their smallest index.
    """
    # imported here: SciPy is resident memory that the CLI's runs never need
    from scipy.sparse.csgraph import connected_components

    n, labels = connected_components(_within(_signatures(mu, cm), tau), directed=False)
    return [tuple(np.flatnonzero(labels == c).tolist()) for c in range(n)]


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
    class_of = {i: g for g in groups for i in g}
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

    Each observation reads the latest solve's belief path.  A converged
    equilibrium restricted to [t, T] still solves the rest of the game, so
    it is reused until an observation eliminates an atom; the next solve
    starts from its drift.  The trace stops early at a non-finite solve
    gap or true-atom payment gap."""
    cfg = cfg or SolverConfig()
    if not 0 <= true_atom < mu0.n_atoms:
        raise ValueError(f"true_atom index {true_atom} out of range")
    # the prior's payments serve the consistency check and the t = 0 gap
    sigs = _signatures(mu0, cm)
    if not _consistent(sigs, fc.tolerance):
        raise ValueError("initial belief is not payment-consistent within tolerance")
    dt = tg.dt
    steps_per_obs = _observation_steps(tg, fc)

    belief = mu0
    alive = list(range(mu0.n_atoms))
    t_now = 0.0
    steps_left = tg.steps
    offset = 0  # steps of sol's path already played

    sol = solve_blind(belief, cm, H, sigma, tg, cfg)
    segments = [{"t_start": 0.0, "solution": sol,
                 "converged": sol.diagnostics["converged"], "reused": False}]

    gap0 = float(_sup_gaps(sigs, sigs[true_atom]).max())
    trace = FilterTrace(times=[0.0], beliefs=[belief], payment_gaps=[gap0],
                        events=[], true_atom=true_atom,
                        surviving_indices=[tuple(alive)], segments=segments)

    while steps_left > 0 and math.isfinite(sol.diagnostics["final_gap"]):
        n_adv = min(steps_per_obs, steps_left)
        belief = sol.belief.belief_at(offset + n_adv)
        t_now += n_adv * dt
        steps_left -= n_adv

        true_local = alive.index(true_atom)
        sigs = _signatures(belief, cm)
        gaps = _sup_gaps(sigs, sigs[true_local])
        kept = np.flatnonzero(gaps <= fc.tolerance).tolist()
        if true_local not in kept:  # its own gap is NaN
            break
        informed = len(kept) < belief.n_atoms
        if informed:
            eliminated = tuple(alive[i] for i in range(belief.n_atoms) if i not in kept)
            trace.events.append((t_now, eliminated))
            alive = [alive[i] for i in kept]
        belief = _condition(belief, kept)

        if steps_left > 0:
            reused = not informed and sol.diagnostics["converged"]
            offset += n_adv
            if not reused:
                sub_tg = TimeGrid(steps_left * dt, steps_left)
                warm = DriftField(mu0.grid, sub_tg, sol.drift.values[offset:].copy())
                # the held solve is freed before the next is formed unless
                # the trace keeps it (the opening or an informed one)
                del sol
                sol = solve_blind(belief, cm, H, sigma, sub_tg, cfg, initial_drift=warm)
                offset = 0
            trace.segments.append({"t_start": t_now,
                                   "solution": sol if informed else None,
                                   "converged": sol.diagnostics["converged"],
                                   "reused": reused})

        trace.times.append(t_now)
        trace.beliefs.append(belief)
        trace.payment_gaps.append(float(gaps[kept].max()))
        trace.surviving_indices.append(tuple(alive))

    return trace


# ---------------------------------------------------------------------------
# the payment well of the illustrative race (configs/illustrative.json)

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
