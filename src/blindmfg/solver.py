"""Nash equilibria of the blind game by Picard fixed-point iteration,
Anderson-accelerated when damped.

One iteration applies the map: drift -> pushforward belief path ->
belief-averaged costs -> backward HJB -> feedback drift.  Fixed points
are equilibria of the belief-coupled forward-backward system; the
complete-information game is the single-atom special case and shares the
code path exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .beliefs import (
    Belief,
    BeliefPath,
    CostModel,
    aggregate_terminal,
    push_forward,
    running_cost_path,
)
from .hjb_fp import (
    DriftField,
    Hamiltonian,
    TimeGrid,
    ValuePath,
    godunov_hamiltonian,
    implicit_diffusion,
    optimal_drift,
    solve_hjb_backward,
    zero_drift,
)
from .torus import Density

# Anderson depth: secant pairs kept by the damped iteration
_ANDERSON_DEPTH = 3


@dataclass(frozen=True)
class SolverConfig:
    relaxation: float = 0.5
    tol: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        if not 0 < self.relaxation <= 1:
            raise ValueError("relaxation must lie in (0, 1]")
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class EquilibriumSolution:
    value: ValuePath
    belief: BeliefPath
    drift: DriftField
    diagnostics: dict


def solve_blind(mu0: Belief, cm: CostModel, H: Hamiltonian, sigma: float,
                tg: TimeGrid, cfg: SolverConfig | None = None,
                initial_drift: DriftField | None = None) -> EquilibriumSolution:
    """Solve the blind game; non-convergence is reported, never raised.

    Each iteration applies the map once: pushforward under drift b,
    belief-averaged costs, backward HJB value u, drift b_raw = optimal_drift(u).
    The next b is b_raw at relaxation 1 (plain Picard); below 1 it is
    the Anderson-accelerated step, undamped while the drift gap falls and
    damped by the relaxation after a rise and on a warm start's first step.
    The last iterate is returned: value u, drift b_raw, and the belief
    pushed forward under b_raw.  The loop stops at the first non-finite
    drift gap; the belief then stays the one pushed forward under b.
    """
    cfg = cfg or SolverConfig()
    grid = mu0.grid
    b = initial_drift if initial_drift is not None else zero_drift(grid, tg)
    mixer = _Anderson(b.values.size, H.lipschitz) if cfg.relaxation < 1 else None
    # one dict per iteration: max_iter, which the CLI caps, bounds its size
    history = []
    converged = False
    u_prev = None
    gap = np.inf
    # U0 is a fixed field, so its belief average reads the weights only
    terminal = aggregate_terminal(mu0, cm)
    t0 = time.perf_counter()
    for it in range(1, cfg.max_iter + 1):
        b_pushed = b
        bp = push_forward(mu0, b, sigma, tg)
        running = running_cost_path(bp, cm)
        u = solve_hjb_backward(running, terminal, H, sigma, tg)
        b_raw = optimal_drift(u, H)
        gap = float(np.max(np.abs(b_raw.values - b.values)))
        value_change = (np.inf if u_prev is None
                        else float(np.max(np.abs(u.values - u_prev))))
        history.append({"iter": it, "drift_gap": gap, "value_change": value_change,
                        "wall_time": time.perf_counter() - t0})
        u_prev = u.values
        if gap < cfg.tol:
            converged = True
            break
        if not np.isfinite(gap):
            break  # a NaN gap never falls below tol, and the drift is lost
        if mixer is None:
            b = b_raw
        else:
            # full first step: relaxing toward the zero initial guess has
            # no virtue, and decoupled systems then finish immediately
            theta = 1.0 if it == 1 and initial_drift is None else cfg.relaxation
            b = DriftField(grid, tg, mixer.step(b.values, b_raw.values, gap, theta))
    del mixer  # the history would otherwise set the peak below
    if np.isfinite(gap) and not np.array_equal(b_raw.values, b_pushed.values):
        bp = push_forward(mu0, b_raw, sigma, tg)
        running = running_cost_path(bp, cm)
    diagnostics = {
        "iterations": len(history),
        "final_gap": gap,
        "converged": converged,
        "hjb_residual": _hjb_residual(u, running, H, sigma),
        "mass_error": float(bp.mass_errors().max()),
        "history": history,
    }
    return EquilibriumSolution(value=u, belief=bp, drift=b_raw,
                               diagnostics=diagnostics)


class _Anderson:
    """Type-II Anderson mixing for the damped drift iteration.

    Keeps the last `_ANDERSON_DEPTH` differences dX, dF of iterates x
    and residuals f = g - x, g the map's drift, and steps to
    x + theta f - sum_j gamma_j (dX_j + theta dF_j), gamma being the
    least-squares fit of f by the dF_j (Walker & Ni 2011).  The mixing
    parameter theta is 1 when the newest pair shows the gap did not
    grow; the caller's theta, the relaxation, damps only the step after
    a rise and a step taken with no pair yet.  Safeguards: the step is
    clipped to the drift bound, which every optimal drift obeys and the
    FP CFL check assumes, and whenever the gap grows the history
    restarts from its newest pair.  (Dropping that pair too leaves
    damped Picard steps, which stall where damped Picard does.)
    """

    def __init__(self, size: int, bound: float):
        self.bound = bound
        # row `pairs % depth` holds the pending pair: dX, and f until
        # the next residual turns it into dF
        self.dx = np.empty((_ANDERSON_DEPTH, size))
        self.df = np.empty((_ANDERSON_DEPTH, size))
        self.pairs = 0  # complete pairs since the last restart
        self.pending = False
        self.gap_prev = np.inf

    def step(self, x: np.ndarray, g: np.ndarray, gap: float,
             theta: float) -> np.ndarray:
        shape, x = x.shape, x.reshape(-1)
        f = g.reshape(-1) - x
        if self.pending:
            row = self.pairs % _ANDERSON_DEPTH
            np.subtract(f, self.df[row], out=self.df[row])
            self.pairs += 1
            if gap > self.gap_prev:  # restart from the newest pair alone
                self.dx[0], self.df[0] = self.dx[row], self.df[row]
                self.pairs = 1
            else:
                theta = 1.0
        self.gap_prev = gap
        out = np.multiply(f, theta)
        out += x
        n = min(self.pairs, _ANDERSON_DEPTH)
        if n:
            dx, df = self.dx[:n], self.df[:n]
            # the small Gram system, not the tall (size, n) least squares
            gamma = np.linalg.lstsq(df @ df.T, df @ f, rcond=None)[0]
            out -= gamma @ dx
            out -= (theta * gamma) @ df
        np.clip(out, -self.bound, self.bound, out=out)
        row = self.pairs % _ANDERSON_DEPTH  # a free row, else the oldest pair
        np.subtract(out, x, out=self.dx[row])
        self.df[row] = f
        self.pending = True
        return out.reshape(shape)


def solve_complete_info(m0: Density, cm: CostModel, H: Hamiltonian, sigma: float,
                        tg: TimeGrid, cfg: SolverConfig | None = None) -> EquilibriumSolution:
    """Complete-information game = blind game with a one-atom belief."""
    return solve_blind(Belief(np.array([1.0]), (m0,)), cm, H, sigma, tg, cfg)


def _hjb_residual(u: ValuePath, running: np.ndarray, H: Hamiltonian,
                  sigma: float) -> float:
    """Sup-norm defect of the discrete backward recurrence against the
    returned belief's aggregated running cost (a posteriori check)."""
    tg = u.time_grid
    ham = godunov_hamiltonian(u.grid, u.values[1:], H)
    pred = implicit_diffusion(u.grid, u.values[1:] + tg.dt * (running[:-1] - ham),
                              sigma, tg.dt)
    return float(np.max(np.abs(u.values[:-1] - pred))) / tg.dt

