"""Nash equilibria of the blind game by Picard fixed-point iteration on
the coupling series, Anderson-accelerated when damped.

One iteration applies the map: series c -> belief-averaged costs
a + b c -> backward HJB -> feedback drift -> pushforward belief path ->
its series.  Fixed points are equilibria of the belief-coupled
forward-backward system; the complete-information game is the
single-atom special case and shares the code path exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .beliefs import (
    Belief,
    BeliefPath,
    CostModel,
    _weighted_sum,
    aggregate_terminal,
    coupling_series,
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

# Anderson depth: secant pairs of series kept by the damped iteration; of
# tests/sweep_games.py's 48 games, 28 converge at depth 30 and 21 at depth 3
_ANDERSON_DEPTH = 30


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

    Each iteration pushes the belief under drift b; its series c_raw is the
    next c at relaxation 1 (plain Picard), and below 1 the Anderson step,
    undamped while the drift gap falls and damped by the relaxation after
    a rise and on a warm start's first step.  The HJB against a + b c gives
    u, b_raw = optimal_drift(u) and the gap max |b_raw - b|.  For affine G
    and a differentiable H the loop pushes the mean density, whose series
    the linear FP step makes the atoms'; at a kink, as with `abs`, rounding
    in c would flip the drift at ties.  The last iterate is returned: u,
    b_raw, and the atoms pushed under b_raw.  The loop stops at the first
    non-finite gap or series; the belief then stays the one pushed under b.
    """
    cfg = cfg or SolverConfig()
    grid = mu0.grid
    b = initial_drift if initial_drift is not None else zero_drift(grid, tg)
    mean = cm.affine and H.differentiable and mu0.n_atoms > 1
    pushed = (Belief.from_stack(grid, [1.0], [_weighted_sum(mu0.weights, mu0.values)])
              if mean else mu0)
    mixer = _Anderson(tg.steps + 1) if cfg.relaxation < 1 else None
    # one dict per iteration: max_iter, which the CLI caps, bounds its size
    history = []
    u_prev = bp = None
    # U0 is a fixed field, so its belief average reads the weights only
    terminal = aggregate_terminal(mu0, cm)
    t0 = time.perf_counter()
    for it in range(1, cfg.max_iter + 1):
        b_pushed, bp = b, None  # the last path is freed before the next forms
        bp = push_forward(pushed, b, sigma, tg)
        c_raw = coupling_series(bp, cm)
        # a full first step from the zero drift: decoupled systems finish at once
        theta = 1.0 if it == 2 and initial_drift is None else cfg.relaxation
        c = c_raw if it == 1 or mixer is None else mixer.step(c, c_raw, gap, theta)
        u = solve_hjb_backward(cm.running_from(grid, c), terminal, H, sigma, tg)
        b_raw = optimal_drift(u, H)
        gap = float(np.max(np.abs(b_raw.values - b.values)))
        value_change = (np.inf if u_prev is None
                        else float(np.max(np.abs(u.values - u_prev))))
        history.append({"iter": it, "drift_gap": gap, "value_change": value_change,
                        "wall_time": time.perf_counter() - t0})
        u_prev = u.values
        finite = np.isfinite(gap) and np.isfinite(c).all()
        converged = bool(finite and gap < cfg.tol)
        if converged or not finite:
            break  # a NaN never falls below tol, and the drift is lost
        b = b_raw
    last = b_raw if np.isfinite(gap) else b_pushed
    if mean or not np.array_equal(last.values, b_pushed.values):
        bp = None
        bp = push_forward(mu0, last, sigma, tg)
    diagnostics = {
        "iterations": len(history),
        "final_gap": gap,
        "converged": converged,
        "hjb_residual": _hjb_residual(u, running_cost_path(bp, cm), H, sigma),
        "mass_error": float(bp.mass_errors().max()),
        "history": history,
    }
    return EquilibriumSolution(value=u, belief=bp, drift=b_raw,
                               diagnostics=diagnostics)


class _Anderson:
    """Type-II Anderson mixing for the damped series iteration.

    Keeps the last `_ANDERSON_DEPTH` differences dX, dF of iterates x
    and residuals f = g - x, g the map's series, and steps to
    x + theta f - sum_j gamma_j (dX_j + theta dF_j), gamma being the
    least-squares fit of f by the dF_j (Walker & Ni 2011).  The mixing
    parameter theta is 1 when the newest pair shows the gap did not
    grow; the caller's theta, the relaxation, damps only the step after
    a rise and a step taken with no pair yet.  Whenever the gap grows the
    history restarts from its newest pair.  (Dropping that pair too
    leaves damped Picard steps, which stall where damped Picard does.)
    The step needs no clip: the drift pushed next is an optimal drift,
    bounded by construction, whatever the series.
    """

    def __init__(self, size: int):
        # row `pairs % depth` holds the pending pair: dX, and f until
        # the next residual turns it into dF
        self.dx = np.empty((_ANDERSON_DEPTH, size))
        self.df = np.empty((_ANDERSON_DEPTH, size))
        self.pairs = 0  # complete pairs since the last restart
        self.pending = False
        self.gap_prev = np.inf

    def step(self, x: np.ndarray, g: np.ndarray, gap: float,
             theta: float) -> np.ndarray:
        f = g - x
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
        row = self.pairs % _ANDERSON_DEPTH  # a free row, else the oldest pair
        np.subtract(out, x, out=self.dx[row])
        self.df[row] = f
        self.pending = True
        return out


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

