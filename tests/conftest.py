"""Shared fixtures and independent oracles used across the test suite."""

from dataclasses import asdict

import numpy as np
import pytest
from scipy.optimize import linprog

from blindmfg.beliefs import Belief, BeliefPath, push_forward
from blindmfg.torus import Density, TorusGrid, build_grid, density_from_values


@pytest.fixture
def grid64():
    return build_grid(1, 64)


@pytest.fixture
def grid128():
    return build_grid(1, 128)


def random_density(grid: TorusGrid, rng: np.random.Generator) -> Density:
    vals = rng.random(grid.shape) + 1e-3
    return density_from_values(grid, vals)


def one_atom_path(m0: Density, b, sigma: float, tg) -> BeliefPath:
    """The density path from m0 as the path of a one-atom belief."""
    return push_forward(Belief(np.array([1.0]), (m0,)), b, sigma, tg)


def scenario_config(sc) -> dict:
    """The simulate-observed config of an illustrative_scenario bundle."""
    return {
        "grid": {"dim": 1, "n": sc.grid.n},
        "time": {"T": sc.time_grid.horizon, "steps": sc.time_grid.steps},
        "sigma": sc.sigma,
        "hamiltonian": {"kind": "abs"},
        "cost": {"id": "illustrative", "coupling": sc.coupling},
        "belief": {
            "weights": [float(w) for w in sc.belief.weights],
            "atoms": [{"kind": "dirac", "center": 0.0},
                      {"kind": "dirac", "center": sc.epsilon}],
        },
        "filter": {"tolerance": sc.filter_config.tolerance,
                   "observation_dt": sc.filter_config.observation_dt},
        "true_atom": 0,
        "solver": asdict(sc.solver_config),
    }


def circle_distance(x: float, y: float) -> float:
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


def w1_circle_lp(m1: Density, m2: Density) -> float:
    """Brute-force W1 on the circle as a dense transportation LP.

    Independent of the CDF/median implementation under test; only usable
    for small n.
    """
    n = m1.grid.n
    h = m1.grid.spacing
    x = m1.grid.axis_coords()
    cost = np.array([[circle_distance(xi, xj) for xj in x] for xi in x])
    a = m1.values * h
    b = m2.values * h
    # transportation polytope: row sums a, column sums b
    n2 = n * n
    A_eq = np.zeros((2 * n - 1, n2))
    rhs = np.zeros(2 * n - 1)
    for i in range(n):
        A_eq[i, i * n:(i + 1) * n] = 1.0
        rhs[i] = a[i]
    for j in range(n - 1):  # drop one redundant constraint
        A_eq[n + j, j::n] = 1.0
        rhs[n + j] = b[j]
    res = linprog(cost.ravel(), A_eq=A_eq, b_eq=rhs, bounds=(0, None),
                  method="highs")
    assert res.status == 0
    return float(res.fun)


def hopf_lax_eikonal(grid: TorusGrid, terminal: np.ndarray, t_left: float) -> np.ndarray:
    """Exact viscosity solution of u_t' = |u_x| backward from `terminal`:
    u(t, x) = min over y with circle-dist(x,y) <= T - t of terminal(y)."""
    x = grid.axis_coords()
    out = np.empty_like(terminal)
    for i, xi in enumerate(x):
        mask = np.array([circle_distance(xi, yj) <= t_left + 1e-12 for yj in x])
        out[i] = terminal[mask].min()
    return out
