"""Shared fixtures and independent oracles used across the test suite.

The oracles are the checks the package itself does not run: the
equilibrium gap of a solve, the circular mean of a density, the mass
error of one density path, and the paper's duality pairing and cylinder
generator A written out as per-atom loops.  The bitwise kernel
references stay in test_kernel_oracles.py.  The paper's two-Dirac race
has one definition, configs/illustrative.json; race_config and race_args
resize it and build its game through the CLI's own config reader.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from blindmfg import cli
from blindmfg.beliefs import (
    Belief,
    BeliefPath,
    aggregate_terminal,
    push_forward,
    running_cost_path,
)
from blindmfg.hjb_fp import optimal_drift, solve_hjb_backward, upwind_advection
from blindmfg.payments import FilterConfig
from blindmfg.torus import (
    Density,
    ScalarField,
    TorusGrid,
    build_grid,
    density_from_values,
    laplacian_array,
)


@pytest.fixture
def grid64():
    return build_grid(1, 64)


@pytest.fixture
def grid128():
    return build_grid(1, 128)


def constant_field(grid: TorusGrid, value: float) -> ScalarField:
    return ScalarField(grid, np.full(grid.shape, float(value)))


def uniform_density(grid: TorusGrid) -> Density:
    return Density(grid, np.full(grid.shape, 1.0))


def random_density(grid: TorusGrid, rng: np.random.Generator) -> Density:
    vals = rng.random(grid.shape) + 1e-3
    return density_from_values(grid, vals)


def one_atom_path(m0: Density, b, sigma: float, tg) -> BeliefPath:
    """The density path from m0 as the path of a one-atom belief."""
    return push_forward(Belief(np.array([1.0]), (m0,)), b, sigma, tg)


RACE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "illustrative.json"


def race_config(n: int, steps: int, observation_dt: float) -> dict:
    """configs/illustrative.json, the paper's two-Dirac race into a payment
    well, on n nodes over `steps` steps, observed every observation_dt."""
    cfg = json.loads(RACE_CONFIG.read_text())
    cfg["grid"]["n"] = n
    cfg["time"]["steps"] = steps
    cfg["filter"]["observation_dt"] = observation_dt
    return cfg


def race_args(cfg: dict) -> tuple:
    """simulate_observed's arguments for a race config, built as the
    simulate-observed command builds them: (mu0, true_atom, cost,
    Hamiltonian, sigma, time grid, filter config, solver config)."""
    _, tg, sigma, H, cm, mu0, scfg = cli._build_game(cfg)
    return mu0, cfg["true_atom"], cm, H, sigma, tg, FilterConfig(**cfg["filter"]), scfg


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


def circular_mean(m: Density) -> float:
    """Circular mean position of a 1-D density, in [0,1)."""
    if m.grid.dim != 1:
        raise ValueError("circular_mean requires d = 1")
    theta = 2.0 * np.pi * m.grid.axis_coords()
    w = m.values * m.grid.cell_volume
    z = np.sum(w * np.exp(1j * theta))
    return float(np.angle(z) / (2.0 * np.pi) % 1.0)


def path_mass_error(grid: TorusGrid, path: np.ndarray) -> float:
    """Largest |mass - 1| over one density path, (steps+1,) + grid.shape."""
    masses = path.reshape(len(path), -1).sum(axis=1)
    return float(np.max(np.abs(masses * grid.cell_volume - 1.0)))


def equilibrium_gap(sol, cm, H, sigma: float, tg) -> float:
    """Sup-norm distance between sol.drift and one fixed-point map application."""
    bp = sol.belief
    u = solve_hjb_backward(running_cost_path(bp, cm),
                           aggregate_terminal(bp.belief_at(tg.steps), cm), H, sigma, tg)
    return float(np.max(np.abs(optimal_drift(u, H).values - sol.drift.values)))


def ref_integral(grid: TorusGrid, phi: np.ndarray, a: np.ndarray) -> float:
    return float(np.sum(phi * a) * grid.cell_volume)


def ref_duality_pairing(phi: ScalarField, signed_weights, atoms) -> float:
    """<phi, mu> = sum_i s_i ∫ phi dm_i for the signed atomic measure
    sum_i s_i delta_{m_i}, the difference of two beliefs."""
    total = 0.0
    for s, a in zip(signed_weights, atoms):
        total += s * ref_integral(phi.grid, phi.values, a.values)
    return total


def ref_operator_A_cylinder(mu: Belief, b_components: np.ndarray, sigma: float,
                            phi) -> float:
    """Generator of the belief pushforward flow on a cylinder functional at
    t = 0: sum_i w_i psi_s(0, ∫h dm_i) ∫(sigma Lap h + b.grad h) dm_i, with
    the solver's upwind gradient; `b_components` is a frozen-drift array of
    shape (dim,) + grid.shape."""
    grid = mu.grid
    h = phi.inner.values
    gen = sigma * laplacian_array(grid, h) + upwind_advection(grid, h, b_components)
    total = 0.0
    for w, a in zip(mu.weights, mu.atoms):
        s = ref_integral(grid, h, a.values)
        total += w * phi.psi_s(0.0, s) * ref_integral(grid, gen, a.values)
    return total
