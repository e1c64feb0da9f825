"""Acceptance gate: the ten headline checks at their stated tolerances.

Each test prints a single PASS line (visible with -s / on failure) naming
the criterion it certifies.
"""

import time

import numpy as np
import pytest

from blindmfg.beliefs import (
    Belief,
    illustrative_cost,
    moment_form_cost,
    product_form_cost,
    push_forward,
    ramp_cylinder,
    static_cylinder,
    weak_solution_residual,
)
from blindmfg.hjb_fp import (
    DriftField,
    Hamiltonian,
    TimeGrid,
    constant_drift,
    fp_step,
    hjb_linear_step,
)
from blindmfg.monotonicity import (
    certify_blind_monotone,
    counterexample_gap,
    l2_pairing,
    lifted_pairing,
    random_belief,
)
from blindmfg.payments import (
    in_consistency_set,
    simulate_observed,
    smoothed_well_profile,
    tower_check,
)
from blindmfg.solver import SolverConfig, solve_blind, solve_complete_info
from blindmfg.torus import (
    ScalarField,
    build_grid,
    integrate,
    mollified_dirac,
)
from blindmfg.beliefs import belief_holder_modulus

from conftest import race_args, race_config, random_density


def report(name, detail):
    print(f"ACCEPTANCE PASS [{name}] {detail}")


def test_criterion_01_single_atom_equivalence():
    """Blind solve with a one-atom belief reproduces the
    complete-information solve on the reference instance."""
    grid = build_grid(1, 128)
    tg = TimeGrid(1.0, 256)
    sigma = 0.1
    x = grid.axis_coords()
    cm = product_form_cost(ScalarField(grid, 0.3 * np.cos(2 * np.pi * x)))
    H = Hamiltonian("smoothed_abs", smoothing=0.5)
    m0 = mollified_dirac(grid, 0.3)
    t0 = time.perf_counter()
    blind = solve_blind(Belief(np.array([1.0]), (m0,)), cm, H, sigma, tg)
    complete = solve_complete_info(m0, cm, H, sigma, tg)
    elapsed = time.perf_counter() - t0
    gap = float(np.max(np.abs(blind.value.values - complete.value.values)))
    assert blind.diagnostics["converged"] and complete.diagnostics["converged"]
    assert gap < 1e-10
    assert elapsed < 30.0
    report("single-atom equivalence", f"sup|u_blind - u_complete| = {gap:.3e}, "
           f"{elapsed:.1f}s")


def test_criterion_02_square_identity():
    """Product-form lifted pairing equals the explicit square and is
    therefore nonnegative, over 10^3 random belief pairs."""
    grid = build_grid(1, 64)
    x = grid.axis_coords()
    phi = ScalarField(grid, np.cos(2 * np.pi * x))
    cm = product_form_cost(phi)
    rng = np.random.default_rng(2024)
    worst_neg, worst_rel = 0.0, 0.0
    for _ in range(1000):
        mu, nu = random_belief(grid, rng), random_belief(grid, rng)
        val = lifted_pairing(cm, mu, nu)
        s = (sum(w * integrate(phi, a) for w, a in zip(mu.weights, mu.atoms))
             - sum(w * integrate(phi, a) for w, a in zip(nu.weights, nu.atoms)))
        assert val >= -1e-10
        assert val == pytest.approx(s ** 2, rel=1e-10, abs=1e-12)
        worst_neg = min(worst_neg, val)
        denom = max(s ** 2, 1e-12)
        worst_rel = max(worst_rel, abs(val - s ** 2) / denom)
    report("square identity", f"1000 pairs, min = {worst_neg:.1e}, "
           f"max rel dev = {worst_rel:.1e}")


def test_criterion_03_nonaffine_counterexample():
    """The closed-form witness for the square-root moment coupling is
    -0.014 exactly, and random certification finds a violation."""
    val = counterexample_gap(np.sqrt, 0.0, 1.0, 0.36)
    assert val == pytest.approx(-0.014, abs=1e-12)
    grid = build_grid(1, 64)
    report_obj = certify_blind_monotone(moment_form_cost(np.sqrt, grid), grid,
                                        sampler_seed=0, trials=10 ** 4)
    assert report_obj.min_over_trials < 0
    report("non-affine counterexample",
           f"closed form {val:.6f}, certified min over 1e4 trials = "
           f"{report_obj.min_over_trials:.3e}")


def test_criterion_04_dirac_reduction():
    """Lifted pairing on one-atom beliefs reduces to the density-level
    pairing, over 10^3 random density pairs."""
    grid = build_grid(1, 64)
    x = grid.axis_coords()
    cm = product_form_cost(ScalarField(grid, np.cos(2 * np.pi * x)))
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        m1, m2 = random_density(grid, rng), random_density(grid, rng)
        lifted = lifted_pairing(cm, Belief(np.array([1.0]), (m1,)),
                                Belief(np.array([1.0]), (m2,)))
        dev = abs(lifted - l2_pairing(cm, m1, m2))
        assert dev < 1e-12
        worst = max(worst, dev)
    report("dirac reduction", f"1000 pairs, max deviation = {worst:.1e}")


def _weak_setup(n, nt, sigma=0.05, T=0.4):
    grid = build_grid(1, n)
    tg = TimeGrid(T, nt)
    x = grid.axis_coords()
    vals = np.broadcast_to(0.5 * np.sin(2 * np.pi * x),
                           (tg.steps + 1, 1) + grid.shape).copy()
    b = DriftField(grid, tg, vals)
    mu0 = Belief(np.array([0.3, 0.7]),
                 (mollified_dirac(grid, 0.2, 0.05),
                  mollified_dirac(grid, 0.6, 0.05)))
    bp = push_forward(mu0, b, sigma, tg)
    phi = ramp_cylinder(ScalarField(grid, np.cos(2 * np.pi * x)), T)
    return tg, b, bp, phi


def test_criterion_05_weak_solution_residual():
    """Residual of the lifted continuity equation converges under
    (h, dt) -> (h/2, dt/4) and flags perturbed paths."""
    tg1, b1, bp1, phi1 = _weak_setup(64, 64)
    tg2, b2, bp2, phi2 = _weak_setup(128, 256)
    r1 = weak_solution_residual(bp1, b1, 0.05, phi1)
    r2 = weak_solution_residual(bp2, b2, 0.05, phi2)
    order = float(np.log2(r1 / r2))
    assert order >= 0.8
    beliefs = [bp2.belief_at(k) for k in range(tg2.steps + 1)]
    half = tg2.steps // 2
    perturbed = [Belief(np.array([0.7, 0.3]), bl.atoms) if k >= half else bl
                 for k, bl in enumerate(beliefs)]
    rp = weak_solution_residual(perturbed, b2, 0.05, phi2)
    assert rp >= 10 * r2
    report("weak-solution residual",
           f"order = {order:.2f}, perturbed/baseline = {rp / r2:.1f}x")


def test_criterion_06_holder_modulus_stability():
    """Belief-path Hölder modulus is finite and stable under time
    refinement for diffusive dynamics with bounded drift."""
    grid = build_grid(1, 64)
    T = 0.5
    mods = []
    for steps in (128, 256, 512):
        tg = TimeGrid(T, steps)
        b = constant_drift(grid, tg, 0.7)  # |b| <= 1
        mu0 = Belief(np.array([0.5, 0.5]),
                     (mollified_dirac(grid, 0.1), mollified_dirac(grid, 0.5)))
        bp = push_forward(mu0, b, 0.05, tg)
        mods.append(belief_holder_modulus(bp))
    assert all(np.isfinite(m) and m > 0 for m in mods)
    spread = (max(mods) - min(mods)) / min(mods)
    assert spread < 0.2
    report("Hölder modulus", f"moduli {[f'{m:.4f}' for m in mods]}, "
           f"spread = {100 * spread:.1f}%")


def test_criterion_07_tower_identity():
    """Partition-class recombination of the filtered beliefs reproduces
    the unfiltered expectation across 100 randomized configurations."""
    grid = build_grid(1, 32)
    x = grid.axis_coords()
    cm = product_form_cost(ScalarField(grid, np.cos(2 * np.pi * x)))
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(100):
        mu = random_belief(grid, rng)
        tg = TimeGrid(0.25, 32)
        speed = float(rng.uniform(-0.9, 0.9))
        b = constant_drift(grid, tg, speed)
        sigma = float(rng.uniform(0.0, 0.2))
        k = int(rng.integers(1, tg.steps + 1))
        t = k * tg.dt
        inner = ScalarField(grid, np.sin(2 * np.pi * x) + 0.3 * x)
        phi = static_cylinder(inner)
        tau = float(10.0 ** rng.uniform(-9, 0))
        dev = tower_check(mu, b, sigma, tg, t, phi, cm, tau=tau)
        assert dev <= 1e-10
        worst = max(worst, dev)
    report("tower identity", f"100 configurations, max deviation = {worst:.1e}")


def test_criterion_08_illustrative_scenario():
    """Observed-payment filtering on the two-Dirac race: one elimination
    inside the predicted window, true atom survives, and play after the
    event reduces to the complete-information game."""
    t0 = time.perf_counter()
    cfg = race_config(256, 600, observation_dt=2.0 / 200)
    mu0, true_atom, cm, H, sigma, tg, fc, scfg = race_args(cfg)
    trace = simulate_observed(mu0, true_atom, cm, H, sigma, tg, fc, scfg)
    assert len(trace.events) == 1
    t_event, eliminated = trace.events[0]
    # payments start to differ once the shifted atom enters the well
    # support; the stated split time is the window's upper end
    epsilon = cfg["belief"]["atoms"][1]["center"]
    lo, hi = 0.25 - epsilon, 0.3125 - epsilon
    obs_dt = fc.observation_dt
    assert lo - obs_dt <= t_event <= hi + obs_dt
    assert eliminated == (1,)
    assert trace.beliefs[-1].n_atoms == 1
    assert all(s["converged"] for s in trace.segments)

    # post-event play = complete-information play on the remaining horizon
    seg = next(s for s in trace.segments if s["t_start"] == t_event)
    idx = trace.times.index(t_event)
    m_event = trace.beliefs[idx].atoms[0]
    steps_done = int(round(t_event / tg.dt))
    tg_rem = TimeGrid(tg.horizon - t_event, tg.steps - steps_done)
    complete = solve_complete_info(m_event, cm, H, sigma, tg_rem, scfg)
    u_gap = float(np.max(np.abs(seg["solution"].value.values
                                - complete.value.values)))
    assert u_gap < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report("illustrative scenario",
           f"event at t = {t_event:.3f} in [{lo - obs_dt:.4f}, {hi + obs_dt:.4f}], "
           f"post-event sup|u - u_complete| = {u_gap:.1e}, {elapsed:.0f}s")


def test_criterion_09_consistency_set_nonconvexity():
    """Payment-equal pairs and a payment-distinct singleton are both
    consistent, but none of their strict mixtures is."""
    grid = build_grid(1, 256)
    f0 = smoothed_well_profile(grid)
    cm = illustrative_cost(f0, 0.5)
    tau = 1e-6
    m1 = mollified_dirac(grid, 0.05)  # outside the well: payment = f0
    m2 = mollified_dirac(grid, 0.15)  # outside the well: payment = f0
    m3 = mollified_dirac(grid, 0.35)  # inside: payment scaled by coupling
    pair = Belief(np.array([0.5, 0.5]), (m1, m2))
    single = Belief(np.array([1.0]), (m3,))
    assert in_consistency_set(pair, cm, tau)
    assert in_consistency_set(single, cm, tau)
    for beta in np.arange(0.1, 0.95, 0.1):
        mix = Belief(np.array([beta / 2, beta / 2, 1 - beta]), (m1, m2, m3))
        assert not in_consistency_set(mix, cm, tau)
    report("consistency-set non-convexity",
           "endpoints consistent, all strict mixtures 0.1..0.9 rejected")


def test_criterion_10_discrete_adjointness():
    """The forward density step is the exact transpose of the linearized
    backward value step over 100 random field/drift pairs."""
    grid = build_grid(1, 64)
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        phi = rng.standard_normal(grid.shape)
        m = rng.random(grid.shape)
        b = rng.uniform(-1, 1, (1,) + grid.shape)
        sigma = float(rng.uniform(0, 0.3))
        dt = 0.5 * grid.spacing
        lhs = float(np.sum(hjb_linear_step(grid, phi, b, sigma, dt) * m))
        rhs = float(np.sum(phi * fp_step(grid, m, b, sigma, dt)))
        dev = abs(lhs - rhs) / max(1.0, abs(lhs))
        assert dev < 1e-10
        worst = max(worst, dev)
    report("discrete adjointness", f"100 pairs, max relative deviation = {worst:.1e}")
