import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from blindmfg import cli
from blindmfg.beliefs import (
    Belief,
    BeliefPath,
    CostModel,
    aggregate_terminal,
    constant_cost,
    product_form_cost,
)
from blindmfg.hjb_fp import DriftField, Hamiltonian, TimeGrid
from blindmfg.monotonicity import lifted_pairing
from blindmfg.solver import SolverConfig, solve_blind, solve_complete_info
from blindmfg.torus import ScalarField, build_grid, mollified_dirac

from conftest import constant_field, equilibrium_gap, race_args, race_config, uniform_density


def mild_product_cost(grid, amplitude=0.3):
    x = grid.axis_coords()
    return product_form_cost(ScalarField(grid, amplitude * np.cos(2 * np.pi * x)))


SMOOTH_H = Hamiltonian("smoothed_abs", smoothing=0.5)


def small_setup():
    grid = build_grid(1, 64)
    tg = TimeGrid(0.5, 128)
    return grid, tg, mild_product_cost(grid), SMOOTH_H, 0.1


class TestSolverConfig:
    def test_relaxation_range(self):
        with pytest.raises(ValueError):
            SolverConfig(relaxation=0.0)
        with pytest.raises(ValueError):
            SolverConfig(relaxation=1.1)

    def test_nan_tol_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=np.nan)


class TestSolveCompleteInfo:
    def test_decoupled_converges_immediately(self):
        grid, tg, _, H, sigma = small_setup()
        x = grid.axis_coords()
        cm = constant_cost(ScalarField(grid, np.sin(2 * np.pi * x)))
        sol = solve_complete_info(mollified_dirac(grid, 0.3), cm, H, sigma, tg)
        # cost ignores the density: the first full Picard step is exact
        assert sol.diagnostics["converged"]
        assert sol.diagnostics["iterations"] <= 2

    def test_coupled_converges(self):
        grid, tg, cm, H, sigma = small_setup()
        sol = solve_complete_info(mollified_dirac(grid, 0.3), cm, H, sigma, tg)
        assert sol.diagnostics["converged"]
        assert sol.diagnostics["final_gap"] < 1e-6
        # gap sequence monotone after burn-in
        gaps = [row["drift_gap"] for row in sol.diagnostics["history"]][2:]
        assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))

    def test_mirror_symmetry(self):
        grid, tg, _, H, sigma = small_setup()
        x = grid.axis_coords()
        # cos(2 pi x) is symmetric under x -> 1 - x on the periodic grid
        cm = mild_product_cost(grid)
        m0 = mollified_dirac(grid, 0.0)
        sol = solve_complete_info(m0, cm, H, sigma, tg)

        def reflect(a):
            return np.concatenate([a[:1], a[1:][::-1]])

        for k in (0, tg.steps // 2, tg.steps):
            assert np.allclose(sol.value.values[k], reflect(sol.value.values[k]),
                               atol=1e-9)
            mean = sum(w * p[k] for w, p in zip(sol.belief.weights, sol.belief.values))
            assert np.allclose(mean, reflect(mean), atol=1e-9)


class TestSolveBlind:
    def test_single_atom_equals_complete_info(self):
        grid, tg, cm, H, sigma = small_setup()
        m0 = mollified_dirac(grid, 0.3)
        blind = solve_blind(Belief(np.array([1.0]), (m0,)), cm, H, sigma, tg)
        complete = solve_complete_info(m0, cm, H, sigma, tg)
        assert np.max(np.abs(blind.value.values - complete.value.values)) < 1e-10
        assert np.max(np.abs(blind.drift.values - complete.drift.values)) < 1e-10

    def test_cost_independent_of_m_ignores_belief(self):
        grid, tg, _, H, sigma = small_setup()
        x = grid.axis_coords()
        cm = constant_cost(ScalarField(grid, np.sin(2 * np.pi * x)))
        mu1 = Belief(np.array([1.0]), (mollified_dirac(grid, 0.3),))
        mu2 = Belief(np.array([0.5, 0.5]),
                     (mollified_dirac(grid, 0.1), uniform_density(grid)))
        s1 = solve_blind(mu1, cm, H, sigma, tg)
        s2 = solve_blind(mu2, cm, H, sigma, tg)
        assert np.array_equal(s1.value.values, s2.value.values)
        assert s2.diagnostics["iterations"] <= 2

    def test_two_atom_multistart_agreement(self):
        grid, tg, cm, H, sigma = small_setup()
        mu0 = Belief(np.array([0.5, 0.5]),
                     (mollified_dirac(grid, 0.2), mollified_dirac(grid, 0.7)))
        cfg = SolverConfig(tol=1e-8)
        s1 = solve_blind(mu0, cm, H, sigma, tg, cfg)
        other = DriftField(grid, tg,
                           np.full((tg.steps + 1, 1) + grid.shape, 0.5))
        s2 = solve_blind(mu0, cm, H, sigma, tg, cfg, initial_drift=other)
        assert s1.diagnostics["converged"] and s2.diagnostics["converged"]
        assert np.max(np.abs(s1.drift.values - s2.drift.values)) < 10 * cfg.tol

    # the payment filter reads its observations off sol.belief, so the
    # returned belief must be the flow under the returned drift however
    # the loop stopped: converged (damped or plain Picard) or at max_iter
    @pytest.mark.parametrize("cfg", [SolverConfig(), SolverConfig(max_iter=2),
                                     SolverConfig(relaxation=1.0)],
                             ids=["damped", "max_iter_stop", "plain_picard"])
    def test_solution_invariants(self, cfg):
        from blindmfg.beliefs import push_forward
        from blindmfg.hjb_fp import optimal_drift

        grid, tg, cm, H, sigma = small_setup()
        # atoms at 0.2 and 0.7 cancel in the cos-moment and leave a zero
        # drift in one iteration; 0.2 and 0.4 take several
        mu0 = Belief(np.array([0.5, 0.5]),
                     (mollified_dirac(grid, 0.2), mollified_dirac(grid, 0.4)))
        sol = solve_blind(mu0, cm, H, sigma, tg, cfg)
        assert sol.diagnostics["iterations"] > 1
        assert sol.diagnostics["converged"] == (cfg.max_iter > 2)
        recomputed_drift = optimal_drift(sol.value, H)
        assert np.array_equal(sol.drift.values, recomputed_drift.values)
        recomputed_belief = push_forward(mu0, sol.drift, sigma, tg)
        assert np.array_equal(sol.belief.values, recomputed_belief.values)
        assert sol.diagnostics["mass_error"] <= 1e-10
        assert sol.drift.sup_norm() <= H.lipschitz + 1e-12

    def test_one_hjb_solve_per_iteration(self, monkeypatch):
        import blindmfg.solver as solver_module

        calls = {"hjb": 0, "push": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(solver_module, "solve_hjb_backward",
                            counted("hjb", solver_module.solve_hjb_backward))
        monkeypatch.setattr(solver_module, "push_forward",
                            counted("push", solver_module.push_forward))
        grid, tg, cm, H, sigma = small_setup()
        mu0 = Belief(np.array([0.5, 0.5]),
                     (mollified_dirac(grid, 0.2), mollified_dirac(grid, 0.4)))
        sol = solve_blind(mu0, cm, H, sigma, tg)
        iterations = sol.diagnostics["iterations"]
        assert sol.diagnostics["converged"] and iterations > 2
        assert calls["hjb"] == iterations
        # at most one extra pushforward, under the returned drift
        assert iterations <= calls["push"] <= iterations + 1

    def test_picard_loop_builds_no_belief(self, monkeypatch):
        """The loop costs the stacked path: no belief_at, hence no validated
        Belief.  The fixed terminal cost is aggregated once per solve, yet
        the value's last slice has the terminal belief's bits."""
        import blindmfg.solver as solver_module

        grid, tg, cm, H, sigma = small_setup()
        # a nonzero terminal field, so its bits are tested
        cm = replace(cm, terminal=np.sin(2 * np.pi * grid.axis_coords()))
        mu0 = Belief(np.array([0.5, 0.5]),
                     (mollified_dirac(grid, 0.2), mollified_dirac(grid, 0.4)))
        calls, terminals = [], []
        belief_at = BeliefPath.belief_at
        monkeypatch.setattr(BeliefPath, "belief_at",
                            lambda self, k: calls.append(k) or belief_at(self, k))
        monkeypatch.setattr(solver_module, "aggregate_terminal",
                            lambda mu, cm: terminals.append(mu) or aggregate_terminal(mu, cm))
        sol = solve_blind(mu0, cm, H, sigma, tg)
        assert sol.diagnostics["iterations"] > 2 and calls == []
        assert len(terminals) == 1
        expected = aggregate_terminal(sol.belief.belief_at(tg.steps), cm)
        assert np.array_equal(sol.value.values[-1], expected.values)

    def test_nonconvergence_is_reported_not_raised(self):
        grid, tg, cm, H, sigma = small_setup()
        mu0 = Belief(np.array([1.0]), (mollified_dirac(grid, 0.3),))
        sol = solve_blind(mu0, cm, H, sigma, tg, SolverConfig(max_iter=1))
        assert not sol.diagnostics["converged"]
        assert sol.diagnostics["final_gap"] > 0
        assert len(sol.diagnostics["history"]) == 1

    def test_non_finite_gap_stops_at_once(self):
        grid, tg, cm, H, sigma = small_setup()
        nan_cost = replace(cm, a=np.full(grid.shape, np.nan))
        mu0 = Belief(np.array([1.0]), (mollified_dirac(grid, 0.3),))
        sol = solve_blind(mu0, nan_cost, H, sigma, tg, SolverConfig(max_iter=50))
        diag = sol.diagnostics
        assert not diag["converged"]
        assert diag["iterations"] == 1
        assert np.isnan(diag["final_gap"])
        assert np.isnan(diag["history"][0]["drift_gap"])
        # the belief is the one pushed forward under the last finite drift
        assert diag["mass_error"] < 1e-12


class TestDampedIteration:
    """Relaxation 1 is plain Picard; damped runs are Anderson-accelerated."""

    def test_undamped_is_plain_picard(self):
        from blindmfg.beliefs import aggregate_terminal, push_forward, running_cost_path
        from blindmfg.hjb_fp import optimal_drift, solve_hjb_backward, zero_drift

        grid, tg, cm, H, sigma = small_setup()
        mu0 = Belief(np.array([0.5, 0.5]),
                     (mollified_dirac(grid, 0.2), mollified_dirac(grid, 0.4)))
        cfg = SolverConfig(relaxation=1.0)
        sol = solve_blind(mu0, cm, H, sigma, tg, cfg)
        b, u_prev, rows = zero_drift(grid, tg), None, []
        for _ in range(cfg.max_iter):
            bp = push_forward(mu0, b, sigma, tg)
            u = solve_hjb_backward(running_cost_path(bp, cm),
                                   aggregate_terminal(bp.belief_at(tg.steps), cm),
                                   H, sigma, tg)
            b_new = optimal_drift(u, H)
            rows.append((float(np.max(np.abs(b_new.values - b.values))),
                         np.inf if u_prev is None
                         else float(np.max(np.abs(u.values - u_prev)))))
            if rows[-1][0] < cfg.tol:
                break
            b, u_prev = b_new, u.values
        assert sol.diagnostics["converged"] and len(rows) > 2
        assert np.array_equal(sol.drift.values, b_new.values)
        assert np.array_equal(sol.value.values, u.values)
        assert [(row["drift_gap"], row["value_change"])
                for row in sol.diagnostics["history"]] == rows

    def test_pushed_drifts_stay_in_the_bound(self, monkeypatch):
        import blindmfg.solver as solver_module

        # at this coupling, unclipped extrapolation overshoots the bound
        # 0.5 by about 3e-3 on the way to the fixed point
        grid, tg = build_grid(1, 32), TimeGrid(0.5, 64)
        H = Hamiltonian("capped_quadratic", cap=0.5)
        sups = []
        push_forward = solver_module.push_forward

        def spy(mu0, b, sigma, tg):
            sups.append(b.sup_norm())
            return push_forward(mu0, b, sigma, tg)

        monkeypatch.setattr(solver_module, "push_forward", spy)
        mu0 = Belief(np.array([1.0]), (mollified_dirac(grid, 0.3),))
        sol = solve_blind(mu0, mild_product_cost(grid, 2.0), H, 0.02, tg,
                          SolverConfig(relaxation=0.5, max_iter=30))
        assert sol.diagnostics["converged"]
        assert max(sups) <= H.lipschitz

    def test_damped_race_converges_in_every_segment(self):
        from blindmfg.payments import simulate_observed

        # bang-bang drifts on the benchmark race: the gap grows now and
        # then, and without the history restart one of the 50 segments
        # stalls; damped Picard left 14 of them unconverged
        race_cfg = race_config(256, 150, observation_dt=0.01)
        race_cfg["time"]["T"] = 0.5
        mu0, true_atom, cm, H, sigma, tg, fc, _ = race_args(race_cfg)

        def race(cfg):
            return simulate_observed(mu0, true_atom, cm, H, sigma, tg, fc, cfg)

        damped = race(SolverConfig())
        assert all(seg["converged"] for seg in damped.segments)
        plain = race(SolverConfig(relaxation=1.0, tol=1e-9, max_iter=60))
        assert damped.events == plain.events
        assert damped.surviving_indices == plain.surviving_indices

    def test_strong_coupling_converges_where_damped_picard_stalls(self):
        # damped Picard does not converge here in 100 iterations, nor does
        # Anderson when a restart drops the newest secant pair too
        grid, tg, _, H, _ = small_setup()
        mu0 = Belief(np.array([0.3, 0.3, 0.4]),
                     tuple(mollified_dirac(grid, c) for c in (0.15, 0.45, 0.75)))
        sol = solve_blind(mu0, mild_product_cost(grid, 2.0), H, 0.05, tg,
                          SolverConfig(relaxation=0.5, tol=1e-8, max_iter=100))
        assert sol.diagnostics["converged"]

    def test_damped_matches_undamped_in_fewer_iterations(self):
        grid, tg, cm, H, sigma = small_setup()
        m0 = mollified_dirac(grid, 0.3)
        plain = solve_complete_info(m0, cm, H, sigma, tg, SolverConfig(relaxation=1.0))
        damped = solve_complete_info(m0, cm, H, sigma, tg, SolverConfig(relaxation=0.5))
        assert plain.diagnostics["converged"] and damped.diagnostics["converged"]
        assert np.max(np.abs(damped.drift.values - plain.drift.values)) < 1e-6
        # damped Picard, (1 - 0.5) b + 0.5 G(b), needed 13 iterations here
        assert damped.diagnostics["iterations"] < 13

    def test_falling_gap_steps_undamped(self):
        """After a secant pair whose gap did not grow, the step is
        x + f - gamma (dX + dF); after a rise the history restarts and
        the relaxation damps the step; a warm start's first step, which
        holds no pair, is the damped x + theta f."""
        from blindmfg.solver import _Anderson

        rng = np.random.default_rng(0)
        size, relaxation = 8, 0.5
        mixer = _Anderson(size, bound=1e9)  # no clipping
        xs, fs = [], []

        def expected(theta, pairs):
            x, f = xs[-1], fs[-1]
            dx = np.diff(xs[-pairs - 1:], axis=0)
            df = np.diff(fs[-pairs - 1:], axis=0)
            gamma = np.linalg.lstsq(df.T, f, rcond=None)[0]
            return x + theta * f - gamma @ (dx + theta * df)

        x = rng.standard_normal(size)
        # first step from the zero drift: the solver passes theta 1
        for gap, theta, pairs in [(1.0, 1.0, 0), (0.5, 1.0, 1), (0.8, relaxation, 1),
                                  (0.3, 1.0, 2), (0.2, 1.0, 3)]:
            g = rng.standard_normal(size)
            xs.append(x)
            fs.append(g - x)
            out = mixer.step(x, g, gap, 1.0 if pairs == 0 else relaxation)
            np.testing.assert_allclose(out, expected(theta, pairs), rtol=1e-10, atol=1e-12)
            x = out

        warm = _Anderson(size, bound=1e9)
        g = rng.standard_normal(size)
        assert np.array_equal(warm.step(x, g, 0.4, relaxation), x + relaxation * (g - x))


def blind_game():
    """The game of configs/blind.json, which blind3 seed 0 also runs."""
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / "blind.json")
                     .read_text())
    _, tg, sigma, H, cm, mu0, scfg = cli._build_game(cfg, "belief")
    return mu0, cm, H, sigma, tg, scfg


class TestBlindGame:
    def test_converges_in_six_iterations(self):
        # damping every Anderson step by the relaxation took 9
        sol = solve_blind(*blind_game())
        assert sol.diagnostics["converged"]
        assert sol.diagnostics["iterations"] <= 6

    def test_random_initial_drifts_reach_the_same_equilibrium(self):
        """The product-form cost with G the identity is monotone, so the
        equilibrium is unique: warm starts from bounded random drifts,
        whose first step the relaxation damps, reach the zero start's."""
        mu0, cm, H, sigma, tg, cfg = blind_game()
        grid = mu0.grid
        ref = solve_blind(mu0, cm, H, sigma, tg, cfg)
        rng = np.random.default_rng(0)
        for _ in range(3):
            b = rng.uniform(-H.lipschitz, H.lipschitz, (tg.steps + 1, grid.dim) + grid.shape)
            sol = solve_blind(mu0, cm, H, sigma, tg, cfg, initial_drift=DriftField(grid, tg, b))
            assert sol.diagnostics["converged"]
            assert np.max(np.abs(sol.value.values - ref.value.values)) <= 1e-9
            assert np.max(np.abs(sol.belief.values - ref.belief.values)) <= 1e-8


def damped_game():
    grid = build_grid(1, 64)
    mu0 = Belief(np.array([0.3, 0.3, 0.4]),
                 tuple(mollified_dirac(grid, c) for c in (0.15, 0.45, 0.75)))
    return (mu0, mild_product_cost(grid), SMOOTH_H, 0.05, TimeGrid(0.5, 128),
            SolverConfig(relaxation=0.5, tol=1e-10))


def bang_bang_game():
    # the race: abs, sigma 0, undamped
    mu0, _, cm, H, sigma, tg, _, scfg = race_args(race_config(64, 128, observation_dt=0.01))
    return mu0, cm, H, sigma, tg, scfg


class TestTimeConsistency:
    """The equilibrium restricted to [t_k, T] solves the game started at
    t_k from belief_at(k), to the solver's tolerance: the discrete HJB
    and FP are step-by-step recursions.  A replanning step that reuses a
    converged solve when no atom was eliminated rests on this."""

    @pytest.mark.parametrize("game", [damped_game, bang_bang_game],
                             ids=["damped", "bang_bang"])
    def test_restriction_solves_the_remaining_game(self, game):
        mu0, cm, H, sigma, tg, cfg = game()
        sol = solve_blind(mu0, cm, H, sigma, tg, cfg)
        assert sol.diagnostics["converged"]
        steps = tg.steps
        for k in (1, steps // 4, steps // 2, steps - 1):
            sub_tg = TimeGrid((steps - k) * tg.dt, steps - k)
            assert sub_tg.dt == tg.dt
            warm = DriftField(mu0.grid, sub_tg, sol.drift.values[k:])
            rest = solve_blind(sol.belief.belief_at(k), cm, H, sigma, sub_tg, cfg,
                               initial_drift=warm)
            assert rest.diagnostics["iterations"] == 1
            assert rest.diagnostics["converged"]
            assert np.max(np.abs(rest.value.values - sol.value.values[k:])) <= 1e-10
            assert np.max(np.abs(rest.belief.values - sol.belief.values[:, k:])) <= 1e-10


class TestEquilibriumGap:
    def test_converged_below_tol(self):
        grid, tg, cm, H, sigma = small_setup()
        mu0 = Belief(np.array([0.5, 0.5]),
                     (mollified_dirac(grid, 0.2), mollified_dirac(grid, 0.7)))
        sol = solve_blind(mu0, cm, H, sigma, tg)
        assert equilibrium_gap(sol, cm, H, sigma, tg) <= 1e-6

    def test_perturbed_drift_detected(self):
        from dataclasses import replace

        grid, tg, cm, H, sigma = small_setup()
        mu0 = Belief(np.array([0.5, 0.5]),
                     (mollified_dirac(grid, 0.2), mollified_dirac(grid, 0.7)))
        sol = solve_blind(mu0, cm, H, sigma, tg)
        vals = sol.drift.values.copy()
        vals[0] += 0.1
        bad = replace(sol, drift=DriftField(grid, tg, vals))
        assert equilibrium_gap(bad, cm, H, sigma, tg) >= 0.05

    def test_zero_cost_gap_exact(self):
        grid, tg, _, H, sigma = small_setup()
        cm = constant_cost(constant_field(grid, 0.0))
        mu0 = Belief(np.array([1.0]), (mollified_dirac(grid, 0.3),))
        sol = solve_blind(mu0, cm, H, sigma, tg)
        assert equilibrium_gap(sol, cm, H, sigma, tg) == 0.0


def coupling_terms(sol1, sol2, cm, tg):
    """The aggregate coupling of the uniqueness computation, in two parts:
    the time sum of the lifted pairings of the two solutions' belief paths,
    and the terminal field (zeros without one) paired at the last step as
    a constant running cost."""
    running = 0.0
    for k in range(tg.steps):
        running += tg.dt * lifted_pairing(cm, sol1.belief.belief_at(k),
                                          sol2.belief.belief_at(k))
    field = np.zeros(sol1.belief.grid.shape) if cm.terminal is None else cm.terminal
    terminal = lifted_pairing(CostModel("constant", a=field),
                              sol1.belief.belief_at(tg.steps),
                              sol2.belief.belief_at(tg.steps))
    return running, terminal


class TestCrossSolutionCoupling:
    def test_nonpositive_for_monotone_instance(self):
        grid, tg, cm, H, sigma = small_setup()
        mu0 = Belief(np.array([0.5, 0.5]),
                     (mollified_dirac(grid, 0.2), mollified_dirac(grid, 0.7)))
        s1 = solve_blind(mu0, cm, H, sigma, tg)
        other = DriftField(grid, tg,
                           np.full((tg.steps + 1, 1) + grid.shape, -0.3))
        s2 = solve_blind(mu0, cm, H, sigma, tg, initial_drift=other)
        running, terminal = coupling_terms(s1, s2, cm, tg)
        assert running + terminal <= 1e-6

    @pytest.mark.parametrize("running", ["product", "zero"])
    def test_terminal_field_pairs_as_a_constant_cost(self, running):
        """The terminal field's pairing at the last step, as a constant
        cost, is rounding alone: the signed weights sum to 0.  With a zero
        running cost it is the whole coupling."""
        grid, tg, cm, H, sigma = small_setup()
        field = ScalarField(grid, np.sin(2 * np.pi * grid.axis_coords()))
        cm = (replace(cm, terminal=field.values) if running == "product"
              else constant_cost(constant_field(grid, 0.0), field))
        s1 = solve_blind(Belief(np.array([0.1, 0.9]), (mollified_dirac(grid, 0.2),
                                                       mollified_dirac(grid, 0.7))),
                         cm, H, sigma, tg)
        s2 = solve_blind(Belief(np.array([0.7, 0.3]), (mollified_dirac(grid, 0.25),
                                                       mollified_dirac(grid, 0.6))),
                         cm, H, sigma, tg)
        total, terminal = coupling_terms(s1, s2, cm, tg)
        assert abs(terminal) < 1e-15
        assert (total == 0.0) == (running == "zero")


def test_write_history_csv(tmp_path):
    grid, tg, cm, H, sigma = small_setup()
    sol = solve_complete_info(mollified_dirac(grid, 0.3), cm, H, sigma, tg)
    cli._write_history(tmp_path, sol)
    path = tmp_path / "history.csv"
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "drift_gap", "value_change"]
    assert len(rows) - 1 == sol.diagnostics["iterations"]
    assert float(rows[-1][1]) == sol.diagnostics["final_gap"]
