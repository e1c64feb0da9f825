import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blindmfg.beliefs import belief_holder_modulus
from blindmfg.hjb_fp import (
    DriftField,
    Hamiltonian,
    TimeGrid,
    _check_cfl,
    _diffusion_denominator,
    _diffusion_matrix,
    constant_drift,
    fp_step,
    hjb_linear_step,
    implicit_diffusion,
    optimal_drift,
    solve_fp_forward,
    solve_fp_stack,
    solve_hjb_backward,
    zero_drift,
)
from blindmfg.torus import (
    ScalarField,
    build_grid,
    density_from_values,
    mollified_dirac,
)

from conftest import (
    circle_distance,
    circular_mean,
    constant_field,
    hopf_lax_eikonal,
    one_atom_path,
    path_mass_error,
    random_density,
    uniform_density,
)

ALL_KINDS = [Hamiltonian("abs"), Hamiltonian("smoothed_abs", smoothing=0.3),
             Hamiltonian("capped_quadratic", cap=2.0),
             Hamiltonian("smoothed_abs", smoothing=0.0)]


class TestHamiltonian:
    def test_differentiable_where_the_profile_has_no_kink(self):
        assert [H.differentiable for H in ALL_KINDS] == [False, True, True, False]

    @pytest.mark.parametrize("H", ALL_KINDS)
    def test_vanishes_at_zero(self, H):
        assert H.profile(0.0) == 0.0

    @pytest.mark.parametrize("H", ALL_KINDS)
    def test_derivative_vanishes_at_zero(self, H):
        assert H.dprofile(0.0) == 0.0

    @pytest.mark.parametrize("H", ALL_KINDS)
    def test_lipschitz_bound(self, H):
        p = np.linspace(-5, 5, 2001)
        slopes = np.abs(np.diff(H.profile(p)) / np.diff(p))
        assert slopes.max() <= H.lipschitz + 1e-9

    @pytest.mark.parametrize("H", ALL_KINDS)
    def test_convexity(self, H):
        rng = np.random.default_rng(0)
        p, q = rng.uniform(-3, 3, 100), rng.uniform(-3, 3, 100)
        mid = H.profile((p + q) / 2)
        assert np.all(mid <= (H.profile(p) + H.profile(q)) / 2 + 1e-12)

    @pytest.mark.parametrize("H", [
        Hamiltonian("abs"), Hamiltonian("smoothed_abs", smoothing=0.0),
        Hamiltonian("smoothed_abs", smoothing=0.5), Hamiltonian("capped_quadratic", cap=0.5),
        Hamiltonian("capped_quadratic", cap=1.0)],
        ids=["abs", "smoothed-0", "smoothed-0.5", "capped-0.5", "capped-1"])
    def test_profile_is_never_negative_nor_minus_zero(self, H):
        """optimal_drift adds the two one-sided profiles as they are, and
        _godunov_into writes its first axis instead of adding it to +0.0:
        both need every profile value to be >= 0 and not -0.0."""
        rng = np.random.default_rng(0)
        edges = np.array([0.0, 5e-324, 1e-160, 1e154])
        p = np.concatenate([edges, -edges,
                            rng.standard_normal(1000) * 10.0 ** rng.integers(-20, 20, 1000)])
        h = H.profile(p)
        assert np.all(h >= 0.0)
        assert not np.signbit(h).any()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Hamiltonian("quartic")

    def test_nan_cap_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            Hamiltonian("capped_quadratic", cap=np.nan)

    def test_nan_smoothing_rejected(self):
        with pytest.raises(ValueError, match="smoothing"):
            Hamiltonian("smoothed_abs", smoothing=np.nan)


def test_cfl_check_rejects_nan_speed(grid64):
    with pytest.raises(ValueError, match="CFL"):
        _check_cfl(TimeGrid(1.0, 1024), grid64, np.nan, "HJB")


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
def test_diffusion_check_rejects_overflowing_symbol_only(dim, n):
    """sigma = 1e308 overflows 1 - dt*sigma*eig, and the diffusion step
    rejects it rather than return the mean; the largest sigma that leaves
    it finite, and sigma = 0, pass."""
    grid = build_grid(dim, n)
    dt = TimeGrid(1.0, 64).dt
    v = np.random.default_rng(n).random(grid.shape)
    with pytest.raises(ValueError, match="sigma"):
        implicit_diffusion(grid, v, 1e308, dt)
    biggest = 0.99 * np.finfo(float).max * grid.spacing ** 2 / (4 * dim * dt)
    assert np.isfinite(implicit_diffusion(grid, v, biggest, dt)).all()
    assert np.array_equal(implicit_diffusion(grid, v, 0.0, dt), v)


@pytest.mark.parametrize("n", [64, 128, 255, 256])
def test_dense_diffusion_inverse_is_the_symmetrised_circulant(n):
    """D has the bits of the n x n build it replaced: the circulant of the
    inverse transform of 1/symbol, averaged with its transpose."""
    grid, dt = build_grid(1, n), TimeGrid(1.0, 256).dt
    col = np.fft.ifft(1.0 / _diffusion_denominator(grid, 0.05, dt)).real
    idx = np.arange(n)
    oracle = col[(idx[:, None] - idx[None, :]) % n]
    oracle = 0.5 * (oracle + oracle.T)
    D = _diffusion_matrix(grid, 0.05, dt)
    assert np.array_equal(D, oracle) and D.flags.c_contiguous


def test_time_grid_rejects_nan_horizon():
    with pytest.raises(ValueError):
        TimeGrid(np.nan, 4)


def test_time_grid_rejects_a_step_that_rounds_to_zero():
    """A positive horizon whose T / steps underflows to 0: the solvers
    divide by the step.  The smallest step that stays positive passes."""
    with pytest.raises(ValueError, match="rounds the time step to 0"):
        TimeGrid(5e-324, 2)
    with pytest.raises(ValueError, match="rounds the time step to 0"):
        TimeGrid(1e-321, 1024)
    assert TimeGrid(5e-324, 1).dt == 5e-324


class TestSolveHjbBackward:
    def test_constant_solution_exact(self, grid64):
        tg = TimeGrid(0.5, 64)
        c, K = 0.7, -1.3
        running = np.full((tg.steps + 1,) + grid64.shape, c)
        for H in ALL_KINDS:
            u = solve_hjb_backward(running, constant_field(grid64, K), H, 0.1, tg)
            for k, t in enumerate(tg.times):
                expected = K + c * (tg.horizon - t)
                assert np.allclose(u.values[k], expected, atol=1e-12)

    def test_eikonal_against_hopf_lax(self):
        g = build_grid(1, 128)
        tg = TimeGrid(0.25, 32)  # dt = h: exact characteristics
        x = g.axis_coords()
        terminal = np.array([circle_distance(xi, 0.5) for xi in x])
        running = np.zeros((tg.steps + 1,) + g.shape)
        u = solve_hjb_backward(running, ScalarField(g, terminal),
                               Hamiltonian("abs"), 0.0, tg)
        oracle = hopf_lax_eikonal(g, terminal, tg.horizon)
        assert np.max(np.abs(u.values[0] - oracle)) < 1e-12

    def test_self_convergence(self):
        def solve(n, nt):
            g = build_grid(1, n)
            tg = TimeGrid(0.25, nt)
            x = g.axis_coords()
            running = np.broadcast_to(np.sin(2 * np.pi * x),
                                      (nt + 1,) + g.shape).copy()
            terminal = ScalarField(g, np.cos(2 * np.pi * x))
            H = Hamiltonian("smoothed_abs", smoothing=0.5)
            return solve_hjb_backward(running, terminal, H, 0.1, tg).values[0]

        ref = solve(512, 2048)
        err_coarse = np.max(np.abs(solve(64, 128) - ref[::8]))
        err_fine = np.max(np.abs(solve(128, 512) - ref[::4]))
        assert err_coarse / err_fine >= 1.5

    def test_cfl_violation_rejected(self, grid64):
        tg = TimeGrid(1.0, 8)  # dt = 0.125 >> h
        running = np.zeros((tg.steps + 1,) + grid64.shape)
        with pytest.raises(ValueError, match="CFL"):
            solve_hjb_backward(running, constant_field(grid64, 0.0),
                               Hamiltonian("abs"), 0.0, tg)

    def test_slice_count_mismatch(self, grid64):
        tg = TimeGrid(0.5, 64)
        running = np.zeros((tg.steps,) + grid64.shape)  # one slice short
        with pytest.raises(ValueError):
            solve_hjb_backward(running, constant_field(grid64, 0.0),
                               Hamiltonian("abs"), 0.0, tg)

    def test_terminal_slice_exact(self, grid64):
        tg = TimeGrid(0.5, 64)
        x = grid64.axis_coords()
        terminal = ScalarField(grid64, np.sin(2 * np.pi * x))
        running = np.zeros((tg.steps + 1,) + grid64.shape)
        u = solve_hjb_backward(running, terminal, Hamiltonian("abs"), 0.1, tg)
        assert np.array_equal(u.values[-1], terminal.values)

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_comparison_principle(self, seed):
        g = build_grid(1, 32)
        tg = TimeGrid(0.25, 32)
        rng = np.random.default_rng(seed)
        f1 = rng.uniform(-1, 0, (tg.steps + 1,) + g.shape)
        f2 = f1 + rng.uniform(0, 1, (tg.steps + 1,) + g.shape)
        t1 = rng.uniform(-1, 0, g.shape)
        t2 = t1 + rng.uniform(0, 1, g.shape)
        H = Hamiltonian("abs")
        u1 = solve_hjb_backward(f1, ScalarField(g, t1), H, 0.05, tg)
        u2 = solve_hjb_backward(f2, ScalarField(g, t2), H, 0.05, tg)
        assert np.all(u1.values <= u2.values + 1e-12)

    def test_comparison_bounds(self, grid64):
        tg = TimeGrid(0.5, 64)
        rng = np.random.default_rng(1)
        running = rng.uniform(-1, 1, (tg.steps + 1,) + grid64.shape)
        terminal = rng.uniform(-1, 1, grid64.shape)
        u = solve_hjb_backward(running, ScalarField(grid64, terminal),
                               Hamiltonian("abs"), 0.1, tg)
        for k, t in enumerate(tg.times):
            lo = running.min() * (tg.horizon - t) + terminal.min()
            hi = running.max() * (tg.horizon - t) + terminal.max()
            assert u.values[k].min() >= lo - 1e-10
            assert u.values[k].max() <= hi + 1e-10


class TestOptimalDrift:
    def test_constant_value_zero_drift(self, grid64):
        tg = TimeGrid(0.5, 64)
        running = np.zeros((tg.steps + 1,) + grid64.shape)
        u = solve_hjb_backward(running, constant_field(grid64, 1.0),
                               Hamiltonian("abs"), 0.0, tg)
        b = optimal_drift(u, Hamiltonian("abs"))
        assert np.all(b.values == 0.0)

    def test_sign_rule_abs(self):
        g = build_grid(1, 64)
        tg = TimeGrid(0.1, 16)
        x = g.axis_coords()
        # strictly increasing away from the kink on (0.1, 0.4)
        vals = np.broadcast_to(np.sin(2 * np.pi * x), (tg.steps + 1,) + g.shape)
        from blindmfg.hjb_fp import ValuePath
        u = ValuePath(g, tg, vals.copy())
        b = optimal_drift(u, Hamiltonian("abs"))
        interior = (x > 0.12) & (x < 0.2)
        assert np.all(b.values[0, 0, interior] == -1.0)

    def test_smoothed_abs_closed_form(self):
        g = build_grid(1, 100)  # h = 0.01: slope 0.1 resolved exactly below
        tg = TimeGrid(0.1, 100)
        x = g.axis_coords()
        from blindmfg.hjb_fp import ValuePath
        vals = np.broadcast_to(0.1 * x, (tg.steps + 1,) + g.shape)
        u = ValuePath(g, tg, vals.copy())
        b = optimal_drift(u, Hamiltonian("smoothed_abs", smoothing=0.1))
        # away from the wrap discontinuity, D_pH(0.1) = 0.1/sqrt(0.02)
        expected = -0.1 / np.sqrt(0.02)
        mid = (x > 0.2) & (x < 0.8)
        assert np.allclose(b.values[0, 0, mid], expected, atol=1e-9)

    @pytest.mark.parametrize("H", ALL_KINDS)
    def test_drift_bound(self, H, grid64):
        tg = TimeGrid(0.25, 64)
        rng = np.random.default_rng(5)
        running = rng.uniform(-1, 1, (tg.steps + 1,) + grid64.shape)
        terminal = ScalarField(grid64, rng.uniform(-1, 1, grid64.shape))
        u = solve_hjb_backward(running, terminal, H, 0.05, tg)
        assert optimal_drift(u, H).sup_norm() <= H.lipschitz + 1e-12


class TestSolveFpForward:
    def test_uniform_stationary(self, grid64):
        tg = TimeGrid(0.5, 64)
        path = solve_fp_forward(uniform_density(grid64), zero_drift(grid64, tg),
                                0.2, tg)
        assert np.allclose(path, 1.0, atol=1e-12)

    def test_heat_eigenmode_decay(self):
        g = build_grid(1, 128)
        tg = TimeGrid(0.25, 256)
        sigma, A = 0.05, 0.5
        x = g.axis_coords()
        m0 = density_from_values(g, 1.0 + A * np.cos(2 * np.pi * x))
        path = solve_fp_forward(m0, zero_drift(g, tg), sigma, tg)
        # Fourier amplitude of the first mode at final time
        amp = 2 * np.abs(np.fft.rfft(path[-1])[1]) / g.n
        exact = A * np.exp(-4 * np.pi ** 2 * sigma * tg.horizon)
        assert abs(amp - exact) / exact < 0.05

    def test_pure_transport_characteristics(self):
        g = build_grid(1, 128)
        tg = TimeGrid(0.25, 32)  # dt = h: exact shift
        m0 = mollified_dirac(g, 0.1)
        path = solve_fp_forward(m0, constant_drift(g, tg, 1.0), 0.0, tg)
        final = density_from_values(g, path[tg.steps])
        assert abs(circular_mean(final) - 0.35) < 2 * g.spacing
        # dt = h donor-cell is the exact shift operator
        assert np.allclose(path[-1], np.roll(m0.values, 32), atol=1e-12)

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_mass_and_positivity(self, seed):
        g = build_grid(1, 32)
        tg = TimeGrid(0.25, 32)
        rng = np.random.default_rng(seed)
        vals = np.broadcast_to(rng.uniform(-1, 1, (1,) + g.shape),
                               (tg.steps + 1, 1) + g.shape).copy()
        b = DriftField(g, tg, vals)
        m0 = random_density(g, rng)
        path = solve_fp_forward(m0, b, float(rng.uniform(0, 0.2)), tg)
        assert path_mass_error(g, path) <= 1e-10
        assert path.min() >= -1e-12

    def test_cfl_violation_rejected(self, grid64):
        tg = TimeGrid(1.0, 8)
        with pytest.raises(ValueError, match="CFL"):
            solve_fp_forward(uniform_density(grid64),
                             constant_drift(grid64, tg, 1.0), 0.0, tg)

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
    def test_stack_matches_single_solves(self, dim, n):
        """The batched step (FFT diffusion included) moves each density as
        its own solve does, bit for bit."""
        g = build_grid(dim, n)
        tg = TimeGrid(0.125, 32)
        rng = np.random.default_rng(dim)
        b = DriftField(g, tg, rng.uniform(-1, 1, (tg.steps + 1, dim) + g.shape))
        atoms = [random_density(g, rng) for _ in range(3)]
        stack = solve_fp_stack(g, np.stack([a.values for a in atoms]), b, 0.1, tg)
        assert stack.shape == (3, tg.steps + 1) + g.shape
        for a, path in zip(atoms, stack):
            m = a.values
            for k in range(tg.steps):
                m = fp_step(g, m, b.values[k], 0.1, tg.dt)
                assert np.array_equal(path[k + 1], m)


class TestAdjointness:
    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_linear_steps_adjoint(self, seed):
        """<HJB-step phi, m> = <phi, FP-step m> to machine precision."""
        g = build_grid(1, 32)
        rng = np.random.default_rng(seed)
        phi = rng.standard_normal(g.shape)
        m = rng.random(g.shape)
        b = rng.uniform(-1, 1, (1,) + g.shape)
        sigma = float(rng.uniform(0, 0.3))
        dt = 0.5 * g.spacing
        lhs = np.sum(hjb_linear_step(g, phi, b, sigma, dt) * m)
        rhs = np.sum(phi * fp_step(g, m, b, sigma, dt))
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs) / scale < 1e-10


class TestFpHolderModulus:
    """Hölder modulus of density paths, taken as one-atom belief paths."""

    def test_stationary_path_zero(self, grid64):
        tg = TimeGrid(0.5, 64)
        path = one_atom_path(uniform_density(grid64), zero_drift(grid64, tg),
                             0.0, tg)
        assert belief_holder_modulus(path) == 0.0

    def test_diffusion_stable_under_refinement(self):
        g = build_grid(1, 64)
        mods = []
        for nt in (128, 256, 512):
            tg = TimeGrid(0.5, nt)
            path = one_atom_path(mollified_dirac(g, 0.5), zero_drift(g, tg),
                                 0.05, tg)
            mods.append(belief_holder_modulus(path))
        assert all(np.isfinite(m) and m > 0 for m in mods)
        assert (max(mods) - min(mods)) / min(mods) < 0.2

    def test_transport_identity(self):
        # pure transport: W1(m_s, m_t) = |t-s|, so the reported modulus is
        # sqrt of the largest sampled time gap
        g = build_grid(1, 128)
        tg = TimeGrid(0.25, 32)
        path = one_atom_path(mollified_dirac(g, 0.1),
                             constant_drift(g, tg, 1.0), 0.0, tg)
        mod = belief_holder_modulus(path)
        assert abs(mod - np.sqrt(0.25)) < 0.1
