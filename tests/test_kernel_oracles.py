"""Bitwise oracles for the elementary HJB/FP kernels.

The reference formulas below are the textbook np.roll / np.fft.fftn
forms of each kernel, and plain loops of them for the time sweeps.  The
kernels in `hjb_fp` build the same stencils from ghost-cell differences,
flat shifts and basic slices in reused buffers, and run the FFT one axis
at a time; every element must come out of the same floating-point
operation, so the results are compared byte for byte (signed zeros
included), never to a tolerance.

The one exception is the dense matmul that replaces the FFT solve of the
implicit diffusion on small 1-D grids: it sums in another order, so it is
held to the FFT oracle by a tolerance fixed from float64 rounding, while
the FFT path itself stays pinned bit for bit at every size.
"""

import tracemalloc

import numpy as np
import pytest

from blindmfg import hjb_fp
from blindmfg.beliefs import (
    Belief,
    CylinderFunctional,
    _weighted_sum,
    illustrative_cost,
    product_form_cost,
    push_forward,
    ramp_cylinder,
    weak_ladder,
    weak_solution_residual,
)
from blindmfg.hjb_fp import (
    DriftField,
    Hamiltonian,
    TimeGrid,
    ValuePath,
    _diffusion_matrix,
    _GhostDiff,
    _fft_diffusion,
    constant_drift,
    fp_step,
    godunov_hamiltonian,
    implicit_diffusion,
    optimal_drift,
    solve_fp_stack,
    solve_hjb_backward,
    upwind_advection,
)
from blindmfg.payments import partition_by_payment, tower_check
from blindmfg.torus import (
    ScalarField,
    build_grid,
    density_from_values,
    integrate_stack,
    laplacian_array,
    mollified_dirac,
)

from conftest import ref_integral

SIZES = [(1, 8), (1, 128), (1, 256), (2, 32), (2, 50), (2, 64)]
KINDS = [Hamiltonian("abs"), Hamiltonian("smoothed_abs", smoothing=0.3),
         Hamiltonian("capped_quadratic", cap=2.0)]


# ---------------------------------------------------------------------------
# reference formulas

def ref_diff_minus(grid, v, ax):
    return (v - np.roll(v, 1, axis=ax - grid.dim)) / grid.spacing


def ref_diff_plus(grid, v, ax):
    return (np.roll(v, -1, axis=ax - grid.dim) - v) / grid.spacing


def ref_implicit_diffusion(grid, v, sigma, dt):
    if sigma == 0.0 or dt == 0.0:
        return v.copy()
    n = grid.n
    eig = (2.0 * np.cos(2.0 * np.pi * np.arange(n) / n) - 2.0) / grid.spacing ** 2
    if grid.dim == 2:
        eig = eig[:, None] + eig[None, :]
    denom = 1.0 - dt * sigma * eig
    axes = tuple(range(-grid.dim, 0))
    return np.real(np.fft.ifftn(np.fft.fftn(v, axes=axes) / denom, axes=axes))


def ref_godunov_hamiltonian(grid, u, H):
    out = np.zeros_like(u)
    for ax in range(grid.dim):
        pm = np.maximum(ref_diff_minus(grid, u, ax), 0.0)
        pp = np.minimum(ref_diff_plus(grid, u, ax), 0.0)
        out += np.maximum(H.profile(pm), H.profile(pp))
    return out


def ref_upwind_advection(grid, phi, b):
    out = np.zeros_like(phi)
    for ax in range(grid.dim):
        bp = np.maximum(b[ax], 0.0)
        bm = np.minimum(b[ax], 0.0)
        out += bp * ref_diff_plus(grid, phi, ax) + bm * ref_diff_minus(grid, phi, ax)
    return out


def ref_fp_step(grid, m, b, sigma, dt, diffuse=ref_implicit_diffusion):
    md = diffuse(grid, m, sigma, dt)
    out = md.copy()
    for ax in range(grid.dim):
        axis = ax - grid.dim
        bp = np.maximum(b[ax], 0.0)
        bm = np.minimum(b[ax], 0.0)
        flux = bp * md + np.roll(bm * md, -1, axis=axis)
        out += dt * (np.roll(flux, 1, axis=axis) - flux) / grid.spacing
    return out


def ref_optimal_drift(grid, u, H):
    b = np.empty((u.shape[0], grid.dim) + grid.shape)
    for ax in range(grid.dim):
        pm = np.maximum(ref_diff_minus(grid, u, ax), 0.0)
        pp = np.minimum(ref_diff_plus(grid, u, ax), 0.0)
        hm, hp = H.profile(pm), H.profile(pp)
        vel = -H.dprofile(np.where(hm >= hp, pm, pp))
        tie = np.abs(hm - hp) <= 1e-12 * (np.abs(hm) + np.abs(hp) + 1.0)
        b[:, ax] = np.where(tie & (pm > 0.0), 0.0, vel)
    return b


def ref_laplacian(grid, v):
    out = np.zeros_like(v)
    for ax in range(grid.dim):
        out += (np.roll(v, -1, axis=ax) - 2.0 * v
                + np.roll(v, 1, axis=ax)) / grid.spacing ** 2
    return out


# ---------------------------------------------------------------------------
# inputs

def _frozen(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _field(rng, lead, grid):
    """Rounded normals: many equal neighbours, so zero differences (and the
    signed zeros they produce) and Godunov ties occur; a few -0.0 entries."""
    v = np.round(rng.normal(size=lead + grid.shape), 1)
    v[v == 0.0] = -0.0
    return _frozen(v)


def _density(rng, lead, grid):
    return _frozen(rng.uniform(0.0, 2.0, size=lead + grid.shape))


def _drift(rng, grid):
    return _frozen(np.round(rng.uniform(-1.0, 1.0, size=(grid.dim,) + grid.shape), 2))


def _dense(grid, sigma):
    """Whether implicit_diffusion takes the dense matmul path."""
    return sigma > 0 and grid.dim == 1 and grid.n <= hjb_fp._DENSE_MAX_N


def _same_bits(new, ref):
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert new.tobytes() == ref.tobytes()


@pytest.fixture(params=SIZES, ids=lambda s: f"d{s[0]}n{s[1]}")
def grid(request):
    return build_grid(*request.param)


@pytest.fixture(params=[(), (3,)], ids=["single", "batch"])
def lead(request):
    return request.param


# ---------------------------------------------------------------------------
# oracles

def test_one_sided_differences(grid, lead):
    rng = np.random.default_rng(grid.n)
    v = _field(rng, lead, grid)
    for ax in range(grid.dim):
        d = _GhostDiff(grid, v.shape, ax)(v)
        assert d.buf.shape[ax - grid.dim] == grid.n + 1
        _same_bits(d.minus, ref_diff_minus(grid, v, ax))
        _same_bits(d.plus, ref_diff_plus(grid, v, ax))


@pytest.mark.parametrize("H", KINDS, ids=lambda H: H.kind)
def test_godunov_hamiltonian(grid, lead, H):
    u = _field(np.random.default_rng(grid.n + 1), lead, grid)
    _same_bits(godunov_hamiltonian(grid, u, H), ref_godunov_hamiltonian(grid, u, H))


def test_upwind_advection(grid, lead):
    rng = np.random.default_rng(grid.n + 2)
    phi, b = _field(rng, lead, grid), _drift(rng, grid)
    _same_bits(upwind_advection(grid, phi, b), ref_upwind_advection(grid, phi, b))


@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_implicit_diffusion(grid, lead, sigma):
    v = _density(np.random.default_rng(grid.n + 3), lead, grid)
    dt = 0.5 * grid.spacing
    # the FFT path is pinned at every size; test_dense_diffusion_matches_fft
    # holds the dense path to it
    kernel = _fft_diffusion if _dense(grid, sigma) else implicit_diffusion
    _same_bits(kernel(grid, v, sigma, dt), ref_implicit_diffusion(grid, v, sigma, dt))


@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_fp_step(grid, lead, sigma, monkeypatch):
    rng = np.random.default_rng(grid.n + 4)
    m, b = _density(rng, lead, grid), _drift(rng, grid)
    dt = 0.5 * grid.spacing
    if _dense(grid, sigma):
        # the stencils around the dense diffusion, then the FFT path
        _same_bits(fp_step(grid, m, b, sigma, dt),
                   ref_fp_step(grid, m, b, sigma, dt, implicit_diffusion))
        monkeypatch.setattr(hjb_fp, "_DENSE_MAX_N", 0)
    _same_bits(fp_step(grid, m, b, sigma, dt), ref_fp_step(grid, m, b, sigma, dt))


@pytest.mark.parametrize("sigma", [0.05, 0.1])
@pytest.mark.parametrize("n", [8, 128, 256])
def test_dense_diffusion_matches_fft(n, lead, sigma):
    grid = build_grid(1, n)
    assert _dense(grid, sigma)
    v = _density(np.random.default_rng(n + 3), lead, grid)
    dt = 0.5 * grid.spacing
    diff = implicit_diffusion(grid, v, sigma, dt) - ref_implicit_diffusion(grid, v, sigma, dt)
    assert np.max(np.abs(diff)) <= 1e-14


@pytest.mark.parametrize("sigma", [0.05, 0.1])
@pytest.mark.parametrize("n", [8, 128, 256])
def test_diffusion_matrix_symmetric_and_conservative(n, sigma):
    grid = build_grid(1, n)
    D = _diffusion_matrix(grid, sigma, 0.5 * grid.spacing)
    assert not D.flags.writeable
    assert np.array_equal(D, D.T)
    assert np.max(np.abs(D.sum(axis=0) - 1.0)) <= 4e-15


@pytest.mark.parametrize("H", KINDS, ids=lambda H: H.kind)
@pytest.mark.parametrize("steps", [1, 4])
def test_optimal_drift(grid, H, steps):
    u = _field(np.random.default_rng(grid.n + 5), (steps + 1,), grid)
    path = ValuePath(grid, TimeGrid(1.0, steps), u)
    _same_bits(optimal_drift(path, H).values, ref_optimal_drift(grid, u, H))


def test_laplacian_array(grid):
    v = _field(np.random.default_rng(grid.n + 6), (), grid)
    _same_bits(laplacian_array(grid, v), ref_laplacian(grid, v))


def test_kernels_leave_inputs_untouched(grid, lead):
    """Every input above is read-only, so a write would already raise;
    this also checks that the results never alias an input."""
    rng = np.random.default_rng(grid.n + 7)
    u, m, b = _field(rng, lead, grid), _density(rng, lead, grid), _drift(rng, grid)
    kept = [a.copy() for a in (u, m, b)]
    dt = 0.5 * grid.spacing
    results = [
        _GhostDiff(grid, u.shape, 0)(u).buf,
        godunov_hamiltonian(grid, u, KINDS[1]), upwind_advection(grid, u, b),
        implicit_diffusion(grid, m, 0.0, dt), implicit_diffusion(grid, m, 0.05, dt),
        fp_step(grid, m, b, 0.0, dt), fp_step(grid, m, b, 0.05, dt),
    ]
    for a, before in zip((u, m, b), kept):
        assert a.tobytes() == before.tobytes()
        assert not any(np.shares_memory(r, a) for r in results)


# ---------------------------------------------------------------------------
# sweeps: the time loops against written-out loops of the step formulas

SWEEP_SIZES = [(1, 8), (1, 128), (1, 256), (2, 20)]


def ref_hjb_sweep(grid, f, terminal, H, sigma, tg, diffuse):
    u = np.empty((tg.steps + 1,) + grid.shape)
    u[tg.steps] = terminal
    for k in range(tg.steps - 1, -1, -1):
        ham = ref_godunov_hamiltonian(grid, u[k + 1], H)
        u[k] = diffuse(grid, u[k + 1] + tg.dt * (f[k] - ham), sigma, tg.dt)
    return u


def ref_fp_sweep(grid, m0, b, sigma, tg, diffuse):
    m = np.empty((m0.shape[0], tg.steps + 1) + grid.shape)
    m[:, 0] = m0
    for k in range(tg.steps):
        m[:, k + 1] = ref_fp_step(grid, m[:, k], b[k], sigma, tg.dt, diffuse)
    return m


def _sweep_time(grid, steps):
    """A time grid with dt = 0.3 h: within the CFL bound of every drift
    below and of every Hamiltonian in KINDS, and not a power of two, so
    that a reordered product with dt changes bits."""
    return TimeGrid(0.3 * grid.spacing * steps, steps)


def _each_diffusion(grid, sigma, monkeypatch):
    """(reference diffusion, set-up) pairs: on the dense path the stencils
    around implicit_diffusion itself, then the FFT path against the
    textbook FFT solve."""
    if _dense(grid, sigma):
        yield implicit_diffusion
        monkeypatch.setattr(hjb_fp, "_DENSE_MAX_N", 0)
    yield ref_implicit_diffusion


@pytest.mark.parametrize("sigma", [0.0, 0.05])
@pytest.mark.parametrize("H", KINDS, ids=lambda H: H.kind)
@pytest.mark.parametrize("size", SWEEP_SIZES, ids=lambda s: f"d{s[0]}n{s[1]}")
def test_hjb_sweep(size, H, sigma, monkeypatch):
    grid = build_grid(*size)
    tg = _sweep_time(grid, 5)
    rng = np.random.default_rng(grid.n + 8)
    f, terminal = _field(rng, (tg.steps + 1,), grid), _field(rng, (), grid)
    for diffuse in _each_diffusion(grid, sigma, monkeypatch):
        u = solve_hjb_backward(f, ScalarField(grid, terminal), H, sigma, tg)
        _same_bits(u.values, ref_hjb_sweep(grid, f, terminal, H, sigma, tg, diffuse))


@pytest.mark.parametrize("sigma", [0.0, 0.05])
@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("size", SWEEP_SIZES, ids=lambda s: f"d{s[0]}n{s[1]}")
def test_fp_sweep(size, K, sigma, monkeypatch):
    grid = build_grid(*size)
    tg = _sweep_time(grid, 5)
    rng = np.random.default_rng(grid.n + 9)
    m0 = _density(rng, (K,), grid)
    b = _frozen(np.round(rng.uniform(-1.0, 1.0, (tg.steps + 1, grid.dim) + grid.shape), 2))
    for diffuse in _each_diffusion(grid, sigma, monkeypatch):
        m = solve_fp_stack(grid, m0, DriftField(grid, tg, b), sigma, tg)
        _same_bits(m, ref_fp_sweep(grid, m0, b, sigma, tg, diffuse))


@pytest.mark.parametrize("sigma", [0.0, 0.05])
@pytest.mark.parametrize("size", [(1, 64), (2, 16)], ids=lambda s: f"d{s[0]}n{s[1]}")
def test_sweep_memory_is_per_step(size, sigma):
    """Above its output, a sweep holds O(K n^d) scratch, not O(steps n^d):
    over 400 steps the extra peak stays within 10 K grid fields plus 64 KiB
    of fixed overhead, a quarter or less of 400 fields."""
    grid = build_grid(*size)
    tg = _sweep_time(grid, 400)
    field = 8 * grid.n ** grid.dim
    rng = np.random.default_rng(grid.n + 10)
    K = 3
    m0 = _density(rng, (K,), grid)
    b = DriftField(grid, tg, rng.uniform(-1.0, 1.0, (tg.steps + 1, grid.dim) + grid.shape))
    f = rng.normal(size=(tg.steps + 1,) + grid.shape)
    terminal = ScalarField(grid, rng.normal(size=grid.shape))
    runs = [lambda: solve_fp_stack(grid, m0, b, sigma, tg),
            lambda: solve_hjb_backward(f, terminal, KINDS[1], sigma, tg).values]
    for run in runs:
        run()  # caches (the dense inverse) fill outside the measurement
        tracemalloc.start()
        try:
            out = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 10 * K * field + 2 ** 16, (peak - out.nbytes) / field


# ---------------------------------------------------------------------------
# belief-level integrals: every ∫ field dm goes through integrate_stack, and
# each caller below is held bit for bit to a written-out per-atom loop.  The
# per-atom references of the duality pairing and of the cylinder generator A
# have no package counterpart; they live in conftest.py, and
# test_monotonicity.py's TestDualityPairing and TestOperatorACylinder run them.

BELIEF_GRIDS = [(1, 64), (2, 16)]


def ref_belief_at(bp, k):
    """One density_from_values per atom slice."""
    return Belief(bp.weights, tuple(density_from_values(bp.grid, v[k]) for v in bp.values))


def ref_weak_solution_residual(beliefs, b, sigma, phi):
    tg, grid = b.time_grid, b.grid
    h = phi.inner.values
    for a in beliefs[-1].atoms:
        if abs(phi.psi(tg.horizon, ref_integral(grid, h, a.values))) > 1e-12:
            raise ValueError("test functional must vanish at the horizon")
    lap_h = laplacian_array(grid, h)
    acc = 0.0
    for k in range(tg.steps):
        gen = sigma * lap_h + upwind_advection(grid, h, b.values[k])
        t = tg.times[k]
        for w, a in zip(beliefs[k].weights, beliefs[k].atoms):
            s = ref_integral(grid, h, a.values)
            gen_m = ref_integral(grid, gen, a.values)
            acc += tg.dt * w * (-phi.psi_t(t, s) - phi.psi_s(t, s) * gen_m)
    for w, a in zip(beliefs[0].weights, beliefs[0].atoms):
        acc -= w * phi.psi(0.0, ref_integral(grid, h, a.values))
    return abs(acc)


def ref_tower_check(mu, b, sigma, tg, t, phi, cm, tau):
    mu_t = ref_belief_at(push_forward(mu, b, sigma, tg), int(round(t / tg.dt)))
    class_of = {i: g for g in partition_by_payment(mu_t, cm, tau) for i in g}
    phi_vals = [phi.psi(t, ref_integral(mu.grid, phi.inner.values, a.values))
                for a in mu_t.atoms]
    w = mu_t.weights
    lhs = 0.0
    for i in range(mu_t.n_atoms):
        g = class_of[i]
        wg = float(sum(w[j] for j in g))
        lhs += w[i] * (sum(w[j] * phi_vals[j] for j in g) / wg)
    rhs = float(sum(w[j] * phi_vals[j] for j in range(mu_t.n_atoms)))
    return abs(lhs - rhs)


def _same_float(new, ref):
    assert float(new).hex() == float(ref).hex()


def _belief(grid, weights, centers):
    centers = np.reshape(centers, (len(weights), grid.dim))
    return Belief(np.asarray(weights), tuple(mollified_dirac(grid, c) for c in centers))


def _inner(grid):
    return ScalarField(grid, np.cos(2 * np.pi * grid.coords()[0])
                       + 0.5 * np.sin(2 * np.pi * grid.coords()[-1]))


def _sine_cylinder(grid, horizon):
    """(T - t) sin(∫ h dm): psi_s depends on the integral."""
    return CylinderFunctional(_inner(grid),
                              lambda t, s: (horizon - t) * np.sin(s),
                              lambda t, s: (horizon - t) * np.cos(s),
                              lambda t, s: -np.sin(s))


@pytest.mark.parametrize("lead", [(5,), (5, 7)], ids=["K", "K-steps"])
@pytest.mark.parametrize("size", BELIEF_GRIDS, ids=lambda s: f"d{s[0]}n{s[1]}")
def test_integrate_stack_fields_equal_whole_sums(size, lead):
    grid = build_grid(*size)
    rng = np.random.default_rng(grid.n + 11)
    phi, values = _field(rng, (), grid), _density(rng, lead, grid)
    out = integrate_stack(grid, phi, values)
    assert out.shape == lead
    for idx in np.ndindex(*lead):
        _same_bits(out[idx], np.sum(phi * values[idx]) * grid.spacing ** grid.dim)


def ref_weighted_sum(weights, fields):
    """The belief average as written out: w_i * f_i added to zeros atom by atom."""
    vals = np.zeros(fields[0].shape)
    for w, f in zip(weights, fields):
        vals += w * f
    return vals


@pytest.mark.parametrize("lead", [(), (9,)], ids=["field", "path"])
@pytest.mark.parametrize("size", BELIEF_GRIDS, ids=lambda s: f"d{s[0]}n{s[1]}")
def test_weighted_sum_equals_atom_loop(size, lead):
    """numpy does not document the order of an axis-0 sum: pin it to the
    loop for every atom count up to 16, on fields and on time paths, with
    signed weights and signed zeros."""
    grid = build_grid(*size)
    rng = np.random.default_rng(grid.n + len(lead))
    for K in range(1, 17):
        weights = rng.dirichlet(np.ones(K)) * rng.choice([-1.0, 1.0], K)
        shape = (K,) + lead + grid.shape
        scaled = rng.normal(size=shape) * 10.0 ** rng.integers(-4, 5, size=(K,) + (1,) * (len(shape) - 1))
        for fields in (_field(rng, (K,) + lead, grid), _frozen(scaled)):
            _same_bits(_weighted_sum(weights, fields), ref_weighted_sum(weights, fields))


@pytest.mark.parametrize("size", BELIEF_GRIDS, ids=lambda s: f"d{s[0]}n{s[1]}")
def test_weak_solution_residual_equals_per_atom_loop(size):
    grid = build_grid(*size)
    tg = TimeGrid(0.25, 16)
    rng = np.random.default_rng(grid.n + 12)
    mu0 = _belief(grid, [0.2, 0.5, 0.3], rng.random((3, grid.dim)))
    b = DriftField(grid, tg, _frozen(np.round(
        rng.uniform(-1.0, 1.0, (tg.steps + 1, grid.dim) + grid.shape), 2)))
    bp = push_forward(mu0, b, 0.05, tg)
    beliefs = [ref_belief_at(bp, k) for k in range(tg.steps + 1)]
    for k, mu in enumerate(beliefs):
        for new, ref in zip(bp.belief_at(k).atoms, mu.atoms):
            _same_bits(new.values, ref.values)
    half = tg.steps // 2
    perturbed = [Belief(np.array([0.5, 0.1, 0.4]), mu.atoms) if k >= half else mu
                 for k, mu in enumerate(beliefs)]
    for phi in (ramp_cylinder(_inner(grid), tg.horizon),
                _sine_cylinder(grid, tg.horizon)):
        _same_float(weak_solution_residual(bp, b, 0.05, phi),
                    ref_weak_solution_residual(beliefs, b, 0.05, phi))
        _same_float(weak_solution_residual(beliefs, b, 0.05, phi),
                    ref_weak_solution_residual(beliefs, b, 0.05, phi))
        pert = weak_solution_residual(perturbed, b, 0.05, phi)
        _same_float(pert, ref_weak_solution_residual(perturbed, b, 0.05, phi))
        assert pert != weak_solution_residual(bp, b, 0.05, phi)
    ramp = ramp_cylinder(_inner(grid), tg.horizon)
    # the sequence form still takes beliefs whose atoms change between steps
    dropped = [mu if k < half else Belief(np.array([1.0]), mu.atoms[:1])
               for k, mu in enumerate(beliefs)]
    _same_float(weak_solution_residual(dropped, b, 0.05, ramp),
                ref_weak_solution_residual(dropped, b, 0.05, ramp))
    # the ladder weighs the path's terms by a weight series, with no Belief per step
    (residual,), pert = weak_ladder([(mu0, b, _inner(grid))], 0.05,
                                    (0.5, np.array([0.5, 0.1, 0.4])))
    _same_float(residual, ref_weak_solution_residual(beliefs, b, 0.05, ramp))
    _same_float(pert, ref_weak_solution_residual(perturbed, b, 0.05, ramp))


@pytest.mark.parametrize("tau", [1e-6, 10.0], ids=["two-classes", "one-class"])
def test_tower_check_equals_per_atom_loop(grid64, tau):
    """Atoms at 0.1/0.9 and 0.35/0.65 pay alike in pairs under a cos cost."""
    tg = TimeGrid(0.25, 64)
    x = grid64.axis_coords()
    mu = _belief(grid64, [0.2, 0.3, 0.1, 0.4], [0.1, 0.9, 0.35, 0.65])
    b = constant_drift(grid64, tg, 0.0)
    phi = CylinderFunctional(ScalarField(grid64, np.sin(2 * np.pi * x)),
                             lambda t, s: np.exp(s), lambda t, s: np.exp(s),
                             lambda t, s: 0.0)
    for cm in (product_form_cost(ScalarField(grid64, np.cos(2 * np.pi * x))),
               illustrative_cost(ScalarField(grid64, np.cos(2 * np.pi * x) + 1.5), 0.5)):
        _same_float(tower_check(mu, b, 0.02, tg, 0.125, phi, cm, tau=tau),
                    ref_tower_check(mu, b, 0.02, tg, 0.125, phi, cm, tau))
