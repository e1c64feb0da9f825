import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blindmfg import cli
from blindmfg.beliefs import (
    Belief,
    constant_cost,
    moment_form_cost,
    product_form_cost,
    push_forward,
    static_cylinder,
)
from blindmfg.hjb_fp import TimeGrid, constant_drift
from blindmfg.monotonicity import (
    SignedBeliefDiff,
    _block_trials,
    certify_blind_monotone,
    counterexample_gap,
    duality_pairing,
    l2_pairing,
    lifted_pairing,
    operator_A_cylinder,
    random_belief,
)
from blindmfg.torus import (
    ScalarField,
    build_grid,
    constant_field,
    density_from_values,
    integrate,
    mollified_dirac,
)

from conftest import random_density


def cos_product_cost(grid):
    x = grid.axis_coords()
    return product_form_cost(ScalarField(grid, np.cos(2 * np.pi * x)))


def cos_product_cost_2d(grid):
    xx, yy = grid.coords()
    return product_form_cost(ScalarField(grid, np.cos(2 * np.pi * xx) * np.sin(2 * np.pi * yy)))


# Per-atom oracles: one Density per atom and one running-cost field per
# atom, as the certifier computed them before it worked on stacked arrays.

def oracle_random_belief(grid, rng, max_atoms=8):
    k = int(rng.integers(1, max_atoms + 1))
    weights = rng.dirichlet(np.ones(k))
    atoms = []
    for _ in range(k):
        if rng.random() < 0.7:
            center = rng.random(grid.dim) if grid.dim > 1 else float(rng.random())
            atoms.append(mollified_dirac(grid, center))
        else:
            atoms.append(density_from_values(grid, rng.random(grid.shape) + 1e-3))
    return Belief(weights, tuple(atoms))


def oracle_lifted_pairing(cm, mu1, mu2):
    diff = SignedBeliefDiff.from_beliefs(mu1, mu2)
    grid = diff.atoms[0].grid
    ftilde = np.zeros(grid.shape)
    for s, a in zip(diff.signed_weights, diff.atoms):
        ftilde += s * cm.running(a).values
    total = 0.0
    for s, a in zip(diff.signed_weights, diff.atoms):
        total += s * float(np.sum(ftilde * a.values) * grid.cell_volume)
    return total


def oracle_certify(cm, grid, seed, trials, max_atoms=8):
    rng = np.random.default_rng(seed)
    best, witness = np.inf, None
    for _ in range(trials):
        mu1 = oracle_random_belief(grid, rng, max_atoms)
        mu2 = oracle_random_belief(grid, rng, max_atoms)
        val = oracle_lifted_pairing(cm, mu1, mu2)
        if val < best:
            best, witness = val, (mu1, mu2)
    return best, witness


def oracle_first_nonfinite(cm, grid, seed, trials, max_atoms=8):
    """First trial whose per-atom pairing is not finite, and its pair; the
    oracle's ScalarField rejects a running cost that is not finite."""
    rng = np.random.default_rng(seed)
    for t in range(trials):
        mu1 = oracle_random_belief(grid, rng, max_atoms)
        mu2 = oracle_random_belief(grid, rng, max_atoms)
        try:
            val = oracle_lifted_pairing(cm, mu1, mu2)
        except ValueError:
            val = np.nan
        if not np.isfinite(val):
            return t, (mu1, mu2)
    return None, None


def assert_same_belief(mu, nu):
    assert np.array_equal(mu.weights, nu.weights)
    assert len(mu.atoms) == len(nu.atoms)
    for a, b in zip(mu.atoms, nu.atoms):
        assert np.array_equal(a.values, b.values)


class TestSignedBeliefDiff:
    def test_weights_must_cancel(self, grid64):
        with pytest.raises(ValueError, match="sum"):
            SignedBeliefDiff(np.array([0.6, -0.5]),
                             (mollified_dirac(grid64, 0.1),
                              mollified_dirac(grid64, 0.2)))

    def test_from_beliefs(self, grid64):
        mu = Belief(np.array([0.3, 0.7]),
                    (mollified_dirac(grid64, 0.1), mollified_dirac(grid64, 0.4)))
        nu = Belief(np.array([1.0]), (mollified_dirac(grid64, 0.8),))
        diff = SignedBeliefDiff.from_beliefs(mu, nu)
        assert np.allclose(diff.signed_weights, [0.3, 0.7, -1.0])
        assert abs(diff.signed_weights.sum()) < 1e-12


class TestL2Pairing:
    def test_equal_densities(self, grid64):
        m = random_density(grid64, np.random.default_rng(0))
        assert l2_pairing(cos_product_cost(grid64), m, m) == 0.0

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_moment_form_nondecreasing_g_monotone(self, seed):
        g = build_grid(1, 32)
        rng = np.random.default_rng(seed)
        cm = moment_form_cost(lambda s: s, g)  # g nondecreasing
        m1, m2 = random_density(g, rng), random_density(g, rng)
        assert l2_pairing(cm, m1, m2) >= -1e-10

    def test_product_form_square_identity(self, grid64):
        rng = np.random.default_rng(1)
        x = grid64.axis_coords()
        phi = ScalarField(grid64, np.cos(2 * np.pi * x))
        cm = product_form_cost(phi)
        for _ in range(20):
            m1, m2 = random_density(grid64, rng), random_density(grid64, rng)
            square = (integrate(phi, m1) - integrate(phi, m2)) ** 2
            assert l2_pairing(cm, m1, m2) == pytest.approx(square, abs=1e-12)

    def test_grid_mismatch(self, grid64):
        other = build_grid(1, 32)
        with pytest.raises(ValueError):
            l2_pairing(cos_product_cost(grid64),
                       mollified_dirac(grid64, 0.1), mollified_dirac(other, 0.1))


class TestLiftedPairing:
    def test_equal_beliefs(self, grid64):
        mu = Belief(np.array([0.5, 0.5]),
                    (mollified_dirac(grid64, 0.1), mollified_dirac(grid64, 0.6)))
        assert lifted_pairing(cos_product_cost(grid64), mu, mu) == pytest.approx(
            0.0, abs=1e-14)

    def test_grid_mismatch_rejected(self, grid64):
        mu = Belief(np.array([1.0]), (mollified_dirac(grid64, 0.1),))
        nu = Belief(np.array([1.0]), (mollified_dirac(build_grid(1, 32), 0.1),))
        with pytest.raises(ValueError, match="grids"):
            lifted_pairing(cos_product_cost(grid64), mu, nu)

    def test_swap_symmetry(self, grid64):
        rng = np.random.default_rng(2)
        cm = cos_product_cost(grid64)
        mu = random_belief(grid64, rng)
        nu = random_belief(grid64, rng)
        assert lifted_pairing(cm, mu, nu) == pytest.approx(
            lifted_pairing(cm, nu, mu), abs=1e-12)

    def test_product_form_square(self, grid64):
        x = grid64.axis_coords()
        phi = ScalarField(grid64, np.cos(2 * np.pi * x))
        cm = product_form_cost(phi)
        rng = np.random.default_rng(3)
        for _ in range(20):
            mu, nu = random_belief(grid64, rng), random_belief(grid64, rng)
            s = (sum(w * integrate(phi, a) for w, a in zip(mu.weights, mu.atoms))
                 - sum(w * integrate(phi, a) for w, a in zip(nu.weights, nu.atoms)))
            val = lifted_pairing(cm, mu, nu)
            assert val >= -1e-12
            assert val == pytest.approx(s ** 2, abs=1e-10)

    def test_sqrt_moment_counterexample(self, grid64):
        cm = moment_form_cost(np.sqrt, grid64)
        # interior witness: sqrt is strictly concave so any z slightly
        # below the midpoint with sqrt(z) above the chord works
        mu = Belief(np.array([0.5, 0.5]),
                    (mollified_dirac(grid64, 0.1), mollified_dirac(grid64, 0.9)))
        nu = Belief(np.array([1.0]), (mollified_dirac(grid64, 0.45),))
        val = lifted_pairing(cm, mu, nu)
        assert val < 0
        exact = counterexample_gap(np.sqrt, 0.1, 0.9, 0.45)
        assert val == pytest.approx(exact, abs=5e-4)

    def test_dirac_reduction(self, grid64):
        rng = np.random.default_rng(4)
        cm = cos_product_cost(grid64)
        for _ in range(20):
            m1, m2 = random_density(grid64, rng), random_density(grid64, rng)
            lifted = lifted_pairing(cm, Belief(np.array([1.0]), (m1,)),
                                    Belief(np.array([1.0]), (m2,)))
            assert lifted == pytest.approx(l2_pairing(cm, m1, m2), abs=1e-12)


    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
    def test_equals_per_atom_oracle_bitwise(self, dim, n):
        g = build_grid(dim, n)
        cm = cos_product_cost(g) if dim == 1 else cos_product_cost_2d(g)
        rng = np.random.default_rng(6)
        for _ in range(10):
            mu, nu = random_belief(g, rng), random_belief(g, rng)
            assert lifted_pairing(cm, mu, nu) == oracle_lifted_pairing(cm, mu, nu)


class TestRandomBelief:
    @pytest.mark.parametrize("dim,n,max_atoms", [(1, 64, 8), (1, 256, 12), (2, 16, 5)])
    def test_same_belief_and_generator_state_as_per_atom_draw(self, dim, n, max_atoms):
        g = build_grid(dim, n)
        rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(20):
            assert_same_belief(random_belief(g, rng, max_atoms),
                               oracle_random_belief(g, oracle_rng, max_atoms))
            assert rng.random() == oracle_rng.random()


class TestCounterexampleGap:
    def test_affine_midpoint_cancellation(self):
        g = lambda s: 2 * s + 1
        assert counterexample_gap(g, 0.2, 0.6, 0.4) == pytest.approx(0.0, abs=1e-15)

    def test_sqrt_closed_form(self):
        val = counterexample_gap(np.sqrt, 0.0, 1.0, 0.36)
        assert val == pytest.approx(-0.014, abs=1e-15)

    def test_coincident_points(self):
        assert counterexample_gap(np.sqrt, 0.25, 0.25, 0.25) == 0.0

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            counterexample_gap(np.sqrt, 0.0, 1.2, 0.3)


class TestCertifyBlindMonotone:
    def test_product_form_nonnegative(self, grid64):
        report = certify_blind_monotone(cos_product_cost(grid64), grid64,
                                        sampler_seed=0, trials=200)
        assert report.min_over_trials >= -1e-10
        assert report.trials == 200

    def test_sqrt_moment_violation_found(self, grid64):
        report = certify_blind_monotone(moment_form_cost(np.sqrt, grid64), grid64,
                                        sampler_seed=0, trials=2000)
        assert report.min_over_trials < 0
        mu1, mu2 = report.witnesses
        assert lifted_pairing(moment_form_cost(np.sqrt, grid64), mu1, mu2) == \
            pytest.approx(report.min_over_trials, abs=1e-14)

    @pytest.mark.parametrize("cost,dim,n", [("sqrt", 1, 64), ("sqrt", 1, 256),
                                            ("product", 1, 64), ("product", 2, 16)])
    def test_equals_per_atom_oracle_bitwise(self, cost, dim, n):
        g = build_grid(dim, n)
        if cost == "sqrt":
            cm = moment_form_cost(np.sqrt, g)
        else:
            cm = cos_product_cost(g) if dim == 1 else cos_product_cost_2d(g)
        report = certify_blind_monotone(cm, g, sampler_seed=5, trials=150)
        best, (mu1, mu2) = oracle_certify(cm, g, 5, 150)
        assert report.min_over_trials == best
        assert_same_belief(report.witnesses[0], mu1)
        assert_same_belief(report.witnesses[1], mu2)

    @pytest.mark.parametrize("cost,dim,n,max_atoms", [("sqrt", 1, 64, 8), ("sqrt", 1, 256, 3),
                                                      ("product", 2, 16, 8)])
    def test_block_edges_equal_per_atom_oracle_bitwise(self, cost, dim, n, max_atoms):
        """Trial counts around the block size B: one short block, one full
        block, a full block plus one trial, two full blocks plus one."""
        g = build_grid(dim, n)
        cm = moment_form_cost(np.sqrt, g) if cost == "sqrt" else cos_product_cost_2d(g)
        block = _block_trials(g, max_atoms)
        assert block > 2
        for trials in (1, block - 1, block, block + 1, 2 * block + 1):
            report = certify_blind_monotone(cm, g, 9, trials, max_atoms)
            best, (mu1, mu2) = oracle_certify(cm, g, 9, trials, max_atoms)
            assert report.min_over_trials == best
            assert_same_belief(report.witnesses[0], mu1)
            assert_same_belief(report.witnesses[1], mu2)

    @pytest.mark.parametrize("dim,n", [(1, 256), (2, 16)])
    def test_witness_reevaluates_to_min_exactly(self, dim, n):
        g = build_grid(dim, n)
        cm = moment_form_cost(np.sqrt, g) if dim == 1 else cos_product_cost_2d(g)
        report = certify_blind_monotone(cm, g, sampler_seed=2, trials=300)
        assert lifted_pairing(cm, *report.witnesses) == report.min_over_trials
        assert cli._report_json(report)["min_pairing"] == report.min_over_trials

    def test_one_lifted_pairing_call_per_trial(self, grid64, monkeypatch):
        import blindmfg.monotonicity as mono

        calls = []

        def counting(cm, mu1, mu2):
            calls.append(None)
            return lifted_pairing(cm, mu1, mu2)

        monkeypatch.setattr(mono, "lifted_pairing", counting)
        report = certify_blind_monotone(cos_product_cost(grid64), grid64, 4, 37)
        assert len(calls) == 37
        assert report.trials == 37

    def test_first_nonfinite_pairing_ends_the_run(self, grid64):
        """A cost that is NaN past a first moment of 0.91: the report names
        the first trial whose pairing is not finite, in the second block,
        counts the trials paired up to it, and that trial's pair is the
        witness."""
        cm = moment_form_cost(lambda s: np.where(s > 0.91, np.nan, np.sqrt(s)), grid64)
        first, (mu1, mu2) = oracle_first_nonfinite(cm, grid64, 2, 200)
        assert first > _block_trials(grid64, 8)
        report = certify_blind_monotone(cm, grid64, sampler_seed=2, trials=200)
        assert report.nonfinite_trial == first
        assert np.isnan(report.min_over_trials)
        assert report.trials == first + 1
        assert_same_belief(report.witnesses[0], mu1)
        assert_same_belief(report.witnesses[1], mu2)
        assert not cli._report_json(report)["nonnegative"]

    def test_max_atoms_guard(self, grid64):
        with pytest.raises(ValueError, match="max_atoms"):
            certify_blind_monotone(cos_product_cost(grid64), grid64, 0, 5,
                                   max_atoms=65)

    def test_constant_cost_all_zero(self, grid64):
        cm = constant_cost(constant_field(grid64, 1.0))
        report = certify_blind_monotone(cm, grid64, sampler_seed=3, trials=100)
        assert report.min_over_trials == pytest.approx(0.0, abs=1e-14)

    def test_deterministic_given_seed(self, grid64):
        cm = cos_product_cost(grid64)
        r1 = certify_blind_monotone(cm, grid64, sampler_seed=42, trials=50)
        r2 = certify_blind_monotone(cm, grid64, sampler_seed=42, trials=50)
        assert r1.min_over_trials == r2.min_over_trials

    def test_trials_guard(self, grid64):
        with pytest.raises(ValueError):
            certify_blind_monotone(cos_product_cost(grid64), grid64, 0, 0)

    def test_report_json(self, grid64):
        report = certify_blind_monotone(cos_product_cost(grid64), grid64, 1, 10)
        body = cli._report_json(report)
        assert set(body) == {"model", "trials", "min_pairing", "nonnegative", "witness",
                             "seed"}
        assert body["model"] == "product_form"


class TestDualityPairing:
    def test_constants_annihilated(self, grid64):
        diff = SignedBeliefDiff(np.array([1.0, -1.0]),
                                (mollified_dirac(grid64, 0.7),
                                 mollified_dirac(grid64, 0.2)))
        assert duality_pairing(constant_field(grid64, 3.0), diff) == \
            pytest.approx(0.0, abs=1e-12)

    def test_mean_difference(self, grid64):
        x = grid64.axis_coords()
        phi = ScalarField(grid64, x.copy())
        diff = SignedBeliefDiff(np.array([1.0, -1.0]),
                                (mollified_dirac(grid64, 0.7),
                                 mollified_dirac(grid64, 0.2)))
        assert abs(duality_pairing(phi, diff) - 0.5) < 2 * grid64.spacing

    def test_bilinearity_against_double_sum(self, grid64):
        rng = np.random.default_rng(5)
        phi = ScalarField(grid64, rng.standard_normal(grid64.shape))
        atoms = tuple(random_density(grid64, rng) for _ in range(4))
        s = np.array([0.4, 0.6, -0.3, -0.7])
        diff = SignedBeliefDiff(s, atoms)
        oracle = sum(si * float(np.sum(phi.values * a.values))
                     * grid64.cell_volume for si, a in zip(s, atoms))
        assert duality_pairing(phi, diff) == pytest.approx(oracle, abs=1e-13)


class TestOperatorACylinder:
    def test_constant_inner_zero(self, grid64):
        mu = Belief(np.array([1.0]), (mollified_dirac(grid64, 0.3),))
        phi = static_cylinder(constant_field(grid64, 2.0))
        b = np.full((1,) + grid64.shape, 0.8)
        assert operator_A_cylinder(mu, b, 0.1, phi) == 0.0

    def test_frozen_dynamics_zero(self, grid64):
        x = grid64.axis_coords()
        mu = Belief(np.array([1.0]), (mollified_dirac(grid64, 0.3),))
        phi = static_cylinder(ScalarField(grid64, np.cos(2 * np.pi * x)))
        b = np.zeros((1,) + grid64.shape)
        assert operator_A_cylinder(mu, b, 0.0, phi) == 0.0

    def test_generator_matches_flow_derivative(self):
        g = build_grid(1, 128)
        tg = TimeGrid(0.02, 64)
        x = g.axis_coords()
        mu = Belief(np.array([1.0]), (mollified_dirac(g, 0.3, 0.05),))
        phi = static_cylinder(ScalarField(g, np.cos(2 * np.pi * x)))
        sigma, speed = 0.05, 0.7
        b = constant_drift(g, tg, speed)
        gen = operator_A_cylinder(mu, b.values[0], sigma, phi)
        bp = push_forward(mu, b, sigma, tg)
        vals = [phi.value_belief(t, bp.belief_at(k))
                for k, t in enumerate(tg.times)]
        fd = (vals[1] - vals[0]) / tg.dt
        # generator equals d/dt of the cylinder value to scheme order
        assert gen == pytest.approx(fd, abs=5 * (tg.dt + g.spacing ** 2) * 10)

    def test_two_atom_linearity(self, grid64):
        x = grid64.axis_coords()
        phi = static_cylinder(ScalarField(grid64, np.sin(2 * np.pi * x)))
        a1, a2 = mollified_dirac(grid64, 0.2), mollified_dirac(grid64, 0.7)
        b = np.full((1,) + grid64.shape, 0.5)
        mixed = operator_A_cylinder(Belief(np.array([0.4, 0.6]), (a1, a2)),
                                    b, 0.1, phi)
        parts = (0.4 * operator_A_cylinder(Belief(np.array([1.0]), (a1,)), b, 0.1, phi)
                 + 0.6 * operator_A_cylinder(Belief(np.array([1.0]), (a2,)), b, 0.1, phi))
        assert mixed == pytest.approx(parts, abs=1e-14)
