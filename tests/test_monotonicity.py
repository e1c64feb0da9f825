import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blindmfg import cli
from blindmfg.beliefs import (
    Belief,
    CostModel,
    constant_cost,
    illustrative_cost,
    moment_form_cost,
    product_form_cost,
    push_forward,
    static_cylinder,
)
from blindmfg.hjb_fp import TimeGrid, constant_drift
from blindmfg.monotonicity import (
    _block_trials,
    _draw_beliefs,
    _pairings,
    certify_blind_monotone,
    counterexample_gap,
    l2_pairing,
    lifted_pairing,
    random_belief,
)
from blindmfg.torus import (
    Density,
    ScalarField,
    build_grid,
    density_from_values,
    integrate,
    integrate_stack,
    mollified_dirac,
)

from conftest import (
    constant_field,
    random_density,
    ref_duality_pairing,
    ref_operator_A_cylinder,
)


def cos_product_cost(grid):
    x = grid.axis_coords()
    return product_form_cost(ScalarField(grid, np.cos(2 * np.pi * x)))


def cos_product_cost_2d(grid):
    xx, yy = grid.coords()
    return product_form_cost(ScalarField(grid, np.cos(2 * np.pi * xx) * np.sin(2 * np.pi * yy)))


# Per-atom oracles: one Density per atom, as the certifier computed them
# before it worked on stacked arrays.  oracle_atom_sums_pairing has the
# bits of lifted_pairing; oracle_lifted_pairing is the pairing's definition,
# one running-cost field per atom, and agrees with it to rounding.

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
    signed_weights = np.concatenate([mu1.weights, -mu2.weights])
    atoms = mu1.atoms + mu2.atoms
    grid = mu1.grid
    ftilde = np.zeros(grid.shape)
    for s, a in zip(signed_weights, atoms):
        ftilde += s * cm.running(a).values
    total = 0.0
    for s, a in zip(signed_weights, atoms):
        total += s * float(np.sum(ftilde * a.values) * grid.cell_volume)
    return total


def oracle_atom_sums_pairing(cm, mu1, mu2):
    """(s·S)(s·G(S)) with S_i = ∫b dm_i, one atom at a time, both sums
    added left to right."""
    if cm.b is None:
        return 0.0
    phi = ScalarField(mu1.grid, cm.b)
    s_dot_S = s_dot_GS = 0.0
    for s, a in zip(np.concatenate([mu1.weights, -mu2.weights]), mu1.atoms + mu2.atoms):
        S = integrate(phi, a)
        s_dot_S += s * S
        s_dot_GS += s * cm.G(S)
    return s_dot_S * s_dot_GS


def oracle_certify(cm, grid, seed, trials, max_atoms=8, pairing=oracle_atom_sums_pairing):
    rng = np.random.default_rng(seed)
    best, witness = np.inf, None
    for _ in range(trials):
        mu1 = oracle_random_belief(grid, rng, max_atoms)
        mu2 = oracle_random_belief(grid, rng, max_atoms)
        val = pairing(cm, mu1, mu2)
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


def assert_same_report(report, exact, defined):
    """The report has the bits of `exact` and agrees with `defined` to
    rounding; all three name the same witness."""
    assert report.min_over_trials == exact[0]
    assert report.min_over_trials == pytest.approx(defined[0], rel=1e-12, abs=1e-15)
    for _, (mu1, mu2) in (exact, defined):
        assert_same_belief(report.witnesses[0], mu1)
        assert_same_belief(report.witnesses[1], mu2)


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
            val = lifted_pairing(cm, mu, nu)
            assert val == oracle_atom_sums_pairing(cm, mu, nu)
            assert val == pytest.approx(oracle_lifted_pairing(cm, mu, nu), rel=1e-12, abs=1e-15)

    def test_constant_cost_pairs_to_exact_zero(self, grid64):
        rng = np.random.default_rng(7)
        cm = constant_cost(ScalarField(grid64, rng.standard_normal(grid64.shape)))
        for _ in range(10):
            assert lifted_pairing(cm, random_belief(grid64, rng), random_belief(grid64, rng)) == 0.0

    def test_product_form_base_cancels(self, grid64):
        rng = np.random.default_rng(8)
        phi = ScalarField(grid64, np.cos(2 * np.pi * grid64.axis_coords()))
        with_base = product_form_cost(phi, ScalarField(grid64, rng.standard_normal(grid64.shape)))
        for _ in range(10):
            mu, nu = random_belief(grid64, rng), random_belief(grid64, rng)
            assert lifted_pairing(with_base, mu, nu) == lifted_pairing(product_form_cost(phi), mu, nu)

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
    def test_product_form_is_a_square(self, dim, n):
        """G = id makes both sums the same sum, so the pairing is its square."""
        g = build_grid(dim, n)
        cm = cos_product_cost(g) if dim == 1 else cos_product_cost_2d(g)
        rng = np.random.default_rng(9)
        for _ in range(50):
            mu, nu = random_belief(g, rng), random_belief(g, rng)
            val = lifted_pairing(cm, mu, nu)
            assert val >= 0.0
            assert val == oracle_atom_sums_pairing(cm, mu, nu)

    def test_illustrative_is_c_times_a_square(self, grid64):
        c = 0.4
        f0 = ScalarField(grid64, 1.0 + 0.5 * np.cos(2 * np.pi * grid64.axis_coords()))
        rng = np.random.default_rng(10)
        for _ in range(20):
            mu, nu = random_belief(grid64, rng), random_belief(grid64, rng)
            s_dot_S = (sum(w * integrate(f0, a) for w, a in zip(mu.weights, mu.atoms))
                       - sum(w * integrate(f0, a) for w, a in zip(nu.weights, nu.atoms)))
            assert lifted_pairing(illustrative_cost(f0, c), mu, nu) == pytest.approx(
                c * s_dot_S ** 2, rel=1e-14)


def same_bits(x, y):
    """Equal as doubles, the sign of zero included; NaN equals NaN."""
    return bool(np.isnan(x) and np.isnan(y)) or bool(x == y and np.signbit(x) == np.signbit(y))


# Hand-built atoms on 8 nodes (h = 1/8) against the field b below: one
# point mass integrates to b at its node, so to +0.0, +inf (8e308
# overflows), -inf and finite values; the atom at nodes 1 and 2 to NaN;
# mass 1/8 at node 3 to -0.0, as -5e-324 / 8 underflows.  A trial draws
# its atoms from the first 2, which integrate to zeros, the first 6,
# which integrate to finite values, the first 7, or all of them.
HAND_B = np.array([0.0, 1e308, -1e308, -5e-324, 0.5, -0.25, 3.0, -0.0])
HAND_ATOMS = 8.0 * np.array([
    [1, 0, 0, 0, 0, 0, 0, 0],
    [7 / 8, 0, 0, 1 / 8, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1 / 2, 1 / 2, 0, 0],
    [1 / 8] * 8,
    [0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0],
    [0, 1 / 2, 1 / 2, 0, 0, 0, 0, 0],
])


class TestPairings:
    """The block kernel on hand-built blocks, passed as the certifier
    passes them: one stack of every trial's atoms, mu1's then mu2's."""

    @pytest.mark.parametrize("max_atoms", [1, 64])
    def test_each_trial_equals_per_atom_oracle_bitwise(self, max_atoms):
        g = build_grid(1, 8)
        costs = [CostModel("hand", b=HAND_B, G=G)
                 for G in (lambda s: s, np.negative, np.sqrt, lambda s: 1.0 + 0.5 * s)]
        costs.append(constant_cost(constant_field(g, 1.0)))
        rng = np.random.default_rng(max_atoms)
        pairs = []
        for t, k in enumerate(range(2, 2 * max_atoms + 1)):
            k1 = int(rng.integers(max(1, k - max_atoms), min(max_atoms, k - 1) + 1))
            pool = (2, 6, 7, len(HAND_ATOMS))[t % 4]
            pairs.append([Belief(rng.dirichlet(np.ones(size)),
                                 tuple(Density(g, HAND_ATOMS[i])
                                       for i in rng.integers(pool, size=size)))
                          for size in (k1, k - k1)])
        # the widest trial, its terms s_i S_i all -0.0: S = -0.0 under w1,
        # S = +0.0 under -w2
        pairs.append([Belief(np.full(max_atoms, 1 / max_atoms),
                             (Density(g, HAND_ATOMS[i]),) * max_atoms) for i in (1, 0)])
        beliefs = [mu for pair in pairs for mu in pair]
        stack = np.concatenate([mu.values for mu in beliefs])
        weights = np.concatenate([mu.weights for mu in beliefs])
        sizes = [mu.n_atoms for mu in beliefs]
        with np.errstate(over="ignore", invalid="ignore"):
            S = integrate_stack(g, HAND_B, stack)
            if max_atoms > 1:
                assert np.isnan(S).any() and np.isposinf(S).any() and np.isneginf(S).any()
                assert {np.copysign(1.0, z) for z in S[S == 0]} == {1.0, -1.0}
            for cm in costs:
                vals = _pairings(cm, g, stack, weights, sizes)
                assert len(vals) == len(pairs)
                for val, (mu1, mu2) in zip(vals, pairs):
                    assert same_bits(val, oracle_atom_sums_pairing(cm, mu1, mu2))
                    assert same_bits(lifted_pairing(cm, mu1, mu2), val)


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
        assert_same_report(report, oracle_certify(cm, g, 5, 150),
                           oracle_certify(cm, g, 5, 150, pairing=oracle_lifted_pairing))

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
            assert_same_report(report, oracle_certify(cm, g, 9, trials, max_atoms),
                               oracle_certify(cm, g, 9, trials, max_atoms,
                                              pairing=oracle_lifted_pairing))

    @pytest.mark.parametrize("dim,n", [(1, 256), (2, 16)])
    def test_witness_reevaluates_to_min_exactly(self, dim, n):
        g = build_grid(dim, n)
        cm = moment_form_cost(np.sqrt, g) if dim == 1 else cos_product_cost_2d(g)
        report = certify_blind_monotone(cm, g, sampler_seed=2, trials=300)
        assert lifted_pairing(cm, *report.witnesses) == report.min_over_trials
        assert cli._report_json(report)["min_pairing"] == report.min_over_trials

    def test_block_kernel_pairs_each_trial_once(self, grid64, monkeypatch):
        """37 trials at 32 a block are paired by two _pairings calls, 32 and
        5 trials.  A run that a non-finite pairing ends pairs each block up
        to that one's once, its whole block too, and none after it; the
        trials paired up to the first non-finite pairing are the report's."""
        import blindmfg.monotonicity as mono

        calls = []
        pairings = mono._pairings

        def counting(*args):
            calls.append(pairings(*args))
            return calls[-1]

        monkeypatch.setattr(mono, "_pairings", counting)
        block = _block_trials(grid64, 8)
        report = certify_blind_monotone(cos_product_cost(grid64), grid64, 4, 37)
        assert [len(v) for v in calls] == [block, 37 - block]
        assert report.trials == 37

        calls.clear()
        cm = moment_form_cost(lambda s: np.where(s > 0.91, np.nan, np.sqrt(s)), grid64)
        report = certify_blind_monotone(cm, grid64, sampler_seed=2, trials=200)
        assert report.nonfinite_trial > block
        assert [len(v) for v in calls] == [min(block, 200 - first)
                                           for first in range(0, report.trials, block)]
        finite = np.isfinite(np.concatenate(calls))
        assert int(np.argmin(finite)) + 1 == report.trials

    def test_blocks_build_in_their_buffer(self):
        """n = 4096, one trial a block, 3 blocks, a cost without b, whose
        pairings allocate nothing.  Beyond the block buffer the run holds
        only the first trial's witness copy and, while a block is built,
        its Dirac profile arithmetic, 2 fields per Dirac atom: no mixture
        draw is held apart from the buffer, and no row is copied to be
        normalized."""
        g = build_grid(1, 4096)
        field = g.n ** g.dim * 8
        assert _block_trials(g, 8) == 1
        cm = constant_cost(constant_field(g, 1.0))
        rng = np.random.default_rng(0)
        draws = [_draw_beliefs(g, rng, 2, 8, np.empty((16,) + g.shape)) for _ in range(3)]
        witness = draws[0][0][-1][2]
        need = max([2 * len(draws[0][1])]
                   + [witness + 2 * len(dirac_rows) for _, dirac_rows, _ in draws[1:]])
        certify_blind_monotone(cm, g, 0, 1)  # first-call imports are not the run's
        tracemalloc.start()
        try:
            certify_blind_monotone(cm, g, 0, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - 16 * field <= (need + 1) * field

    def test_pairs_without_running_costs(self, grid64, monkeypatch):
        """The pairing reads S_i = ∫b dm_i, never a cost field."""
        calls = []

        def spy(self, grid, m):
            calls.append(None)
            return running_values(self, grid, m)

        running_values = CostModel.running_values
        monkeypatch.setattr(CostModel, "running_values", spy)
        for cm in (cos_product_cost(grid64), moment_form_cost(np.sqrt, grid64)):
            certify_blind_monotone(cm, grid64, sampler_seed=4, trials=20)
        assert calls == []
        cos_product_cost(grid64).running(mollified_dirac(grid64, 0.3))
        assert len(calls) == 1

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
    """The paper's pairing <phi, mu1 - mu2> as the per-atom reference of
    conftest.py computes it."""

    def test_constants_annihilated(self, grid64):
        atoms = (mollified_dirac(grid64, 0.7), mollified_dirac(grid64, 0.2))
        assert ref_duality_pairing(constant_field(grid64, 3.0), [1.0, -1.0], atoms) == \
            pytest.approx(0.0, abs=1e-12)

    def test_mean_difference(self, grid64):
        x = grid64.axis_coords()
        phi = ScalarField(grid64, x.copy())
        atoms = (mollified_dirac(grid64, 0.7), mollified_dirac(grid64, 0.2))
        assert abs(ref_duality_pairing(phi, [1.0, -1.0], atoms) - 0.5) < 2 * grid64.spacing

    def test_bilinearity_against_double_sum(self, grid64):
        rng = np.random.default_rng(5)
        phi = ScalarField(grid64, rng.standard_normal(grid64.shape))
        psi = ScalarField(grid64, rng.standard_normal(grid64.shape))
        atoms = tuple(random_density(grid64, rng) for _ in range(4))
        s = np.array([0.4, 0.6, -0.3, -0.7])
        oracle = sum(si * float(np.sum(phi.values * a.values))
                     * grid64.cell_volume for si, a in zip(s, atoms))
        assert ref_duality_pairing(phi, s, atoms) == pytest.approx(oracle, abs=1e-13)
        mixed = ScalarField(grid64, 2.0 * phi.values - psi.values)
        assert ref_duality_pairing(mixed, s, atoms) == pytest.approx(
            2.0 * oracle - ref_duality_pairing(psi, s, atoms), abs=1e-13)


class TestOperatorACylinder:
    """The generator A of the belief pushforward on cylinder functionals,
    as the per-atom reference of conftest.py computes it."""

    def test_constant_inner_zero(self, grid64):
        mu = Belief(np.array([1.0]), (mollified_dirac(grid64, 0.3),))
        phi = static_cylinder(constant_field(grid64, 2.0))
        b = np.full((1,) + grid64.shape, 0.8)
        assert ref_operator_A_cylinder(mu, b, 0.1, phi) == 0.0

    def test_frozen_dynamics_zero(self, grid64):
        x = grid64.axis_coords()
        mu = Belief(np.array([1.0]), (mollified_dirac(grid64, 0.3),))
        phi = static_cylinder(ScalarField(grid64, np.cos(2 * np.pi * x)))
        b = np.zeros((1,) + grid64.shape)
        assert ref_operator_A_cylinder(mu, b, 0.0, phi) == 0.0

    def test_generator_matches_flow_derivative(self):
        g = build_grid(1, 128)
        tg = TimeGrid(0.02, 64)
        x = g.axis_coords()
        mu = Belief(np.array([1.0]), (mollified_dirac(g, 0.3, 0.05),))
        phi = static_cylinder(ScalarField(g, np.cos(2 * np.pi * x)))
        sigma, speed = 0.05, 0.7
        b = constant_drift(g, tg, speed)
        gen = ref_operator_A_cylinder(mu, b.values[0], sigma, phi)
        bp = push_forward(mu, b, sigma, tg)
        # phi(t, mu) = sum_i w_i psi(t, ∫h dm_i) at the first two time nodes
        vals = [sum(w * phi.psi(t, integrate(phi.inner, a))
                    for w, a in zip(bp.weights, bp.belief_at(k).atoms))
                for k, t in enumerate(tg.times[:2])]
        fd = (vals[1] - vals[0]) / tg.dt
        # generator equals d/dt of the cylinder value to scheme order
        assert gen == pytest.approx(fd, abs=5 * (tg.dt + g.spacing ** 2) * 10)

    def test_two_atom_linearity(self, grid64):
        x = grid64.axis_coords()
        phi = static_cylinder(ScalarField(grid64, np.sin(2 * np.pi * x)))
        a1, a2 = mollified_dirac(grid64, 0.2), mollified_dirac(grid64, 0.7)
        b = np.full((1,) + grid64.shape, 0.5)
        mixed = ref_operator_A_cylinder(Belief(np.array([0.4, 0.6]), (a1, a2)),
                                        b, 0.1, phi)
        parts = (0.4 * ref_operator_A_cylinder(Belief(np.array([1.0]), (a1,)), b, 0.1, phi)
                 + 0.6 * ref_operator_A_cylinder(Belief(np.array([1.0]), (a2,)), b, 0.1, phi))
        assert mixed == pytest.approx(parts, abs=1e-14)
