import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blindmfg import cli
from blindmfg.beliefs import (
    Belief,
    BeliefPath,
    CostModel,
    CylinderFunctional,
    aggregate_running,
    aggregate_terminal,
    belief_distance,
    belief_holder_modulus,
    constant_cost,
    illustrative_cost,
    moment_form_cost,
    product_form_cost,
    push_forward,
    ramp_cylinder,
    running_cost_path,
    weak_solution_residual,
)
from blindmfg.hjb_fp import DriftField, TimeGrid, constant_drift, solve_fp_forward, zero_drift
from blindmfg.torus import (
    ScalarField,
    build_grid,
    circular_mean,
    constant_field,
    density_from_values,
    integrate,
    integrate_stack,
    mollified_dirac,
    uniform_density,
)

from conftest import one_atom_path, random_density


def two_atom_belief(grid, w1=0.3, c1=0.2, c2=0.6):
    return Belief(np.array([w1, 1 - w1]),
                  (mollified_dirac(grid, c1), mollified_dirac(grid, c2)))


class TestBeliefInvariants:
    def test_weights_must_sum_to_one(self, grid64):
        with pytest.raises(ValueError):
            Belief(np.array([0.5, 0.4]),
                   (mollified_dirac(grid64, 0.1), mollified_dirac(grid64, 0.2)))

    def test_positive_weights(self, grid64):
        with pytest.raises(ValueError):
            Belief(np.array([1.5, -0.5]),
                   (mollified_dirac(grid64, 0.1), mollified_dirac(grid64, 0.2)))

    def test_nan_weight_rejected(self, grid64):
        with pytest.raises(ValueError):
            Belief(np.array([np.nan]), (mollified_dirac(grid64, 0.1),))

    def test_shared_grid(self, grid64):
        other = build_grid(1, 32)
        with pytest.raises(ValueError):
            Belief(np.array([0.5, 0.5]),
                   (mollified_dirac(grid64, 0.1), mollified_dirac(other, 0.2)))

    def test_atom_cap(self, grid64):
        k = 65
        with pytest.raises(ValueError):
            Belief(np.full(k, 1.0 / k),
                   tuple(mollified_dirac(grid64, i / k) for i in range(k)))


class TestPushForward:
    def test_single_atom_matches_fp(self, grid64):
        tg = TimeGrid(0.25, 64)
        b = constant_drift(grid64, tg, 0.5)
        m0 = mollified_dirac(grid64, 0.3)
        bp = push_forward(Belief(np.array([1.0]), (m0,)), b, 0.05, tg)
        direct = solve_fp_forward(m0, b, 0.05, tg)
        assert np.array_equal(bp.atom_paths[0].values, direct.values)

    def test_two_dirac_transport(self):
        g = build_grid(1, 128)
        tg = TimeGrid(0.25, 32)  # dt = h
        eps = 0.125
        mu0 = Belief(np.array([0.5, 0.5]),
                     (mollified_dirac(g, 0.0), mollified_dirac(g, eps)))
        bp = push_forward(mu0, constant_drift(g, tg, 1.0), 0.0, tg)
        t = tg.horizon
        final = bp.belief_at(tg.steps)
        assert abs(circular_mean(final.atoms[0]) - t) < 2 * g.spacing
        assert abs(circular_mean(final.atoms[1]) - (eps + t)) < 2 * g.spacing

    def test_weights_preserved(self, grid64):
        tg = TimeGrid(0.25, 64)
        mu0 = two_atom_belief(grid64)
        bp = push_forward(mu0, zero_drift(grid64, tg), 0.1, tg)
        for k in range(tg.steps + 1):
            assert np.array_equal(bp.belief_at(k).weights, mu0.weights)


class TestAggregation:
    def test_single_atom_exact(self, grid64):
        x = grid64.axis_coords()
        cm = product_form_cost(ScalarField(grid64, np.cos(2 * np.pi * x)))
        m = random_density(grid64, np.random.default_rng(0))
        mu = Belief(np.array([1.0]), (m,))
        assert np.array_equal(aggregate_running(mu, cm).values,
                              cm.running(m).values)

    def test_constant_cost_belief_independent(self, grid64):
        cm = constant_cost(constant_field(grid64, 2.0))
        f1 = aggregate_running(two_atom_belief(grid64), cm).values
        f2 = aggregate_running(two_atom_belief(grid64, 0.9, 0.1, 0.8), cm).values
        assert np.array_equal(f1, f2)

    def test_product_form_double_loop_oracle(self, grid64):
        x = grid64.axis_coords()
        phi = ScalarField(grid64, np.cos(2 * np.pi * x))
        base = ScalarField(grid64, 0.5 * np.sin(2 * np.pi * x))
        cm = product_form_cost(phi, base)
        mu = two_atom_belief(grid64)
        oracle = base.values + phi.values * sum(
            w * integrate(phi, a) for w, a in zip(mu.weights, mu.atoms))
        assert np.allclose(aggregate_running(mu, cm).values, oracle, atol=1e-14)

    @pytest.mark.parametrize("kind,dim", [
        ("product_form", 1), ("product_form", 2), ("moment_form", 1),
        ("illustrative", 1), ("constant", 1), ("constant", 2)])
    def test_running_cost_path_matches_belief_at(self, kind, dim):
        g = build_grid(dim, 32 if dim == 1 else 16)
        tg = TimeGrid(0.25, 8)
        rng = np.random.default_rng(7)
        phi = ScalarField(g, np.cos(2 * np.pi * g.coords()[0]))
        cm = {"product_form": lambda: product_form_cost(phi, phi),
              "moment_form": lambda: moment_form_cost(np.sqrt, g),
              "illustrative": lambda: illustrative_cost(phi, 0.5),
              "constant": lambda: constant_cost(phi)}[kind]()
        # raw solver-like slices: mass off one, a few tiny negatives
        vals = rng.random((2, tg.steps + 1) + g.shape) + 1e-3
        vals[rng.random(vals.shape) < 0.05] = -1e-15
        bp = BeliefPath(g, tg, np.array([0.3, 0.7]), vals)
        path = running_cost_path(bp, cm)
        assert path.shape == (tg.steps + 1,) + g.shape
        for k in range(tg.steps + 1):
            assert np.array_equal(path[k], aggregate_running(bp.belief_at(k), cm).values)

    def test_terminal_zero_default(self, grid64):
        x = grid64.axis_coords()
        cm = product_form_cost(ScalarField(grid64, np.cos(2 * np.pi * x)))
        assert np.all(aggregate_terminal(two_atom_belief(grid64), cm).values == 0)

    @pytest.mark.parametrize("kind,dim", [
        ("product_form", 1), ("product_form", 2), ("product_base", 1), ("product_base", 2),
        ("moment_form", 1), ("illustrative", 1), ("constant", 1),
        ("constant_terminal", 1), ("constant_terminal", 2)])
    def test_terminal_values_share_the_running_shape_contract(self, kind, dim):
        g = build_grid(dim, 32 if dim == 1 else 16)
        phi = ScalarField(g, np.cos(2 * np.pi * g.coords()[0]))
        base = ScalarField(g, np.sin(2 * np.pi * g.coords()[-1]))
        cm = {"product_form": lambda: product_form_cost(phi),
              "product_base": lambda: product_form_cost(phi, base),
              "moment_form": lambda: moment_form_cost(np.sqrt, g),
              "illustrative": lambda: illustrative_cost(phi, 0.5),
              "constant": lambda: constant_cost(phi),
              "constant_terminal": lambda: constant_cost(phi, phi)}[kind]()
        field = phi.values if kind == "constant_terminal" else np.zeros(g.shape)
        stack = np.random.default_rng(3).random((2, 3) + g.shape)
        assert np.array_equal(cm.terminal_values(g, stack),
                              np.broadcast_to(field, stack.shape))
        mu = Belief(np.array([0.3, 0.7]),
                    tuple(density_from_values(g, v) for v in stack[0, :2]))
        oracle = np.zeros(g.shape)
        for w in mu.weights:
            oracle += w * field
        assert np.array_equal(aggregate_terminal(mu, cm).values, oracle)

        def moment(h):  # ∫h dm for every field of the stack, on size-1 grid axes
            s = integrate_stack(g, h, stack)
            return s.reshape(s.shape + (1,) * dim)

        x = g.axis_coords()
        running = {"product_form": lambda: phi.values * moment(phi.values),
                   "product_base": lambda: base.values + phi.values * moment(phi.values),
                   "moment_form": lambda: x * np.sqrt(moment(x)),
                   "illustrative": lambda: phi.values * (1.0 + 0.5 * moment(phi.values)),
                   "constant": lambda: np.broadcast_to(phi.values, stack.shape),
                   "constant_terminal": lambda: np.broadcast_to(phi.values, stack.shape)}
        assert np.array_equal(cm.running_values(g, stack), running[kind]())

    def test_moment_form_rejects_two_dimensions(self):
        with pytest.raises(ValueError, match="d = 1"):
            moment_form_cost(np.sqrt, build_grid(2, 16))

    def test_cost_fields_must_make_a_formula(self, grid64):
        x = grid64.axis_coords()
        with pytest.raises(ValueError, match="needs a field a"):
            CostModel("empty")
        with pytest.raises(ValueError, match="needs a map G"):
            CostModel("no_map", b=x)
        cm = CostModel("same", a=x)
        assert cm == cm and cm != CostModel("same", a=x)
        assert hash(cm) == hash(cm)

    @given(alpha=st.floats(0.05, 0.95), seed=st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_aggregation_linearity(self, alpha, seed):
        g = build_grid(1, 32)
        rng = np.random.default_rng(seed)
        x = g.axis_coords()
        cm = product_form_cost(ScalarField(g, np.cos(2 * np.pi * x)))
        a1, a2, a3 = (random_density(g, rng) for _ in range(3))
        mu = Belief(np.array([0.4, 0.6]), (a1, a2))
        nu = Belief(np.array([1.0]), (a3,))
        mix = Belief(np.concatenate([alpha * mu.weights, (1 - alpha) * nu.weights]),
                     mu.atoms + nu.atoms)
        lhs = aggregate_running(mix, cm).values
        rhs = (alpha * aggregate_running(mu, cm).values
               + (1 - alpha) * aggregate_running(nu, cm).values)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestBeliefDistance:
    def test_identity(self, grid64):
        mu = two_atom_belief(grid64)
        assert belief_distance(mu, mu) == pytest.approx(0.0, abs=1e-12)

    def test_delta_belief_pair(self, grid64):
        mu = Belief(np.array([1.0]), (mollified_dirac(grid64, 0.2),))
        nu = Belief(np.array([1.0]), (mollified_dirac(grid64, 0.5),))
        assert abs(belief_distance(mu, nu) - 0.3) < 2 * grid64.spacing

    def test_split_vs_middle(self, grid64):
        mu = Belief(np.array([0.5, 0.5]),
                    (mollified_dirac(grid64, 0.1), mollified_dirac(grid64, 0.3)))
        nu = Belief(np.array([1.0]), (mollified_dirac(grid64, 0.2),))
        assert abs(belief_distance(mu, nu) - 0.1) < 2 * grid64.spacing

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_metric_axioms(self, seed):
        g = build_grid(1, 32)
        rng = np.random.default_rng(seed)

        def rb():
            k = int(rng.integers(1, 4))
            w = rng.dirichlet(np.ones(k))
            return Belief(w, tuple(random_density(g, rng) for _ in range(k)))

        mu, nu, rho = rb(), rb(), rb()
        dmn = belief_distance(mu, nu)
        assert dmn == pytest.approx(belief_distance(nu, mu), abs=1e-10)
        assert dmn >= -1e-12
        assert dmn <= (belief_distance(mu, rho) + belief_distance(rho, nu) + 1e-9)

    def test_dimension_guard(self):
        g = build_grid(2, 16)
        mu = Belief(np.array([1.0]), (uniform_density(g),))
        with pytest.raises(ValueError):
            belief_distance(mu, mu)


class TestBeliefHolderModulus:
    def test_stationary_zero(self, grid64):
        tg = TimeGrid(0.5, 64)
        bp = push_forward(two_atom_belief(grid64), zero_drift(grid64, tg), 0.0, tg)
        assert belief_holder_modulus(bp) == pytest.approx(0.0, abs=1e-12)

    def test_transport_matches_per_atom(self):
        g = build_grid(1, 128)
        tg = TimeGrid(0.25, 32)
        mu0 = Belief(np.array([0.5, 0.5]),
                     (mollified_dirac(g, 0.0), mollified_dirac(g, 0.125)))
        b = constant_drift(g, tg, 1.0)
        bp = push_forward(mu0, b, 0.0, tg)
        atom_mod = belief_holder_modulus(one_atom_path(mu0.atoms[0], b, 0.0, tg))
        assert belief_holder_modulus(bp) == pytest.approx(atom_mod, rel=1e-6)

    def test_bounded_by_max_atom_modulus(self, grid64):
        tg = TimeGrid(0.25, 64)
        mu0 = two_atom_belief(grid64)
        b = constant_drift(grid64, tg, 0.5)
        bp = push_forward(mu0, b, 0.05, tg)
        per_atom = max(belief_holder_modulus(one_atom_path(a, b, 0.05, tg))
                       for a in mu0.atoms)
        assert belief_holder_modulus(bp) <= per_atom + 1e-9


class TestWeakSolutionResidual:
    @staticmethod
    def setup_path(n=64, nt=128, sigma=0.05, T=0.4):
        g = build_grid(1, n)
        tg = TimeGrid(T, nt)
        x = g.axis_coords()
        vals = np.broadcast_to(0.5 * np.sin(2 * np.pi * x),
                               (tg.steps + 1, 1) + g.shape).copy()
        b = DriftField(g, tg, vals)
        mu0 = Belief(np.array([0.3, 0.7]),
                     (mollified_dirac(g, 0.2, 0.05), mollified_dirac(g, 0.6, 0.05)))
        bp = push_forward(mu0, b, sigma, tg)
        inner = ScalarField(g, np.cos(2 * np.pi * x))
        phi = ramp_cylinder(inner, T)
        return g, tg, b, bp, phi

    def test_zero_functional(self, grid64):
        tg = TimeGrid(0.25, 64)
        bp = push_forward(two_atom_belief(grid64), zero_drift(grid64, tg), 0.05, tg)
        phi = CylinderFunctional(constant_field(grid64, 1.0),
                                 lambda t, s: 0.0, lambda t, s: 0.0,
                                 lambda t, s: 0.0)
        assert weak_solution_residual(bp, zero_drift(grid64, tg), 0.05, phi) == 0.0

    def test_converges_under_refinement(self):
        _, _, b1, bp1, phi1 = self.setup_path(64, 64)
        _, _, b2, bp2, phi2 = self.setup_path(128, 256)
        r1 = weak_solution_residual(bp1, b1, 0.05, phi1)
        r2 = weak_solution_residual(bp2, b2, 0.05, phi2)
        assert np.log2(r1 / r2) >= 0.8

    def test_perturbed_path_detected(self):
        _, tg, b, bp, phi = self.setup_path(128, 256)
        baseline = weak_solution_residual(bp, b, 0.05, phi)
        beliefs = [bp.belief_at(k) for k in range(tg.steps + 1)]
        half = tg.steps // 2
        perturbed = [Belief(np.array([0.7, 0.3]), bl.atoms) if k >= half else bl
                     for k, bl in enumerate(beliefs)]
        assert weak_solution_residual(perturbed, b, 0.05, phi) >= 10 * baseline

    def test_nonvanishing_terminal_rejected(self, grid64):
        tg = TimeGrid(0.25, 64)
        bp = push_forward(two_atom_belief(grid64), zero_drift(grid64, tg), 0.0, tg)
        x = grid64.axis_coords()
        bad = CylinderFunctional(ScalarField(grid64, np.cos(2 * np.pi * x)),
                                 lambda t, s: s, lambda t, s: 1.0,
                                 lambda t, s: 0.0)
        with pytest.raises(ValueError, match="vanish"):
            weak_solution_residual(bp, zero_drift(grid64, tg), 0.0, bad)


class TestSerialization:
    """The config's belief schema, read and written by the CLI."""

    def test_roundtrip(self, grid64):
        mu = two_atom_belief(grid64)
        back = cli._build_belief({"belief": cli._belief_json(mu)}, grid64)
        assert np.allclose(back.weights, mu.weights)
        for a, b in zip(back.atoms, mu.atoms):
            assert np.allclose(a.values, b.values, atol=1e-12)

    def test_dirac_atom_from_json(self, grid64):
        mu = cli._build_belief(
            {"belief": {"weights": [1.0], "atoms": [{"kind": "dirac", "center": 0.4}]}},
            grid64)
        assert abs(circular_mean(mu.atoms[0]) - 0.4) < grid64.spacing

    def test_unknown_kind_rejected(self, grid64):
        with pytest.raises(cli.ConfigError, match=r"atoms\[0\]\.kind: unknown kind"):
            cli._build_belief(
                {"belief": {"weights": [1.0], "atoms": [{"kind": "spline"}]}}, grid64)


def test_illustrative_cost_coupling_range(grid64):
    f0 = constant_field(grid64, -1.0)
    with pytest.raises(ValueError):
        illustrative_cost(f0, 1.5)
