import csv
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blindmfg import cli, payments
from blindmfg.beliefs import (
    Belief,
    constant_cost,
    illustrative_cost,
    moment_form_cost,
    product_form_cost,
    push_forward,
    static_cylinder,
)
from blindmfg.hjb_fp import DriftField, Hamiltonian, TimeGrid, constant_drift, fp_step
from blindmfg.payments import (
    FilterConfig,
    _condition,
    _matching,
    _observation_steps,
    _signatures,
    in_consistency_set,
    partition_by_payment,
    simulate_observed,
    smoothed_well_profile,
    tower_check,
)
from blindmfg.solver import SolverConfig, solve_blind, solve_complete_info
from blindmfg.torus import (
    ScalarField,
    build_grid,
    density_from_values,
    mollified_dirac,
)

from conftest import constant_field, race_args, race_config, random_density


@pytest.fixture
def grid256():
    return build_grid(1, 256)


def small_race_args():
    """A coarse two-Dirac elimination race, fast enough for unit tests."""
    return race_args(race_config(64, 150, observation_dt=0.04))


@pytest.fixture(scope="module")
def small_race():
    return simulate_observed(*small_race_args())


def short_race_args():
    """The two-Dirac race of configs/illustrative.json cut to T = 0.5 (same dt)."""
    cfg = race_config(256, 150, observation_dt=0.01)
    cfg["time"]["T"] = 0.5
    return race_args(cfg)


@pytest.fixture(scope="module")
def short_race():
    return simulate_observed(*short_race_args())


class TestSmoothedWellProfile:
    def test_plateau_values(self, grid256):
        f0 = smoothed_well_profile(grid256)
        x = grid256.axis_coords()

        def at(v):
            return f0.values[np.argmin(np.abs(x - v))]

        assert at(0.1) == 0.0
        assert at(0.35) == -2.0
        assert at(0.34) == -2.0  # 0.34 is on the [5/16, 3/8] plateau
        assert -2.0 < at(0.29) < 0.0  # strictly on the decreasing ramp

    def test_support_and_monotonicity(self, grid256):
        f0 = smoothed_well_profile(grid256)
        x = grid256.axis_coords()
        assert np.all(f0.values[(x <= 0.25) | (x >= 7 / 16)] == 0.0)
        ramp_down = f0.values[(x >= 0.25) & (x <= 5 / 16)]
        assert np.all(np.diff(ramp_down) <= 1e-12)
        ramp_up = f0.values[(x >= 3 / 8) & (x <= 7 / 16)]
        assert np.all(np.diff(ramp_up) >= -1e-12)

    def test_payment_outside_support_is_f0(self, grid256):
        # atom left of the well: ∫f0 dm = 0, so the payment is f0 itself
        f0 = smoothed_well_profile(grid256)
        cm = illustrative_cost(f0, 0.5)
        m = mollified_dirac(grid256, 0.1)
        assert np.allclose(cm.running(m).values, f0.values, atol=1e-9)


def catalogue_cost(kind, grid):
    coords = grid.coords()
    if kind == "product":
        phi = np.ones(grid.shape)
        for c in coords:
            phi = phi * np.cos(2 * np.pi * c)
        return product_form_cost(ScalarField(grid, 0.3 * phi),
                                 ScalarField(grid, np.sin(2 * np.pi * coords[0])))
    if kind == "illustrative":
        return illustrative_cost(smoothed_well_profile(grid), 0.5)
    if kind == "moment_sqrt":
        return moment_form_cost(np.sqrt, grid)
    return constant_cost(smoothed_well_profile(grid))


class TestSignatures:
    @pytest.mark.parametrize("kind,dim,n", [
        ("product", 1, 256), ("illustrative", 1, 256), ("moment_sqrt", 1, 256),
        ("constant", 1, 256), ("product", 2, 64), ("product", 2, 200)])
    def test_rows_equal_per_atom_running_bitwise(self, kind, dim, n):
        g = build_grid(dim, n)
        rng = np.random.default_rng(n + dim)
        cm = catalogue_cost(kind, g)
        atoms = (mollified_dirac(g, [0.3] * dim), mollified_dirac(g, [0.35] * dim),
                 *(random_density(g, rng) for _ in range(3)))
        mu = Belief(np.full(5, 0.2), atoms)
        sigs = _signatures(mu, cm)
        assert sigs.shape == (5,) + g.shape
        for row, a in zip(sigs, mu.atoms):
            assert np.array_equal(row, cm.running(a).values)


class TestInConsistencySet:
    def test_single_atom_always(self, grid64):
        cm = constant_cost(constant_field(grid64, 1.0))
        mu = Belief(np.array([1.0]), (mollified_dirac(grid64, 0.3),))
        assert in_consistency_set(mu, cm, 1e-12)

    def test_constant_cost_always(self, grid64):
        cm = constant_cost(constant_field(grid64, 1.0))
        mu = Belief(np.array([0.5, 0.5]),
                    (mollified_dirac(grid64, 0.1), random_density(
                        grid64, np.random.default_rng(0))))
        assert in_consistency_set(mu, cm, 1e-12)

    def test_illustrative_atoms_inside_well_detected(self, grid256):
        cm = illustrative_cost(smoothed_well_profile(grid256), 0.5)
        mu = Belief(np.array([0.5, 0.5]),
                    (mollified_dirac(grid256, 0.0), mollified_dirac(grid256, 0.35)))
        assert not in_consistency_set(mu, cm, 1e-6)


class TestPartitionByPayment:
    def test_all_equal_one_group(self, grid64):
        cm = constant_cost(constant_field(grid64, 1.0))
        mu = Belief(np.full(3, 1 / 3),
                    tuple(mollified_dirac(grid64, c) for c in (0.1, 0.4, 0.7)))
        assert [list(g) for g in partition_by_payment(mu, cm, 1e-9)] == [[0, 1, 2]]

    def test_illustrative_t0_one_group(self):
        mu0, _, cm, _, _, _, fc, _ = race_args(race_config(256, 512, observation_dt=0.01))
        groups = partition_by_payment(mu0, cm, fc.tolerance)
        assert [list(g) for g in groups] == [[0, 1]]

    def test_two_vs_one_split(self, grid64):
        x = grid64.axis_coords()
        cm = product_form_cost(ScalarField(grid64, np.cos(2 * np.pi * x)))
        # atoms at 0.2 and 0.8 share the cos-moment; 0.5 differs
        mu = Belief(np.full(3, 1 / 3),
                    (mollified_dirac(grid64, 0.2), mollified_dirac(grid64, 0.8),
                     mollified_dirac(grid64, 0.5)))
        groups = partition_by_payment(mu, cm, 1e-6)
        assert sorted(map(sorted, groups)) == [[0, 1], [2]]

    def test_is_partition(self, grid64):
        rng = np.random.default_rng(7)
        x = grid64.axis_coords()
        cm = product_form_cost(ScalarField(grid64, np.cos(2 * np.pi * x)))
        mu = Belief(rng.dirichlet(np.ones(5)),
                    tuple(random_density(grid64, rng) for _ in range(5)))
        groups = partition_by_payment(mu, cm, 1e-3)
        flat = sorted(i for grp in groups for i in grp)
        assert flat == list(range(5))

    @pytest.mark.parametrize("seed", range(40))
    def test_groups_are_the_components_of_the_relation(self, grid64, seed):
        """By definition: a partition listed by smallest index, every pair
        within tau in one group, and every group connected by such pairs."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 9))
        x = grid64.axis_coords()
        cm = product_form_cost(ScalarField(grid64, np.cos(2 * np.pi * x)))
        mu = Belief(rng.dirichlet(np.ones(k)),
                    tuple(random_density(grid64, rng) for _ in range(k)))
        sigs = cm.running_values(grid64, mu.values)
        gaps = np.array([[np.max(np.abs(a - b)) for b in sigs] for a in sigs])
        # tau equal to one of the gaps: that pair sits on the boundary
        tau = float(rng.choice(gaps[np.triu_indices(k, 1)])) if k > 1 else 1e-9
        near = gaps <= tau
        groups = partition_by_payment(mu, cm, tau)
        assert sorted(i for g in groups for i in g) == list(range(k))
        assert [min(g) for g in groups] == sorted(min(g) for g in groups)
        group_of = {i: n for n, g in enumerate(groups) for i in g}
        for i, j in zip(*np.nonzero(near)):
            assert group_of[i] == group_of[j]
        for g in groups:
            reached, todo = {g[0]}, [g[0]]
            while todo:
                i = todo.pop()
                new = {j for j in g if near[i, j]} - reached
                reached |= new
                todo.extend(new)
            assert reached == set(g)


def condition_on(mu, observed, cm, fc):
    """mu conditioned on an observed payment field by the rule that
    simulate_observed applies: keep the atoms whose payment lies within
    the tolerance, renormalize their weights."""
    kept, _ = _matching(_signatures(mu, cm), observed.values, fc.tolerance)
    return _condition(mu, kept)


class TestFilterStep:
    @staticmethod
    def setup(grid):
        f0 = smoothed_well_profile(grid)
        cm = illustrative_cost(f0, 0.5)
        mu = Belief(np.array([0.3, 0.7]),
                    (mollified_dirac(grid, 0.1), mollified_dirac(grid, 0.35)))
        return cm, mu

    def test_all_match_unchanged(self, grid64):
        cm = constant_cost(constant_field(grid64, 1.0))
        mu = Belief(np.array([0.3, 0.7]),
                    (mollified_dirac(grid64, 0.1), mollified_dirac(grid64, 0.5)))
        obs = cm.running(mu.atoms[0])
        out = condition_on(mu, obs, cm, FilterConfig(tolerance=1e-9))
        assert np.array_equal(out.weights, mu.weights)

    def test_single_survivor_becomes_delta(self, grid256):
        cm, mu = self.setup(grid256)
        obs = cm.running(mu.atoms[1])
        out = condition_on(mu, obs, cm, FilterConfig(tolerance=1e-6))
        assert out.n_atoms == 1
        assert out.weights[0] == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(out.atoms[0].values, mu.atoms[1].values)

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_idempotence(self, seed):
        g = build_grid(1, 32)
        rng = np.random.default_rng(seed)
        x = g.axis_coords()
        cm = product_form_cost(ScalarField(g, np.cos(2 * np.pi * x)))
        k = int(rng.integers(2, 6))
        mu = Belief(rng.dirichlet(np.ones(k)),
                    tuple(random_density(g, rng) for _ in range(k)))
        obs = cm.running(mu.atoms[int(rng.integers(k))])
        fc = FilterConfig(tolerance=1e-4)
        once = condition_on(mu, obs, cm, fc)
        twice = condition_on(once, obs, cm, fc)
        assert np.array_equal(once.weights, twice.weights)
        assert once.n_atoms == twice.n_atoms

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValueError):
            FilterConfig(tolerance=np.nan)

    @pytest.mark.parametrize("obs_dt", [np.nan, -1.0, np.inf])
    def test_bad_observation_dt_rejected(self, obs_dt):
        with pytest.raises(ValueError, match="observation_dt"):
            FilterConfig(tolerance=0.05, observation_dt=obs_dt)

    def test_weights_renormalized(self, grid256):
        cm, mu = self.setup(grid256)
        obs = cm.running(mu.atoms[0])
        out = condition_on(mu, obs, cm, FilterConfig(tolerance=1e-6))
        assert abs(out.weights.sum() - 1.0) < 1e-12


class TestTowerCheck:
    def test_constant_cost_exact_zero(self, grid64):
        tg = TimeGrid(0.25, 64)
        cm = constant_cost(constant_field(grid64, 1.0))
        mu = Belief(np.array([0.4, 0.6]),
                    (mollified_dirac(grid64, 0.1), mollified_dirac(grid64, 0.6)))
        b = constant_drift(grid64, tg, 0.5)
        phi = static_cylinder(ScalarField(grid64,
                                          np.cos(2 * np.pi * grid64.axis_coords())))
        assert tower_check(mu, b, 0.05, tg, 0.125, phi, cm) == 0.0

    def test_two_distinct_atoms(self, grid256):
        tg = TimeGrid(0.25, 64)
        cm = illustrative_cost(smoothed_well_profile(grid256), 0.5)
        mu = Belief(np.array([0.3, 0.7]),
                    (mollified_dirac(grid256, 0.1), mollified_dirac(grid256, 0.35)))
        b = constant_drift(grid256, tg, 0.0)
        phi = static_cylinder(ScalarField(grid256,
                                          np.sin(2 * np.pi * grid256.axis_coords())))
        assert tower_check(mu, b, 0.02, tg, 0.25, phi, cm, tau=1e-6) <= 1e-10

    def test_three_atoms_partial_match(self, grid64):
        tg = TimeGrid(0.25, 64)
        x = grid64.axis_coords()
        cm = product_form_cost(ScalarField(grid64, np.cos(2 * np.pi * x)))
        mu = Belief(np.array([0.2, 0.3, 0.5]),
                    (mollified_dirac(grid64, 0.2), mollified_dirac(grid64, 0.8),
                     mollified_dirac(grid64, 0.5)))
        b = constant_drift(grid64, tg, 0.0)
        phi = static_cylinder(ScalarField(grid64, np.sin(2 * np.pi * x)))
        assert tower_check(mu, b, 0.02, tg, 0.25, phi, cm, tau=1e-6) <= 1e-10


class TestSimulateObserved:
    def test_constant_cost_no_learning(self, grid64):
        tg = TimeGrid(0.25, 64)
        cm = constant_cost(constant_field(grid64, 1.0))
        H = Hamiltonian("abs")
        mu0 = Belief(np.array([0.4, 0.6]),
                     (mollified_dirac(grid64, 0.1), mollified_dirac(grid64, 0.6)))
        fc = FilterConfig(tolerance=1e-9, observation_dt=0.0625)
        trace = simulate_observed(mu0, 0, cm, H, 0.05, tg, fc)
        assert trace.events == []
        # belief path equals the blind pushforward of mu0
        sol_drift = trace.segments[0]["solution"].drift
        bp = push_forward(mu0, sol_drift, 0.05, tg)
        for i, t in enumerate(trace.times):
            k = int(round(t / tg.dt))
            ref = bp.belief_at(k)
            for a, b_atom in zip(trace.beliefs[i].atoms, ref.atoms):
                assert np.allclose(a.values, b_atom.values, atol=1e-12)

    def test_single_atom_is_complete_info_play(self, grid64):
        tg = TimeGrid(0.25, 64)
        x = grid64.axis_coords()
        cm = product_form_cost(ScalarField(grid64, 0.3 * np.cos(2 * np.pi * x)))
        H = Hamiltonian("smoothed_abs", smoothing=0.5)
        m0 = mollified_dirac(grid64, 0.3)
        mu0 = Belief(np.array([1.0]), (m0,))
        fc = FilterConfig(tolerance=1e-9, observation_dt=0.0625)
        trace = simulate_observed(mu0, 0, cm, H, 0.1, tg, fc)
        assert trace.events == []
        complete = solve_complete_info(m0, cm, H, 0.1, tg)
        final = trace.beliefs[-1].atoms[0]
        assert np.allclose(final.values, complete.belief.values[0][-1],
                           atol=1e-9)

    def test_invalid_true_atom(self, grid64):
        tg = TimeGrid(0.25, 64)
        cm = constant_cost(constant_field(grid64, 1.0))
        mu0 = Belief(np.array([1.0]), (mollified_dirac(grid64, 0.3),))
        with pytest.raises(ValueError, match="true_atom"):
            simulate_observed(mu0, 3, cm, Hamiltonian("abs"), 0.0, tg,
                              FilterConfig(tolerance=1e-9))

    def test_initially_inconsistent_rejected(self):
        mu0, _, cm, H, _, tg, _, scfg = small_race_args()
        grid = mu0.grid
        bad = Belief(np.array([0.5, 0.5]),
                     (mollified_dirac(grid, 0.0), mollified_dirac(grid, 0.35)))
        with pytest.raises(ValueError, match="consistent"):
            simulate_observed(bad, 0, cm, H, 0.0, tg, FilterConfig(tolerance=1e-6), scfg)

    def test_small_elimination_race(self):
        trace = simulate_observed(*small_race_args())
        assert len(trace.events) == 1
        _, eliminated = trace.events[0]
        assert eliminated == (1,)
        assert trace.beliefs[-1].n_atoms == 1
        # invariant: atom count nonincreasing, weights renormalized
        counts = [b.n_atoms for b in trace.beliefs]
        assert all(c2 <= c1 for c1, c2 in zip(counts, counts[1:]))
        for b in trace.beliefs:
            assert abs(b.weights.sum() - 1.0) < 1e-12


    def test_short_race_every_segment_converges(self, short_race):
        """50 replanning segments; the wrong atom at 0.1 leaves at t = 1/4 - 0.1."""
        trace = short_race
        assert len(trace.segments) == 50
        assert all(s["converged"] for s in trace.segments)
        assert len(trace.events) == 1
        t_event, eliminated = trace.events[0]
        assert eliminated == (1,)
        assert abs(t_event - 0.15) < 1e-9

    @pytest.mark.parametrize("race", ["small_race", "short_race"])
    def test_solutions_kept_only_where_information_set_the_belief(self, request,
                                                                  race):
        trace = request.getfixturevalue(race)
        assert sum(s["solution"] is not None for s in trace.segments) \
            == 1 + len(trace.events)
        kept = [s["t_start"] for s in trace.segments if s["solution"] is not None]
        assert kept == [0.0] + [t for t, _ in trace.events]

    def test_one_uninformed_solve_held_at_a_time(self, monkeypatch):
        """When the next segment is solved, the previous solve is already
        freed unless its segment keeps it (the opening or an informed one)."""
        refs, alive_at_next = [], []

        def spy(*args, **kwargs):
            if refs:
                alive_at_next.append(refs[-1]() is not None)
            sol = solve_blind(*args, **kwargs)
            refs.append(weakref.ref(sol))
            return sol

        monkeypatch.setattr(payments, "solve_blind", spy)
        trace = simulate_observed(*small_race_args())
        assert len(trace.events) == 1 and len(refs) == len(trace.segments) > 2
        assert alive_at_next == [s["solution"] is not None for s in trace.segments[:-1]]


def fp_advance_reference(mu0, true_atom, cm, H, sigma, tg, fc, cfg):
    """The filter loop written out with a second forward integration: each
    segment advances the belief by fp_step at tg.dt under the segment's
    drift, atom by atom through density_from_values.  Returns the atom
    values at every observation."""
    grid = mu0.grid
    steps_per_obs = _observation_steps(tg, fc)
    belief, alive, steps_left = mu0, list(range(mu0.n_atoms)), tg.steps
    sol = solve_blind(mu0, cm, H, sigma, tg, cfg)
    atoms = [mu0.values]
    while steps_left > 0:
        n_adv = min(steps_per_obs, steps_left)
        m = belief.values
        for s in range(n_adv):
            m = fp_step(grid, m, sol.drift.values[s], sigma, tg.dt)
        belief = Belief(belief.weights, tuple(density_from_values(grid, mk) for mk in m))
        steps_left -= n_adv
        sigs = _signatures(belief, cm)
        true_sig = sigs[alive.index(true_atom)]
        kept = [i for i, sig in enumerate(sigs)
                if np.max(np.abs(sig - true_sig)) <= fc.tolerance]
        if len(kept) < belief.n_atoms:
            w = belief.weights[kept]
            belief = Belief(w / w.sum(), tuple(belief.atoms[i] for i in kept))
        alive = [alive[i] for i in kept]
        atoms.append(belief.values)
        if steps_left > 0:
            sub_tg = TimeGrid(steps_left * tg.dt, steps_left)
            warm = DriftField(grid, sub_tg, sol.drift.values[n_adv:].copy())
            sol = solve_blind(belief, cm, H, sigma, sub_tg, cfg, initial_drift=warm)
    return atoms


class TestObservationsReadTheSolvedPath:
    """Each observation is read off the solve's belief path, which runs on
    TimeGrid(steps_left * dt, steps_left); its dt differs from tg.dt by an
    ulp on some segments, so the fp_step replay agrees to rounding only."""

    @staticmethod
    def assert_matches_reference(trace, args):
        assert all(s["converged"] for s in trace.segments)
        ref = fp_advance_reference(*args)
        assert len(ref) == len(trace.beliefs)
        for b, r in zip(trace.beliefs, ref):
            assert b.values.shape == r.shape
            assert np.max(np.abs(b.values - r)) <= 1e-12

    def test_short_race(self, short_race):
        self.assert_matches_reference(short_race, short_race_args())

    def test_diffusive_race(self):
        mu0, true_atom, cm, H, _, tg, fc, _ = small_race_args()
        args = (mu0, true_atom, cm, H, 0.02, tg, fc,
                SolverConfig(relaxation=0.5, tol=1e-8, max_iter=200))
        trace = simulate_observed(*args)
        assert len(trace.events) == 1
        self.assert_matches_reference(trace, args)


class TestTraceOutput:
    def test_json_and_csv(self, tmp_path, small_race):
        trace = small_race
        cli._write_trace(tmp_path, trace)
        body = json.loads((tmp_path / "trace.json").read_text())
        assert body["true_atom"] == 0
        assert len(body["events"]) == 1
        assert body["n_atoms"][0] == 2 and body["n_atoms"][-1] == 1
        csv_path = tmp_path / "trace.csv"
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("t,n_atoms,")
        assert "payment_sup_gap" in header

    # with true atom 1 the survivor's local index shifts from 1 to 0
    @pytest.mark.parametrize("true_atom", [0, 1])
    def test_payment_sup_gap_matches_per_atom_oracle(self, tmp_path, true_atom):
        mu0, _, cm, H, sigma, tg, fc, scfg = small_race_args()
        trace = simulate_observed(mu0, true_atom, cm, H, sigma, tg, fc, scfg)
        cli._write_trace(tmp_path, trace)
        csv_path = tmp_path / "trace.csv"
        rows = list(csv.reader(csv_path.read_text().splitlines()))
        gaps = [float(r[-1]) for r in rows[1:]]
        oracle = []
        for b, alive in zip(trace.beliefs, trace.surviving_indices):
            observed = cm.running(b.atoms[alive.index(true_atom)]).values
            oracle.append(max(float(np.max(np.abs(cm.running(a).values - observed)))
                              for a in b.atoms))
        assert gaps == oracle
        assert max(gaps) > 0.0
