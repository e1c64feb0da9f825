import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blindmfg.torus import (
    Density,
    ScalarField,
    _dirac_profiles,
    build_grid,
    density_from_values,
    integrate,
    laplacian_array,
    mollified_dirac,
    mollified_dirac_stack,
    normalize_stack,
    wasserstein1_circle,
)

from conftest import (
    circular_mean,
    constant_field,
    random_density,
    uniform_density,
    w1_circle_lp,
)


class TestBuildGrid:
    def test_spacing(self):
        assert build_grid(1, 64).spacing == pytest.approx(0.015625)

    def test_node_count_2d(self):
        g = build_grid(2, 16)
        assert int(np.prod(g.shape)) == 256

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError, match="dim"):
            build_grid(3, 32)

    def test_too_coarse(self):
        with pytest.raises(ValueError):
            build_grid(1, 7)


class TestMollifiedDirac:
    def test_unit_mass(self, grid64):
        m = mollified_dirac(grid64, 0.5)
        assert abs(np.sum(m.values) * grid64.cell_volume - 1.0) < 1e-12

    def test_unimodal(self, grid64):
        m = mollified_dirac(grid64, 0.5)
        # single maximum at the center node
        assert np.argmax(m.values) == 32

    def test_circular_mean(self, grid64):
        m = mollified_dirac(grid64, 0.3)
        assert abs(circular_mean(m) - 0.3) < grid64.spacing / 2

    def test_wraparound_symmetry(self, grid64):
        m = mollified_dirac(grid64, 0.0)
        # density symmetric about node 0: values[i] == values[n - i]
        assert np.allclose(m.values[1:], m.values[1:][::-1], atol=1e-14)

    def test_shift_equivariance(self, grid64):
        m1 = mollified_dirac(grid64, 0.2)
        m2 = mollified_dirac(grid64, 0.7)
        assert np.allclose(np.roll(m1.values, 32), m2.values, atol=1e-13)

    def test_under_resolved_rejected(self, grid64):
        with pytest.raises(ValueError, match="bandwidth"):
            mollified_dirac(grid64, 0.5, bandwidth=grid64.spacing / 2)


class TestDensityInvariants:
    def test_negative_values_rejected(self, grid64):
        vals = np.full(64, 1.0)
        vals[3] = -0.5
        with pytest.raises(ValueError):
            Density(grid64, vals)

    def test_wrong_mass_rejected(self, grid64):
        with pytest.raises(ValueError):
            Density(grid64, np.full(64, 2.0))

    def test_nan_rejected(self, grid64):
        vals = np.full(64, 1.0)
        vals[0] = np.nan
        with pytest.raises(ValueError):
            ScalarField(grid64, vals)

    @pytest.mark.parametrize("build", [Density, density_from_values, normalize_stack],
                             ids=lambda f: f.__name__)
    def test_all_nan_density_rejected(self, grid64, build):
        # every comparison with NaN is False, so each check must fail closed
        with pytest.raises(ValueError):
            build(grid64, np.full(64, np.nan))


class TestIntegrate:
    def test_unit_mass(self, grid64):
        phi = constant_field(grid64, 1.0)
        m = random_density(grid64, np.random.default_rng(0))
        assert integrate(phi, m) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonality(self, grid64):
        x = grid64.axis_coords()
        phi = ScalarField(grid64, np.cos(2 * np.pi * x))
        assert abs(integrate(phi, uniform_density(grid64))) < 1e-12

    def test_dirac_mean(self, grid64):
        x = grid64.axis_coords()
        phi = ScalarField(grid64, x.copy())
        m = mollified_dirac(grid64, 0.3)
        # brute-force summation oracle
        oracle = float(np.sum(x * m.values) * grid64.cell_volume)
        val = integrate(phi, m)
        assert val == pytest.approx(oracle, abs=1e-14)
        assert abs(val - 0.3) < 2 * grid64.spacing

    def test_grid_mismatch(self, grid64):
        phi = constant_field(build_grid(1, 32), 1.0)
        with pytest.raises(ValueError):
            integrate(phi, uniform_density(grid64))


class TestLaplacian:
    def test_annihilates_constants(self, grid64):
        lap = laplacian_array(grid64, np.full(grid64.shape, 3.7))
        assert np.all(lap == 0.0)

    def test_eigenfunction(self):
        g = build_grid(1, 256)
        x = g.axis_coords()
        lap = laplacian_array(g, np.cos(2 * np.pi * x))
        exact = -(2 * np.pi) ** 2 * np.cos(2 * np.pi * x)
        rel = np.max(np.abs(lap - exact)) / np.max(np.abs(exact))
        assert rel < 1e-2

    def test_second_order_refinement(self):
        def err(n):
            g = build_grid(1, n)
            x = g.axis_coords()
            exact = -(2 * np.pi) ** 2 * np.cos(2 * np.pi * x)
            return np.max(np.abs(laplacian_array(g, np.cos(2 * np.pi * x)) - exact))

        assert err(64) / err(128) > 3.0  # order 2 would give exactly 4

    def test_eigenfunction_2d(self):
        g = build_grid(2, 64)
        xx, yy = g.coords()
        phi = np.cos(2 * np.pi * xx) * np.sin(2 * np.pi * yy)
        exact = -2 * (2 * np.pi) ** 2 * phi
        rel = np.max(np.abs(laplacian_array(g, phi) - exact)) / np.max(np.abs(exact))
        assert rel < 2e-2


class TestWasserstein1Circle:
    def test_identical(self, grid64):
        m = mollified_dirac(grid64, 0.4)
        assert wasserstein1_circle(m, m) == 0.0

    def test_dirac_pair(self, grid64):
        m1 = mollified_dirac(grid64, 0.2)
        m2 = mollified_dirac(grid64, 0.4)
        assert abs(wasserstein1_circle(m1, m2) - 0.2) < 2 * grid64.spacing

    def test_wraparound(self, grid64):
        m1 = mollified_dirac(grid64, 0.1)
        m2 = mollified_dirac(grid64, 0.9)
        assert abs(wasserstein1_circle(m1, m2) - 0.2) < 2 * grid64.spacing

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_against_lp_oracle(self, seed):
        g = build_grid(1, 16)
        rng = np.random.default_rng(seed)
        m1 = random_density(g, rng)
        m2 = random_density(g, rng)
        assert wasserstein1_circle(m1, m2) == pytest.approx(
            w1_circle_lp(m1, m2), abs=1e-9)

    def test_translation_invariance(self, grid64):
        for shift in (0.125, 0.25, 0.625):
            m = mollified_dirac(grid64, 0.1)
            ms = mollified_dirac(grid64, 0.1 + shift)
            expected = min(shift, 1 - shift)
            assert abs(wasserstein1_circle(m, ms) - expected) < 2 * grid64.spacing

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_metric_axioms(self, seed):
        g = build_grid(1, 32)
        rng = np.random.default_rng(seed)
        a, b, c = (random_density(g, rng) for _ in range(3))
        dab = wasserstein1_circle(a, b)
        dba = wasserstein1_circle(b, a)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dab >= 0
        assert wasserstein1_circle(a, a) <= 1e-12
        assert dab <= wasserstein1_circle(a, c) + wasserstein1_circle(c, b) + 1e-9

    def test_dimension_guard(self):
        g = build_grid(2, 16)
        m = uniform_density(g)
        with pytest.raises(ValueError):
            wasserstein1_circle(m, m)


def test_density_from_values_normalizes(grid64):
    m = density_from_values(grid64, np.random.default_rng(3).random(64))
    assert abs(np.sum(m.values) * grid64.cell_volume - 1.0) < 1e-12
    assert np.all(m.values >= 0)


def per_center_gaussian(grid, center, bandwidth=None):
    """The wrapped Gaussian as one centre at a time: all eleven images
    exponentiated, summed per node, clipped and renormalized."""
    if bandwidth is None:
        bandwidth = 2.0 * grid.spacing
    x = grid.axis_coords()
    profiles = []
    for c in np.atleast_1d(np.asarray(center, dtype=float)):
        d = x[:, None] - c + np.arange(-5, 6)[None, :]
        profiles.append(np.exp(-0.5 * (d / bandwidth) ** 2).sum(axis=1))
    vals = profiles[0] if grid.dim == 1 else np.multiply.outer(*profiles)
    v = np.maximum(vals, 0.0)
    return v / (v.sum() * grid.cell_volume)


class TestMollifiedDiracStack:
    # n = 8 keeps every image (no skip); n = 256 reaches each node with
    # one image only; the bandwidths cover both sides of that boundary
    @pytest.mark.parametrize("dim,n,bandwidth", [
        (1, 8, None), (1, 16, None), (1, 64, None), (1, 256, None),
        (1, 16, 0.3), (1, 64, 0.05), (1, 256, 0.006), (2, 32, None), (2, 64, None),
        (2, 32, 0.07), (2, 200, None)])
    def test_rows_equal_per_center_gaussian_bitwise(self, dim, n, bandwidth):
        g = build_grid(dim, n)
        rng = np.random.default_rng(n)
        centers = np.concatenate([rng.random((6, dim)),
                                  [[0.0] * dim, [1 - 1e-12] * dim,
                                   [1.7] * dim, [-0.3] * dim]])
        stack = mollified_dirac_stack(g, centers, bandwidth)
        assert stack.shape == (len(centers),) + g.shape
        for c, row in zip(centers, stack):
            center = c if dim > 1 else float(c[0])
            single = mollified_dirac(g, center, bandwidth).values
            assert np.array_equal(row, single)
            assert np.array_equal(row, per_center_gaussian(g, center, bandwidth))

    @pytest.mark.parametrize("dim,n", [(1, 16), (1, 256), (2, 16), (2, 256)])
    def test_is_the_normalized_profiles(self, dim, n):
        """At 1 image per centre and node (n = 256) and at all 11 (n = 16)."""
        g = build_grid(dim, n)
        centers = np.random.default_rng(n).random((5, dim))
        assert np.array_equal(mollified_dirac_stack(g, centers),
                              normalize_stack(g, _dirac_profiles(g, centers)))

    def test_center_shape_and_finiteness(self, grid64):
        with pytest.raises(ValueError, match="coordinate"):
            mollified_dirac_stack(grid64, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="finite"):
            mollified_dirac_stack(grid64, [[0.2], [np.nan]])


def test_normalize_stack_rows_equal_density_from_values():
    for g in (build_grid(1, 64), build_grid(2, 32)):
        raw = np.random.default_rng(4).random((5,) + g.shape) - 0.01
        stack = normalize_stack(g, raw)
        for r, row in zip(raw, stack):
            assert np.array_equal(row, density_from_values(g, r).values)
        with pytest.raises(ValueError, match="nonpositive"):
            normalize_stack(g, np.zeros((2,) + g.shape))


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
def test_normalize_stack_in_place_equals_allocating_call(dim, n):
    g = build_grid(dim, n)
    raw = np.random.default_rng(5).random((4,) + g.shape) - 0.01
    assert (raw < 0).any()
    expected = normalize_stack(g, raw)
    v = raw.copy()
    assert normalize_stack(g, v, out=v) is v
    assert np.array_equal(v, expected)
    zero = np.zeros((2,) + g.shape)
    with pytest.raises(ValueError, match="nonpositive"):
        normalize_stack(g, zero, out=zero)
