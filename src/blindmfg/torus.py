"""Periodic grids on the unit torus, fields, and the exact circle W1 metric.

Everything lives on the uniform grid of the unit torus [0,1)^d with d = 1
or 2.  Fields are immutable wrappers around numpy arrays; all indexing is
periodic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

MASS_TOL = 1e-12


@dataclass(frozen=True)
class TorusGrid:
    """Uniform discretization of [0,1)^d with n nodes per axis."""

    dim: int
    n: int

    @property
    def spacing(self) -> float:
        return 1.0 / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    def axis_coords(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    def coords(self) -> tuple:
        """Meshgrid of node coordinates, one array per axis."""
        x = self.axis_coords()
        if self.dim == 1:
            return (x,)
        return tuple(np.meshgrid(x, x, indexing="ij"))


def build_grid(dim: int, n: int) -> TorusGrid:
    if dim not in (1, 2):
        raise ValueError(f"unsupported dimension {dim}; only d = 1 or 2")
    if n < 8:
        raise ValueError(f"need at least 8 points per axis, got {n}")
    return TorusGrid(dim=dim, n=n)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ScalarField:
    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        v = _frozen(self.values)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("scalar field contains non-finite values")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Density:
    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _checked_densities(self.grid, self.values, ()))


def _checked_densities(grid: TorusGrid, values, lead: tuple) -> np.ndarray:
    """`values` frozen, checked as densities of shape lead + grid.shape, each of mass 1."""
    v = _frozen(values)
    if v.shape != lead + grid.shape:
        raise ValueError(f"values shape {v.shape} != grid shape {lead + grid.shape}")
    if not np.all(v >= 0):
        raise ValueError("density has negative or NaN values")
    for mass in v.reshape(lead + (-1,)).sum(axis=-1).ravel() * grid.cell_volume:
        if not abs(mass - 1.0) <= MASS_TOL:
            raise ValueError(f"density mass {mass} deviates from 1 by more than {MASS_TOL}")
    return v


def normalize_stack(grid: TorusGrid, values: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Clip tiny negatives and renormalize every field of a (..., *grid.shape) stack,
    into `out` if given (which may be `values` itself).

    Each field is summed over its flattened grid axes, so a field of a
    stack gets the same bits as the field normalized on its own.
    """
    v = np.maximum(np.asarray(values, dtype=float), 0.0, out=out)
    lead = v.shape[:v.ndim - grid.dim]
    total = v.reshape(lead + (-1,)).sum(axis=-1) * grid.cell_volume
    if not (total > 0).all():
        raise ValueError("cannot normalize a nonpositive or NaN mass field")
    v /= np.reshape(total, lead + (1,) * grid.dim)
    return v


def density_from_values(grid: TorusGrid, values: np.ndarray) -> Density:
    """Clip tiny negatives and renormalize; for solver output and sampling."""
    return Density(grid, normalize_stack(grid, values))


# Gaussian images at integer shifts k = -5..5 wrap the profile around the
# circle with machine-precision mass.  A term exp(-z^2/2) with
# |z| >= _EXP_CUTOFF is at most exp(-800), which is exactly 0.0 in double
# precision, so it is set to 0.0 without calling exp: an exp whose result
# underflows costs an order of magnitude more than one with a normal result.
_IMAGES = np.arange(-5.0, 6.0)
_EXP_CUTOFF = 40.0


def _images_formed(bandwidth: float) -> int:
    """Gaussian images mollified_dirac_stack evaluates per centre and node:
    only the nearest while the reach _EXP_CUTOFF * bandwidth is below 0.45."""
    return 1 if _EXP_CUTOFF * bandwidth < 0.45 else _IMAGES.size


def mollified_dirac_stack(grid: TorusGrid, centers, bandwidth: float | None = None) -> np.ndarray:
    """Wrapped-Gaussian Dirac realizations, (J, *grid.shape), for J centers (J, dim).

    Row j equals mollified_dirac(grid, centers[j], bandwidth).values.
    """
    return normalize_stack(grid, _dirac_profiles(grid, centers, bandwidth))


def _dirac_profiles(grid: TorusGrid, centers, bandwidth: float | None = None) -> np.ndarray:
    """mollified_dirac_stack's rows before normalization: each the
    wrapped-Gaussian profile of its center, of mass near but not at 1."""
    h = grid.spacing
    if bandwidth is None:
        bandwidth = 2.0 * h
    if bandwidth < h:
        raise ValueError(f"bandwidth {bandwidth} under-resolved (grid spacing {h})")
    c = np.asarray(centers, dtype=float)
    if c.ndim != 2 or c.shape[1] != grid.dim:
        raise ValueError(f"center must have {grid.dim} coordinate(s)")
    if not np.isfinite(c).all():
        raise ValueError("center must be finite")
    d = grid.axis_coords() - c[..., None]
    nearest = _images_formed(bandwidth) == 1
    if nearest:
        # images lie 1 apart and a term is nonzero only within reach < 1/2
        # of its image, so the nearest image, d + k with k = -rint(d), is
        # the one nonzero term at each node
        d -= np.rint(d)
    else:
        # the image axis last, summed along that contiguous axis in one fixed order
        d = d[..., None] + _IMAGES
    # exp(-(d / bandwidth)^2 / 2), built in place in d
    d /= bandwidth
    np.square(d, out=d)
    d *= -0.5
    kept = d > -0.5 * _EXP_CUTOFF ** 2
    np.exp(d, out=d, where=kept)
    np.copyto(d, 0.0, where=~kept)
    prof = d if nearest else d.sum(axis=-1)
    if grid.dim == 1:
        return prof[:, 0]
    return prof[:, 0, :, None] * prof[:, 1, None, :]


def mollified_dirac(grid: TorusGrid, center, bandwidth: float | None = None) -> Density:
    """Wrapped-Gaussian realization of a Dirac mass at `center`.

    The default bandwidth is twice the grid spacing, the smallest width
    the transport solvers resolve comfortably.
    """
    c = np.atleast_1d(np.asarray(center, dtype=float))
    return Density(grid, mollified_dirac_stack(grid, c[None], bandwidth)[0])


def integrate_stack(grid: TorusGrid, phi: np.ndarray, values: np.ndarray) -> np.ndarray:
    """∫ phi dm for every field m of a (..., *grid.shape) stack (rectangle rule);
    each field is summed over its flattened grid axes, as it would be alone."""
    v = phi * values
    return v.reshape(v.shape[:v.ndim - grid.dim] + (-1,)).sum(axis=-1) * grid.cell_volume


def integrate(phi: ScalarField, m: Density) -> float:
    """∫ phi dm on the grid (rectangle rule, exact for the discrete measure)."""
    if phi.grid != m.grid:
        raise ValueError("integrate: fields live on different grids")
    return float(integrate_stack(m.grid, phi.values, m.values))


def laplacian_array(grid: TorusGrid, v: np.ndarray) -> np.ndarray:
    """Second-order centered periodic Laplacian on raw values.

    Per axis, node i gets (v[i+1] - 2 v[i] + v[i-1]) / h^2, evaluated left
    to right.
    """
    h2 = grid.spacing ** 2
    out = np.zeros_like(v)
    two_v = 2.0 * v
    for ax in range(grid.dim):
        term = np.empty_like(v)
        for own, nb in _periodic_pairs(ax - grid.dim, 1):
            np.subtract(v[nb], two_v[own], out=term[own])
        for own, nb in _periodic_pairs(ax - grid.dim, -1):
            np.add(term[own], v[nb], out=term[own])
        term /= h2
        out += term
    return out


@functools.lru_cache(maxsize=None)
def _periodic_pairs(axis: int, step: int) -> tuple:
    """Index pairs (own, neighbour) that map node i to node i + step, periodically.

    `axis` counts from the end (-1 is the last axis), so leading batch axes
    pass through, and `step` is 1 or -1.  The first pair covers the
    interior, the second the one wrap-around slice; both are tuples of
    basic slices, so `op(v[nb], v[own], out=out[own])` over the two pairs
    fills `out[i] = op(v[i + step], v[i])` along the whole axis with views
    instead of the copies that np.roll makes.
    """
    head, tail = slice(None, -1), slice(1, None)
    first, last = slice(None, 1), slice(-1, None)
    pairs = ((head, tail), (last, first)) if step == 1 else ((tail, head), (first, last))
    rest = (slice(None),) * (-1 - axis)
    return tuple(((Ellipsis, own) + rest, (Ellipsis, nb) + rest) for own, nb in pairs)


def wasserstein1_circle(m1: Density, m2: Density) -> float:
    """Exact W1 between two densities on the circle.

    Uses the CDF characterization W1 = min_c ∫ |F1 - F2 - c| dx; the
    optimal c is a median of the CDF difference on the uniform grid.
    """
    if m1.grid != m2.grid:
        raise ValueError("wasserstein1_circle: densities on different grids")
    if m1.grid.dim != 1:
        raise ValueError("wasserstein1_circle: exact metric implemented for d = 1 only")
    h = m1.grid.spacing
    diff = np.cumsum(m1.values - m2.values) * h
    c = np.median(diff)
    return float(np.sum(np.abs(diff - c)) * h)
