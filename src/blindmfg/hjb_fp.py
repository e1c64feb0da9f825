"""Backward HJB and forward Fokker-Planck solvers on the periodic grid.

The HJB step treats the Hamiltonian explicitly with a Godunov upwind flux
and the diffusion implicitly.  The implicit diffusion is a circulant
solve: on 1-D grids of at most _DENSE_MAX_N nodes it is one matmul with
the cached dense symmetric inverse, elsewhere a division in Fourier space.
The FP step is built as the exact discrete adjoint of the linearized HJB
step, so the duality pairing <HJB-step phi, m> = <phi, FP-step m> holds
to machine precision and mass/positivity are preserved by construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .torus import Density, ScalarField, TorusGrid, _periodic_pairs

_CFL_SLACK = 1.0 + 1e-12

# Largest 1-D grid whose implicit diffusion is a dense matmul: up to here
# one matmul beats the four FFT calls per solve, at n = 512 it no longer does.
_DENSE_MAX_N = 256


@dataclass(frozen=True)
class Hamiltonian:
    """Catalogue of convex Hamiltonians with H(x,0)=0, applied per axis.

    kinds: 'abs' (|p|), 'smoothed_abs' (sqrt(p^2+delta^2)-delta),
    'capped_quadratic' (p^2/2 capped to slope `cap`).
    """

    kind: str
    smoothing: float = 0.0
    cap: float = 1.0

    def __post_init__(self):
        if self.kind not in ("abs", "smoothed_abs", "capped_quadratic"):
            raise ValueError(f"unknown Hamiltonian kind {self.kind!r}")
        if self.kind == "smoothed_abs" and not self.smoothing >= 0:
            raise ValueError("smoothing must be >= 0")
        if self.kind == "capped_quadratic" and not self.cap > 0:
            raise ValueError("cap must be > 0")

    @property
    def lipschitz(self) -> float:
        return self.cap if self.kind == "capped_quadratic" else 1.0

    def profile(self, p: np.ndarray) -> np.ndarray:
        """One-axis value h(p)."""
        p = np.asarray(p, dtype=float)
        if self.kind == "abs":
            return np.abs(p)
        if self.kind == "smoothed_abs":
            d = self.smoothing
            return np.sqrt(p * p + d * d) - d
        P = self.cap
        quad = 0.5 * p * p
        affine = P * np.abs(p) - 0.5 * P * P
        return np.where(np.abs(p) <= P, quad, affine)

    def dprofile(self, p: np.ndarray) -> np.ndarray:
        """One-axis derivative h'(p), with h'(0) = 0 for the kink."""
        p = np.asarray(p, dtype=float)
        if self.kind == "abs":
            return np.sign(p)
        if self.kind == "smoothed_abs":
            d = self.smoothing
            if d == 0.0:
                return np.sign(p)
            return p / np.sqrt(p * p + d * d)
        return np.clip(p, -self.cap, self.cap)


@dataclass(frozen=True)
class TimeGrid:
    horizon: float
    steps: int

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be > 0")
        if self.steps < 1:
            raise ValueError("need at least one time step")
        # the solvers divide by the step
        if self.dt == 0.0:
            raise ValueError(f"{self.horizon} over {self.steps} steps "
                             "rounds the time step to 0")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


def _check_cfl(tg: TimeGrid, grid: TorusGrid, speed: float, what: str) -> None:
    ratio = tg.dt * speed / grid.spacing
    if not ratio <= _CFL_SLACK:
        raise ValueError(
            f"CFL violation for {what}: dt*speed/h = {ratio:.4g} > 1 "
            f"(dt={tg.dt:.4g}, speed={speed:.4g}, h={grid.spacing:.4g})"
        )


@dataclass(frozen=True)
class ValuePath:
    grid: TorusGrid
    time_grid: TimeGrid
    values: np.ndarray  # (steps+1,) + grid.shape


@dataclass(frozen=True)
class DriftField:
    grid: TorusGrid
    time_grid: TimeGrid
    values: np.ndarray  # (steps+1, dim) + grid.shape

    def sup_norm(self) -> float:
        """max |b|, from the two extremes: no drift-sized temporary."""
        return float(np.maximum(np.abs(self.values.max()), np.abs(self.values.min())))


def zero_drift(grid: TorusGrid, tg: TimeGrid) -> DriftField:
    return DriftField(grid, tg, np.zeros((tg.steps + 1, grid.dim) + grid.shape))


def constant_drift(grid: TorusGrid, tg: TimeGrid, velocity) -> DriftField:
    v = np.atleast_1d(np.asarray(velocity, dtype=float))
    vals = np.zeros((tg.steps + 1, grid.dim) + grid.shape)
    for ax in range(grid.dim):
        vals[:, ax] = v[ax]
    return DriftField(grid, tg, vals)


# ---------------------------------------------------------------------------
# elementary steps

@functools.lru_cache(maxsize=8)
def _diffusion_denominator(grid: TorusGrid, sigma: float, dt: float) -> np.ndarray:
    """Fourier symbol 1 - dt*sigma*eig of I - dt*sigma*Lap, shaped grid.shape.

    eig are the eigenvalues of the periodic centered Laplacian.  A sigma
    whose symbol overflows raises ValueError: the implicit step would run
    as infinite diffusion.
    """
    n = grid.n
    h2 = grid.spacing ** 2
    eig = (2.0 * np.cos(2.0 * np.pi * np.arange(n) / n) - 2.0) / h2
    if grid.dim == 2:
        eig = eig[:, None] + eig[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        denom = 1.0 - dt * sigma * eig
    if not np.isfinite(denom).all():
        raise ValueError(f"sigma = {sigma:g} overflows the diffusion symbol "
                         f"1 - dt*sigma*eig (dt={dt:.4g}, h={grid.spacing:.4g})")
    denom.flags.writeable = False
    return denom


@functools.lru_cache(maxsize=8)
def _diffusion_matrix(grid: TorusGrid, sigma: float, dt: float) -> np.ndarray:
    """(I - dt*sigma*Lap)^-1 as a dense n x n array, for a 1-D grid.

    The inverse of a circulant is the circulant of the inverse transform
    of 1/symbol; symmetrising makes D == D.T exactly, so the matmul is
    self-adjoint to the last bit.
    """
    col = np.fft.ifft(1.0 / _diffusion_denominator(grid, sigma, dt)).real
    idx = np.arange(grid.n)
    D = col[(idx[:, None] - idx[None, :]) % grid.n]
    D = 0.5 * (D + D.T)
    D.flags.writeable = False
    return D


def _fft_diffusion(grid: TorusGrid, v: np.ndarray, sigma: float, dt: float) -> np.ndarray:
    """implicit_diffusion as a division in Fourier space.

    The transforms run one grid axis at a time, last axis first, which is
    the order and the pocketfft routine that np.fft.fftn/ifftn use.
    """
    axes = range(-1, -grid.dim - 1, -1)
    w = v
    for ax in axes:
        w = np.fft.fft(w, axis=ax)
    w /= _diffusion_denominator(grid, sigma, dt)
    for ax in axes:
        w = np.fft.ifft(w, axis=ax)
    return w.real


def implicit_diffusion(grid: TorusGrid, v: np.ndarray, sigma: float, dt: float) -> np.ndarray:
    """Solve (I - dt*sigma*Lap) w = v exactly on the periodic grid.

    The operator is circulant and symmetric, hence self-adjoint for the
    duality checks.  1-D grids of at most _DENSE_MAX_N nodes apply its
    cached dense inverse, other grids divide in Fourier space.  `v` may
    carry leading batch axes; each field is solved on its own, so a
    batched row has the bits of the same row solved alone.
    """
    if sigma == 0.0 or dt == 0.0:
        return v.copy()
    if grid.dim == 1 and grid.n <= _DENSE_MAX_N:
        return (v[..., None, :] @ _diffusion_matrix(grid, sigma, dt))[..., 0, :]
    return _fft_diffusion(grid, v, sigma, dt)


class _GhostDiff:
    """One-sided periodic differences along one grid axis, in a reused buffer.

    For fields of shape `shape`, `buf` has n + 1 entries along the axis,
    buf[j] = (v[j] - v[j-1]) / h for j = 0..n with indices mod n: a ghost
    cell at each end.  Its views `minus` (buf[:-1]) and `plus` (buf[1:])
    are the backward and forward differences at every node.  The views
    are built once, so calling on a new field of the same shape costs two
    subtractions, one copy and one division.
    """

    def __init__(self, grid: TorusGrid, shape: tuple, ax: int):
        axis = ax - grid.dim
        ghost = list(shape)
        ghost[axis] += 1
        self.buf = np.empty(ghost)
        (head, tail), (last, first) = _periodic_pairs(axis, 1)
        self.minus = self.buf[head]
        self.plus = self.buf[tail]
        self._parts = [(own, nb, self.minus[own]) for own, nb in _periodic_pairs(axis, -1)]
        self._end = self.buf[last]
        self._start = self.buf[first]
        self._h = grid.spacing

    def __call__(self, v: np.ndarray) -> "_GhostDiff":
        for own, nb, out in self._parts:
            np.subtract(v[own], v[nb], out=out)
        self._end[...] = self._start
        self.buf /= self._h
        return self


def _godunov_into(diffs: list, u: np.ndarray, H: Hamiltonian, clipped: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """Godunov Hamiltonian of u into `out`; `diffs` (one _GhostDiff per
    axis) and `clipped`, shaped (2,) + u.shape, are scratch.  Per axis,
    its rows 0 and 1 take the clipped backward and forward differences, so
    one profile call serves both.  The profiles are never -0.0, so the
    first axis is written, not added to zeros, with the same bits."""
    for ax, d in enumerate(diffs):
        d(u)
        np.maximum(d.minus, 0.0, out=clipped[0])
        np.minimum(d.plus, 0.0, out=clipped[1])
        h = H.profile(clipped)
        if ax == 0:
            np.maximum(h[0], h[1], out=out)
        else:
            out += np.maximum(h[0], h[1])
    return out


def godunov_hamiltonian(grid: TorusGrid, u: np.ndarray, H: Hamiltonian) -> np.ndarray:
    """Godunov numerical Hamiltonian, summed per axis."""
    diffs = [_GhostDiff(grid, u.shape, ax) for ax in range(grid.dim)]
    return _godunov_into(diffs, u, H, np.empty((2,) + u.shape), np.empty(u.shape))


def upwind_advection(grid: TorusGrid, phi: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Upwind b . grad(phi) for the linearized backward transport."""
    out = np.zeros_like(phi)
    for ax in range(grid.dim):
        d = _GhostDiff(grid, phi.shape, ax)(phi)
        bax = b[ax]
        bp = np.maximum(bax, 0.0)
        bm = np.minimum(bax, 0.0)
        out += bp * d.plus + bm * d.minus
    return out


def hjb_linear_step(grid: TorusGrid, phi: np.ndarray, b: np.ndarray,
                    sigma: float, dt: float) -> np.ndarray:
    """One linearized backward step phi_k from phi_{k+1} with frozen drift b."""
    return implicit_diffusion(grid, phi + dt * upwind_advection(grid, phi, b), sigma, dt)


class _DonorCell:
    """The FP step for stacked densities of one shape, in reused buffers.

    Per axis, the donor-cell flux F_{i+1/2} = b+_i m_i + b-_{i+1} m_{i+1}
    and the divergence dt * (F_{i-1/2} - F_{i+1/2}) / h are built in
    contiguous buffers of the stacked shape.  Node i + 1 along the axis
    is s = n**(axes after it) entries further on in the flat buffer, so
    each shifted sum is one flat operation, and a slab operation then
    redoes the nodes whose neighbour wraps around the axis.
    """

    def __init__(self, grid: TorusGrid, shape: tuple):
        self.grid = grid
        self.bp = np.empty((grid.dim,) + grid.shape)
        self.bm = np.empty_like(self.bp)
        self.inflow = np.empty(shape)  # b+ m
        self.outflow = np.empty(shape)  # b- m
        self.flux = np.empty(shape)
        self.div = np.empty(shape)
        A, B, F, D = (a.reshape(-1) for a in (self.inflow, self.outflow, self.flux, self.div))
        self.axes = []
        for ax in range(grid.dim):
            s = grid.n ** (grid.dim - 1 - ax)
            _, (last, first) = _periodic_pairs(ax - grid.dim, 1)
            # (x, y, out) of each ufunc call, flat first, then the wrapped slab
            flux_parts = ((A[:-s], B[s:], F[:-s]),
                          (self.inflow[last], self.outflow[first], self.flux[last]))
            div_parts = ((F[:-s], F[s:], D[s:]),
                         (self.flux[last], self.flux[first], self.div[first]))
            self.axes.append((self.bp[ax], self.bm[ax], flux_parts, div_parts))

    def __call__(self, m: np.ndarray, b: np.ndarray, sigma: float, dt: float,
                 out: np.ndarray) -> np.ndarray:
        np.maximum(b, 0.0, out=self.bp)
        np.minimum(b, 0.0, out=self.bm)
        md = m if sigma == 0.0 else implicit_diffusion(self.grid, m, sigma, dt)
        div = self.div
        for ax, (bp, bm, flux_parts, div_parts) in enumerate(self.axes):
            np.multiply(bp, md, out=self.inflow)
            np.multiply(bm, md, out=self.outflow)
            for args in flux_parts:
                np.add(*args)
            for args in div_parts:
                np.subtract(*args)
            div *= dt
            div /= self.grid.spacing
            if ax == 0:
                np.add(md, div, out=out)
            else:
                out += div
        return out


def fp_step(grid: TorusGrid, m: np.ndarray, b: np.ndarray,
            sigma: float, dt: float) -> np.ndarray:
    """One forward FP step, the exact transpose of hjb_linear_step.

    `m` may carry leading batch axes: every density moves with drift b.
    """
    out = np.empty(np.shape(m))
    return _DonorCell(grid, out.shape)(m, b, sigma, dt, out)


# ---------------------------------------------------------------------------
# solvers

def solve_hjb_backward(running_cost: np.ndarray, terminal_cost: ScalarField,
                       H: Hamiltonian, sigma: float, tg: TimeGrid) -> ValuePath:
    """Backward value solve with explicit Godunov Hamiltonian, implicit diffusion.

    `running_cost` is an array of shape (steps+1,) + grid.shape; slice k
    is used on the step [t_k, t_{k+1}].
    """
    grid = terminal_cost.grid
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    f = np.asarray(running_cost, dtype=float)
    if f.shape != (tg.steps + 1,) + grid.shape:
        raise ValueError(f"running cost shape {f.shape} incompatible")
    _check_cfl(tg, grid, H.lipschitz, "HJB")
    u = np.empty((tg.steps + 1,) + grid.shape)
    u[tg.steps] = terminal_cost.values
    dt = tg.dt
    diffs = [_GhostDiff(grid, grid.shape, ax) for ax in range(grid.dim)]
    clipped, w = np.empty((2,) + grid.shape), np.empty(grid.shape)
    for k in range(tg.steps - 1, -1, -1):
        # w = u[k+1] + dt * (f[k] - ham), built in place
        _godunov_into(diffs, u[k + 1], H, clipped, out=w)
        np.subtract(f[k], w, out=w)
        w *= dt
        if sigma == 0.0:
            np.add(u[k + 1], w, out=u[k])
        else:
            w += u[k + 1]
            u[k] = implicit_diffusion(grid, w, sigma, dt)
    return ValuePath(grid, tg, u)


def optimal_drift(u: ValuePath, H: Hamiltonian) -> DriftField:
    """Feedback drift b = -D_pH(grad u) with the Godunov upwind gradient choice."""
    grid = u.grid
    b = np.empty((u.time_grid.steps + 1, grid.dim) + grid.shape)
    # in place, each temporary freed once dead: the arrays span all of
    # space-time, and this runs once per fixed-point iteration
    for ax in range(grid.dim):
        d = _GhostDiff(grid, u.values.shape, ax)(u.values)
        pp = np.minimum(d.plus, 0.0)
        pm = np.maximum(d.minus, 0.0, out=d.minus)
        hm, hp = H.profile(pm), H.profile(pp)
        np.copyto(pp, pm, where=hm >= hp)  # pp: the selected gradient
        # two-sided tie (local max of u): both branches are equally
        # optimal; pick the stationary, reflection-symmetric choice
        tie = np.subtract(hm, hp)
        np.abs(tie, out=tie)
        np.abs(hm, out=hm)
        hm += np.abs(hp, out=hp)
        hm += 1.0
        hm *= 1e-12
        tie = tie <= hm
        del hm, hp
        tie &= pm > 0.0
        del pm, d
        np.negative(H.dprofile(pp), out=b[:, ax])
        del pp
        b[:, ax][tie] = 0.0
    return DriftField(grid, u.time_grid, b)


def solve_fp_stack(grid: TorusGrid, m0: np.ndarray, b: DriftField, sigma: float,
                   tg: TimeGrid) -> np.ndarray:
    """Forward solve of K densities m0 (K,) + grid.shape under one drift.

    Returns the paths as one (K, steps+1) + grid.shape array; the drift
    is shared, so each path equals its own single-density solve.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if b.grid != grid:
        raise ValueError("drift grid mismatch")
    if b.values.shape[0] != tg.steps + 1:
        raise ValueError("drift slice count mismatch")
    _check_cfl(tg, grid, b.sup_norm(), "FP advection")
    m = np.empty((m0.shape[0], tg.steps + 1) + grid.shape)
    m[:, 0] = m0
    dt = tg.dt
    step = _DonorCell(grid, m[:, 0].shape)
    for k in range(tg.steps):
        step(m[:, k], b.values[k], sigma, dt, out=m[:, k + 1])
    return m


def solve_fp_forward(m0: Density, b: DriftField, sigma: float, tg: TimeGrid) -> np.ndarray:
    """The path of one density, (steps+1,) + grid.shape: row 0 of solve_fp_stack."""
    return solve_fp_stack(m0.grid, m0.values[None], b, sigma, tg)[0]
