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

from .torus import Density, ScalarField, TorusGrid, _periodic_pairs, density_from_values

__all__ = [
    "Hamiltonian",
    "TimeGrid",
    "DriftField",
    "ValuePath",
    "DensityPath",
    "solve_hjb_backward",
    "optimal_drift",
    "solve_fp_forward",
    "solve_fp_stack",
    "hjb_linear_step",
    "fp_step",
    "implicit_diffusion",
    "upwind_advection",
]

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

    def at(self, k: int) -> ScalarField:
        return ScalarField(self.grid, self.values[k])


@dataclass(frozen=True)
class DensityPath:
    grid: TorusGrid
    time_grid: TimeGrid
    values: np.ndarray  # (steps+1,) + grid.shape

    def at(self, k: int) -> Density:
        return density_from_values(self.grid, self.values[k])

    def mass_error(self) -> float:
        masses = self.values.reshape(self.values.shape[0], -1).sum(axis=1)
        return float(np.max(np.abs(masses * self.grid.cell_volume - 1.0)))


@dataclass(frozen=True)
class DriftField:
    grid: TorusGrid
    time_grid: TimeGrid
    values: np.ndarray  # (steps+1, dim) + grid.shape

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


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

    eig are the eigenvalues of the periodic centered Laplacian.
    """
    n = grid.n
    h2 = grid.spacing ** 2
    eig = (2.0 * np.cos(2.0 * np.pi * np.arange(n) / n) - 2.0) / h2
    if grid.dim == 2:
        eig = eig[:, None] + eig[None, :]
    denom = 1.0 - dt * sigma * eig
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


def _diff_minus(grid: TorusGrid, v: np.ndarray, ax: int) -> np.ndarray:
    """Backward difference (v[i] - v[i-1]) / h along grid axis `ax`."""
    out = np.empty_like(v)
    for own, nb in _periodic_pairs(ax - grid.dim, -1):
        np.subtract(v[own], v[nb], out=out[own])
    out /= grid.spacing
    return out


def _diff_plus(grid: TorusGrid, v: np.ndarray, ax: int) -> np.ndarray:
    """Forward difference (v[i+1] - v[i]) / h along grid axis `ax`."""
    out = np.empty_like(v)
    for own, nb in _periodic_pairs(ax - grid.dim, 1):
        np.subtract(v[nb], v[own], out=out[own])
    out /= grid.spacing
    return out


def godunov_hamiltonian(grid: TorusGrid, u: np.ndarray, H: Hamiltonian) -> np.ndarray:
    """Godunov numerical Hamiltonian, summed per axis."""
    out = np.zeros_like(u)
    for ax in range(grid.dim):
        pm = np.maximum(_diff_minus(grid, u, ax), 0.0)
        pp = np.minimum(_diff_plus(grid, u, ax), 0.0)
        out += np.maximum(H.profile(pm), H.profile(pp))
    return out


def upwind_advection(grid: TorusGrid, phi: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Upwind b . grad(phi) for the linearized backward transport."""
    out = np.zeros_like(phi)
    for ax in range(grid.dim):
        bax = b[ax]
        bp = np.maximum(bax, 0.0)
        bm = np.minimum(bax, 0.0)
        out += bp * _diff_plus(grid, phi, ax) + bm * _diff_minus(grid, phi, ax)
    return out


def hjb_linear_step(grid: TorusGrid, phi: np.ndarray, b: np.ndarray,
                    sigma: float, dt: float) -> np.ndarray:
    """One linearized backward step phi_k from phi_{k+1} with frozen drift b."""
    return implicit_diffusion(grid, phi + dt * upwind_advection(grid, phi, b), sigma, dt)


def fp_step(grid: TorusGrid, m: np.ndarray, b: np.ndarray,
            sigma: float, dt: float) -> np.ndarray:
    """One forward FP step, the exact transpose of hjb_linear_step.

    `m` may carry leading batch axes: every density moves with drift b.
    """
    md = m if sigma == 0.0 else implicit_diffusion(grid, m, sigma, dt)
    out = md
    for ax in range(grid.dim):
        axis = ax - grid.dim
        bax = b[ax]
        bp = np.maximum(bax, 0.0)
        bm = np.minimum(bax, 0.0)
        # donor-cell flux F_{i+1/2} = b+_i m_i + b-_{i+1} m_{i+1}
        flux = bp * md
        div = bm * md
        for own, nb in _periodic_pairs(axis, 1):
            np.add(flux[own], div[nb], out=flux[own])
        # dt * (F_{i-1/2} - F_{i+1/2}) / h, written over b-*m
        for own, nb in _periodic_pairs(axis, -1):
            np.subtract(flux[nb], flux[own], out=div[own])
        div *= dt
        div /= grid.spacing
        out = out + div
    return out


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
    for k in range(tg.steps - 1, -1, -1):
        ham = godunov_hamiltonian(grid, u[k + 1], H)
        w = u[k + 1] + dt * (f[k] - ham)
        u[k] = w if sigma == 0.0 else implicit_diffusion(grid, w, sigma, dt)
    return ValuePath(grid, tg, u)


def optimal_drift(u: ValuePath, H: Hamiltonian) -> DriftField:
    """Feedback drift b = -D_pH(grad u) with the Godunov upwind gradient choice."""
    grid = u.grid
    b = np.empty((u.time_grid.steps + 1, grid.dim) + grid.shape)
    # in place, each temporary freed once dead: the arrays span all of
    # space-time, and this runs once per fixed-point iteration
    for ax in range(grid.dim):
        pm = _diff_minus(grid, u.values, ax)
        np.maximum(pm, 0.0, out=pm)
        pp = _diff_plus(grid, u.values, ax)
        np.minimum(pp, 0.0, out=pp)
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
        del pm
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
    for k in range(tg.steps):
        m[:, k + 1] = fp_step(grid, m[:, k], b.values[k], sigma, tg.dt)
    return m


def solve_fp_forward(m0: Density, b: DriftField, sigma: float, tg: TimeGrid) -> DensityPath:
    """Conservative donor-cell + implicit diffusion forward solve."""
    m = solve_fp_stack(m0.grid, m0.values[None], b, sigma, tg)
    return DensityPath(m0.grid, tg, m[0])
