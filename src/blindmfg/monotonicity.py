"""Numerical certificates for the lifted uniqueness conditions.

The lifted pairing evaluates the belief-level monotonicity expression on
atomic belief pairs; the certifier samples random pairs and reports the
empirical minimum with reproducible witnesses.  A negative minimum
certifies a violation; a nonnegative one is evidence, never proof.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .beliefs import (
    MAX_ATOMS,
    Belief,
    CostModel,
    _sum_in_order,
)
from .torus import (
    Density,
    TorusGrid,
    _dirac_profiles,
    integrate_stack,
    normalize_stack,
)


@dataclass(frozen=True)
class PairingReport:
    witnesses: tuple  # (mu1, mu2) achieving the minimum
    trials: int
    min_over_trials: float
    seed: int
    model: str
    nonfinite_trial: int | None = None  # first trial whose pairing is not finite
    # wall seconds of the draw, build and pair phases; they differ between reruns
    timings: dict = field(default_factory=dict, compare=False)


def l2_pairing(cm: CostModel, m1: Density, m2: Density) -> float:
    """∫ (f(m1) - f(m2)) d(m1 - m2); >= 0 iff f is L2-monotone at the pair."""
    if m1.grid != m2.grid:
        raise ValueError("densities on different grids")
    df = cm.running(m1).values - cm.running(m2).values
    return float(np.sum(df * (m1.values - m2.values)) * m1.grid.cell_volume)


def lifted_pairing(cm: CostModel, mu1: Belief, mu2: Belief) -> float:
    """Belief-level pairing sum_ij s_i s_j ∫f(m_j) dm_i, s = (w1, -w2), of
    f(m) = a + b G(∫b dm): the one-trial case of _pairings.  Reads each
    belief's grid, weights and stacked atom values only."""
    if mu1.grid != mu2.grid:
        raise ValueError("beliefs on different grids")
    return float(_pairings(cm, mu1.grid, np.concatenate([mu1.values, mu2.values]),
                           np.concatenate([mu1.weights, mu2.weights]),
                           [mu1.n_atoms, mu2.n_atoms])[0])


def _pairings(cm: CostModel, grid: TorusGrid, atoms: np.ndarray, weights: np.ndarray,
              sizes) -> np.ndarray:
    """The lifted pairing of each trial t, belief 2t against belief 2t + 1:
    belief j holds the next sizes[j] atoms of `atoms` and of `weights`.
    A trial's pairing is (s·S)(s·G(S)) with s = (w1, -w2) and
    S_i = ∫b dm_i, as `a` cancels (sum s = 0).  Each sum is added in atom
    order from +0.0 by one cumsum over a row padded with +0.0: a sum from
    +0.0 is never -0.0, so the pads keep its bits.  A cost without `b`
    pairs every trial to 0; with G the identity the two sums are one sum,
    so a product-form pairing is a square, >= 0 exactly."""
    if cm.b is None:
        return np.zeros(len(sizes) // 2)
    sizes = np.asarray(sizes)
    S = integrate_stack(grid, cm.b, atoms)
    belief = np.repeat(np.arange(sizes.size), sizes)
    s = np.where(belief & 1, -weights, weights)
    trial, width = belief >> 1, sizes[::2] + sizes[1::2]
    col = np.arange(S.size) + 1 - (np.cumsum(width) - width)[trial]
    terms = np.zeros((2, width.size, 1 + width.max()))
    terms[0, trial, col] = s * S
    terms[1, trial, col] = s * cm.G(S)
    # silent on overflow and inf - inf, as the float adds it stands for
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.cumsum(terms, axis=-1)[..., -1]
        return sums[0] * sums[1]


def counterexample_gap(g, x: float, y: float, z: float) -> float:
    """Exact Dirac-atom formula (0.5(g(x)+g(y)) - g(z)) * ((x+y)/2 - z)."""
    for v in (x, y, z):
        if not 0 <= v <= 1:
            raise ValueError("points must lie in [0, 1]")
    return (0.5 * (g(x) + g(y)) - g(z)) * (0.5 * (x + y) - z)


def _draw_beliefs(grid: TorusGrid, rng: np.random.Generator, count: int, max_atoms: int,
                  atoms: np.ndarray) -> tuple:
    """Draw `count` beliefs into consecutive rows of `atoms`, in the sampler's
    RNG order: each belief's atom count, Dirichlet(1, ..., 1) weights and, per
    atom, a Dirac centre or a raw mixture written straight into its row.

    Returns each belief's (weights, first row, end row), and the Dirac rows
    with their centres, which _build_atoms turns into atoms.
    """
    drawn, dirac_rows, centers = [], [], []
    end = 0
    for _ in range(count):
        k = int(rng.integers(1, max_atoms + 1))
        # Dirichlet(1, ..., 1) as numpy draws it: exponentials over their sum
        # added left to right, the same bits and generator state as
        # rng.dirichlet(np.ones(k)) without its per-call set-up
        e = rng.standard_exponential(k)
        drawn.append((e * (1.0 / _sum_in_order(0.0, e.tolist())), end, end + k))
        for row in range(end, end + k):
            if rng.random() < 0.7:
                dirac_rows.append(row)
                centers.append(rng.random(grid.dim) if grid.dim > 1 else rng.random())
            else:
                # the doubles of rng.random(grid.shape) + 1e-3
                rng.random(out=atoms[row])
                atoms[row] += 1e-3
        end += k
    return drawn, dirac_rows, centers


def _build_atoms(grid: TorusGrid, atoms: np.ndarray, dirac_rows: list, centers: list) -> None:
    """Turn drawn rows into atoms in place: one _dirac_profiles call fills
    the Dirac rows, then one normalize_stack call normalizes every row."""
    if dirac_rows:
        atoms[dirac_rows] = _dirac_profiles(grid, np.reshape(centers, (-1, grid.dim)))
    normalize_stack(grid, atoms, out=atoms)


def random_belief(grid: TorusGrid, rng: np.random.Generator, max_atoms: int = 8) -> Belief:
    """Dirichlet weights over mollified-dirac or random-mixture atoms."""
    atoms = np.empty((max_atoms,) + grid.shape)
    [(weights, _, k)], dirac_rows, centers = _draw_beliefs(grid, rng, 1, max_atoms, atoms)
    _build_atoms(grid, atoms[:k], dirac_rows, centers)
    return Belief.from_stack(grid, weights, atoms[:k])


# Floats of atom values built at once: the trials of a block are drawn by
# one _draw_beliefs call and built by one _build_atoms call.  At most
# 2 * max_atoms atoms of grid.n ** grid.dim floats a trial, so 8 trials at
# n = 256 with max_atoms = 8, and one trial a block from 4096 nodes up.
_BLOCK_FLOATS = 2 ** 15


def _block_trials(grid: TorusGrid, max_atoms: int) -> int:
    """Trials a block of the certifier holds: at least one."""
    return max(1, _BLOCK_FLOATS // (2 * max_atoms * grid.n ** grid.dim))


def certify_blind_monotone(cm: CostModel, grid: TorusGrid, sampler_seed: int,
                           trials: int, max_atoms: int = 8) -> PairingReport:
    """Sample random belief pairs and report the minimum lifted pairing.

    One _pairings call pairs every trial of a block from its atom stack.
    Only the reported witness, the first strict minimum, is checked, from a
    copy of its rows.  A pairing that is not finite ends the run:
    the report counts the trials paired up to it, names it, and its pair
    is the witness.  The draw, build and pair phases are timed per block.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 1 <= max_atoms <= MAX_ATOMS:
        raise ValueError(f"max_atoms must lie in [1, {MAX_ATOMS}]")
    rng = np.random.default_rng(sampler_seed)
    timings = {"draw_s": 0.0, "build_s": 0.0, "pair_s": 0.0}
    best = np.inf
    witness = nonfinite = None
    block = _block_trials(grid, max_atoms)
    buffer = np.empty((2 * max_atoms * block,) + grid.shape)
    for first in range(0, trials, block):
        t_draw = time.perf_counter()
        drawn, dirac_rows, centers = _draw_beliefs(
            grid, rng, 2 * min(block, trials - first), max_atoms, buffer)
        t_build = time.perf_counter()
        atoms = buffer[:drawn[-1][2]]
        _build_atoms(grid, atoms, dirac_rows, centers)
        t_pair = time.perf_counter()
        vals = _pairings(cm, grid, atoms, np.concatenate([w for w, _, _ in drawn]),
                         [end - lo for _, lo, end in drawn])
        finite = np.isfinite(vals)
        # the first non-finite pairing, else the first strict minimum
        pick = int(np.argmin(vals if finite.all() else finite))
        if vals[pick] < best or not finite[pick]:
            best = vals[pick]
            witness = [(w, buffer[lo:end].copy()) for w, lo, end in drawn[2 * pick:2 * pick + 2]]
        if not finite[pick]:
            nonfinite = first + pick
        timings["draw_s"] += t_build - t_draw
        timings["build_s"] += t_pair - t_build
        timings["pair_s"] += time.perf_counter() - t_pair
        if nonfinite is not None:
            break
    witness = tuple(Belief.from_stack(grid, w, v) for w, v in witness)
    paired = trials if nonfinite is None else nonfinite + 1
    return PairingReport(witnesses=witness, trials=paired, min_over_trials=float(best),
                         seed=sampler_seed, model=cm.kind, nonfinite_trial=nonfinite,
                         timings=timings)
