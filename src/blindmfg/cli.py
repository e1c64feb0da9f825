"""JSON-config command-line front end, and the package's only file I/O.

Subcommands: solve-blind, simulate-observed, certify-monotone,
validate-weak.  This module reads every config and writes every artifact;
the numerics modules return data and open no file.  The artifacts:

- solve-blind: u.csv, m.csv, history.csv, summary.json, m_atoms.npy,
  belief_path.json and telemetry.json;
- simulate-observed: trace.json, trace.csv, summary.json;
- certify-monotone: report.json and telemetry.json;
- validate-weak: report.json.

`_COMMANDS` maps each subcommand to its function and to the top-level
sections it reads; `main` checks those sections, runs the command and
writes the run's manifest.json, with the configuration as given and
SHA-256 checksums of the artifacts the command names.  Exit codes: 0
success (including negative certification findings), 2 config validation
failure at a field path (including time steps too coarse for the CFL
condition, or so fine that the step rounds to 0), 3 numerical
non-convergence or non-finite results (artifacts still written).  CSV
floats carry 17 significant digits, m_atoms.npy exact float64 bits; an
identical config, run with the same numpy and OpenBLAS build on the same
CPU type, reproduces every listed artifact and manifest.json byte for
byte.  On another CPU type, whose OpenBLAS kernels differ, 1-D runs with
sigma > 0 and n <= 256 (the dense diffusion `v @ D`) and damped runs (the
`lstsq` of `_Anderson`) can move by about 1e-15 relative on the fields.
telemetry.json, of phase and write wall times, is not listed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from itertools import chain
from pathlib import Path

import numpy as np

from .beliefs import (
    MAX_ATOMS,
    Belief,
    BeliefPath,
    CostModel,
    _weighted_sum,
    constant_cost,
    illustrative_cost,
    moment_form_cost,
    product_form_cost,
    weak_ladder,
)
from .hjb_fp import (DriftField, Hamiltonian, TimeGrid, _check_cfl, _diffusion_denominator,
                     constant_drift)
from .monotonicity import PairingReport, _block_trials, certify_blind_monotone
from .payments import (
    FilterConfig,
    FilterTrace,
    _observation_steps,
    in_consistency_set,
    simulate_observed,
    smoothed_well_profile,
)
from .solver import EquilibriumSolution, SolverConfig, solve_blind
from .torus import (
    ScalarField,
    TorusGrid,
    _images_formed,
    build_grid,
    density_from_values,
    mollified_dirac,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3

# Largest estimated space-time state a run may allocate (see _state_bytes).
MAX_STATE_BYTES = 2 ** 30
# Python objects _draw_beliefs keeps per drawn atom besides the block
# buffer: a Dirac atom's centre and its Dirac row and centre list entries,
# and a share of its belief's weights and (weights, first, end row) tuple.
_DRAW_OBJECT_BYTES = 1024


class ConfigError(Exception):
    """Validation failure carrying the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# strict config parsing

def _check_keys(obj: dict, path: str, allowed, required: tuple = ()):
    """Unknown keys fail first, in the config's order, then the `required`
    keys in the order given."""
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}", "required key missing")


def _check_kind(spec: dict, path: str, kinds: dict, select: str = "kind",
                first_required: bool = False) -> str:
    """The catalogue entry that `spec[select]` names; `kinds` maps each entry
    to the keys it reads, and with `first_required` it needs the first."""
    _check_keys(spec, path, {select}.union(*kinds.values()), (select,))
    kind = spec[select]
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{path}.{select}", f"unknown {select} {kind!r}")
    for key in spec:
        if key != select and key not in kinds[kind]:
            raise ConfigError(f"{path}.{key}", f"not read by {select} {kind!r}")
    if first_required and kinds[kind] and kinds[kind][0] not in spec:
        raise ConfigError(f"{path}.{kinds[kind][0]}", "required key missing")
    return kind


def _floats(val) -> np.ndarray:
    """A number or nested list of numbers as floats.  Each must be an int or
    a float, not a bool, and finite: else ValueError, or OverflowError for
    an int beyond the float range.  _number reads every number by this rule."""
    for leaf in np.asarray(val, dtype=object).ravel():
        if isinstance(leaf, bool) or not isinstance(leaf, (int, float)) or not math.isfinite(leaf):
            raise ValueError(f"expected finite numbers, got {leaf!r}")
    return np.asarray(val, dtype=float)


def _number(obj: dict, path: str, key: str, lo=None, hi=None, default=None,
            integer: bool = False, above=None):
    path = f"{path}.{key}" if path else key
    if key not in obj and default is None:
        raise ConfigError(path, "required key missing")
    val = obj.get(key, default)
    try:
        number = _floats(val).ndim == 0
    except (ValueError, OverflowError):
        number = False
    if not number:
        raise ConfigError(path, f"expected a finite number, got {val!r}")
    if integer and int(val) != val:
        raise ConfigError(path, f"expected an integer, got {val!r}")
    if lo is not None and val < lo:
        raise ConfigError(path, f"must be >= {lo}, got {val}")
    if above is not None and val <= above:
        raise ConfigError(path, f"must be > {above}, got {val}")
    if hi is not None and val > hi:
        raise ConfigError(path, f"must be <= {hi}, got {val}")
    return int(val) if integer else float(val)


def _section(sub: dict, path: str, **bounds) -> dict:
    """A section of numbers: each key of `bounds` read through _number with
    its bounds, in the order given, after any unknown key has failed.  A
    key without a default is required."""
    _check_keys(sub, path, bounds)
    return {key: _number(sub, path, key, **bound) for key, bound in bounds.items()}


@contextmanager
def _at(path: str):
    """Report a ValueError, TypeError or OverflowError that a construction
    or check inside raises as a ConfigError at `path`."""
    try:
        yield
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(path, str(exc))


# More nodes per axis, or more time steps, than MAX_STATE_BYTES holds floats:
# no run that large fits the cap, and its estimate may overflow a float.
_MAX_AXIS = MAX_STATE_BYTES // 8


def _build_grid(cfg: dict) -> TorusGrid:
    # each command that reads the grid requires it
    return build_grid(**_section(cfg["grid"], "grid", dim=dict(lo=1, hi=2, integer=True),
                                 n=dict(lo=8, hi=_MAX_AXIS, integer=True)))


def _build_time(cfg: dict) -> TimeGrid:
    # each command that reads the time grid requires it
    T, steps = _section(cfg["time"], "time", T=dict(above=0),
                        steps=dict(lo=1, hi=_MAX_AXIS, integer=True)).values()
    with _at("time.T"):
        return TimeGrid(T, steps)


# What a space-time run allocates besides its paths, whatever its size:
# the dense diffusion inverse of a 1-D grid (one n x n array, n <= 256,
# which its build copies out of a view), the modules a run imports, and
# the parsed config.
_RUN_BYTES = 4 * 2 ** 20


def _state_bytes(atoms: int, steps: int, n: int, dim: int) -> int:
    """Estimated peak bytes of a solve, counted in space-time paths of
    (steps + 1) x n^dim floats: 1 per atom (the belief path; the loop frees
    the last path before it pushes the next, and pushes the mean density
    alone when G is affine and H smooth), 6 per axis (the returned drift,
    the drift pushed last, and the per-axis temporaries of optimal_drift
    and of the HJB residual) and 7 shared (value, cost, and the residual's
    Godunov temporaries, which set the peak), with a quarter added, plus
    _RUN_BYTES.  The damped step's Anderson history is 2 x depth series of
    steps + 1 floats.  A validate-weak level holds far fewer: its paths
    and its drift."""
    paths = atoms + 6 * dim + 7
    return paths * (steps + 1) * n ** dim * 8 * 5 // 4 + _RUN_BYTES


def _certify_bytes(max_atoms: int, grid: TorusGrid) -> int:
    """Estimated peak bytes of a certify-monotone run with K = 2 max_atoms
    atoms a trial and B trials a block, at most BK atoms built at once.

    Counted in fields of n^dim floats, the larger of two phases, plus 8 for
    the cost's own fields.  A block: the buffer of BK atoms, the Dirac
    profiles built beside it or the block's b·m product, at most BK fields
    each, and the witness copy with the one that replaces it (2K).  The
    report, after the buffer is freed: the witness and its atoms as JSON
    numbers, about 5 floats' worth per value, 6K.
    Added to that: the mollified-Dirac temporaries, 3 arrays of
    BK x dim x n x images floats at the sampler's bandwidth, and
    _DRAW_OBJECT_BYTES of Python objects per drawn atom, which dominate on
    coarse grids."""
    atoms = 2 * max_atoms
    block = _block_trials(grid, max_atoms) * atoms
    fields = max(2 * block + 2 * atoms, 6 * atoms) + 8
    images = _images_formed(2.0 * grid.spacing)
    return ((fields * grid.n ** grid.dim + 3 * block * grid.dim * grid.n * images) * 8
            + block * _DRAW_OBJECT_BYTES)


def _check_need(need: int, what: str) -> None:
    """Reject, before anything is allocated, a run whose estimated state
    `need` exceeds MAX_STATE_BYTES."""
    if need > MAX_STATE_BYTES:
        raise ConfigError("grid.n", f"{what} need about {need / 2**30:.3g} GiB, "
                          f"above the {MAX_STATE_BYTES / 2**30:g} GiB cap")


def _check_size(cfg: dict, n: int, dim: int, steps: int) -> None:
    """_check_need for a space-time run; the atoms are counted in the raw
    belief section, whose own errors are reported when it is built."""
    sub = cfg.get("belief")
    atoms = sub.get("atoms") if isinstance(sub, dict) else None
    count = len(atoms) if isinstance(atoms, list) else 1
    _check_need(_state_bytes(count, steps, n, dim),
                f"{count} atom(s) on {n}^{dim} nodes over {steps} steps")


def _build_hamiltonian(cfg: dict) -> Hamiltonian:
    sub = cfg["hamiltonian"]  # each command that reads it requires it
    kind = _check_kind(sub, "hamiltonian", {"abs": (), "smoothed_abs": ("delta",),
                                            "capped_quadratic": ("cap",)})
    delta = _number(sub, "hamiltonian", "delta", lo=0.0, default=0.0)
    cap = _number(sub, "hamiltonian", "cap", above=0, default=1.0)
    return Hamiltonian(kind, smoothing=delta, cap=cap)


def _build_field(spec: dict, grid: TorusGrid, path: str) -> ScalarField:
    """Analytic scalar-field catalogue: constant / cosine / sine / well."""
    wave = ("amplitude", "frequency", "phase")
    kind = _check_kind(spec, path, {"constant": ("value",), "cosine": wave,
                                    "sine": wave, "well": ()})
    if kind == "constant":
        value = _number(spec, path, "value")
        return ScalarField(grid, np.full(grid.shape, value))
    if kind in ("cosine", "sine"):
        amp = _number(spec, path, "amplitude", default=1.0)
        freq = _number(spec, path, "frequency", default=1, integer=True)
        phase = _number(spec, path, "phase", default=0.0)
        func = np.cos if kind == "cosine" else np.sin
        vals = np.ones(grid.shape)
        coords = grid.coords()
        for d in range(grid.dim):
            vals = vals * func(2 * np.pi * freq * coords[d] + phase)
        return ScalarField(grid, amp * vals)
    with _at(path):
        return smoothed_well_profile(grid)


def _build_cost(cfg: dict, grid: TorusGrid) -> CostModel:
    sub = cfg["cost"]  # each command that reads it requires it
    cid = _check_kind(sub, "cost", {"product_form": ("phi", "base"),
                                    "moment_form": ("g",),
                                    "illustrative": ("coupling",),
                                    "constant": ("field", "terminal"),
                                    "zero": ()}, select="id", first_required=True)
    if cid in ("moment_form", "illustrative") and grid.dim != 1:
        raise ConfigError("cost.id", f"{cid} cost requires dim = 1")
    if cid == "product_form":
        phi = _build_field(sub["phi"], grid, "cost.phi")
        base = (_build_field(sub["base"], grid, "cost.base")
                if "base" in sub else None)
        return product_form_cost(phi, base)
    if cid == "moment_form":
        catalogue = {"sqrt": np.sqrt, "identity": lambda s: s,
                     "square": lambda s: s * s}
        if not isinstance(sub["g"], str) or sub["g"] not in catalogue:
            raise ConfigError("cost.g", f"unknown moment map {sub['g']!r}")
        cm = moment_form_cost(catalogue[sub["g"]], grid)
        return replace(cm, affine=True) if sub["g"] == "identity" else cm
    if cid == "illustrative":
        c = _number(sub, "cost", "coupling")
        with _at("cost.coupling"):
            return illustrative_cost(smoothed_well_profile(grid), c)
    if cid == "constant":
        field = _build_field(sub["field"], grid, "cost.field")
        term = (_build_field(sub["terminal"], grid, "cost.terminal")
                if "terminal" in sub else None)
        return constant_cost(field, term)
    return constant_cost(ScalarField(grid, np.zeros(grid.shape)))


_ATOM_KINDS = {"dirac": ("center", "bandwidth"), "grid": ("values",)}


def _build_belief(cfg: dict, grid: TorusGrid, ladder: bool = False) -> Belief:
    """The belief section's belief, each atom built where its keys are read.

    A refinement `ladder` takes dirac atoms only: they are rebuilt on
    every level's grid, while grid values fit one grid.
    """
    sub = cfg["belief"]  # each command that reads it requires it
    _check_keys(sub, "belief", {"weights", "atoms"}, ("weights", "atoms"))
    specs = sub["atoms"]
    if not (isinstance(specs, list) and all(isinstance(spec, dict) for spec in specs)):
        raise ConfigError("belief.atoms", "expected a list of objects")
    if not 1 <= len(specs) <= MAX_ATOMS:
        raise ConfigError("belief.atoms",
                          f"expected 1 to {MAX_ATOMS} atoms, got {len(specs)}")
    atoms = []
    for i, spec in enumerate(specs):
        path = f"belief.atoms[{i}]"
        kind = _check_kind(spec, path, _ATOM_KINDS, first_required=True)
        if ladder and kind != "dirac":
            raise ConfigError(f"{path}.kind",
                              "refinement ladder needs analytic (dirac) atoms")
        # absent means the default bandwidth; null is an error
        bandwidth = (_number(spec, path, "bandwidth", lo=grid.spacing)
                     if "bandwidth" in spec else None)
        # the bandwidth is checked above, so the fault is the first key
        with _at(f"{path}.{_ATOM_KINDS[kind][0]}"):
            vals = _floats(spec[_ATOM_KINDS[kind][0]])
            atoms.append(mollified_dirac(grid, vals, bandwidth) if kind == "dirac"
                         else density_from_values(grid, np.reshape(vals, grid.shape)))
    with _at("belief.weights"):
        return Belief(_floats(sub["weights"]), tuple(atoms))


def _build_solver(cfg: dict) -> SolverConfig:
    """Solver settings; a key left out takes SolverConfig's own default."""
    return SolverConfig(**_section(
        cfg.get("solver", {}), "solver",
        relaxation=dict(above=0, hi=1, default=SolverConfig.relaxation),
        tol=dict(above=0, default=SolverConfig.tol),
        # a cap on work, as MAX_STATE_BYTES caps memory
        max_iter=dict(lo=1, hi=10 ** 5, integer=True, default=SolverConfig.max_iter)))


def _build_game(cfg: dict) -> tuple:
    """The grid, time grid, sigma, Hamiltonian, cost, belief and solver
    settings of a game, checked in that order, with the size cap after the
    time grid and the CFL condition after the Hamiltonian."""
    grid = _build_grid(cfg)
    tg = _build_time(cfg)
    _check_size(cfg, grid.n, grid.dim, tg.steps)
    sigma = _number(cfg, "", "sigma", lo=0.0)
    with _at("sigma"):
        _diffusion_denominator(grid, sigma, tg.dt)
    H = _build_hamiltonian(cfg)
    # every drift a run pushes is an optimal drift, bounded by H.lipschitz
    with _at("time.steps"):
        _check_cfl(tg, grid, H.lipschitz, "transport")
    cm = _build_cost(cfg, grid)
    mu0 = _build_belief(cfg, grid)
    return grid, tg, sigma, H, cm, mu0, _build_solver(cfg)


# ---------------------------------------------------------------------------
# artifact writing

def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_path_csv(path: Path, tg: TimeGrid, grid: TorusGrid,
                    values, column: str) -> None:
    """Space-time series: t, x0[, x1], <column> — one row per node.

    `values` yields one grid slice per time; rows end in CRLF, and each
    slice is formatted with one template and written as one block.
    """
    nodes = zip(*([_fmt(x) for x in c.ravel()] for c in grid.coords()))
    template = "".join(f"%s,{','.join(xs)},%.17g\r\n" for xs in nodes)
    axis_names = [f"x{d}" for d in range(grid.dim)]
    args = [None] * (2 * grid.n ** grid.dim)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t"] + axis_names + [column]) + "\r\n")
        for t, vals in zip(tg.times, values):
            args[0::2] = [_fmt(t)] * vals.size
            args[1::2] = vals.ravel().tolist()
            fh.write(template % tuple(args))


def _write_rows(path: Path, header: list, rows) -> None:
    """A small table as _write_path_csv writes one: commas, CRLF, no quoting."""
    with open(path, "w", newline="") as fh:
        for row in [header, *rows]:
            fh.write(",".join(map(str, row)) + "\r\n")


def _write_history(out: Path, sol: EquilibriumSolution) -> None:
    """history.csv: the drift gap and value change of every iteration."""
    _write_rows(out / "history.csv", ["iter", "drift_gap", "value_change"],
                ([row["iter"], _fmt(row["drift_gap"]), _fmt(row["value_change"])]
                 for row in sol.diagnostics["history"]))


def _write_trace(out: Path, trace: FilterTrace) -> None:
    """trace.json and trace.csv of a payment-filtered run."""
    _write_json(out / "trace.json", {
        "replanning": "blind-equilibrium receding horizon (heuristic)",
        "true_atom": trace.true_atom,
        "times": [float(t) for t in trace.times],
        "n_atoms": [b.n_atoms for b in trace.beliefs],
        "weights": [b.weights.tolist() for b in trace.beliefs],
        "surviving_indices": [list(s) for s in trace.surviving_indices],
        "events": [{"time": float(t), "eliminated": list(e)} for t, e in trace.events],
        "segments_converged": [bool(s["converged"]) for s in trace.segments],
        "segments_reused": [s["reused"] for s in trace.segments],
    })
    width = max(b.n_atoms for b in trace.beliefs)
    _write_rows(out / "trace.csv",
                ["t", "n_atoms"] + [f"weight_{i}" for i in range(width)] + ["payment_sup_gap"],
                ([_fmt(t), b.n_atoms] + [_fmt(w) for w in b.weights]
                 + [""] * (width - b.n_atoms) + [_fmt(gap)]
                 for t, b, gap in zip(trace.times, trace.beliefs, trace.payment_gaps)))


def _belief_json(mu: Belief) -> dict:
    """A belief in the config's schema, every atom as its grid values."""
    return {"weights": mu.weights.tolist(),
            "atoms": [{"kind": "grid", "values": a.ravel().tolist()} for a in mu.values]}


def _report_json(report: PairingReport) -> dict:
    """report.json of certify-monotone.  A run stopped by a pairing that is
    not finite names that trial, and its pair is the witness."""
    mu1, mu2 = report.witnesses
    body = {
        "model": report.model,
        "trials": report.trials,
        "min_pairing": report.min_over_trials,
        "nonnegative": bool(report.nonfinite_trial is None
                            and report.min_over_trials >= -1e-10),
        "witness": {"mu1": _belief_json(mu1), "mu2": _belief_json(mu2)},
        "seed": report.seed,
    }
    if report.nonfinite_trial is not None:
        body["nonfinite_trial"] = report.nonfinite_trial
    return body


def _belief_path_json(bp: BeliefPath, tg: TimeGrid) -> dict:
    """The times and each atom's weight and mass error; the atom paths are
    the rows of `series`, m_atoms.npy, atom i at row i."""
    return {"times": [float(t) for t in tg.times], "series": "m_atoms.npy",
            "atoms": [{"index": i, "weight": float(w), "mass_error": float(e)}
                      for i, (w, e) in enumerate(zip(bp.weights, bp.mass_errors()))]}


def _sha256(path: Path) -> str:
    # hashlib loads OpenSSL's libcrypto (about 3.5 MB of RSS); imported
    # here, it keeps `import blindmfg.cli` light
    import hashlib
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _finite_or_null(obj):
    """`obj` with each non-finite float replaced by None: strict JSON
    has no NaN or Infinity, so a failed run's diagnostics read as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_finite_or_null(obj), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands

def cmd_solve_blind(cfg: dict, out: Path) -> tuple:
    grid, tg, sigma, H, cm, mu0, scfg = _build_game(cfg)
    sol = solve_blind(mu0, cm, H, sigma, tg, scfg)

    start = time.perf_counter()
    _write_path_csv(out / "u.csv", tg, grid, sol.value.values, "u")
    _write_path_csv(out / "m.csv", tg, grid,
                    _weighted_sum(sol.belief.weights, sol.belief.values), "m")
    _write_history(out, sol)
    np.save(out / "m_atoms.npy", sol.belief.values, allow_pickle=False)
    _write_json(out / "belief_path.json", _belief_path_json(sol.belief, tg))
    diag = sol.diagnostics
    _write_json(out / "summary.json", {
        "gap": diag["final_gap"],
        "iterations": diag["iterations"],
        "converged": diag["converged"],
        "hjb_residual": diag["hjb_residual"],
        "mass_error": diag["mass_error"],
    })
    # wall-clock times differ between reruns, so the manifest leaves them out
    _write_json(out / "telemetry.json", {
        "wall_time": [row["wall_time"] for row in diag["history"]],
        "write_s": time.perf_counter() - start})
    return ((EXIT_OK if diag["converged"] else EXIT_NONCONVERGENCE),
            ["u.csv", "m.csv", "summary.json", "history.csv", "m_atoms.npy", "belief_path.json"])


def cmd_simulate_observed(cfg: dict, out: Path) -> tuple:
    grid, tg, sigma, H, cm, mu0, scfg = _build_game(cfg)
    fc = FilterConfig(**_section(cfg["filter"], "filter", tolerance=dict(above=0),
                                 observation_dt=dict(lo=0, default=0.0)))
    with _at("filter.observation_dt"):
        steps_per_obs = _observation_steps(tg, fc)
    if not in_consistency_set(mu0, cm, fc.tolerance):
        raise ConfigError("belief", "the atoms' payments differ by more than "
                          "filter.tolerance at t = 0")
    true_atom = _number(cfg, "", "true_atom", lo=0, hi=mu0.n_atoms - 1, integer=True)
    trace = simulate_observed(mu0, true_atom, cm, H, sigma, tg, fc, scfg)
    _write_trace(out, trace)
    all_converged = all(s["converged"] for s in trace.segments)
    _write_json(out / "summary.json", {
        "n_events": len(trace.events),
        "event_times": [float(t) for t, _ in trace.events],
        "final_n_atoms": trace.beliefs[-1].n_atoms,
        "segments_converged": all_converged,
    })
    # a trace cut short met a non-finite solve gap or payment
    finished = len(trace.times) == 1 + -(-tg.steps // steps_per_obs)
    return ((EXIT_OK if all_converged and finished else EXIT_NONCONVERGENCE),
            ["trace.json", "trace.csv", "summary.json"])


def cmd_certify_monotone(cfg: dict, out: Path) -> tuple:
    grid = _build_grid(cfg)
    trials, max_atoms, seed = _section(
        # a cap on work, as MAX_STATE_BYTES caps memory
        cfg["certify"], "certify", trials=dict(lo=1, hi=10 ** 7, integer=True),
        max_atoms=dict(lo=1, hi=MAX_ATOMS, default=8, integer=True),
        seed=dict(lo=0, default=0, integer=True)).values()
    # before the cost, whose fields are grid-sized
    _check_need(_certify_bytes(max_atoms, grid),
                f"trials of {2 * max_atoms} atoms on {grid.n}^{grid.dim} nodes")
    cm = _build_cost(cfg, grid)
    report = certify_blind_monotone(cm, grid, seed, trials, max_atoms)
    start = time.perf_counter()
    body = _report_json(report)
    _write_json(out / "report.json", body)
    # wall-clock times differ between reruns, so the manifest leaves them out
    _write_json(out / "telemetry.json", dict(report.timings,
                                             write_s=time.perf_counter() - start))
    if report.nonfinite_trial is not None:
        print(f"pairing of trial {report.nonfinite_trial} is {report.min_over_trials} "
              "-- numerical failure")
        return EXIT_NONCONVERGENCE, ["report.json"]
    verdict = ("no violation found" if body["nonnegative"]
               else "violation found (finding, not an error)")
    print(f"min pairing over {trials} trials: {report.min_over_trials:.6e} "
          f"-- {verdict}")
    return EXIT_OK, ["report.json"]


def _drift_from_spec(spec: dict, grid: TorusGrid, tg: TimeGrid,
                     path: str) -> DriftField:
    """Time-constant analytic drift, refinable across ladder levels."""
    kind = _check_kind(spec, path, {"constant": ("value",),
                                    "sine": ("amplitude", "frequency")})
    if kind == "constant":
        return constant_drift(grid, tg, [_number(spec, path, "value")] * grid.dim)
    amp = _number(spec, path, "amplitude", default=0.5)
    freq = _number(spec, path, "frequency", default=1, integer=True)
    coords = grid.coords()
    vals = np.empty((tg.steps + 1, grid.dim) + grid.shape)
    for d in range(grid.dim):
        vals[:, d] = amp * np.sin(2 * np.pi * freq * coords[d])
    return DriftField(grid, tg, vals)


def cmd_validate_weak(cfg: dict, out: Path) -> tuple:
    base_grid = _build_grid(cfg)
    base_tg = _build_time(cfg)
    levels = _section(cfg.get("ladder", {}), "ladder",
                      levels=dict(lo=2, default=3, integer=True))["levels"]
    # level by level, so that a huge level count stops at the first
    # level past the cap instead of forming 4**levels
    for lvl in range(levels):
        _check_size(cfg, base_grid.n * 2 ** lvl, base_grid.dim,
                    base_tg.steps * 4 ** lvl)
        with _at("time.T"):
            TimeGrid(base_tg.horizon, base_tg.steps * 4 ** lvl)
    sigma = _number(cfg, "", "sigma", lo=0.0)
    phi_spec = cfg["phi"]
    _check_keys(phi_spec, "phi", {"inner"}, ("inner",))

    def level(lvl: int) -> tuple:
        """Level lvl's belief, drift and inner field, its sigma and CFL checked."""
        grid = build_grid(base_grid.dim, base_grid.n * 2 ** lvl)
        tg = TimeGrid(base_tg.horizon, base_tg.steps * 4 ** lvl)
        drift = _drift_from_spec(cfg["drift"], grid, tg, "drift")
        with _at("sigma"):
            _diffusion_denominator(grid, sigma, tg.dt)
        with _at("time.steps"):
            _check_cfl(tg, grid, drift.sup_norm(), "transport")
        return (_build_belief(cfg, grid, ladder=True), drift,
                _build_field(phi_spec["inner"], grid, "phi.inner"))

    base = level(0)
    mu0, drift0, inner0 = base
    # finer levels hold the base nodes, so one check covers the ladder
    if np.ptp(inner0.values) == 0.0:
        raise ConfigError("phi.inner", "a constant field integrates to the same value against "
                          "every density, so the ladder would measure rounding only")
    if sigma == 0.0 and drift0.sup_norm() == 0.0:
        raise ConfigError("drift", "a zero drift without diffusion leaves the path static, "
                          "so the ladder would measure rounding only")
    perturb = None
    if "perturb" in cfg:
        sub = cfg["perturb"]
        _check_keys(sub, "perturb", {"at_fraction", "weights"}, ("at_fraction", "weights"))
        at_fraction = _number(sub, "perturb", "at_fraction", lo=0.0, hi=1.0)
        with _at("perturb.weights"):
            perturb = (at_fraction,
                       Belief.from_stack(mu0.grid, _floats(sub["weights"]), mu0.values).weights)
        # the finest level is re-weighted from this step on, and its last
        # summed step is steps - 1
        finest = base_tg.steps * 4 ** (levels - 1)
        if int(perturb[0] * finest) >= finest:
            raise ConfigError("perturb.at_fraction", f"re-weights none of the finest level's "
                              f"{finest} steps, so it would read the baseline residual")

    residuals, perturbed = weak_ladder(chain([base], map(level, range(1, levels))),
                                       sigma, perturb)
    orders = [float(np.log2(r / finer)) for r, finer in zip(residuals, residuals[1:])]
    detected = perturbed is not None and bool(perturbed >= 10 * residuals[-1])
    _write_json(out / "report.json", {
        "residuals": residuals,
        "orders": orders,
        "order_ok": all(o >= 0.8 for o in orders),
        "violation": None if perturb is None else {
            "perturbed_residual": perturbed,
            "baseline_residual": residuals[-1],
            "detected": detected,
        },
    })
    if detected:
        print("violation detected: perturbed path is not a weak solution")
    else:
        print(f"residual ladder {['%.3e' % r for r in residuals]}, "
              f"orders {['%.2f' % o for o in orders]}")
    # a residual that is not finite, say from a test function that overflows
    checked = residuals + ([] if perturbed is None else [perturbed])
    return ((EXIT_OK if all(map(math.isfinite, checked)) else EXIT_NONCONVERGENCE),
            ["report.json"])


# ---------------------------------------------------------------------------
# entry point

_GAME = ("grid", "time", "sigma", "hamiltonian", "cost")

# Each subcommand's function, which writes its artifacts and returns its
# exit code and the artifacts its manifest lists; the top-level sections it
# requires; and those it may leave out.  Every command reads `output` too.
_COMMANDS = {
    "solve-blind": (cmd_solve_blind, _GAME + ("belief",), ("solver",)),
    "simulate-observed": (cmd_simulate_observed,
                          _GAME + ("belief", "filter", "true_atom", "solver"), ()),
    "certify-monotone": (cmd_certify_monotone, ("grid", "cost", "certify"), ()),
    "validate-weak": (cmd_validate_weak,
                      ("grid", "time", "sigma", "drift", "belief", "phi"),
                      ("ladder", "perturb")),
}


def _output_dir(given: str | None, cfg) -> Path:
    """--out if given, else the config's output.directory, else ./out;
    created if missing.  The output section is checked either way."""
    sub = cfg.get("output", {}) if isinstance(cfg, dict) else {}
    _check_keys(sub, "output", {"directory"})
    directory = sub.get("directory", "out")
    if not isinstance(directory, str):
        raise ConfigError("output.directory", f"expected a string, got {directory!r}")
    out = Path(directory if given is None else given)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # a file in the way, no permission, a NUL
        raise ConfigError("output.directory", f"cannot create {str(out)!r}: {exc}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="blindmfg",
        description="Blind mean field games: equilibria over atomic beliefs, "
                    "monotonicity certificates, payment-filtered simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        fh = open(args.config)
    # an OS error, or a path that no OS call takes: an embedded NUL byte
    except (OSError, ValueError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        with fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    # a decode error, or a parser limit: nesting depth, integer length
    except (ValueError, RecursionError) as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    run, required, optional = _COMMANDS[args.command]
    try:
        out = _output_dir(args.out, cfg)
        _check_keys(cfg, "config", {"output", *required, *optional}, required)
        # each command reports a non-finite result by its exit code and message
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            code, artifacts = run(cfg, out)
    except ConfigError as exc:
        print(f"config error at {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    _write_json(out / "manifest.json", {
        "command": args.command,
        "config": cfg,
        "artifacts": {name: _sha256(out / name) for name in sorted(artifacts)},
    })
    return code


if __name__ == "__main__":
    sys.exit(main())
