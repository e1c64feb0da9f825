"""JSON-config command-line front end.

Subcommands: solve-complete, solve-blind, simulate-observed,
certify-monotone, validate-weak.  Every run writes a manifest.json with
the configuration as given and SHA-256 checksums of all artifacts.  Exit
codes: 0 success (including negative certification findings), 2 config
validation failure (including time steps too coarse for the CFL
condition), 3 numerical non-convergence (artifacts still written).  All
CSV floats carry 17 significant digits; identical config and seed
reproduce every listed artifact and manifest.json byte for byte.  The
solve commands also write telemetry.json, the per-iteration wall times,
which the manifest does not list.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .beliefs import (
    MAX_ATOMS,
    Belief,
    BeliefPath,
    CostModel,
    _weighted_sum,
    belief_from_json,
    constant_cost,
    illustrative_cost,
    moment_form_cost,
    product_form_cost,
    push_forward,
    ramp_cylinder,
    weak_solution_residual,
)
from .hjb_fp import DriftField, Hamiltonian, TimeGrid, _check_cfl
from .monotonicity import certify_blind_monotone
from .payments import (
    FilterConfig,
    _observation_steps,
    in_consistency_set,
    simulate_observed,
    smoothed_well_profile,
    trace_to_json,
    write_trace_csv,
)
from .solver import (
    SolverConfig,
    solve_blind,
    solve_complete_info,
    write_history_csv,
)
from .torus import ScalarField, TorusGrid, _images_formed, build_grid

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3

# Largest estimated space-time state a run may allocate (see _state_bytes).
MAX_STATE_BYTES = 2 ** 30


class ConfigError(Exception):
    """Validation failure carrying the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# strict config parsing

def _check_keys(obj: dict, path: str, allowed: set, required: set = frozenset()):
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}", "required key missing")


def _check_kind(spec: dict, path: str, kinds: dict) -> str:
    """The kind named by `spec`; `kinds` maps each kind to the keys it reads."""
    _check_keys(spec, path, {"kind"}.union(*kinds.values()), {"kind"})
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{path}.kind", f"unknown kind {kind!r}")
    for key in spec:
        if key != "kind" and key not in kinds[kind]:
            raise ConfigError(f"{path}.{key}", f"not read by kind {kind!r}")
    return kind


def _number(obj: dict, path: str, key: str, lo=None, hi=None, default=None,
            integer: bool = False):
    path = f"{path}.{key}" if path else key
    if key not in obj and default is None:
        raise ConfigError(path, "required key missing")
    val = obj.get(key, default)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(path, f"expected a number, got {val!r}")
    try:
        finite = math.isfinite(val)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ConfigError(path, f"must be a finite number, got {val!r}")
    if integer and int(val) != val:
        raise ConfigError(path, f"expected an integer, got {val!r}")
    if lo is not None and val < lo:
        raise ConfigError(path, f"must be >= {lo}, got {val}")
    if hi is not None and val > hi:
        raise ConfigError(path, f"must be <= {hi}, got {val}")
    return int(val) if integer else float(val)


def _build_grid(cfg: dict) -> TorusGrid:
    sub = cfg["grid"]  # each command that reads it requires it
    _check_keys(sub, "grid", {"dim", "n"}, {"dim", "n"})
    dim = _number(sub, "grid", "dim", lo=1, hi=2, integer=True)
    n = _number(sub, "grid", "n", lo=8, integer=True)
    return build_grid(dim, n)


def _build_time(cfg: dict) -> TimeGrid:
    sub = cfg["time"]  # each command that reads it requires it
    _check_keys(sub, "time", {"T", "steps"}, {"T", "steps"})
    T = _number(sub, "time", "T")
    if T <= 0:
        raise ConfigError("time.T", f"must be > 0, got {T}")
    steps = _number(sub, "time", "steps", lo=1, integer=True)
    return TimeGrid(T, steps)


def _state_bytes(atoms: int, steps: int, n: int, dim: int) -> int:
    """Estimated bytes of a run's space-time arrays: the belief's atom
    paths plus value, drift and cost, each (steps + 1) x n^dim floats."""
    return (atoms + 3) * (steps + 1) * n ** dim * 8


def _certify_bytes(max_atoms: int, grid: TorusGrid) -> int:
    """Estimated peak bytes of a certify-monotone run with K = 2 max_atoms
    atoms a trial: 6K + 8 fields of n^dim floats (a trial's raw draws,
    atom stack, pairing copy, running costs and products; the cost's own
    fields; the witness atoms as JSON numbers, about 5 floats' worth per
    value), and the mollified-Dirac temporaries, 4 arrays of
    K x dim x n x images floats at the sampler's bandwidth."""
    atoms = 2 * max_atoms
    images = _images_formed(2.0 * grid.spacing)
    return ((6 * atoms + 8) * grid.n ** grid.dim
            + 4 * atoms * grid.dim * grid.n * images) * 8


def _check_need(need: int, what: str) -> None:
    """Reject, before anything is allocated, a run whose estimated state
    `need` exceeds MAX_STATE_BYTES."""
    if need > MAX_STATE_BYTES:
        raise ConfigError("grid.n", f"{what} need about {need / 2**30:.3g} GiB, "
                          f"above the {MAX_STATE_BYTES / 2**30:g} GiB cap")


def _check_size(cfg: dict, key: str, n: int, dim: int, steps: int) -> None:
    """_check_need for a space-time run; the atoms are counted in the raw
    `key` section, whose own errors are reported when it is built."""
    sub = cfg.get(key)
    atoms = sub.get("atoms") if isinstance(sub, dict) else None
    count = len(atoms) if isinstance(atoms, list) else 1
    _check_need(_state_bytes(count, steps, n, dim),
                f"{count} atom(s) on {n}^{dim} nodes over {steps} steps")


def _check_time_steps(tg: TimeGrid, grid: TorusGrid, speed: float) -> None:
    """The solvers' CFL condition, reported at the config field that sets dt."""
    try:
        _check_cfl(tg, grid, speed, "transport")
    except ValueError as exc:
        raise ConfigError("time.steps", str(exc))


def _build_sigma(cfg: dict) -> float:
    return _number(cfg, "", "sigma", lo=0.0)


def _build_hamiltonian(cfg: dict) -> Hamiltonian:
    sub = cfg["hamiltonian"]  # each command that reads it requires it
    kind = _check_kind(sub, "hamiltonian", {"abs": (), "smoothed_abs": ("delta",),
                                            "capped_quadratic": ("cap",)})
    delta = _number(sub, "hamiltonian", "delta", lo=0.0, default=0.0)
    cap = _number(sub, "hamiltonian", "cap", default=1.0)
    try:
        return Hamiltonian(kind, smoothing=delta, cap=cap)
    except ValueError as exc:
        raise ConfigError("hamiltonian", str(exc))


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
    if grid.dim != 1:
        raise ConfigError(path, "well profile requires dim = 1")
    return smoothed_well_profile(grid)


def _build_cost(cfg: dict, grid: TorusGrid) -> CostModel:
    sub = cfg.get("cost")
    if sub is None:
        raise ConfigError("cost", "required section missing")
    if not isinstance(sub, dict) or "id" not in sub:
        raise ConfigError("cost.id", "required key missing")
    cid = sub["id"]
    if cid in ("moment_form", "illustrative") and grid.dim != 1:
        raise ConfigError("cost.id", f"{cid} cost requires dim = 1")
    if cid == "product_form":
        _check_keys(sub, "cost", {"id", "phi", "base"}, {"id", "phi"})
        phi = _build_field(sub["phi"], grid, "cost.phi")
        base = (_build_field(sub["base"], grid, "cost.base")
                if "base" in sub else None)
        return product_form_cost(phi, base)
    if cid == "moment_form":
        _check_keys(sub, "cost", {"id", "g"}, {"id", "g"})
        catalogue = {"sqrt": np.sqrt, "identity": lambda s: s,
                     "square": lambda s: s * s}
        if not isinstance(sub["g"], str) or sub["g"] not in catalogue:
            raise ConfigError("cost.g", f"unknown moment map {sub['g']!r}")
        return moment_form_cost(catalogue[sub["g"]])
    if cid == "illustrative":
        _check_keys(sub, "cost", {"id", "coupling"}, {"id", "coupling"})
        c = _number(sub, "cost", "coupling")
        if not 0 < c < 1:
            raise ConfigError("cost.coupling", f"must lie in (0, 1), got {c}")
        return illustrative_cost(smoothed_well_profile(grid), c)
    if cid == "constant":
        _check_keys(sub, "cost", {"id", "field", "terminal"}, {"id", "field"})
        field = _build_field(sub["field"], grid, "cost.field")
        term = (_build_field(sub["terminal"], grid, "cost.terminal")
                if "terminal" in sub else None)
        return constant_cost(field, term)
    if cid == "zero":
        _check_keys(sub, "cost", {"id"}, {"id"})
        return constant_cost(ScalarField(grid, np.zeros(grid.shape)))
    raise ConfigError("cost.id", f"unknown cost id {cid!r}")


def _build_belief(cfg: dict, grid: TorusGrid, key: str = "belief") -> Belief:
    sub = cfg.get(key)
    if sub is None:
        raise ConfigError(key, "required section missing")
    _check_keys(sub, key, {"weights", "atoms"}, {"weights", "atoms"})
    if not (isinstance(sub["atoms"], list)
            and all(isinstance(atom, dict) for atom in sub["atoms"])):
        raise ConfigError(f"{key}.atoms", "expected a list of objects")
    for i, atom in enumerate(sub["atoms"]):
        if "bandwidth" in atom:  # absent means the default; null is an error
            _number(atom, f"{key}.atoms[{i}]", "bandwidth")
    try:
        return belief_from_json(sub, grid)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(key, str(exc))


def _build_solver(cfg: dict) -> SolverConfig:
    """Solver settings; a key left out takes SolverConfig's own default."""
    sub = cfg.get("solver", {})
    _check_keys(sub, "solver", {"relaxation", "tol", "max_iter"})
    given = {key: _number(sub, "solver", key) for key in ("relaxation", "tol")
             if key in sub}
    if "max_iter" in sub:
        given["max_iter"] = _number(sub, "solver", "max_iter", lo=1, integer=True)
    try:
        return SolverConfig(**given)
    except ValueError as exc:
        raise ConfigError("solver", str(exc))


# ---------------------------------------------------------------------------
# artifact writing

def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_path_csv(path: Path, tg: TimeGrid, grid: TorusGrid,
                    values: np.ndarray, column: str) -> None:
    """Space-time series: t, x0[, x1], <column> — one row per node.

    Rows end in CRLF, as csv.writer writes them; each time slice is
    formatted with one template and written as one block.
    """
    nodes = zip(*([_fmt(x) for x in c.ravel()] for c in grid.coords()))
    template = "".join(f"%s,{','.join(xs)},%.17g\r\n" for xs in nodes)
    axis_names = [f"x{d}" for d in range(grid.dim)]
    args = [None] * (2 * values[0].size)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t"] + axis_names + [column]) + "\r\n")
        for t, vals in zip(tg.times, values):
            args[0::2] = [_fmt(t)] * vals.size
            args[1::2] = vals.ravel().tolist()
            fh.write(template % tuple(args))


def _belief_path_json(bp: BeliefPath, tg: TimeGrid) -> dict:
    """Weights and per-atom summary; full densities live in m_i.csv."""
    atoms = []
    for i, p in enumerate(bp.atom_paths):
        atoms.append({
            "index": i,
            "weight": float(bp.weights[i]),
            "mass_error": float(p.mass_error()),
            "series_csv": f"m_{i}.csv",
        })
    return {"times": [float(t) for t in tg.times], "atoms": atoms}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out: Path, command: str, cfg: dict, seed: int,
                    artifacts: list) -> None:
    manifest = {
        "command": command,
        "seed": seed,
        "config": cfg,
        "artifacts": {name: _sha256(out / name) for name in sorted(artifacts)},
    }
    _write_json(out / "manifest.json", manifest)


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

def _solve_common(cfg: dict, out: Path, blind: bool, seed: int,
                  command: str) -> int:
    allowed = {"grid", "time", "sigma", "hamiltonian", "cost", "solver",
               "output", "belief" if blind else "density"}
    _check_keys(cfg, "config", allowed,
                {"grid", "time", "sigma", "hamiltonian", "cost"})
    grid = _build_grid(cfg)
    tg = _build_time(cfg)
    _check_size(cfg, "belief" if blind else "density", grid.n, grid.dim, tg.steps)
    sigma = _build_sigma(cfg)
    H = _build_hamiltonian(cfg)
    # optimal and relaxed drifts are bounded by H.lipschitz
    _check_time_steps(tg, grid, H.lipschitz)
    cm = _build_cost(cfg, grid)
    scfg = _build_solver(cfg)
    if blind:
        mu0 = _build_belief(cfg, grid)
        sol = solve_blind(mu0, cm, H, sigma, tg, scfg)
    else:
        mu0 = _build_belief(cfg, grid, key="density")
        if mu0.n_atoms != 1:
            raise ConfigError("density", "complete-information solve takes a "
                              f"single density, got {mu0.n_atoms} atoms")
        sol = solve_complete_info(mu0.atoms[0], cm, H, sigma, tg, scfg)

    artifacts = ["u.csv", "m.csv", "summary.json", "history.csv"]
    _write_path_csv(out / "u.csv", tg, grid, sol.value.values, "u")
    _write_path_csv(out / "m.csv", tg, grid,
                    _weighted_sum(sol.belief.weights, sol.belief.values), "m")
    write_history_csv(sol, out / "history.csv")
    # wall-clock times differ between reruns, so the manifest leaves them out
    _write_json(out / "telemetry.json", {
        "wall_time": [row["wall_time"] for row in sol.diagnostics["history"]]})
    if blind:
        for i, p in enumerate(sol.belief.atom_paths):
            name = f"m_{i}.csv"
            _write_path_csv(out / name, tg, grid, p.values, "m")
            artifacts.append(name)
        _write_json(out / "belief_path.json", _belief_path_json(sol.belief, tg))
        artifacts.append("belief_path.json")
    diag = sol.diagnostics
    _write_json(out / "summary.json", {
        "gap": diag["final_gap"],
        "iterations": diag["iterations"],
        "converged": diag["converged"],
        "hjb_residual": diag["hjb_residual"],
        "mass_error": diag["mass_error"],
    })
    _write_manifest(out, command, cfg, seed, artifacts)
    return EXIT_OK if diag["converged"] else EXIT_NONCONVERGENCE


def cmd_solve_complete(cfg: dict, out: Path, seed: int) -> int:
    return _solve_common(cfg, out, blind=False, seed=seed,
                         command="solve-complete")


def cmd_solve_blind(cfg: dict, out: Path, seed: int) -> int:
    return _solve_common(cfg, out, blind=True, seed=seed,
                         command="solve-blind")


def cmd_simulate_observed(cfg: dict, out: Path, seed: int) -> int:
    _check_keys(cfg, "config",
                {"grid", "time", "sigma", "hamiltonian", "cost", "belief",
                 "filter", "true_atom", "solver", "output"},
                {"grid", "time", "sigma", "hamiltonian", "cost", "belief",
                 "filter", "true_atom", "solver"})
    grid = _build_grid(cfg)
    tg = _build_time(cfg)
    _check_size(cfg, "belief", grid.n, grid.dim, tg.steps)
    sigma = _build_sigma(cfg)
    H = _build_hamiltonian(cfg)
    _check_time_steps(tg, grid, H.lipschitz)
    cm = _build_cost(cfg, grid)
    mu0 = _build_belief(cfg, grid)
    scfg = _build_solver(cfg)
    fsub = cfg["filter"]
    _check_keys(fsub, "filter", {"tolerance", "observation_dt"}, {"tolerance"})
    try:
        fc = FilterConfig(
            tolerance=_number(fsub, "filter", "tolerance"),
            observation_dt=_number(fsub, "filter", "observation_dt", lo=0,
                                   default=0.0),
        )
    except ValueError as exc:
        raise ConfigError("filter", str(exc))
    try:
        steps_per_obs = _observation_steps(tg, fc)
    except ValueError as exc:
        raise ConfigError("filter.observation_dt", str(exc))
    if not in_consistency_set(mu0, cm, fc.tolerance):
        raise ConfigError("belief", "the atoms' payments differ by more than "
                          "filter.tolerance at t = 0")
    true_atom = _number(cfg, "", "true_atom", lo=0, integer=True)
    if true_atom >= mu0.n_atoms:
        raise ConfigError("true_atom",
                          f"index {true_atom} out of range for "
                          f"{mu0.n_atoms}-atom belief")
    trace = simulate_observed(mu0, true_atom, cm, H, sigma, tg, fc, scfg)
    _write_json(out / "trace.json", trace_to_json(trace))
    write_trace_csv(trace, out / "trace.csv")
    all_converged = all(s["converged"] for s in trace.segments)
    _write_json(out / "summary.json", {
        "n_events": len(trace.events),
        "event_times": [float(t) for t, _ in trace.events],
        "final_n_atoms": trace.beliefs[-1].n_atoms,
        "true_atom_survived": True,
        "segments_converged": all_converged,
    })
    _write_manifest(out, "simulate-observed", cfg, seed,
                    ["trace.json", "trace.csv", "summary.json"])
    # a trace cut short met a non-finite solve gap or payment
    finished = len(trace.times) == 1 + -(-tg.steps // steps_per_obs)
    return EXIT_OK if all_converged and finished else EXIT_NONCONVERGENCE


def cmd_certify_monotone(cfg: dict, out: Path, seed: int) -> int:
    _check_keys(cfg, "config", {"grid", "cost", "certify", "output"},
                {"grid", "cost", "certify"})
    grid = _build_grid(cfg)
    sub = cfg["certify"]
    _check_keys(sub, "certify", {"trials", "max_atoms", "seed"}, {"trials"})
    trials = _number(sub, "certify", "trials", lo=1, integer=True)
    max_atoms = _number(sub, "certify", "max_atoms", lo=1, hi=MAX_ATOMS,
                        default=8, integer=True)
    sampler_seed = _number(sub, "certify", "seed", lo=0, default=seed,
                           integer=True)
    # before the cost, whose fields are grid-sized
    _check_need(_certify_bytes(max_atoms, grid),
                f"trials of {2 * max_atoms} atoms on {grid.n}^{grid.dim} nodes")
    cm = _build_cost(cfg, grid)
    report = certify_blind_monotone(cm, grid, sampler_seed, trials, max_atoms)
    body = report.to_json()
    body["nonnegative"] = bool(report.min_over_trials >= -1e-10)
    _write_json(out / "report.json", body)
    _write_manifest(out, "certify-monotone", cfg, seed, ["report.json"])
    verdict = ("no violation found" if body["nonnegative"]
               else "violation found (finding, not an error)")
    print(f"min pairing over {trials} trials: {report.min_over_trials:.6e} "
          f"-- {verdict}")
    return EXIT_OK


def _drift_from_spec(spec: dict, grid: TorusGrid, tg: TimeGrid,
                     path: str) -> DriftField:
    """Time-constant analytic drift, refinable across ladder levels."""
    kind = _check_kind(spec, path, {"constant": ("value",),
                                    "sine": ("amplitude", "frequency")})
    if kind == "constant":
        value = _number(spec, path, "value")
        vals = np.full((tg.steps + 1, grid.dim) + grid.shape, value)
        return DriftField(grid, tg, vals)
    amp = _number(spec, path, "amplitude", default=0.5)
    freq = _number(spec, path, "frequency", default=1, integer=True)
    coords = grid.coords()
    vals = np.empty((tg.steps + 1, grid.dim) + grid.shape)
    for d in range(grid.dim):
        vals[:, d] = amp * np.sin(2 * np.pi * freq * coords[d])
    return DriftField(grid, tg, vals)


def cmd_validate_weak(cfg: dict, out: Path, seed: int) -> int:
    _check_keys(cfg, "config",
                {"grid", "time", "sigma", "drift", "belief", "phi", "ladder",
                 "perturb", "output"},
                {"grid", "time", "sigma", "drift", "belief", "phi"})
    base_grid = _build_grid(cfg)
    base_tg = _build_time(cfg)
    ladder = cfg.get("ladder", {})
    _check_keys(ladder, "ladder", {"levels"})
    levels = _number(ladder, "ladder", "levels", lo=2, default=3, integer=True)
    # level by level, so that a huge level count stops at the first
    # level past the cap instead of forming 4**levels
    for lvl in range(levels):
        _check_size(cfg, "belief", base_grid.n * 2 ** lvl, base_grid.dim,
                    base_tg.steps * 4 ** lvl)
    sigma = _build_sigma(cfg)
    phi_spec = cfg["phi"]
    _check_keys(phi_spec, "phi", {"inner"}, {"inner"})
    atoms = _build_belief(cfg, base_grid).atoms
    if any(atom["kind"] == "grid" for atom in cfg["belief"]["atoms"]):
        raise ConfigError("belief.atoms",
                          "refinement ladder needs analytic (dirac) atoms")
    new_w = None
    if "perturb" in cfg:
        sub = cfg["perturb"]
        _check_keys(sub, "perturb", {"at_fraction", "weights"},
                    {"at_fraction", "weights"})
        frac = _number(sub, "perturb", "at_fraction", lo=0.0, hi=1.0)
        try:
            new_w = Belief(np.asarray(sub["weights"], dtype=float), atoms).weights
        except (ValueError, TypeError) as exc:
            raise ConfigError("perturb.weights", str(exc))

    residuals = []
    finest = None
    for lvl in range(levels):
        grid = build_grid(base_grid.dim, base_grid.n * 2 ** lvl)
        tg = TimeGrid(base_tg.horizon, base_tg.steps * 4 ** lvl)
        drift = _drift_from_spec(cfg["drift"], grid, tg, "drift")
        _check_time_steps(tg, grid, drift.sup_norm())
        mu0 = _build_belief(cfg, grid)
        bp = push_forward(mu0, drift, sigma, tg)
        inner = _build_field(phi_spec["inner"], grid, "phi.inner")
        phi = ramp_cylinder(inner, tg.horizon)
        residuals.append(weak_solution_residual(bp, drift, sigma, phi))
        finest = (bp, drift, phi, tg)
    orders = [float(np.log2(residuals[i] / residuals[i + 1]))
              for i in range(levels - 1)]
    order_ok = all(o >= 0.8 for o in orders)

    violation = None
    if new_w is not None:
        bp, drift, phi, tg = finest
        switch = int(frac * tg.steps)
        beliefs = [bp.belief_at(k) for k in range(tg.steps + 1)]
        perturbed = [Belief(new_w, b.atoms) if k >= switch else b
                     for k, b in enumerate(beliefs)]
        pert_res = weak_solution_residual(perturbed, drift, sigma, phi)
        violation = {
            "perturbed_residual": pert_res,
            "baseline_residual": residuals[-1],
            "detected": bool(pert_res >= 10 * residuals[-1]),
        }

    _write_json(out / "report.json", {
        "residuals": residuals,
        "orders": orders,
        "order_ok": order_ok,
        "violation": violation,
    })
    _write_manifest(out, "validate-weak", cfg, seed, ["report.json"])
    if violation is not None and violation["detected"]:
        print("violation detected: perturbed path is not a weak solution")
    else:
        print(f"residual ladder {['%.3e' % r for r in residuals]}, "
              f"orders {['%.2f' % o for o in orders]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "solve-complete": cmd_solve_complete,
    "solve-blind": cmd_solve_blind,
    "simulate-observed": cmd_simulate_observed,
    "certify-monotone": cmd_certify_monotone,
    "validate-weak": cmd_validate_weak,
}


def _output_dir(given: str | None, cfg) -> Path:
    """--out if given, else the config's output.directory, else ./out;
    created if missing."""
    if given is None and isinstance(cfg, dict) and "output" in cfg:
        _check_keys(cfg["output"], "output", {"directory"})
        given = cfg["output"].get("directory", "out")
        if not isinstance(given, str):
            raise ConfigError("output.directory", f"expected a string, got {given!r}")
    out = Path("out" if given is None else given)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
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
        p.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        out = _output_dir(args.out, cfg)
        return _COMMANDS[args.command](cfg, out, args.seed)
    except ConfigError as exc:
        print(f"config error at {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
