"""Seeded workload definitions: each builds one CLI config from a seed.

A workload is one `blindmfg` subcommand on one generated JSON config.
The seed changes the inputs only in ways that keep the work per run
about the same, so that the spread between seeds measures the machine
rather than the inputs.  Seeded workloads map a seed to one of VARIANTS
input variants, whose expected outputs are stored in reference.json.

The sizes are chosen so that one CLI run takes 2-5 s on a 2-core VM
(set-up is 0.5-0.8 s of that), so that a 30 s benchmark run holds 6-12
CLI runs.

A `validate-weak` refinement ladder (n = 64 / 64 steps to n = 512 /
4096 steps) is not among the workloads.  In three sets of ten 25 s
benchmark runs its fastest-run wall time spread by 13%, 37% and 31%
(interquartile range over median), the most of the four workloads in
two of the three sets; without it each benchmark run can measure longer
in the same total time.
"""

from __future__ import annotations

import numpy as np

VARIANTS = 8

# The race's horizon in the benchmark: configs/illustrative.json runs to
# T = 2 (200 replanning segments, about 34 s per run); T = 0.5 at the same
# dt keeps the elimination at t = 0.15 with 50 segments.
RACE_T = 0.5
RACE_STEPS = 150


def race_config(seed: int, T: float = RACE_T, steps: int = RACE_STEPS) -> dict:
    """`simulate-observed` on the two-Dirac race of configs/illustrative.json.

    Why: the paper's headline scenario.  It is dominated by the Picard
    loop, cost aggregation and optimal_drift; with sigma = 0
    implicit_diffusion is a copy, so an FFT or diffusion change should
    leave it unchanged; its memory comes from FilterTrace.segments
    keeping every full solution.  An odd seed lists the two atoms in the
    other order, which relabels the same belief and moves true_atom with
    it.  With T = 2, 600 steps and seed 0 this is configs/illustrative.json
    byte for byte.
    """
    atoms = [{"kind": "dirac", "center": 0.0}, {"kind": "dirac", "center": 0.1}]
    true_atom = 0
    if seed % 2:
        atoms.reverse()
        true_atom = 1
    return {
        "grid": {"dim": 1, "n": 256},
        "time": {"T": T, "steps": steps},
        "sigma": 0.0,
        "hamiltonian": {"kind": "abs"},
        "cost": {"id": "illustrative", "coupling": 0.5},
        "belief": {"weights": [0.5, 0.5], "atoms": atoms},
        "filter": {"tolerance": 0.05, "observation_dt": 0.01},
        "true_atom": true_atom,
        "solver": {"relaxation": 1.0, "tol": 1e-09, "max_iter": 60},
        "output": {"directory": "out/illustrative"},
    }


def blind3_config(seed: int) -> dict:
    """`solve-blind` with three Dirac atoms, damped Picard, all artifacts.

    Why: the only workload where artifact I/O (about 45% of a run) and
    FFT diffusion carry real weight, and the only one with damped Picard
    iterations (relaxation 0.5), where an iteration-count change such as
    Anderson acceleration acts.  The seed moves the atom centres and
    weights by at most 0.01 around (0.15, 0.45, 0.75) / (0.3, 0.3, 0.4);
    variant 0 is the unmoved belief.  Every variant converges in 17
    iterations, so the seed does not change the work.
    """
    variant = seed % VARIANTS
    centres = np.array([0.15, 0.45, 0.75])
    weights = np.array([0.3, 0.3, 0.4])
    if variant:
        rng = np.random.default_rng(variant)
        centres = centres + rng.uniform(-0.01, 0.01, 3)
        shift = rng.uniform(-0.01, 0.01, 3)
        weights = weights + shift - shift.mean()
    w = [round(float(x), 6) for x in weights[:2]]
    w.append(round(1.0 - w[0] - w[1], 6))
    return {
        "grid": {"dim": 1, "n": 128},
        "time": {"T": 1.0, "steps": 256},
        "sigma": 0.05,
        "hamiltonian": {"kind": "smoothed_abs", "delta": 0.5},
        "cost": {"id": "product_form",
                 "phi": {"kind": "cosine", "amplitude": 0.3}},
        "belief": {"weights": w,
                   "atoms": [{"kind": "dirac", "center": round(float(c), 6)}
                             for c in centres]},
        "solver": {"relaxation": 0.5, "tol": 1e-8, "max_iter": 200},
    }


def certify_config(seed: int) -> dict:
    """`certify-monotone` for the moment-form sqrt cost.

    Why: the only user of `monotonicity`.  It is dominated by
    torus.mollified_dirac and lifted_pairing and never touches hjb_fp or
    solver, so it shows when a shared change to `torus` slows the
    certifier.  The seed picks the sampler seed.
    """
    return {
        "grid": {"dim": 1, "n": 256},
        "cost": {"id": "moment_form", "g": "sqrt"},
        "certify": {"trials": 3000, "seed": seed % VARIANTS},
    }


# name -> (CLI subcommand, config builder)
WORKLOADS = {
    "race": ("simulate-observed", race_config),
    "blind3": ("solve-blind", blind3_config),
    "certify": ("certify-monotone", certify_config),
}
