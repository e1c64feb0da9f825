"""Output checks: each returns the list of problems found in one run's
output directory (empty when the run is correct).

The checks read only the CLI's artifacts and reference.json; they do not
import blindmfg, so a defect in the package cannot hide its own error.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from workloads import VARIANTS

REFERENCE = Path(__file__).with_name("reference.json")

# The race's elimination time: the lower edge 1/4 - eps of the predicted
# window [1/4 - eps, 5/16 - eps] with eps = 0.1.
RACE_EVENT_T = 0.15


def _json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def check_race(out: Path, cfg: dict, seed: int, reference: dict) -> list:
    summary = _json(out / "summary.json")
    trace = _json(out / "trace.json")
    centres = [a["center"] for a in cfg["belief"]["atoms"]]
    wrong = centres.index(0.1)
    problems = []
    events = trace["events"]
    if len(events) != 1:
        problems.append(f"expected one event, got {len(events)}")
    else:
        if events[0]["eliminated"] != [wrong]:
            problems.append(f"event eliminated {events[0]['eliminated']}, "
                            f"expected [{wrong}]")
        if abs(events[0]["time"] - RACE_EVENT_T) > 1e-9:
            problems.append(f"event at t={events[0]['time']}, "
                            f"expected {RACE_EVENT_T}")
    if summary["final_n_atoms"] != 1:
        problems.append(f"final_n_atoms = {summary['final_n_atoms']}")
    if not summary["segments_converged"] or not all(trace["segments_converged"]):
        problems.append("a replanning segment did not converge")
    return problems


def csv_slice(path: Path, n: int, last: bool) -> tuple:
    """(times, values) of the first or last n rows of a space-time CSV."""
    with open(path) as fh:
        if last:
            fh.seek(0, 2)
            size = fh.tell()
            fh.seek(max(0, size - 128 * (n + 1)))
            lines = fh.read().splitlines()[-n:]
        else:
            fh.readline()
            lines = [fh.readline() for _ in range(n)]
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines])
    return rows[:, 0], rows[:, -1]


def check_blind3(out: Path, cfg: dict, seed: int, reference: dict) -> list:
    summary = _json(out / "summary.json")
    problems = []
    if not summary["converged"]:
        problems.append("did not converge")
    if not summary["gap"] < cfg["solver"]["tol"]:
        problems.append(f"gap {summary['gap']} >= tol")
    if not summary["hjb_residual"] <= 1e-8:
        problems.append(f"hjb_residual {summary['hjb_residual']} > 1e-8")
    if not summary["mass_error"] <= 1e-12:
        problems.append(f"mass_error {summary['mass_error']} > 1e-12")
    n = cfg["grid"]["n"]
    T = cfg["time"]["T"]
    ref = reference["blind3"][str(seed % VARIANTS)]
    # 1e-6 sits above the 1e-8 fixed-point tolerance, so another
    # iteration scheme that reaches the same fixed point still passes.
    for name, last, t, key in (("u.csv", False, 0.0, "u0"),
                               ("m.csv", True, T, "mT")):
        times, values = csv_slice(out / name, n, last)
        if not np.all(times == t):
            problems.append(f"{name}: slice is not at t={t}")
        err = float(np.max(np.abs(values - np.asarray(ref[key]))))
        if not err <= 1e-6:
            problems.append(f"{name}: t={t} slice off the reference by {err:.3g}")
    return problems


def moment_sqrt_pairing(witness: dict) -> float:
    """Lifted pairing of the moment-form sqrt cost, f(m)(x) = x sqrt(M(m)).

    For it the pairing factors as (sum_j s_j sqrt(M_j)) (sum_i s_i M_i)
    over the signed atoms of mu1 - mu2, with M the first moment.
    """
    signed, moments = [], []
    for sign, key in ((1.0, "mu1"), (-1.0, "mu2")):
        for w, atom in zip(witness[key]["weights"], witness[key]["atoms"]):
            m = np.asarray(atom["values"])
            x = np.arange(m.size) / m.size
            signed.append(sign * w)
            moments.append(float(np.sum(x * m) / m.size))
    s = np.asarray(signed)
    mom = np.asarray(moments)
    return float(np.dot(s, np.sqrt(mom)) * np.dot(s, mom))


def check_certify(out: Path, cfg: dict, seed: int, reference: dict) -> list:
    report = _json(out / "report.json")
    value = report["min_pairing"]
    problems = []
    if report["trials"] != cfg["certify"]["trials"]:
        problems.append(f"ran {report['trials']} trials")
    if not value < 0:
        problems.append(f"min_pairing {value} is not negative")
    ref = reference["certify"][str(cfg["certify"]["seed"])]
    if not abs(value - ref) <= 1e-9 * abs(ref):
        problems.append(f"min_pairing {value} != reference {ref}")
    again = moment_sqrt_pairing(report["witness"])
    if not abs(again - value) <= 1e-9 * abs(value):
        problems.append(f"witness re-evaluates to {again}, reported {value}")
    return problems


CHECKS = {
    "race": check_race,
    "blind3": check_blind3,
    "certify": check_certify,
}


def check(workload: str, out: Path, cfg: dict, seed: int) -> list:
    """Problems in one run's output; an unreadable output is a problem."""
    try:
        return CHECKS[workload](out, cfg, seed, _json(REFERENCE))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
