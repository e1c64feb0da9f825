"""Regenerate reference.json, the expected outputs the checks compare to.

    python3 perfbench/make_reference.py

Run from the root of a source checkout, and only when an output is meant
to change: it records what the current code produces for every variant
of the seeded workloads (blind3 slices, certify minima).
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

from checks import REFERENCE, csv_slice
from run import run_child
from workloads import VARIANTS, WORKLOADS


def _output(root: Path, workload: str, seed: int):
    work = root / ".perfbench" / f"reference-{workload}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    cfg = WORKLOADS[workload][1](seed)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    run, out = run_child(root, work, workload, cfg_path, False,
                         time.monotonic() + 600)
    if run.problems:
        raise SystemExit(f"{workload} seed {seed}: {run.problems}")
    return work, out, cfg


def main() -> int:
    root = Path.cwd()
    reference = {"blind3": {}, "certify": {}}
    for v in range(VARIANTS):
        work, out, cfg = _output(root, "blind3", v)
        n, T = cfg["grid"]["n"], cfg["time"]["T"]
        summary = json.loads((out / "summary.json").read_text())
        u0 = csv_slice(out / "u.csv", n, last=False)[1]
        mT = csv_slice(out / "m.csv", n, last=True)[1]
        reference["blind3"][str(v)] = {"iterations": summary["iterations"],
                                       "u0": u0.tolist(), "mT": mT.tolist()}
        shutil.rmtree(work)
        work, out, cfg = _output(root, "certify", v)
        report = json.loads((out / "report.json").read_text())
        reference["certify"][str(v)] = report["min_pairing"]
        shutil.rmtree(work)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    for v, entry in reference["blind3"].items():
        print(f"blind3 variant {v}: {entry['iterations']} iterations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
