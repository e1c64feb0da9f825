"""Benchmark of the `blindmfg` CLI: run time, set-up time and peak memory
of fresh CLI processes on three seeded workloads, plus a traced mode that
splits the time across the package's layers.

    python3 perfbench/run.py --workload race --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35

Run it from the root of a source checkout; it imports the package from
./src and writes only under ./.perfbench.  Each CLI run is a fresh child
process, run one at a time (a closed loop with one client): the next
starts after the previous has exited.  Runs repeat until the next would
end after --seconds.  Every run's artifacts are checked (checks.py); a
run that exits non-zero or fails its check counts as failed.

The benchmark pins itself, its children and a speed probe (probe.py) to
one CPU, and scales each child's CPU time by the CPU's speed during that
run as the probe measured it.  On a shared host the speed of a virtual
CPU swings by up to 2x with other tenants' load: over ten seeds the
wall time of whole 35 s benchmark runs spread by up to 39% (interquartile
range over median), the scaled CPU time by under 2%.  The scaled time is
what a run costs on a core where the probe runs at its reference rate.
The wall time is printed per run but is not a metric.

--trace 0 reports the end-to-end metrics, medians over the runs that
passed:
  run_s        the child's CPU time from interpreter start to exit,
               including artifact writing, scaled by the probe's speed
  setup_s      the child's CPU time until blindmfg.cli is imported and
               the config loaded, scaled by the probe's speed
  peak_rss_mb  the child's peak resident set, from wait4
--trace 1 alternates untraced and traced runs and reports the per-layer
metrics of tracer.py (median over the traced runs; their times are
unscaled) and tracing.overhead_frac, the median traced over the median
untraced run_s, minus 1.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check  # noqa: E402
from probe import Probe  # noqa: E402
from tracer import LAYER_METRICS, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# name -> unit; each is the median over the runs that passed.
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# A benchmark run must end within 180 s; a child still running this long
# after the benchmark started is killed and counted as failed.
CHILD_DEADLINE_S = 150.0

# The children run on one CPU, where more than one BLAS thread would only
# take turns.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Run:
    wall_s: float
    setup_cpu_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list
    traced: bool = False
    layers: dict = field(default_factory=dict)
    # the CPU's speed during the run relative to probe.REFERENCE_RATE;
    # NaN until the caller measures it
    speed: float = float("nan")

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def run_s(self) -> float:
        return self.cpu_s * self.speed

    @property
    def setup_s(self) -> float:
        return self.setup_cpu_s * self.speed


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_child(root: Path, work: Path, workload: str, cfg_path: Path,
              traced: bool, deadline: float) -> tuple:
    """One CLI run in a fresh interpreter; returns (Run, output directory).

    The caller checks the output and removes the directory."""
    out = work / "out"
    record_path = work / "record.json"
    shutil.rmtree(out, ignore_errors=True)
    record_path.unlink(missing_ok=True)
    command = WORKLOADS[workload][0]
    argv = [sys.executable, str(HERE / "child.py"), str(record_path),
            "1" if traced else "0", "--", command,
            "--config", str(cfg_path), "--out", str(out)]
    src = str(root / "src")
    env = dict(os.environ, **dict.fromkeys(BLAS_ENV, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(work / "child.log", "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT, env=env, cwd=work)
        pidfd = os.pidfd_open(proc.pid)
        try:
            timeout = max(1.0, deadline - time.monotonic())
            if not select.select([pidfd], [], [], timeout)[0]:
                proc.kill()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)

    problems = []
    record = {}
    try:
        with open(record_path) as fh:
            record = json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"no run record: {exc}")
    if proc.returncode != 0:
        tail = (work / "child.log").read_text()[-400:]
        problems.append(f"exit code {proc.returncode}: {tail}")
    package = record.get("package_file", "")
    if package and not Path(package).resolve().is_relative_to(Path(src).resolve()):
        problems.append(f"blindmfg imported from {package}, not {src}")
    run = Run(wall_s=wall,
              setup_cpu_s=record.get("setup_cpu_s", 0.0),
              cpu_s=usage.ru_utime + usage.ru_stime,
              peak_rss_mb=usage.ru_maxrss / 1024.0,
              problems=problems, traced=traced)
    if traced and "trace" in record:
        run.layers = layer_metrics(record["trace"], run.cpu_s, _dir_bytes(out))
        with open(work / "spans.json", "w") as fh:
            json.dump(record["trace"]["spans"], fh)
    return run, out


def bench(root: Path, workload: str, seed: int, seconds: float,
          trace: bool) -> list:
    """Closed loop of CLI runs for `seconds`; returns the runs, in order.

    With `trace` the runs alternate untraced, traced, untraced, ..."""
    started = time.monotonic()
    work = root / ".perfbench" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = WORKLOADS[workload][1](seed)
    cfg_path = work / "config.json"
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh, indent=2)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runs = []
    try:
        with Probe(work / "probe.bin") as probe:
            while True:
                traced = trace and len(runs) % 2 == 1
                before = probe.read()
                run, out = run_child(root, work, workload, cfg_path, traced,
                                     started + CHILD_DEADLINE_S)
                run.speed = probe.speed(before, probe.read())
                run.problems += check(workload, out, cfg, seed)
                shutil.rmtree(out, ignore_errors=True)
                runs.append(run)
                print(f"{workload} run {len(runs)}{' traced' if traced else ''}: "
                      f"wall {run.wall_s:.3f} s, cpu {run.cpu_s:.3f} s, "
                      f"speed {run.speed:.3f}, run {run.run_s:.3f} s, "
                      f"setup {run.setup_s:.3f} s, peak {run.peak_rss_mb:.1f} MB, "
                      f"{'ok' if run.ok else 'FAILED: ' + '; '.join(run.problems)}",
                      flush=True)
                typical = statistics.median(r.wall_s for r in runs)
                if time.monotonic() + typical > started + seconds and (
                        not trace or len(runs) >= 2):
                    return runs
    finally:
        shutil.rmtree(work / "out", ignore_errors=True)


def summarize(runs: list, trace: bool) -> dict:
    """The result object: correct, attempted, failed and metrics."""
    failed = sum(not r.ok for r in runs)
    good = [r for r in runs if r.ok] or runs
    plain = [r for r in good if not r.traced]
    traced = [r for r in good if r.traced and r.layers]
    if trace:
        # layer_metrics gives every per-layer metric but the overhead
        values = {k: statistics.median(r.layers[k] for r in traced)
                  for k in (traced[0].layers if traced else ())}
        values["tracing.overhead_frac"] = (
            statistics.median(r.run_s for r in traced)
            / statistics.median(r.run_s for r in plain) - 1.0
            if traced and plain else 0.0)
        metrics = {k: {"value": values.get(k, 0.0), "unit": LAYER_METRICS[k][0]}
                   for k in LAYER_METRICS}
    else:
        metrics = {k: {"value": statistics.median(getattr(r, k) for r in plain),
                       "unit": u}
                   for k, u in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def host_line() -> str:
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    blas = " ".join(f"{k}=1" for k in BLAS_ENV)
    return (f"host: cpus={os.cpu_count()} python={platform.python_version()} "
            f"numpy={versions['numpy']} scipy={versions['scipy']} "
            f"children: {blas}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the child and the probe are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "blindmfg" / "cli.py").is_file():
        print(f"no blindmfg source under {root / 'src'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2

    print(host_line(), flush=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: summarize(bench(root, name, args.seed, args.seconds,
                                     bool(args.trace)), bool(args.trace))
               for name in names}
    for name, res in results.items():
        print(f"{name}: {res['attempted']} runs, {res['failed']} failed "
              f"(fail_rate {res['failed'] / res['attempted']:.3f})")
        for key, m in res["metrics"].items():
            print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": m for name, r in results.items()
                        for key, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
