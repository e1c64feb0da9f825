"""Speed probe: how fast the benchmark's CPU runs while a child runs on it.

    python probe.py RATE_FILE

On a shared host the speed of one virtual CPU changes from moment to
moment, by up to about 2x, with the load other tenants put on the same
physical core; a CLI run's wall and CPU time move with it.  The probe
is a fixed numpy loop at nice 19, pinned to the CPU the benchmarked
child runs on.  Against a busy nice-0 child it gets a small share of
that CPU (about 1.5%) in short slices spread over the child's run, so
its rate, units of work per CPU second of its own, samples the CPU's
speed at the same moments as the child.  `Probe.speed` turns the rates
into the factor the benchmark scales a child's CPU time by.

The loop is a 1-D upwind stencil on 256 points: small numpy calls, as
in the blindmfg solvers.  Of four probe loops tried (pure-Python
arithmetic, this stencil, 64K-element array passes, a mix of Python
and FFTs), its rate tracked the CPU time of all three workloads best:
in 151 runs of the three workloads, whose CPU time spread by 7-11%
per workload (standard deviation of its log), the CPU time times the
probe's rate spread by 2-3%.

The probe writes its unit count and its own CPU time, two float64, to
the first 16 bytes of RATE_FILE after every unit.  It never reads
blindmfg code, so a change to the package cannot move the yardstick.
"""

from __future__ import annotations

import mmap
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

RECORD = struct.Struct("dd")

# The probe's rate, in units per CPU second, on an uncontended core of
# the 2-vCPU Xeon VM the benchmark was tuned on (the fastest rates seen
# there were 1600-1800).  Scaling by rate / REFERENCE_RATE expresses a
# CPU time in seconds of that core; the value only fixes the unit.
REFERENCE_RATE = 1800.0


def unit(y: np.ndarray) -> np.ndarray:
    for _ in range(40):
        d = np.roll(y, 1) - y
        y = y + 0.01 * np.maximum(d, 0.0) - 0.01 * np.abs(d)
    return y


def loop(path: str) -> None:
    """Run units until the parent process is gone."""
    os.nice(19)
    parent = os.getppid()
    with open(path, "r+b") as fh:
        shared = mmap.mmap(fh.fileno(), RECORD.size)
    y0 = np.random.default_rng(0).standard_normal(256)
    units = 0
    while os.getppid() == parent:
        unit(y0)
        units += 1
        RECORD.pack_into(shared, 0, float(units), time.process_time())


class Probe:
    """The probe process, started and stopped as a context manager.

    It inherits the caller's CPU affinity; pin the caller first.
    """

    def __init__(self, path: Path):
        self.path = path

    def __enter__(self) -> "Probe":
        self.path.write_bytes(bytes(RECORD.size))
        with open(self.path, "r+b") as fh:
            self._shared = mmap.mmap(fh.fileno(), RECORD.size)
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(self.path)],
            stdin=subprocess.DEVNULL)
        # wait until the probe has finished its first unit
        while self.read()[0] == 0:
            if self._proc.poll() is not None:
                raise RuntimeError(f"speed probe exited with {self._proc.returncode}")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self._proc.kill()
        self._proc.wait()
        self._shared.close()

    def read(self) -> tuple:
        """(units done, probe CPU seconds) so far."""
        return RECORD.unpack_from(self._shared, 0)

    def speed(self, before: tuple, after: tuple) -> float:
        """The CPU's speed between two `read`s, relative to REFERENCE_RATE."""
        if self._proc.poll() is not None:
            raise RuntimeError(f"speed probe exited with {self._proc.returncode}")
        units = after[0] - before[0]
        cpu_s = after[1] - before[1]
        if units < 1 or cpu_s <= 0:
            raise RuntimeError("speed probe got no CPU time during the run")
        return units / cpu_s / REFERENCE_RATE


if __name__ == "__main__":
    loop(sys.argv[1])
