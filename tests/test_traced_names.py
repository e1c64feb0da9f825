"""The benchmark's traced names against its workloads: every workload of
perfbench/workloads.py runs at seed 0 through `cli.main` under
perfbench/tracer.py, and the traced functions none of them calls must be
among the six that no workload calls today.  A per-layer metric of a
function no workload calls reads 0, so a refactor that routes a workload
around one more traced function fails here.

Reads perfbench/ only, as test_benchmark_gate.py does.
"""

import json
import sys
from pathlib import Path

from blindmfg import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# called by the unit tests and the acceptance criteria, never by a workload
UNCALLED = {
    "beliefs.aggregate_running",
    "hjb_fp.fp_step",
    "hjb_fp.solve_fp_forward",
    "monotonicity.lifted_pairing",
    "monotonicity.random_belief",
    "torus.density_from_values",
}


def test_workloads_leave_no_more_traced_names_uncalled(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        for workload, (command, build) in sorted(WORKLOADS.items()):
            config = tmp_path / f"{workload}.json"
            config.write_text(json.dumps(build(0)))
            out = tmp_path / workload
            assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    uncalled = {name for name, (calls, _, _) in tracer.stats.items() if calls == 0}
    assert uncalled <= UNCALLED
