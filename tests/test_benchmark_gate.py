"""The benchmark's correctness gate, run in process: every workload of
perfbench/workloads.py at seeds 0 and 1 through `cli.main`, its output
checked by perfbench/checks.py, which must find no problem.

Reads perfbench/ only; a change that would make the benchmark count its
runs as failed fails here first.
"""

import json
import sys
from pathlib import Path

import pytest

from blindmfg import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_passes_its_check(workload, seed, tmp_path):
    command, build = WORKLOADS[workload]
    cfg = build(seed)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    assert checks.check(workload, out, cfg, seed) == []
