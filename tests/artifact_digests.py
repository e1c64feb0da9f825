"""SHA-256 of every artifact of the benchmark's workloads and the shipped configs.

    python3 tests/artifact_digests.py > digests.json

Runs race, blind3 and certify of perfbench/workloads.py at seeds 0-7, and
every configs/*.json through the command README.md names for it, each
through `blindmfg.cli.main` in this process and into a fresh temporary
directory.  Prints one JSON object that maps each run to its exit code and
to the `artifacts` map of its manifest.json: the SHA-256 of every listed
artifact, which leaves out telemetry.json.  Run it on two trees and diff
the output to see which artifact bytes a change moved.  It reads
perfbench/ and writes nothing there.  pytest does not collect this file.
"""

import contextlib
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from blindmfg.cli import main  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(8)


def _runs():
    """(name, command, config) of every run, workloads first."""
    for name, (command, build) in WORKLOADS.items():
        for seed in SEEDS:
            yield f"{name}/{seed}", command, build(seed)
    readme = (ROOT / "README.md").read_text()
    for command, path in re.findall(r"^blindmfg +([a-z-]+) +--config +(configs/\S+\.json)",
                                    readme, flags=re.MULTILINE):
        yield path, command, json.loads((ROOT / path).read_text())


def _digests(command: str, cfg: dict) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps(cfg))
        # the commands print their findings; stdout carries the JSON only
        with contextlib.redirect_stdout(sys.stderr):
            code = main([command, "--config", str(config), "--out", str(out)])
        manifest = out / "manifest.json"
        artifacts = json.loads(manifest.read_text())["artifacts"] if manifest.exists() else None
    return {"exit": code, "artifacts": artifacts}


def report() -> None:
    digests = {name: _digests(command, cfg) for name, command, cfg in _runs()}
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    report()
