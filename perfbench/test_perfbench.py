"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest perfbench

They check that tracing leaves results unchanged, that the traced counts
repeat exactly, that each output check passes on a correct run and fails
on a corrupted one, and that a failed check is counted.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import pytest

import checks
import probe as bench_probe
import run as bench_run
import tracer as bench_tracer
from workloads import WORKLOADS, blind3_config, race_config

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _small(workload: str, seed: int = 0) -> dict:
    """A reduced config of each workload, for runs of about a second."""
    if workload == "race":
        return race_config(seed, T=0.2, steps=60)
    cfg = WORKLOADS[workload][1](seed)
    if workload == "blind3":
        cfg["grid"]["n"] = 64
        cfg["time"]["steps"] = 128
    else:
        cfg["certify"]["trials"] = 200
    return cfg


def _run(tmp: Path, workload: str, cfg: dict, traced: bool):
    """One CLI run of `cfg`; returns (Run, artifacts moved to tmp/<n>)."""
    work = tmp / "work"
    work.mkdir(exist_ok=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    result, out = bench_run.run_child(ROOT, work, workload, cfg_path, traced,
                                      time.monotonic() + 300)
    kept = tmp / f"out{len(list(tmp.glob('out*')))}"
    shutil.move(str(out), str(kept))
    return result, kept


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_leaves_results_unchanged(tmp_path, workload):
    cfg = _small(workload)
    plain, plain_out = _run(tmp_path, workload, cfg, traced=False)
    traced, traced_out = _run(tmp_path, workload, cfg, traced=True)
    assert plain.ok and traced.ok, plain.problems + traced.problems
    assert traced.layers and not plain.layers
    names = {"race": ["summary.json", "trace.json"],
             "blind3": ["summary.json", "u.csv", "m.csv"],
             "certify": ["report.json"]}[workload]
    for name in names:
        assert (plain_out / name).read_bytes() == (traced_out / name).read_bytes()


COUNTS = ("solver.iterations", "solver.map_apps_per_iter", "hjb_fp.node_steps",
          "payments.trace_retained_mb", "cli.bytes_written")


@pytest.mark.parametrize("workload", ["race", "certify"])
def test_traced_counts_repeat(tmp_path, workload):
    cfg = _small(workload)
    first, _ = _run(tmp_path, workload, cfg, traced=True)
    second, _ = _run(tmp_path, workload, cfg, traced=True)
    keys = [k for k in bench_tracer.LAYER_METRICS
            if k.endswith(".n") or k in COUNTS]
    assert {k: first.layers[k] for k in keys} == {k: second.layers[k] for k in keys}
    if workload == "race":
        assert first.layers["payments.events"] == 1
        assert first.layers["hjb_fp.solve_hjb_backward.n"] > 0
        assert first.layers["payments.replan.n"] == 20
    else:
        assert first.layers["monotonicity.lifted_pairing.n"] == 200
        assert first.layers["hjb_fp.solve_hjb_backward.n"] == 0


def test_tracer_wraps_every_reference_and_restores_it():
    import blindmfg.beliefs as beliefs
    import blindmfg.hjb_fp as hjb_fp
    import blindmfg.solver as solver

    originals = (hjb_fp.implicit_diffusion, solver.implicit_diffusion,
                 beliefs.BeliefPath.belief_at)
    t = bench_tracer.Tracer()
    t.install()
    try:
        assert solver.implicit_diffusion is hjb_fp.implicit_diffusion
        assert solver.implicit_diffusion.__wrapped__ is originals[0]
        assert beliefs.BeliefPath.belief_at.__wrapped__ is originals[2]
    finally:
        t.uninstall()
    assert (hjb_fp.implicit_diffusion, solver.implicit_diffusion,
            beliefs.BeliefPath.belief_at) == originals


def test_self_time_excludes_wrapped_children():
    import blindmfg.hjb_fp as hjb_fp
    import numpy as np
    from blindmfg.torus import build_grid

    grid = build_grid(1, 64)
    t = bench_tracer.Tracer()
    t.install()
    try:
        hjb_fp.fp_step(grid, np.ones(64), np.zeros((1, 64)), 0.05, 0.01)
    finally:
        t.uninstall()
    calls, total, child = t.stats["hjb_fp.fp_step"]
    assert calls == 1
    assert t.stats["hjb_fp.implicit_diffusion"][0] == 1
    assert child == t.stats["hjb_fp.implicit_diffusion"][1]
    assert 0 < child < total
    assert t.edges[("hjb_fp.fp_step", "hjb_fp.implicit_diffusion")] == 1
    assert t.counts["node_steps"] == 64


def _corrupt_race(out: Path):
    path = out / "trace.json"
    trace = json.loads(path.read_text())
    trace["events"][0]["time"] += 0.01
    path.write_text(json.dumps(trace))


def _corrupt_blind3(out: Path):
    path = out / "u.csv"
    lines = path.read_text().splitlines(keepends=True)
    t, x, u = lines[5].rstrip("\r\n").split(",")
    lines[5] = f"{t},{x},{float(u) + 1e-5!r}\r\n"
    path.write_text("".join(lines))


def _corrupt_certify(out: Path):
    path = out / "report.json"
    report = json.loads(path.read_text())
    report["min_pairing"] *= 1 + 1e-6
    path.write_text(json.dumps(report))


CORRUPT = {
    "race": _corrupt_race,
    "blind3": _corrupt_blind3,
    "certify": _corrupt_certify,
}


@pytest.mark.parametrize("workload,seed", [("race", 1), ("blind3", 3),
                                           ("certify", 5)])
def test_checks_pass_correct_and_fail_corrupted_output(tmp_path, workload, seed):
    cfg = WORKLOADS[workload][1](seed)
    result, out = _run(tmp_path, workload, cfg, traced=False)
    assert result.ok, result.problems
    assert checks.check(workload, out, cfg, seed) == []
    CORRUPT[workload](out)
    assert checks.check(workload, out, cfg, seed)


def test_failed_check_counts_as_failed():
    good = bench_run.Run(wall_s=3.0, setup_cpu_s=0.8, cpu_s=3.0,
                         peak_rss_mb=90.0, problems=[], speed=0.5)
    bad = bench_run.Run(wall_s=1.0, setup_cpu_s=0.8, cpu_s=1.0,
                        peak_rss_mb=90.0, speed=0.5,
                        problems=["u.csv: t=0 slice off the reference"])
    result = bench_run.summarize([good, bad, good], trace=False)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 1)
    assert result["metrics"]["run_s"]["value"] == 1.5
    assert result["metrics"]["setup_s"]["value"] == 0.4


def test_traced_summary_reports_every_layer_metric():
    plain = bench_run.Run(wall_s=2.0, setup_cpu_s=0.8, cpu_s=2.0,
                          peak_rss_mb=90.0, problems=[], speed=1.0)
    layers = dict.fromkeys(bench_tracer.LAYER_METRICS, 1.0)
    del layers["tracing.overhead_frac"]
    traced = bench_run.Run(wall_s=2.5, setup_cpu_s=0.8, cpu_s=2.5,
                           peak_rss_mb=90.0, problems=[], speed=1.0,
                           traced=True, layers=layers)
    result = bench_run.summarize([plain, traced], trace=True)
    assert list(result["metrics"]) == list(bench_tracer.LAYER_METRICS)
    assert result["metrics"]["tracing.overhead_frac"]["value"] == 0.25
    assert result["metrics"]["solver.iterations"]["value"] == 1.0


def test_probe_measures_speed_and_stops(tmp_path):
    with bench_probe.Probe(tmp_path / "probe.bin") as probe:
        before = probe.read()
        time.sleep(0.2)
        speed = probe.speed(before, probe.read())
        process = probe._proc
    assert speed > 0
    assert process.poll() is not None


def test_default_race_is_the_illustrative_config():
    text = (ROOT / "configs" / "illustrative.json").read_text()
    assert json.dumps(race_config(0, T=2.0, steps=600), indent=2) + "\n" == text


def test_blind3_variant_zero_is_the_unmoved_belief():
    belief = blind3_config(0)["belief"]
    assert belief["weights"] == [0.3, 0.3, 0.4]
    assert [a["center"] for a in belief["atoms"]] == [0.15, 0.45, 0.75]
    assert blind3_config(8) == blind3_config(0)


def test_refuses_to_run_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert bench_run.main(["--workload", "race", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (k, unit, better) for k, (unit, better) in bench_tracer.LAYER_METRICS.items()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, unit) for k, unit in bench_run.END_TO_END.items()]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
