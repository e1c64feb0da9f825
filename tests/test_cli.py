import csv
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from blindmfg import cli
from blindmfg.beliefs import Belief, _weighted_sum
from blindmfg.cli import MAX_STATE_BYTES, _state_bytes, _write_path_csv, main
from blindmfg.hjb_fp import TimeGrid
from blindmfg.monotonicity import _block_trials
from blindmfg.solver import solve_blind
from blindmfg.torus import build_grid
from conftest import race_config


def write_config(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def base_complete_config():
    return {
        "grid": {"dim": 1, "n": 64},
        "time": {"T": 0.5, "steps": 128},
        "sigma": 0.1,
        "hamiltonian": {"kind": "smoothed_abs", "delta": 0.5},
        "cost": {"id": "product_form",
                 "phi": {"kind": "cosine", "amplitude": 0.3}},
        "density": {"weights": [1.0],
                    "atoms": [{"kind": "dirac", "center": 0.3}]},
        "solver": {"tol": 1e-8},
    }


def blind_config():
    cfg = base_complete_config()
    cfg["belief"] = cfg.pop("density")
    return cfg


class TestSolveComplete:
    def test_zero_cost_exits_clean(self, tmp_path):
        cfg = base_complete_config()
        cfg["cost"] = {"id": "zero"}
        path = write_config(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main(["solve-complete", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"]
        assert summary["iterations"] <= 2

    def test_artifacts_and_manifest(self, tmp_path):
        path = write_config(tmp_path, "c.json", base_complete_config())
        out = tmp_path / "out"
        assert main(["solve-complete", "--config", path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == {"u.csv", "m.csv", "summary.json",
                                              "history.csv"}
        for name in manifest["artifacts"]:
            assert (out / name).exists()
        assert manifest["config"]["sigma"] == 0.1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["gap"] < 1e-8

    def test_manifest_keeps_config_as_given(self, tmp_path):
        cfg = base_complete_config()
        cfg["cost"] = {"id": "zero"}
        path = write_config(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main(["solve-complete", "--config", path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # solver.relaxation and solver.max_iter take their defaults unrecorded
        assert manifest["config"] == cfg

    def test_validation_failure_field_path(self, tmp_path, capsys):
        cfg = base_complete_config()
        cfg["sigma"] = -0.1
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["solve-complete", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        (None, "sigma", float("nan")), (None, "sigma", float("inf")),
        ("solver", "tol", float("nan")), ("time", "T", float("inf"))])
    def test_non_finite_number_exit_2(self, tmp_path, capsys, section, key, value):
        cfg = base_complete_config()
        (cfg[section] if section else cfg)[key] = value
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["solve-complete", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert (f"{section}.{key}" if section else key) in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = base_complete_config()
        cfg["hamiltonian"]["viscosity"] = 1.0
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["solve-complete", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "hamiltonian.viscosity" in capsys.readouterr().err


class TestSolveBlind:
    def test_single_atom_byte_identical_to_complete(self, tmp_path):
        cpath = write_config(tmp_path, "c.json", base_complete_config())
        bpath = write_config(tmp_path, "b.json", blind_config())
        oc, ob = tmp_path / "oc", tmp_path / "ob"
        assert main(["solve-complete", "--config", cpath, "--out", str(oc)]) == 0
        assert main(["solve-blind", "--config", bpath, "--out", str(ob)]) == 0
        assert (oc / "u.csv").read_bytes() == (ob / "u.csv").read_bytes()

    def test_two_atom_artifacts(self, tmp_path):
        cfg = blind_config()
        cfg["belief"] = {"weights": [0.5, 0.5],
                         "atoms": [{"kind": "dirac", "center": 0.2},
                                   {"kind": "dirac", "center": 0.6}]}
        path = write_config(tmp_path, "b.json", cfg)
        out = tmp_path / "out"
        assert main(["solve-blind", "--config", path, "--out", str(out)]) == 0
        for name in ("belief_path.json", "m_atoms.npy", "history.csv"):
            assert (out / name).exists()
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "iter,drift_gap,value_change"
        assert len(history) > 2

    def test_forced_nonconvergence_exit_3(self, tmp_path):
        cfg = blind_config()
        cfg["solver"] = {"max_iter": 1, "relaxation": 0.5}
        path = write_config(tmp_path, "b.json", cfg)
        out = tmp_path / "out"
        assert main(["solve-blind", "--config", path, "--out", str(out)]) == 3
        # artifacts still written with diagnostics
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["converged"]
        assert (out / "u.csv").exists()

    def test_non_finite_gap_exit_3_with_diagnostics(self, tmp_path, monkeypatch):
        import blindmfg.cli as cli

        build_cost = cli._build_cost

        def nan_cost(cfg, grid):
            cm = build_cost(cfg, grid)
            return replace(cm, a=np.full(grid.shape, np.nan))

        monkeypatch.setattr(cli, "_build_cost", nan_cost)
        path = write_config(tmp_path, "b.json", blind_config())
        out = tmp_path / "out"
        assert main(["solve-blind", "--config", path, "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["converged"] and summary["iterations"] == 1
        assert (out / "history.csv").read_text().splitlines()[1].startswith("1,nan,")

    def test_non_finite_diagnostics_are_strict_json(self, tmp_path, monkeypatch):
        import blindmfg.cli as cli

        build_cost = cli._build_cost
        monkeypatch.setattr(cli, "_build_cost", lambda cfg, grid: replace(
            build_cost(cfg, grid), a=np.full(grid.shape, np.nan)))
        path = write_config(tmp_path, "b.json", blind_config())
        out = tmp_path / "out"
        assert main(["solve-blind", "--config", path, "--out", str(out)]) == 3

        def reject(token):
            raise ValueError(f"not strict JSON: {token}")

        docs = {p.name: json.loads(p.read_text(), parse_constant=reject)
                for p in out.glob("*.json")}
        assert {"summary.json", "manifest.json", "telemetry.json",
                "belief_path.json"} <= set(docs)
        assert docs["summary.json"]["gap"] is None
        assert docs["summary.json"]["hjb_residual"] is None

    def test_determinism(self, tmp_path):
        path = write_config(tmp_path, "b.json", blind_config())
        o1, o2 = tmp_path / "o1", tmp_path / "o2"
        main(["solve-blind", "--config", path, "--out", str(o1)])
        main(["solve-blind", "--config", path, "--out", str(o2)])
        manifest = json.loads((o1 / "manifest.json").read_text())
        assert "telemetry.json" not in manifest["artifacts"]
        for name in list(manifest["artifacts"]) + ["manifest.json"]:
            assert (o1 / name).read_bytes() == (o2 / name).read_bytes(), name
        telemetry = json.loads((o1 / "telemetry.json").read_text())
        summary = json.loads((o1 / "summary.json").read_text())
        assert len(telemetry["wall_time"]) == summary["iterations"]

    def test_telemetry_times_the_writes_and_comes_last(self, tmp_path):
        path = write_config(tmp_path, "b.json", blind_config())
        out = tmp_path / "out"
        assert main(["solve-blind", "--config", path, "--out", str(out)]) == 0
        telemetry = out / "telemetry.json"
        assert json.loads(telemetry.read_text())["write_s"] > 0
        assert all(p.stat().st_mtime_ns <= telemetry.stat().st_mtime_ns
                   for p in out.iterdir() if p.name != "manifest.json")


@pytest.mark.parametrize("grid,center", [({"dim": 1, "n": 64}, [0.2, 0.6]),
                                         ({"dim": 2, "n": 16}, [[0.2, 0.3], [0.6, 0.7]])])
class TestAtomPaths:
    """m_atoms.npy is the solver's (K, steps+1, *grid) atom stack, and
    with belief_path.json's weights it gives m.csv's column."""

    @staticmethod
    def run(tmp_path, grid, center):
        cfg = dict(blind_config(), grid=grid, time={"T": 0.25, "steps": 32})
        cfg["belief"] = {"weights": [0.3, 0.7],
                         "atoms": [{"kind": "dirac", "center": c} for c in center]}
        path = write_config(tmp_path, "b.json", cfg)
        out = tmp_path / "out"
        assert main(["solve-blind", "--config", path, "--out", str(out)]) == 0
        return cfg, out, np.load(out / "m_atoms.npy", allow_pickle=False)

    def test_bits_of_the_solver_stack(self, tmp_path, grid, center):
        cfg, out, saved = self.run(tmp_path, grid, center)
        g, tg, sigma, H, cm, mu0, scfg = cli._build_game(cfg, "belief")
        values = solve_blind(mu0, cm, H, sigma, tg, scfg).belief.values
        assert saved.shape == (2, 33) + g.shape
        assert saved.dtype == values.dtype == np.float64
        assert saved.tobytes() == values.tobytes()
        doc = json.loads((out / "belief_path.json").read_text())
        assert doc["series"] == "m_atoms.npy"
        assert all("series_csv" not in atom for atom in doc["atoms"])

    def test_weighted_slices_give_m_csv(self, tmp_path, grid, center):
        _, out, saved = self.run(tmp_path, grid, center)
        weights = np.array([a["weight"] for a in
                            json.loads((out / "belief_path.json").read_text())["atoms"]])
        with open(out / "m.csv", newline="") as fh:
            column = [float(row[-1]) for row in list(csv.reader(fh))[1:]]
        m = np.stack([_weighted_sum(weights, atoms) for atoms in saved.swapaxes(0, 1)])
        assert m.ravel().tolist() == column


def _far_dirac_center():
    cfg = blind_config()
    cfg["belief"]["atoms"][0]["center"] = 1e300
    return cfg


def _overflowing_test_function():
    shipped = Path(__file__).resolve().parents[1] / "configs" / "weak.json"
    cfg = json.loads(shipped.read_text())
    cfg["phi"]["inner"]["amplitude"] = 1e308
    return cfg


@pytest.mark.parametrize("command,make,code,err", [
    ("solve-blind", _far_dirac_center, 2, ["config error at belief.atoms[0].center:"]),
    ("validate-weak", _overflowing_test_function, 3, [])])
def test_clean_exits_print_no_numpy_warning(tmp_path, command, make, code, err):
    """A Dirac centre of 1e300 and a test function of amplitude 1e308
    overflow inside numpy.  The exit code, and for a config error its one
    line, say so; no RuntimeWarning reaches stderr."""
    path = write_config(tmp_path, "c.json", make())
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-m", "blindmfg.cli", command, "--config", path,
                          "--out", str(tmp_path / "o")], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert run.returncode == code
    assert "RuntimeWarning" not in run.stderr
    lines = run.stderr.splitlines()
    assert len(lines) == len(err) and all(map(str.startswith, lines, err))


class TestSimulateObserved:
    @staticmethod
    def scenario_path(tmp_path, **overrides):
        cfg = race_config(64, 150, observation_dt=0.04)
        cfg.update(overrides)
        return write_config(tmp_path, "sim.json", cfg)

    def test_elimination_event_recorded(self, tmp_path):
        path = self.scenario_path(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate-observed", "--config", path,
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_events"] == 1
        assert summary["final_n_atoms"] == 1
        trace = json.loads((out / "trace.json").read_text())
        assert trace["true_atom"] == 0
        assert (out / "trace.csv").exists()

    def test_constant_cost_no_events(self, tmp_path):
        path = self.scenario_path(
            tmp_path, cost={"id": "constant", "field": {"kind": "well"}})
        out = tmp_path / "out"
        assert main(["simulate-observed", "--config", path,
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_events"] == 0

    def test_grouping_key_rejected(self, tmp_path, capsys):
        path = self.scenario_path(tmp_path, filter={
            "tolerance": 0.05, "observation_dt": 0.04, "grouping": "union_find"})
        assert main(["simulate-observed", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "filter.grouping" in capsys.readouterr().err

    def test_averaging_key_rejected(self, tmp_path, capsys):
        path = self.scenario_path(tmp_path, solver={
            "relaxation": 1.0, "tol": 1e-9, "max_iter": 60, "averaging": "picard"})
        assert main(["simulate-observed", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "solver.averaging" in capsys.readouterr().err

    def test_missing_solver_exit_2(self, tmp_path, capsys):
        cfg = race_config(64, 128, observation_dt=0.01)
        del cfg["solver"]
        path = write_config(tmp_path, "sim.json", cfg)
        assert main(["simulate-observed", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "config.solver" in capsys.readouterr().err

    def test_negative_observation_dt_exit_2(self, tmp_path, capsys):
        path = self.scenario_path(tmp_path, filter={
            "tolerance": 0.05, "observation_dt": -1.0})
        assert main(["simulate-observed", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "filter.observation_dt" in capsys.readouterr().err

    def test_bad_true_atom_exit_2(self, tmp_path, capsys):
        path = self.scenario_path(tmp_path, true_atom=5)
        assert main(["simulate-observed", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "true_atom" in capsys.readouterr().err

    def test_observation_dt_off_the_time_grid_exit_2(self, tmp_path, capsys):
        cfg = race_config(64, 150, observation_dt=0.01)
        dt = cfg["time"]["T"] / cfg["time"]["steps"]
        cfg["filter"]["observation_dt"] = 1.5 * dt
        path = write_config(tmp_path, "sim.json", cfg)
        assert main(["simulate-observed", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error at filter.observation_dt:" in err
        assert "multiple of the solver dt" in err

    def test_payment_inconsistent_prior_exit_2(self, tmp_path, capsys):
        # an atom in the payment well pays differently from one outside it
        cfg = race_config(64, 150, observation_dt=0.04)
        cfg["belief"]["atoms"][1]["center"] = 0.33
        path = write_config(tmp_path, "sim.json", cfg)
        assert main(["simulate-observed", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error at belief:" in err
        assert "filter.tolerance" in err


    def test_overflowing_payments_exit_3_with_trace(self, tmp_path, capsys):
        # phi * ∫phi dm overflows to ±inf: the opening solve's gap is NaN,
        # so the trace ends at t = 0 before any observation under its drift
        cfg = {"grid": {"dim": 1, "n": 256}, "time": {"T": 0.1, "steps": 30},
               "sigma": 0.0, "hamiltonian": {"kind": "abs"},
               "cost": {"id": "product_form",
                        "phi": {"kind": "cosine", "amplitude": 1e160}},
               "belief": {"weights": [1.0], "atoms": [{"kind": "dirac", "center": 0.3}]},
               "filter": {"tolerance": 1e-6}, "true_atom": 0,
               "solver": {"relaxation": 1.0, "tol": 1e-9, "max_iter": 5}}
        path = write_config(tmp_path, "sim.json", cfg)
        out = tmp_path / "out"
        assert main(["simulate-observed", "--config", path, "--out", str(out)]) == 3
        assert "config error" not in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["segments_converged"] is False
        trace = json.loads((out / "trace.json").read_text())
        assert trace["times"] == [0.0] and trace["segments_converged"] == [False]
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["artifacts"]) == ["summary.json", "trace.csv", "trace.json"]
        assert len((out / "trace.csv").read_text().splitlines()) == 2

    def test_non_finite_payment_ends_trace_exit_3(self, tmp_path, monkeypatch):
        # payments that turn NaN after t = 0 under converged solves: the
        # true atom no longer matches its own payment, so the trace stops
        import blindmfg.payments as payments

        signatures = payments._signatures
        first = {}

        def nan_after_start(mu, cm):
            m0 = first.setdefault("values", mu.values)
            sigs = signatures(mu, cm)
            return sigs if np.array_equal(mu.values, m0) else sigs * np.nan

        monkeypatch.setattr(payments, "_signatures", nan_after_start)
        path = self.scenario_path(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate-observed", "--config", path, "--out", str(out)]) == 3
        trace = json.loads((out / "trace.json").read_text())
        assert trace["times"] == [0.0] and trace["segments_converged"] == [True]


class TestCertifyMonotone:
    @staticmethod
    def config(cost, trials):
        return {
            "grid": {"dim": 1, "n": 64},
            "cost": cost,
            "certify": {"trials": trials, "seed": 7},
        }

    def test_product_form_clean(self, tmp_path):
        path = write_config(tmp_path, "c.json", self.config(
            {"id": "product_form", "phi": {"kind": "cosine"}}, 200))
        out = tmp_path / "out"
        assert main(["certify-monotone", "--config", path,
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["min_pairing"] >= -1e-10
        assert report["nonnegative"]

    def test_sqrt_moment_violation_is_finding_not_error(self, tmp_path):
        path = write_config(tmp_path, "c.json", self.config(
            {"id": "moment_form", "g": "sqrt"}, 500))
        out = tmp_path / "out"
        assert main(["certify-monotone", "--config", path,
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["min_pairing"] < 0
        assert not report["nonnegative"]
        assert "witness" in report

    def test_non_finite_pairing_exit_3_with_report(self, tmp_path):
        """configs/certify_product.json with an amplitude whose costs
        overflow: every pairing is NaN, a numerical failure.  The run exits
        3 at the first trial and still writes report.json, naming it."""
        shipped = Path(__file__).resolve().parents[1] / "configs" / "certify_product.json"
        cfg = json.loads(shipped.read_text())
        cfg["cost"]["phi"]["amplitude"] = 1e200
        cfg["certify"]["trials"] = 20
        path = write_config(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main(["certify-monotone", "--config", path, "--out", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["min_pairing"] is None
        assert report["nonfinite_trial"] == 0
        assert report["trials"] == 1
        assert not report["nonnegative"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["artifacts"]) == ["report.json"]

    def test_telemetry_times_the_phases_outside_the_manifest(self, tmp_path):
        path = write_config(tmp_path, "c.json", self.config(
            {"id": "moment_form", "g": "sqrt"}, 50))
        out = tmp_path / "out"
        assert main(["certify-monotone", "--config", path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["artifacts"]) == ["report.json"]
        telemetry = json.loads((out / "telemetry.json").read_text())
        assert set(telemetry) == {"draw_s", "build_s", "pair_s", "write_s"}
        assert all(isinstance(v, float) and v >= 0 for v in telemetry.values())

    def test_zero_trials_exit_2(self, tmp_path):
        path = write_config(tmp_path, "c.json", self.config(
            {"id": "moment_form", "g": "sqrt"}, 0))
        assert main(["certify-monotone", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key,value", [
        ("trials", float("nan")), ("trials", float("inf")), ("trials", 1e15),
        ("max_atoms", 100), ("seed", -1)])
    def test_bad_certify_field_exit_2(self, tmp_path, capsys, key, value):
        cfg = self.config({"id": "moment_form", "g": "sqrt"}, 10)
        cfg["certify"][key] = value
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["certify-monotone", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert f"certify.{key}" in capsys.readouterr().err

    def test_manifest_has_no_threads_key(self, tmp_path):
        path = write_config(tmp_path, "c.json", self.config(
            {"id": "moment_form", "g": "sqrt"}, 10))
        out = tmp_path / "out"
        assert main(["certify-monotone", "--config", path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {"command", "config", "artifacts"}
        for flag, value in (("--threads", "2"), ("--seed", "1")):
            with pytest.raises(SystemExit) as exc:
                main(["certify-monotone", "--config", path, flag, value])
            assert exc.value.code == 2


class TestValidateWeak:
    @staticmethod
    def config(**overrides):
        cfg = {
            "grid": {"dim": 1, "n": 64},
            "time": {"T": 0.4, "steps": 64},
            "sigma": 0.05,
            "drift": {"kind": "sine", "amplitude": 0.5},
            "belief": {"weights": [0.3, 0.7],
                       "atoms": [{"kind": "dirac", "center": 0.2},
                                 {"kind": "dirac", "center": 0.6}]},
            "phi": {"inner": {"kind": "cosine"}},
            "ladder": {"levels": 3},
        }
        cfg.update(overrides)
        return cfg

    def test_pushforward_ladder_order(self, tmp_path):
        path = write_config(tmp_path, "w.json", self.config())
        out = tmp_path / "out"
        assert main(["validate-weak", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["residuals"]) == 3
        assert report["order_ok"]
        assert all(o >= 0.8 for o in report["orders"])

    def test_perturbed_path_violation_detected(self, tmp_path):
        path = write_config(tmp_path, "w.json", self.config(
            perturb={"at_fraction": 0.5, "weights": [0.5, 0.5]},
            ladder={"levels": 2}))
        out = tmp_path / "out"
        assert main(["validate-weak", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["violation"]["detected"]

    def test_perturbation_at_the_horizon_exit_2(self, tmp_path, capsys):
        """at_fraction 1 re-weights no step the residual sums (steps 0 to
        steps - 1 of the finest level), so the perturbed residual would be
        the baseline's and the check could never detect."""
        path = write_config(tmp_path, "w.json", self.config(
            perturb={"at_fraction": 1.0, "weights": [0.5, 0.5]}, ladder={"levels": 2}))
        out = tmp_path / "out"
        assert main(["validate-weak", "--config", path, "--out", str(out)]) == 2
        assert "config error at perturb.at_fraction:" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_ladder_builds_no_belief_per_time_step(self, tmp_path, monkeypatch):
        """configs/weak.json checks one belief stack per level, the base
        belief and the perturbed weights: the perturbed path is a weight
        series, not 1025 Beliefs."""
        built = []
        from_stack = Belief.from_stack
        monkeypatch.setattr(Belief, "from_stack", staticmethod(
            lambda *args: (built.append(args), from_stack(*args))[1]))
        path = Path(__file__).resolve().parents[1] / "configs" / "weak.json"
        levels = json.loads(path.read_text())["ladder"]["levels"]
        assert main(["validate-weak", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["violation"]["detected"]
        assert len(built) <= levels + 2

    def test_null_bandwidth_exit_2(self, tmp_path, capsys):
        cfg = self.config()
        cfg["belief"]["atoms"][1]["bandwidth"] = None
        path = write_config(tmp_path, "w.json", cfg)
        assert main(["validate-weak", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "config error at belief.atoms[1].bandwidth:" in capsys.readouterr().err

    @pytest.mark.parametrize("inner", [{"kind": "constant", "value": 0.0},
                                       {"kind": "constant", "value": 1.0},
                                       {"kind": "cosine", "amplitude": 0.0}])
    def test_constant_inner_field_exit_2(self, tmp_path, capsys, inner):
        """A constant h gives every density the same ∫ h dm: the ladder
        would read rounding as residuals and report orders from it."""
        path = write_config(tmp_path, "w.json", _weak_config(phi={"inner": inner}))
        out = tmp_path / "o"
        assert main(["validate-weak", "--config", path, "--out", str(out)]) == 2
        assert "config error at phi.inner:" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_missing_phi_exit_2(self, tmp_path, capsys):
        cfg = self.config()
        del cfg["phi"]
        path = write_config(tmp_path, "w.json", cfg)
        assert main(["validate-weak", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "phi" in capsys.readouterr().err

    def test_non_finite_residual_exit_3(self, tmp_path):
        """A test function whose values overflow is a numerical failure:
        exit 3, and the report is still written and listed, its residuals
        as null."""
        path = write_config(tmp_path, "w.json", _weak_config(
            phi={"inner": {"kind": "cosine", "amplitude": 1e308}}, ladder={"levels": 2}))
        out = tmp_path / "o"
        assert main(["validate-weak", "--config", path, "--out", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["residuals"] == [None, None]
        assert report["violation"]["perturbed_residual"] is None
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["artifacts"]) == ["report.json"]

    @pytest.mark.parametrize("drift", [{"kind": "constant", "value": 0},
                                       {"kind": "sine", "amplitude": 0}])
    def test_static_path_exit_2(self, tmp_path, capsys, drift):
        """No drift and no diffusion leave the path static, an exact weak
        solution whose residuals are rounding and whose orders mean nothing."""
        path = write_config(tmp_path, "w.json", _weak_config(sigma=0, drift=drift))
        out = tmp_path / "o"
        assert main(["validate-weak", "--config", path, "--out", str(out)]) == 2
        assert "config error at drift:" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_zero_drift_with_diffusion_exit_0(self, tmp_path):
        path = write_config(tmp_path, "w.json", _weak_config(
            drift={"kind": "constant", "value": 0}, ladder={"levels": 2}))
        assert main(["validate-weak", "--config", path,
                     "--out", str(tmp_path / "o")]) == 0


def _weak_config(**overrides):
    perturb = {"at_fraction": 0.5, "weights": [0.7, 0.3]}
    return TestValidateWeak.config(**{"perturb": perturb, **overrides})


def _certify_config(**cost):
    return TestCertifyMonotone.config({"id": "moment_form", **cost}, 10)


def _blind_atom(atom):
    return dict(blind_config(), belief={"weights": [1.0], "atoms": [atom]})


class TestMalformedConfig:
    """Malformed sections exit 2 at their field path, never with a traceback."""

    @pytest.mark.parametrize("command,cfg,field", [
        ("validate-weak", _weak_config(belief=[0.3, 0.7]), "belief"),
        ("validate-weak",
         _weak_config(perturb={"at_fraction": 0.5, "weights": ["a", "b"]}),
         "perturb.weights"),
        ("validate-weak",
         _weak_config(perturb={"at_fraction": 0.5, "weights": [1.5, -0.5]}),
         "perturb.weights"),
        ("certify-monotone", _certify_config(g=["sqrt"]), "cost.g"),
        ("solve-blind",
         dict(blind_config(), belief={"weights": [1.0], "atoms": [[1, 2, 3]]}),
         "belief.atoms"),
        ("certify-monotone",
         dict(_certify_config(g="sqrt"), grid={"dim": 2, "n": 16}), "cost.id"),
        ("simulate-observed",
         dict(race_config(64, 128, observation_dt=0.01),
              filter={"tolerance": 0.05, "observation_dt": 1e308}),
         "filter.observation_dt"),
        ("solve-blind", _blind_atom({"kind": "dirac"}), "belief.atoms[0].center"),
        ("solve-blind", _blind_atom({"kind": "delta", "center": 0.3}),
         "belief.atoms[0].kind"),
        ("solve-blind", _blind_atom({"kind": "dirac", "center": 0.3, "bandwith": 0.05}),
         "belief.atoms[0].bandwith"),
        ("solve-blind", _blind_atom({"kind": "grid"}), "belief.atoms[0].values"),
        ("solve-blind", _blind_atom({"kind": "grid", "values": [1.0] * 64, "center": 0.3}),
         "belief.atoms[0].center"),
        # an atom that fails to build exits at the key that made it fail
        ("solve-blind", _blind_atom({"kind": "dirac", "center": "x"}),
         "belief.atoms[0].center"),
        ("solve-blind", _blind_atom({"kind": "dirac", "center": [0.2, 0.3]}),
         "belief.atoms[0].center"),
        ("solve-blind", _blind_atom({"kind": "dirac", "center": 0.3, "bandwidth": 0.001}),
         "belief.atoms[0].bandwidth"),
        ("solve-blind", _blind_atom({"kind": "grid", "values": [1.0, 2.0]}),
         "belief.atoms[0].values"),
        ("solve-blind",
         dict(blind_config(), belief={"weights": [0.5, 0.6],
                                      "atoms": [{"kind": "dirac", "center": 0.2},
                                                {"kind": "dirac", "center": 0.6}]}),
         "belief.weights"),
        ("solve-blind", dict(blind_config(), belief={"weights": [], "atoms": []}),
         "belief.atoms"),
        # a bool is no number, in a list as in a scalar field
        ("solve-blind", _blind_atom({"kind": "dirac", "center": True}),
         "belief.atoms[0].center"),
        ("solve-blind", dict(blind_config(), belief={
            "weights": [True], "atoms": [{"kind": "dirac", "center": 0.3}]}),
         "belief.weights"),
        ("solve-blind", _blind_atom({"kind": "grid", "values": [True, False] * 32}),
         "belief.atoms[0].values"),
        ("validate-weak", _weak_config(
            belief={"weights": [1.0], "atoms": [{"kind": "dirac", "center": 0.2}]},
            perturb={"at_fraction": 0.5, "weights": [True]}), "perturb.weights"),
        ("validate-weak",
         _weak_config(belief={"weights": [0.3, 0.7],
                              "atoms": [{"kind": "grid", "values": [1.0] * 64},
                                        {"kind": "dirac", "center": 0.6}]}),
         "belief.atoms[0].kind"),
        # --out names the directory, but the output section is still checked
        ("solve-complete", dict(base_complete_config(), output={"directory": ["o"]}),
         "output.directory"),
        ("solve-complete", dict(base_complete_config(), output={"unread_key": 0}),
         "output.unread_key"),
        ("solve-complete", dict(base_complete_config(), output="o"), "output"),
        # a bound the library also checks is reported at its own key
        ("solve-complete", dict(base_complete_config(), solver={"relaxation": 0}),
         "solver.relaxation"),
        ("solve-complete", dict(base_complete_config(), solver={"relaxation": 1.5}),
         "solver.relaxation"),
        ("solve-complete", dict(base_complete_config(), solver={"tol": 0}), "solver.tol"),
        # more nodes or steps than the memory cap holds floats; the size
        # estimate of the first and the third overflowed a float
        ("solve-blind", dict(blind_config(), grid={"dim": 2, "n": 1e200}), "grid.n"),
        ("solve-blind", dict(blind_config(), time={"T": 1e300, "steps": 1e300}),
         "time.steps"),
        ("certify-monotone",
         dict(_certify_config(g="sqrt"), grid={"dim": 2, "n": 1e300}), "grid.n"),
        # work caps: a run of 1e15 iterations would never end
        ("solve-complete", dict(base_complete_config(), solver={"max_iter": 1e15}),
         "solver.max_iter"),
        ("solve-complete",
         dict(base_complete_config(), hamiltonian={"kind": "capped_quadratic", "cap": 0}),
         "hamiltonian.cap"),
        ("simulate-observed",
         dict(race_config(64, 128, observation_dt=0.01),
              filter={"tolerance": 0}), "filter.tolerance"),
        ("simulate-observed",
         dict(race_config(64, 128, observation_dt=0.01),
              filter={"tolerance": -1}), "filter.tolerance"),
        ("solve-complete", dict(base_complete_config(), grid={"dim": 1, "n": 64.5}),
         "grid.n"),
        ("solve-complete",
         dict(base_complete_config(),
              cost={"id": "product_form", "phi": {"kind": "constant"}}),
         "cost.phi.value"),
        ("solve-complete",
         {k: v for k, v in base_complete_config().items() if k != "density"}, "density"),
        ("solve-complete",
         dict(base_complete_config(),
              density={"weights": [0.2, 0.3, 0.5],
                       "atoms": [{"kind": "dirac", "center": c} for c in (0.2, 0.5, 0.8)]}),
         "density"),
        ("solve-complete",
         dict(base_complete_config(), cost={"id": "illustrative", "coupling": 1.5}),
         "cost.coupling"),
        ("solve-complete",
         dict(base_complete_config(), grid={"dim": 2, "n": 16},
              cost={"id": "product_form", "phi": {"kind": "well"}}),
         "cost.phi"),
    ], ids=["belief-list", "weights-strings", "weights-negative", "g-list",
            "atom-list", "moment-form-2d", "observation-dt-overflow",
            "dirac-no-center", "atom-kind-unknown", "bandwidth-typo",
            "grid-no-values", "grid-center", "center-string", "center-2d-on-1d",
            "bandwidth-under-resolved", "grid-values-short", "weights-sum",
            "atoms-empty", "center-bool", "weights-bool", "grid-values-bool",
            "perturb-weights-bool", "ladder-grid-atom", "out-directory-list",
            "out-unread-key", "out-not-an-object", "relaxation-zero",
            "relaxation-above-one", "tol-zero", "n-past-the-cap", "steps-past-the-cap",
            "certify-n-past-the-cap", "max-iter-capped", "cap-zero", "tolerance-zero",
            "tolerance-negative", "n-not-integer", "constant-field-no-value",
            "density-missing", "density-three-atoms", "coupling-above-one",
            "well-2d"])
    def test_malformed_section_exit_2(self, tmp_path, capsys, command, cfg, field):
        path = write_config(tmp_path, "c.json", cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert f"config error at {field}:" in capsys.readouterr().err

    def test_output_directory_not_a_string_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = dict(base_complete_config(), output={"directory": ["o"]})
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["solve-complete", "--config", path]) == 2
        assert "config error at output.directory:" in capsys.readouterr().err
    @pytest.mark.parametrize("command,cfg,field", [
        ("solve-complete", dict(base_complete_config(),
                                hamiltonian={"kind": "abs", "cap": 5, "delta": 3}),
         "hamiltonian.cap"),
        ("solve-complete", dict(base_complete_config(),
                                hamiltonian={"kind": "abs", "delta": 3}),
         "hamiltonian.delta"),
        ("solve-complete",
         dict(base_complete_config(),
              hamiltonian={"kind": "smoothed_abs", "delta": 0.5, "cap": 2}),
         "hamiltonian.cap"),
        ("solve-complete",
         dict(base_complete_config(),
              hamiltonian={"kind": "capped_quadratic", "cap": 2, "delta": 0.5}),
         "hamiltonian.delta"),
        ("certify-monotone", TestCertifyMonotone.config(
            {"id": "product_form", "phi": {"kind": "cosine", "value": 1.0}}, 10),
         "cost.phi.value"),
        ("certify-monotone", TestCertifyMonotone.config(
            {"id": "product_form", "phi": {"kind": "constant", "value": 1.0,
                                           "phase": 0.5}}, 10),
         "cost.phi.phase"),
        ("certify-monotone", TestCertifyMonotone.config(
            {"id": "product_form", "phi": {"kind": "well", "amplitude": 2.0}}, 10),
         "cost.phi.amplitude"),
        ("validate-weak", _weak_config(
            drift={"kind": "sine", "amplitude": 0.5, "value": 1.0}), "drift.value"),
        ("validate-weak", _weak_config(
            drift={"kind": "constant", "value": 0.5, "frequency": 2}),
         "drift.frequency"),
    ], ids=["abs-cap", "abs-delta", "smoothed-cap", "capped-delta", "cosine-value",
            "constant-phase", "well-amplitude", "sine-drift-value",
            "constant-drift-frequency"])
    def test_key_the_kind_never_reads_exit_2(self, tmp_path, capsys, command, cfg,
                                             field):
        path = write_config(tmp_path, "c.json", cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert f"config error at {field}:" in capsys.readouterr().err


class TestConfigHandling:
    def test_unreadable_config(self, tmp_path, capsys):
        """A missing file, and a path holding a NUL byte, which no OS call
        takes: neither is reported as JSON that failed to decode."""
        for path in (str(tmp_path / "nope.json"), "a\x00b"):
            assert main(["solve-blind", "--config", path,
                         "--out", str(tmp_path / "o")]) == 2
            assert "cannot read config:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve-blind", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("via", ["--out", "output.directory"])
    def test_output_directory_is_a_file_exit_2(self, tmp_path, monkeypatch, capsys,
                                               via):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("")
        cfg = TestCertifyMonotone.config(
            {"id": "product_form", "phi": {"kind": "cosine"}}, 10)
        argv = ["certify-monotone", "--config", "c.json"]
        if via == "--out":
            argv += ["--out", "taken"]
        else:
            cfg["output"] = {"directory": "taken"}
        write_config(tmp_path, "c.json", cfg)
        assert main(argv) == 2
        assert "config error at output.directory:" in capsys.readouterr().err
        assert (tmp_path / "taken").read_text() == ""

    def test_output_directory_from_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = base_complete_config()
        cfg["cost"] = {"id": "zero"}
        cfg["output"] = {"directory": "from_config"}
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["solve-complete", "--config", path]) == 0
        assert (tmp_path / "from_config" / "manifest.json").exists()

    @pytest.mark.parametrize("body,field", [
        (b"[" * 200_000 + b"]" * 200_000, None),
        (b'{"sigma": ' + b"1" * 5000 + b"}", None),
        (b"\xff\xfe{}", None),
        (json.dumps(dict(TestCertifyMonotone.config({"id": "zero"}, 10),
                         output={"directory": "a\u0000b"})).encode(), "output.directory"),
    ], ids=["nested-too-deep", "integer-too-long", "not-utf-8", "directory-nul"])
    def test_parser_limits_and_bad_paths_exit_2(self, tmp_path, monkeypatch, capsys,
                                                body, field):
        """A config the JSON parser cannot take, or whose output directory
        the file system cannot name, exits 2 without a traceback."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_bytes(body)
        assert main(["certify-monotone", "--config", "c.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config is not valid JSON:" if field is None
                              else f"config error at {field}:")

    @pytest.mark.parametrize("command,cfg,field", [
        ("simulate-observed",
         dict(race_config(64, 128, observation_dt=0.01), filter={}),
         "filter.tolerance"),
        ("certify-monotone",
         dict(TestCertifyMonotone.config({"id": "zero"}, 10), certify={}), "certify.trials"),
        ("solve-blind", dict(blind_config(), belief={}), "belief.weights"),
        ("validate-weak", _weak_config(perturb={}), "perturb.at_fraction"),
        # a bad value before a missing key is named first
        ("solve-blind", dict(blind_config(), grid={"dim": 5}), "grid.dim"),
    ], ids=["filter", "certify", "belief", "perturb", "grid-bad-dim"])
    def test_empty_section_names_its_first_key(self, tmp_path, capsys, command, cfg,
                                               field):
        path = write_config(tmp_path, "c.json", cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert f"config error at {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["0", "2", "5"])
def test_named_field_does_not_depend_on_the_hash_seed(tmp_path, seed):
    """A section missing every key names its first key in schema order,
    whatever order a set of the keys would iterate in."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
    for command, cfg, field in [
            ("certify-monotone",
             dict(TestCertifyMonotone.config({"id": "zero"}, 10), grid={}), "grid.dim"),
            ("solve-blind", dict(blind_config(), time={}), "time.T")]:
        path = write_config(tmp_path, "c.json", cfg)
        run = subprocess.run([sys.executable, "-m", "blindmfg.cli", command, "--config",
                              path, "--out", str(tmp_path / "o")],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 2
        assert run.stderr == f"config error at {field}: required key missing\n"


def _sized_config(command, n, steps):
    """A valid config of `command` on an n-node 1-D grid over `steps` steps."""
    if command == "solve-complete":
        cfg = base_complete_config()
    elif command == "solve-blind":
        cfg = blind_config()
    elif command == "simulate-observed":
        cfg = race_config(64, 128, observation_dt=0.01)
        cfg["filter"]["observation_dt"] = 0.0
    else:
        cfg = TestValidateWeak.config(ladder={"levels": 2})
    cfg["grid"] = {"dim": 1, "n": n}
    cfg["time"] = dict(cfg["time"], steps=steps)
    return cfg


SIZED = ["solve-complete", "solve-blind", "simulate-observed", "validate-weak"]


class TestSizeGuard:
    """Runs whose space-time state would exceed MAX_STATE_BYTES exit 2 at
    grid.n before any array is allocated."""

    def test_state_estimate(self):
        assert _state_bytes(3, 256, 128, 1) == 6 * 257 * 128 * 8
        assert _state_bytes(1, 16, 32, 2) == 4 * 17 * 32 * 32 * 8
        assert _state_bytes(2, 600, 256, 1) < MAX_STATE_BYTES

    @pytest.mark.parametrize("command", SIZED)
    def test_oversized_run_exit_2_without_allocating(self, tmp_path, capsys, command):
        # about 34 GB of state at the base level alone
        path = write_config(tmp_path, "big.json", _sized_config(command, 2 ** 20, 1024))
        tracemalloc.start()
        try:
            code = main([command, "--config", path, "--out", str(tmp_path / "o")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "config error at grid.n:" in capsys.readouterr().err
        assert peak < 2 ** 20

    @pytest.mark.parametrize("command", SIZED)
    def test_cap_is_the_estimate(self, tmp_path, monkeypatch, capsys, command):
        """A cap equal to the run's estimate admits it; one byte less
        rejects it.  validate-weak is sized by its finest level."""
        cfg = _sized_config(command, 64, 128)
        levels = 2 if command == "validate-weak" else 1
        atoms = len((cfg.get("belief") or cfg["density"])["atoms"])
        need = _state_bytes(atoms, 128 * 4 ** (levels - 1), 64 * 2 ** (levels - 1), 1)
        path = write_config(tmp_path, "c.json", cfg)
        monkeypatch.setattr(cli, "MAX_STATE_BYTES", need - 1)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "config error at grid.n:" in capsys.readouterr().err
        monkeypatch.setattr(cli, "MAX_STATE_BYTES", need)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 0

    @staticmethod
    def certify_config(dim, n, cost_id="product_form", trials=3):
        cost = ({"id": "product_form", "phi": {"kind": "cosine"}} if cost_id == "product_form"
                else {"id": "moment_form", "g": "sqrt"})
        return {"grid": {"dim": dim, "n": n}, "cost": cost,
                "certify": {"trials": trials, "seed": 0}}

    @staticmethod
    def traced_main(argv):
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return code, peak

    def test_oversized_certify_exit_2_without_allocating(self, tmp_path, capsys):
        """4e6 nodes: about 5 GiB with the Dirac temporaries and the
        witness; the check precedes the cost, whose field alone is 32 MB."""
        path = write_config(tmp_path, "big.json", self.certify_config(1, 4_000_000))
        code, peak = self.traced_main(["certify-monotone", "--config", path,
                                       "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error at grid.n:" in capsys.readouterr().err
        assert peak < 2 ** 20

    @pytest.mark.parametrize("dim,n,cost_id", [(1, 4096, "moment_form"), (1, 64, "product_form"),
                                               (2, 64, "product_form")])
    def test_certify_estimate_covers_its_peak(self, tmp_path, dim, n, cost_id):
        path = write_config(tmp_path, "c.json", self.certify_config(dim, n, cost_id))
        code, peak = self.traced_main(["certify-monotone", "--config", path,
                                       "--out", str(tmp_path / "o")])
        assert code == 0
        assert peak <= cli._certify_bytes(8, build_grid(dim, n))

    @pytest.mark.parametrize("dim,n,cost_id", [(1, 64, "product_form"), (1, 256, "moment_form"),
                                               (2, 16, "product_form"), (2, 32, "product_form")])
    def test_certify_estimate_covers_two_blocks(self, tmp_path, dim, n, cost_id):
        """2B + 1 trials of B a block: two full blocks and one of a single
        trial, so the peak holds a full block's draws and atom stack."""
        trials = 2 * _block_trials(build_grid(dim, n), 8) + 1
        assert trials > 3
        path = write_config(tmp_path, "c.json", self.certify_config(dim, n, cost_id, trials))
        code, peak = self.traced_main(["certify-monotone", "--config", path,
                                       "--out", str(tmp_path / "o")])
        assert code == 0
        assert peak <= cli._certify_bytes(8, build_grid(dim, n))

    def test_certify_cap_is_the_estimate(self, tmp_path, monkeypatch, capsys):
        need = cli._certify_bytes(8, build_grid(1, 256))
        path = write_config(tmp_path, "c.json", self.certify_config(1, 256, trials=1))
        monkeypatch.setattr(cli, "MAX_STATE_BYTES", need - 1)
        assert main(["certify-monotone", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "config error at grid.n:" in capsys.readouterr().err
        monkeypatch.setattr(cli, "MAX_STATE_BYTES", need)
        assert main(["certify-monotone", "--config", path, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("command", SIZED)
def test_cfl_violation_exit_2_at_time_steps(tmp_path, capsys, command):
    coarse = {"T": 1.0, "steps": 8}  # dt = 0.125 against h = 1/64
    if command == "solve-complete":
        cfg = dict(base_complete_config(), time=coarse)
    elif command == "solve-blind":
        cfg = dict(blind_config(), time=coarse)
    elif command == "simulate-observed":
        cfg = dict(race_config(64, 128, observation_dt=0.01), time=coarse)
    else:
        # drift speed 5 at dt/h = 2
        cfg = TestValidateWeak.config(grid={"dim": 1, "n": 32},
                                      time={"T": 0.4, "steps": 16},
                                      drift={"kind": "constant", "value": 5.0})
    path = write_config(tmp_path, "cfl.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "time.steps" in err and "CFL" in err


@pytest.mark.parametrize("command", SIZED)
def test_overflowing_diffusion_exit_2_at_sigma(tmp_path, capsys, command):
    """A sigma whose diffusion symbol 1 - dt*sigma*eig overflows would run
    as infinite diffusion."""
    artifact = "summary.json"
    if command == "simulate-observed":
        path = TestSimulateObserved.scenario_path(tmp_path, sigma=1e308)
    elif command == "validate-weak":
        artifact = "report.json"
        path = write_config(tmp_path, "s.json", _weak_config(sigma=1e308))
    else:
        cfg = base_complete_config() if command == "solve-complete" else blind_config()
        path = write_config(tmp_path, "s.json", dict(cfg, sigma=1e308))
    out = tmp_path / "o"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    assert "config error at sigma:" in capsys.readouterr().err
    assert not (out / artifact).exists()


@pytest.mark.parametrize("command,key", [("solve-complete", "density"),
                                         ("solve-blind", "belief")])
@pytest.mark.parametrize("n", [32, 64])
class TestSolveNumericalBoundary:
    """The solve commands on extreme but well-formed numbers: a config
    whose costs overflow is a numerical failure, a centre so far out that
    its mollified Dirac has no finite mass is a config error at its key,
    and neither is a traceback."""

    @staticmethod
    def config(command, n):
        cfg = base_complete_config() if command == "solve-complete" else blind_config()
        return dict(cfg, grid={"dim": 1, "n": n}, time={"T": 0.5, "steps": 64})

    def test_overflowing_cost_exit_3_with_summary(self, tmp_path, command, key, n):
        cfg = self.config(command, n)
        cfg["cost"] = {"id": "product_form", "phi": {"kind": "cosine", "amplitude": 1e200}}
        path = write_config(tmp_path, "c.json", cfg)
        out = tmp_path / "o"
        assert main([command, "--config", path, "--out", str(out)]) == 3
        assert not json.loads((out / "summary.json").read_text())["converged"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert "summary.json" in manifest["artifacts"]

    def test_far_dirac_center_exit_2_at_its_key(self, tmp_path, capsys, command, key, n):
        cfg = dict(self.config(command, n),
                   **{key: {"weights": [1.0], "atoms": [{"kind": "dirac", "center": 1e300}]}})
        path = write_config(tmp_path, "c.json", cfg)
        out = tmp_path / "o"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert f"config error at {key}.atoms[0].center:" in capsys.readouterr().err
        assert not (out / "summary.json").exists()


@pytest.mark.parametrize("command", SIZED)
def test_time_step_rounding_to_zero_exit_2_at_time_T(tmp_path, capsys, command):
    """A positive horizon over 16 steps whose step T / 16 rounds to 0."""
    tiny = {"T": 5e-324, "steps": 16}
    if command == "solve-complete":
        cfg = dict(base_complete_config(), time=tiny)
    elif command == "solve-blind":
        cfg = dict(blind_config(), time=tiny)
    elif command == "simulate-observed":
        cfg = dict(race_config(64, 128, observation_dt=0.01), time=tiny)
    else:
        cfg = TestValidateWeak.config(time=tiny)
    path = write_config(tmp_path, "tiny.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error at time.T:" in capsys.readouterr().err


def test_ladder_level_step_rounding_to_zero_exit_2_at_time_T(tmp_path, capsys):
    """The base step of 1e-321 over 64 steps is positive, as is level 1's
    over 256; level 2's over 1024 rounds to 0."""
    assert TimeGrid(1e-321, 256).dt > 0.0
    with pytest.raises(ValueError, match="rounds the time step to 0"):
        TimeGrid(1e-321, 1024)
    path = write_config(tmp_path, "tiny.json",
                        TestValidateWeak.config(time={"T": 1e-321, "steps": 64}))
    assert main(["validate-weak", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error at time.T:" in capsys.readouterr().err


def test_shipped_illustrative_config_is_valid():
    import pathlib

    cfg_path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "illustrative.json"
    cfg = json.loads(cfg_path.read_text())
    assert cfg["grid"] == {"dim": 1, "n": 256}
    assert cfg["time"] == {"T": 2.0, "steps": 600}
    assert cfg["cost"] == {"id": "illustrative", "coupling": 0.5}
    assert cfg["true_atom"] == 0


def test_cli_import_loads_no_heavy_module():
    """Importing the CLI loads none of OpenSSL's hash bindings (the
    manifest hash imports them after a run), numpy's random and FFT
    packages, or SciPy: each is resident memory a run's peak would carry."""
    heavy = ["_hashlib", "numpy.random", "numpy.fft", "scipy"]
    code = f"import sys, blindmfg.cli; print([m for m in {heavy!r} if m in sys.modules])"
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("command,make", [
    ("simulate-observed", lambda: _sized_config("simulate-observed", 64, 128)),
    ("solve-blind", lambda: _sized_config("solve-blind", 64, 128)),
    ("certify-monotone", lambda: _certify_config(g="sqrt")),
], ids=["race", "blind3", "certify"])
def test_workload_runs_load_no_scipy(tmp_path, command, make):
    """The benchmark's three commands run without SciPy: only the belief
    W1 metric and the payment partition import it, and none of them
    reaches either."""
    path = write_config(tmp_path, "c.json", make())
    args = [command, "--config", path, "--out", str(tmp_path / "out")]
    code = ("import sys\nfrom blindmfg.cli import main\nrc = main(%r)\n"
            "print(rc, [m for m in sys.modules if m.split('.')[0] == 'scipy'])" % args)
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.splitlines()[-1] == "0 []"


def _write_path_csv_by_rows(path, tg, grid, values, column):
    """Reference writer: one csv.writer row per grid node."""
    coords = grid.coords()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{d}" for d in range(grid.dim)] + [column])
        for k, t in enumerate(tg.times):
            for idx, val in enumerate(values[k].ravel()):
                multi = np.unravel_index(idx, grid.shape)
                writer.writerow([f"{float(t):.17g}"]
                                + [f"{float(coords[d][multi]):.17g}"
                                   for d in range(grid.dim)]
                                + [f"{float(val):.17g}"])


@pytest.mark.parametrize("dim,n", [(1, 24), (2, 8)])
def test_path_csv_bytes_match_row_writer(tmp_path, dim, n):
    grid = build_grid(dim, n)
    tg = TimeGrid(0.3, 5)
    rng = np.random.default_rng(dim)
    values = rng.standard_normal((tg.steps + 1,) + grid.shape) * 10.0 ** rng.integers(
        -20, 20, (tg.steps + 1,) + grid.shape)
    values.flat[:3] = [0.0, -0.0, 1.0 / 3.0]
    _write_path_csv(tmp_path / "fast.csv", tg, grid, values, "u")
    _write_path_csv_by_rows(tmp_path / "rows.csv", tg, grid, values, "u")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
