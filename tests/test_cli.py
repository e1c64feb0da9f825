import csv
import json
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from blindmfg import cli
from blindmfg.cli import MAX_STATE_BYTES, _state_bytes, _write_path_csv, main
from blindmfg.hjb_fp import TimeGrid
from blindmfg.payments import illustrative_scenario
from blindmfg.torus import build_grid


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
        for name in ("belief_path.json", "m_0.csv", "m_1.csv", "history.csv"):
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
            return replace(cm, running_values=lambda g, m: np.full(m.shape, np.nan))

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
            build_cost(cfg, grid),
            running_values=lambda g, m: np.full(m.shape, np.nan)))
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


class TestSimulateObserved:
    @staticmethod
    def scenario_config(tmp_path, **overrides):
        sc = illustrative_scenario(0.1, 0.5, 0.5, 64, N_t=150,
                                   observation_dt=0.04, tolerance=0.05)
        cfg = sc.to_config()
        cfg.update(overrides)
        return write_config(tmp_path, "sim.json", cfg)

    def test_elimination_event_recorded(self, tmp_path):
        path = self.scenario_config(tmp_path)
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
        path = self.scenario_config(
            tmp_path, cost={"id": "constant", "field": {"kind": "well"}})
        out = tmp_path / "out"
        assert main(["simulate-observed", "--config", path,
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_events"] == 0

    def test_grouping_key_rejected(self, tmp_path, capsys):
        path = self.scenario_config(tmp_path, filter={
            "tolerance": 0.05, "observation_dt": 0.04, "grouping": "union_find"})
        assert main(["simulate-observed", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "filter.grouping" in capsys.readouterr().err

    def test_averaging_key_rejected(self, tmp_path, capsys):
        path = self.scenario_config(tmp_path, solver={
            "relaxation": 1.0, "tol": 1e-9, "max_iter": 60, "averaging": "picard"})
        assert main(["simulate-observed", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "solver.averaging" in capsys.readouterr().err

    def test_missing_solver_exit_2(self, tmp_path, capsys):
        cfg = illustrative_scenario(0.1, 0.5, 0.5, 64).to_config()
        del cfg["solver"]
        path = write_config(tmp_path, "sim.json", cfg)
        assert main(["simulate-observed", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "config.solver" in capsys.readouterr().err

    def test_negative_observation_dt_exit_2(self, tmp_path, capsys):
        path = self.scenario_config(tmp_path, filter={
            "tolerance": 0.05, "observation_dt": -1.0})
        assert main(["simulate-observed", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "filter.observation_dt" in capsys.readouterr().err

    def test_bad_true_atom_exit_2(self, tmp_path, capsys):
        path = self.scenario_config(tmp_path, true_atom=5)
        assert main(["simulate-observed", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "true_atom" in capsys.readouterr().err

    def test_observation_dt_off_the_time_grid_exit_2(self, tmp_path, capsys):
        cfg = illustrative_scenario(0.1, 0.5, 0.5, 64, N_t=150).to_config()
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
        cfg = illustrative_scenario(0.1, 0.5, 0.5, 64, N_t=150,
                                    observation_dt=0.04).to_config()
        cfg["belief"]["atoms"][1]["center"] = 0.33
        path = write_config(tmp_path, "sim.json", cfg)
        assert main(["simulate-observed", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error at belief:" in err
        assert "filter.tolerance" in err


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
        path = self.scenario_config(tmp_path)
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

    def test_zero_trials_exit_2(self, tmp_path):
        path = write_config(tmp_path, "c.json", self.config(
            {"id": "moment_form", "g": "sqrt"}, 0))
        assert main(["certify-monotone", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key,value", [
        ("trials", float("nan")), ("trials", float("inf")),
        ("max_atoms", 100), ("seed", -1)])
    def test_bad_certify_field_exit_2(self, tmp_path, capsys, key, value):
        cfg = self.config({"id": "moment_form", "g": "sqrt"}, 10)
        cfg["certify"][key] = value
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["certify-monotone", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert f"certify.{key}" in capsys.readouterr().err

    def test_negative_cli_seed_fallback_exit_2(self, tmp_path, capsys):
        cfg = self.config({"id": "moment_form", "g": "sqrt"}, 10)
        del cfg["certify"]["seed"]
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["certify-monotone", "--config", path, "--seed", "-1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "certify.seed" in capsys.readouterr().err

    def test_manifest_has_no_threads_key(self, tmp_path):
        path = write_config(tmp_path, "c.json", self.config(
            {"id": "moment_form", "g": "sqrt"}, 10))
        out = tmp_path / "out"
        assert main(["certify-monotone", "--config", path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {"command", "seed", "config", "artifacts"}
        with pytest.raises(SystemExit) as exc:
            main(["certify-monotone", "--config", path, "--threads", "2"])
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

    def test_null_bandwidth_exit_2(self, tmp_path, capsys):
        cfg = self.config()
        cfg["belief"]["atoms"][1]["bandwidth"] = None
        path = write_config(tmp_path, "w.json", cfg)
        assert main(["validate-weak", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "config error at belief.atoms[1].bandwidth:" in capsys.readouterr().err

    def test_missing_phi_exit_2(self, tmp_path, capsys):
        cfg = self.config()
        del cfg["phi"]
        path = write_config(tmp_path, "w.json", cfg)
        assert main(["validate-weak", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "phi" in capsys.readouterr().err


def _weak_config(**overrides):
    perturb = {"at_fraction": 0.5, "weights": [0.7, 0.3]}
    return TestValidateWeak.config(**{"perturb": perturb, **overrides})


def _certify_config(**cost):
    return TestCertifyMonotone.config({"id": "moment_form", **cost}, 10)


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
         dict(illustrative_scenario(0.1, 0.5, 0.5, 64).to_config(),
              filter={"tolerance": 0.05, "observation_dt": 1e308}),
         "filter.observation_dt"),
    ], ids=["belief-list", "weights-strings", "weights-negative", "g-list",
            "atom-list", "moment-form-2d", "observation-dt-overflow"])
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
        assert main(["solve-blind", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

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


def _sized_config(command, n, steps):
    """A valid config of `command` on an n-node 1-D grid over `steps` steps."""
    if command == "solve-complete":
        cfg = base_complete_config()
    elif command == "solve-blind":
        cfg = blind_config()
    elif command == "simulate-observed":
        cfg = illustrative_scenario(0.1, 0.5, 0.5, 64).to_config()
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
        cfg = dict(illustrative_scenario(0.1, 0.5, 0.5, 64).to_config(), time=coarse)
    else:
        # drift speed 5 at dt/h = 2
        cfg = TestValidateWeak.config(grid={"dim": 1, "n": 32},
                                      time={"T": 0.4, "steps": 16},
                                      drift={"kind": "constant", "value": 5.0})
    path = write_config(tmp_path, "cfl.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "time.steps" in err and "CFL" in err


def test_shipped_illustrative_config_is_valid():
    import pathlib

    cfg_path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "illustrative.json"
    cfg = json.loads(cfg_path.read_text())
    assert cfg["grid"] == {"dim": 1, "n": 256}
    assert cfg["time"] == {"T": 2.0, "steps": 600}
    assert cfg["cost"] == {"id": "illustrative", "coupling": 0.5}
    assert cfg["true_atom"] == 0


def test_cli_import_leaves_scipy_optimize_unloaded():
    code = "import sys, blindmfg.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


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
