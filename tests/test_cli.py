"""Command-line interface: outputs, determinism, exit codes."""

import json

import numpy as np
import pytest

from polysvd import PolyMatrix, example1
from polysvd.cli import EXIT_OK, EXIT_TOLERANCE, EXIT_USAGE, main


def run(args):
    return main(args)


class TestEx1:
    def test_default_run_passes(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(["ex1", "--bins", "256", "--out", str(out)])
        assert code == EXIT_OK
        summary = json.loads((out / "ex1_summary.json").read_text())
        assert summary["max_deviation"] <= 1e-8
        assert summary["meta"]["seed"] == 0
        assert summary["meta"]["version"]

    def test_k8_rows(self, tmp_path):
        out = tmp_path / "o"
        assert run(["ex1", "--bins", "8", "--out", str(out)]) == EXIT_OK
        lines = (out / "ex1_smooth.csv").read_text().strip().split("\n")
        # meta line + header + 8 bins
        assert len(lines) == 10
        assert lines[1] == "omega,track_1,track_2,mode"

    def test_corrupted_fixture_fails(self, tmp_path):
        a = example1().A
        c = a.coeffs.copy()
        c[0, 0, 1] += 0.05  # break the fixture
        bad = PolyMatrix(c, a.n_min)
        fx = tmp_path / "fixture.json"
        fx.write_text(json.dumps(bad.to_json_dict()))
        code = run(["ex1", "--bins", "128", "--out", str(tmp_path / "o"),
                    "--fixture", str(fx)])
        assert code == EXIT_TOLERANCE

    def test_clean_fixture_passes(self, tmp_path):
        fx = tmp_path / "fixture.json"
        fx.write_text(json.dumps(example1().A.to_json_dict()))
        code = run(["ex1", "--bins", "128", "--out", str(tmp_path / "o"),
                    "--fixture", str(fx)])
        assert code == EXIT_OK


class TestHist:
    def test_smoke_and_outputs(self, tmp_path):
        out = tmp_path / "o"
        code = run(["hist", "--trials", "300", "--out", str(out), "--seed", "0"])
        assert code == EXIT_OK
        fits = json.loads((out / "hist_fits.json").read_text())
        assert len(fits["fits"]) == 2
        assert fits["sample_min"][1] > 0.0
        lines = (out / "hist_samples.csv").read_text().strip().split("\n")
        assert lines[1] == "trial,index,value"
        assert len(lines) == 2 + 300 * 2

    def test_deterministic_bytes(self, tmp_path):
        out = tmp_path / "o"
        run(["hist", "--trials", "200", "--out", str(out), "--seed", "7"])
        first = (out / "hist_samples.csv").read_bytes()
        run(["hist", "--trials", "200", "--out", str(out), "--seed", "7"])
        assert (out / "hist_samples.csv").read_bytes() == first

    def test_trials_floor(self, tmp_path):
        assert run(["hist", "--trials", "10", "--out", str(tmp_path)]) == EXIT_USAGE


class TestPerturb:
    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "o"
        code = run([
            "perturb", "--bins", "256", "--trials", "2", "--out", str(out),
            "--sigma2-norm", "0.3", "--sigma2-norm", "1e-2",
        ])
        assert code == EXIT_OK
        for tag in ("0p3", "0p01"):
            diag = json.loads((out / f"perturb_diag_s2n_{tag}.json").read_text())
            assert len(diag["trials"]) == 2
            for t in diag["trials"]:
                assert t["min_gap"] > 0.0
                assert t["min_smallest"] > 0.0
            traj = (out / f"perturb_traj_s2n_{tag}.csv").read_text()
            header = traj.strip().split("\n")[1]
            assert header.startswith("omega,track_1")
            assert "ref_1" in header

    def test_zero_perturbation_matches_truth(self, tmp_path):
        out = tmp_path / "o"
        code = run(["perturb", "--bins", "128", "--trials", "1",
                    "--out", str(out), "--sigma2-norm", "0"])
        assert code == EXIT_OK
        rows = (out / "perturb_traj_s2n_0.csv").read_text().strip().split("\n")[2:]
        for row in rows:
            cells = row.split(",")
            tracks = np.array([float(v) for v in cells[1:7]])
            refs = np.array([float(v) for v in cells[7:13]])
            assert np.abs(tracks - refs).max() < 1e-9

    def test_json_format(self, tmp_path):
        out = tmp_path / "o"
        code = run(["perturb", "--bins", "64", "--trials", "1", "--out", str(out),
                    "--sigma2-norm", "1e-4", "--format", "json"])
        assert code == EXIT_OK
        traj = json.loads((out / "perturb_traj_s2n_0p0001.json").read_text())
        assert traj["mode"] == "majorized"
        assert len(traj["tracks"]) == 6
        assert len(traj["tracks"][0]) == 64

    def test_default_sweep_settings(self, tmp_path):
        out = tmp_path / "o"
        code = run(["perturb", "--bins", "64", "--out", str(out)])
        assert code == EXIT_OK
        for tag in ("0p3", "0p01", "0p0001"):
            assert (out / f"perturb_diag_s2n_{tag}.json").exists()

    def test_sigma2_e_mode(self, tmp_path):
        out = tmp_path / "o"
        code = run(["perturb", "--bins", "64", "--trials", "1", "--out", str(out),
                    "--sigma2-e", "1e-4"])
        assert code == EXIT_OK
        diag = json.loads((out / "perturb_diag_s2n_0p0001.json").read_text())
        assert diag["sigma2_e"] == 1e-4
        assert diag["trials"][0]["sigma2_norm_actual"] > 0.0

    def test_conflicting_variance_flags(self, tmp_path):
        code = run(["perturb", "--out", str(tmp_path), "--sigma2-e", "1e-4",
                    "--sigma2-norm", "0.1"])
        assert code == EXIT_USAGE

    def test_negative_variance_rejected(self, tmp_path):
        code = run(["hist", "--trials", "200", "--out", str(tmp_path),
                    "--sigma2-e", "-1"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--sigma2-norm", "--sigma2-e", "--sigma2-v"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_variance_rejected(self, tmp_path, capsys, flag, value):
        out = tmp_path / "o"
        code = run(["perturb", "--bins", "16", "--out", str(out), flag, value])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"usage error: {flag} must be finite\n"
        assert not out.exists()


class TestSysid:
    def test_report(self, tmp_path):
        out = tmp_path / "o"
        code = run(["sysid", "--N", "20000", "--sigma2-v", "0.01",
                    "--out", str(out), "--seed", "3"])
        assert code == EXIT_OK
        rep = json.loads((out / "sysid_report.json").read_text())
        assert rep["N"] == 20000
        assert rep["J_hat"] == 2
        assert rep["decomposition_gap"] / rep["xi_mse"] <= 0.1
        err = json.loads((out / "sysid_error_system.json").read_text())
        assert err["M"] == 2 and err["L"] == 2

    def test_noiseless_exact(self, tmp_path):
        out = tmp_path / "o"
        code = run(["sysid", "--N", "50000", "--sigma2-v", "0",
                    "--out", str(out)])
        assert code == EXIT_OK
        rep = json.loads((out / "sysid_report.json").read_text())
        assert rep["error_energy"] <= 1e-6 * example1().A.frob_energy()


class TestUsage:
    def test_unknown_command(self):
        assert run(["bogus"]) == EXIT_USAGE

    def test_bad_bins(self, tmp_path):
        assert run(["ex1", "--bins", "0", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_metadata_echoes_config(self, tmp_path):
        out = tmp_path / "o"
        run(["ex1", "--bins", "64", "--out", str(out), "--seed", "9"])
        meta = json.loads((out / "ex1_summary.json").read_text())["meta"]
        assert meta["config"]["seed"] == 9
        assert meta["config"]["n_bins"] == 64
        assert meta["config"]["subcommand"] == "ex1"
