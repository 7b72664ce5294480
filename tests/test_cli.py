"""Command-line interface: outputs, determinism, exit codes."""

import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import polysvd
from polysvd import (
    DiagnosticsReport,
    MseReport,
    PolyMatrix,
    RicianFit,
    SeededRng,
    bin_histogram_trials,
    binwise_svd,
    example1,
    random_paraunitary,
    rician_fit,
    smooth_trajectories,
)
from polysvd import cli, sysid
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

    @pytest.mark.parametrize("content", [None, "not json {", "[1, 2]"] + [
        # a fractional or string offset, or a float size
        pytest.param(json.dumps({**example1().A.to_json_dict(), key: value}),
                     id=f"{key}={value!r}")
        for key, value in (("n_min", -0.5), ("n_min", "-1"), ("M", 2.0))])
    def test_unreadable_fixture(self, tmp_path, capsys, content):
        fx = tmp_path / "fixture.json"
        if content is not None:
            fx.write_text(content)
        out = tmp_path / "o"
        code = run(["ex1", "--bins", "16", "--out", str(out), "--fixture", str(fx)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: cannot read fixture {fx}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_fixture(self, tmp_path, capsys):
        # every tap is finite, but the (0, 0) bin sums overflow
        c = np.zeros((2, 2, 3), dtype=complex)
        c[0, 0] = 1e308
        fx = tmp_path / "fixture.json"
        fx.write_text(json.dumps(PolyMatrix(c, -1).to_json_dict()))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["ex1", "--bins", "16", "--out", str(out),
                        "--fixture", str(fx)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"usage error: fixture {fx}: non-finite input\n"
        assert not out.exists()

    def test_fixture_of_another_shape_refused(self, tmp_path, capsys):
        fx = tmp_path / "fixture.json"
        fx.write_text(json.dumps(PolyMatrix(np.eye(3)[:, :, None]).to_json_dict()))
        out = tmp_path / "o"
        code = run(["ex1", "--bins", "16", "--out", str(out), "--fixture", str(fx)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: fixture must be 2x2\n"
        assert not out.exists()

    def test_summary_counts_ambiguous_bins(self, tmp_path):
        out = tmp_path / "o"
        assert run(["ex1", "--bins", "256", "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "ex1_summary.json").read_text())
        assert summary["n_ambiguous_bins"] == 0

    def test_ambiguous_association_is_one_note(self, tmp_path, capsys):
        # order-12 factors on an 8-bin grid: bin 7 is ambiguous, and some
        # right-vector overlaps are exactly 0, where a track keeps its sign
        fx = tmp_path / "fixture.json"
        fx.write_text(json.dumps(random_paraunitary(2, 12, SeededRng(0)).to_json_dict()))
        code = run(["ex1", "--bins", "8", "--out", str(tmp_path / "o"),
                    "--fixture", str(fx)])
        assert code == EXIT_TOLERANCE
        assert capsys.readouterr().err.splitlines() == [
            "note: ambiguous track association at 1 of 8 bins (first at bin 7, "
            "omega=5.497787); kept previous track order there",
            "ex1: FAIL max deviation 3.000e+00 > 1.0e-08"]

    def test_json_format(self, tmp_path):
        out = tmp_path / "o"
        assert run(["ex1", "--bins", "64", "--out", str(out),
                    "--format", "json"]) == EXIT_OK
        sys = example1()
        sm = smooth_trajectories(binwise_svd(sys.A, 64))
        smooth = json.loads((out / "ex1_smooth.json").read_text())
        closed = json.loads((out / "ex1_closed_forms.json").read_text())
        assert smooth["mode"] == closed["mode"] == "smooth"
        assert np.array_equal(smooth["omega"], sm.omegas)
        assert np.array_equal(smooth["tracks"], sm.values)
        assert np.array_equal(closed["tracks"],
                              [f(sm.omegas) for f in sys.closed_forms])
        assert smooth["meta"]["config"]["fmt"] == "json"
        assert not list(out.glob("*.csv"))

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

    def test_tables_read_back_exactly(self, tmp_path):
        samples = bin_histogram_trials(example1(), np.pi, 150, 1e-4,
                                       SeededRng(5, stream=0))
        trial, index = np.divmod(np.arange(samples.size), samples.shape[0])
        for fmt in ("csv", "json"):
            out = tmp_path / fmt
            assert run(["hist", "--trials", "150", "--out", str(out),
                        "--seed", "5", "--format", fmt]) == EXIT_OK
            fits = json.loads((out / "hist_fits.json").read_text())
            assert fits["sample_min"] == samples.min(axis=1).tolist()
        rows = json.loads((tmp_path / "json" / "hist_samples.json").read_text())
        assert rows["columns"] == ["trial", "index", "value"]
        assert all(type(t) is int and type(m) is int for t, m, _ in rows["rows"])
        got = np.array(rows["rows"], dtype=object)
        assert got[:, 0].tolist() == trial.tolist()
        assert got[:, 1].tolist() == (index + 1).tolist()
        assert got[:, 2].tolist() == samples.T.ravel().tolist()
        lines = (tmp_path / "csv" / "hist_samples.csv").read_text().splitlines()
        cells = [line.split(",") for line in lines[2:]]
        assert [c[0] for c in cells] == [str(t) for t in trial]
        assert [c[1] for c in cells] == [str(m + 1) for m in index]
        assert [float(c[2]) for c in cells] == samples.T.ravel().tolist()

    def test_deterministic_bytes(self, tmp_path):
        out = tmp_path / "o"
        run(["hist", "--trials", "200", "--out", str(out), "--seed", "7"])
        first = (out / "hist_samples.csv").read_bytes()
        run(["hist", "--trials", "200", "--out", str(out), "--seed", "7"])
        assert (out / "hist_samples.csv").read_bytes() == first

    def test_degenerate_samples(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(["hist", "--trials", "200", "--out", str(out), "--sigma2-e", "0"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == (
            "usage error: hist: cannot fit index 1: degenerate samples: no spread to fit\n")
        assert not out.exists()

    def test_trials_floor(self, tmp_path):
        assert run(["hist", "--trials", "10", "--out", str(tmp_path)]) == EXIT_USAGE

    @pytest.mark.parametrize("sigma2_e, rel", [(1e-16, 1e-4), (1e-20, 1e-4),
                                               (1e-30, 1e-2)])
    def test_scale_follows_small_variances(self, tmp_path, sigma2_e, rel):
        # index 1 has nu = 0.5, so its fitted scale goes as sqrt(sigma2_e)
        # down to theta ~ 4e14, where the samples differ in a few units in
        # the last place
        def index1_scale(*args):
            out = tmp_path / str(len(args))
            assert run(["hist", "--out", str(out), *args]) == EXIT_OK
            return json.loads((out / "hist_fits.json").read_text())["fits"][0]["s"]

        want = index1_scale() * np.sqrt(sigma2_e / 1e-4)
        assert index1_scale("--sigma2-e", str(sigma2_e)) == pytest.approx(want, rel=rel)


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
        diag = json.loads((out / "perturb_diag_s2e_0p0001.json").read_text())
        assert diag["sigma2_e"] == 1e-4
        assert diag["trials"][0]["sigma2_norm_actual"] > 0.0
        assert (out / "perturb_traj_s2e_0p0001.csv").exists()
        assert not list(out.glob("*s2n*"))

    def test_colliding_level_tags_rejected(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(["perturb", "--bins", "16", "--out", str(out),
                    "--sigma2-norm", "0.123456781", "--sigma2-norm", "0.123456782"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage error: --sigma2-norm 0.123456781 and 0.123456782 share the "
            "output file tag s2n_0p123457\n")
        assert not out.exists()

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
        # --sigma2-v is a sysid flag, the other two are perturb flags
        command = ["sysid"] if flag == "--sigma2-v" else ["perturb", "--bins", "16"]
        out = tmp_path / "o"
        code = run([*command, "--out", str(out), flag, value])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"usage error: {flag} must be finite\n"
        assert not out.exists()


_PERTURB_HEADER = ",".join(["omega"] + [f"track_{m}" for m in range(1, 7)]
                           + [f"ref_{m}" for m in range(1, 7)] + ["mode"])


@pytest.mark.parametrize("argv, header", [
    (["ex1", "--bins", "64"], "omega,track_1,track_2,mode"),
    (["perturb", "--bins", "64", "--sigma2-norm", "1e-4"], _PERTURB_HEADER),
], ids=["ex1", "perturb"])
def test_csv_cells_equal_json_numbers(tmp_path, argv, header):
    # one writer prints every CSV number; each reads back as the JSON number
    for fmt in ("csv", "json"):
        assert run([*argv, "--out", str(tmp_path / fmt), "--format", fmt]) == EXIT_OK
    tables = sorted((tmp_path / "csv").glob("*.csv"))
    assert len(tables) == (2 if argv[0] == "ex1" else 1)
    for path in tables:
        doc = json.loads((tmp_path / "json" / path.name).with_suffix(".json").read_text())
        meta, head, *rows = path.read_text().splitlines()
        config = json.loads(meta.removeprefix("# "))["config"]
        config.update(fmt="json", out_dir=str(tmp_path / "json"))
        assert config == doc["meta"]["config"]
        assert head == header
        want = [doc["omega"]]
        for name in head.split(",")[1:-1]:
            key, m = name.rsplit("_", 1)
            want.append(doc["tracks" if key == "track" else key][int(m) - 1])
        cells = [row.split(",") for row in rows]
        assert {c[-1] for c in cells} == {doc["mode"]}
        got = np.array([[float(v) for v in c[:-1]] for c in cells]).T
        assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))


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
        assert 1.0 <= rep["condition"] < 1.5
        assert rep["regularization"] > 0.0
        err = json.loads((out / "sysid_error_system.json").read_text())
        assert err["M"] == 2 and err["L"] == 2

    def test_noiseless_exact(self, tmp_path):
        out = tmp_path / "o"
        code = run(["sysid", "--N", "50000", "--sigma2-v", "0",
                    "--out", str(out)])
        assert code == EXIT_OK
        rep = json.loads((out / "sysid_report.json").read_text())
        assert rep["error_energy"] <= 1e-6 * example1().A.frob_energy()

    def test_memory_is_frame_plus_blocks(self, tmp_path):
        # the (2, N) x and y are 25.6 MB here; identification and the MSE
        # split may hold a few window blocks beyond them, but no N-length
        # array such as the 12.8 MB residual; a short first run keeps the
        # command's lazy imports out of the trace
        n = 400000
        assert run(["sysid", "--N", "1000", "--out", str(tmp_path / "w")]) == EXIT_OK
        tracemalloc.start()
        try:
            code = run(["sysid", "--N", str(n), "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        frame = 2 * 2 * n * 16
        assert peak <= frame + 4 * 16 * sysid._BLOCK_ENTRIES

    @pytest.mark.parametrize("args, message", [
        (["--N", "2"], "n_samples = 2 must exceed the system order 2"),
        (["--N", "3"], "n_samples - j_hat = 1 is below the regressor dimension d = 6"),
        (["--N", "7"], "n_samples - j_hat = 5 is below the regressor dimension d = 6"),
        (["--order", "60", "--N", "50"],
         "n_samples - j_hat = -10 is below the regressor dimension d = 122"),
    ])
    def test_record_too_short(self, tmp_path, capsys, args, message):
        out = tmp_path / "o"
        code = run(["sysid", "--out", str(out), *args])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.endswith(message + "\n")
        assert err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("argv, name, cpus", [
    (["perturb", "--sigma2-e", "1e308", "--bins", "16", "--trials", "1"],
     "perturb_diag_s2e_1e+308.json", 2),
    (["sysid", "--sigma2-v", "1e308", "--N", "2000"], "sysid_report.json", 2),
    (["perturb", "--sigma2-e", "1e308", "--bins", "16", "--trials", "3"],
     "perturb_diag_s2e_1e+308.json", 2),
], ids=["perturb", "sysid", "perturb-threads"], indirect=["cpus"])
def test_non_finite_result_is_a_numerical_failure(tmp_path, capsys, argv, name, cpus):
    # an infinite sigma2_norm_actual, or a NaN MSE, has no JSON form; trials
    # on worker threads keep main's np.errstate, so no warning is raised
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([*argv, "--out", str(out)])
    assert code == EXIT_TOLERANCE
    assert capsys.readouterr().err == (f"numerical failure: {out / name} would "
                                       "hold a non-finite number; not written\n")
    assert not out.exists()


def test_overflowing_normalized_level_is_a_numerical_failure(tmp_path, capsys):
    # 3e306 times ||A||^2 of the generated system overflows the error scale
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["perturb", "--sigma2-norm", "3e306", "--bins", "16",
                    "--out", str(out)])
    assert code == EXIT_TOLERANCE
    assert capsys.readouterr().err == ("numerical failure: the error scale for "
                                       "sigma2_norm = 3e+306 overflows; not written\n")
    assert not out.exists()


def test_overflowing_hist_draw_fits(tmp_path, capsys):
    # samples near 1e154, whose squared mean overflows, fit on a copy
    # scaled by a power of two
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["hist", "--trials", "100", "--sigma2-e", "1.7e308",
                    "--out", str(out)])
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""
    samples = bin_histogram_trials(example1(), np.pi, 100, 1.7e308,
                                   SeededRng(0, stream=0))
    fits = json.loads((out / "hist_fits.json").read_text())["fits"]
    assert fits == [{"index": m + 1, **dataclasses.asdict(rician_fit(row))}
                    for m, row in enumerate(samples)]
    assert all(1e153 < f["nu"] < 1e155 for f in fits)


def test_failed_check_is_reported_after_writing(tmp_path, capsys):
    c = example1().A.coeffs.copy()
    c[0, 0, 1] += 0.05  # break the fixture
    fx = tmp_path / "fixture.json"
    fx.write_text(json.dumps(PolyMatrix(c, example1().A.n_min).to_json_dict()))
    out = tmp_path / "o"
    code = run(["ex1", "--bins", "16", "--out", str(out), "--fixture", str(fx)])
    assert code == EXIT_TOLERANCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ex1: FAIL max deviation ")
    assert captured.err.endswith(" > 1.0e-08\n") and captured.err.count("\n") == 1
    assert sorted(p.name for p in out.iterdir()) == [
        "ex1_closed_forms.csv", "ex1_smooth.csv", "ex1_summary.json"]


# small sizes per subcommand, and the extreme values within the bounds of
# each flag that has some
_SMALL = {"ex1": ["--bins", "16"], "hist": ["--trials", "100"],
          "perturb": ["--bins", "16"], "sysid": ["--N", "2000"]}
_VARIANCES = ("0", "5e-324", "1e300", "1.7e308")
_EXTREMES = {"sigma2_e": _VARIANCES, "sigma2_v": _VARIANCES,
             "sigma2_norm": _VARIANCES, "seed": (str(2**63),),
             "order": ("0", "1000")}


def _extreme_runs():
    for command, (_, dests, _) in cli._SUBCOMMANDS.items():
        for dest in dests:
            flag = cli._FLAGS[dest][0][0]
            for value in _EXTREMES.get(dest, ()):
                yield pytest.param([command, *_SMALL[command], flag, value],
                                   id=f"{command}{flag}={value}")


@pytest.mark.parametrize("argv", _extreme_runs())
def test_every_exit_is_a_verdict(tmp_path, capsys, argv):
    # a run within the flag bounds exits 0, or exits 1 or 2 with one stderr
    # line and no output unless a check failed after writing
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([*argv, "--out", str(out)])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_TOLERANCE)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if not line.startswith("note:")]
    if code != EXIT_OK:
        assert len(lines) == 1 and err.endswith("\n")
        assert out.exists() == lines[0].startswith("ex1: FAIL")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_trajectory_is_not_written(tmp_path, capsys, monkeypatch, fmt):
    def with_nan(bins):
        traj = smooth_trajectories(bins)
        traj.values[1, 5] = np.nan
        return traj

    monkeypatch.setattr(polysvd.anasvd, "smooth_trajectories", with_nan)
    out = tmp_path / "o"
    assert run(["ex1", "--bins", "16", "--format", fmt, "--out", str(out)]) == EXIT_TOLERANCE
    assert capsys.readouterr().err == (f"numerical failure: {out / f'ex1_smooth.{fmt}'} "
                                       "would hold a non-finite number; not written\n")
    assert not out.exists()


def _field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("command, args, output, entries, keys", [
    ("perturb", ["--bins", "16", "--trials", "2"], "perturb_diag_s2n_0p3.json",
     "trials", {"trial", "sigma2_norm_actual"} | _field_names(DiagnosticsReport)),
    ("hist", ["--trials", "100"], "hist_fits.json",
     "fits", {"index"} | _field_names(RicianFit)),
], ids=["perturb", "hist"])
def test_entries_carry_the_result_fields(tmp_path, command, args, output, entries,
                                         keys):
    out = tmp_path / "o"
    assert run([command, "--out", str(out), *args]) == EXIT_OK
    listed = json.loads((out / output).read_text())[entries]
    assert listed and all(set(entry) == keys for entry in listed)


def test_sysid_report_carries_the_mse_fields(tmp_path):
    out = tmp_path / "o"
    assert run(["sysid", "--N", "2000", "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "sysid_report.json").read_text())
    assert _field_names(MseReport) <= set(report)


def _below_least():
    """(command, flag, value, message) for a value under the least value of
    each bounded flag of each subcommand, and NaN for each float flag."""
    for command, (_, dests, _) in cli._SUBCOMMANDS.items():
        for dest in dests:
            options, least, _, kwargs = cli._FLAGS[dest]
            if least is None:
                continue
            flag = options[0]
            message = ("hist requires --trials >= 100" if (command, flag) ==
                       ("hist", "--trials") else f"{flag} must be >= {least}")
            yield command, flag, str(least - 1), message
            if kwargs["type"] is float:
                yield command, flag, "nan", f"{flag} must be finite"


def _beyond_greatest():
    """(command, flag, value, message) for one past the greatest value of
    each flag of each subcommand that has one, and for 10**30."""
    for command, (_, dests, _) in cli._SUBCOMMANDS.items():
        for dest in dests:
            options, _, greatest, _ = cli._FLAGS[dest]
            if greatest is None:
                continue
            for value in (greatest + 1, 10**30):
                yield (command, options[0], str(value),
                       f"{options[0]} must be <= {greatest}")


def _assert_rejected(tmp_path, capsys, argv, message):
    """argv exits 1 with exactly one ``usage error: message`` line and
    creates no output directory."""
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


def _reject_constant(token):
    raise ValueError(f"{token} is not valid JSON")


class TestUsage:
    @pytest.mark.parametrize("command, flag, value, message", [
        pytest.param(*case, id="{}{}={}".format(*case[:3])) for case in _below_least()])
    def test_value_below_least_rejected(self, tmp_path, capsys, command, flag,
                                        value, message):
        _assert_rejected(tmp_path, capsys, [command, flag, value], message)

    # values past the bounds only: nothing large is allocated
    @pytest.mark.parametrize("command, flag, value, message", [
        pytest.param(*case, id="{}{}={}".format(*case[:3]))
        for case in _beyond_greatest()])
    def test_value_beyond_greatest_rejected(self, tmp_path, capsys, command, flag,
                                            value, message):
        _assert_rejected(tmp_path, capsys, [command, flag, value], message)

    def test_seed_beyond_int64_runs(self, tmp_path):
        # only float values are tested for finiteness; numpy cannot
        # test an int this large
        out = tmp_path / "o"
        assert run(["sysid", "--N", "100", "--out", str(out),
                    "--seed", str(2**64)]) == EXIT_OK

    def test_unknown_command(self):
        assert run(["bogus"]) == EXIT_USAGE

    def test_bad_bins(self, tmp_path):
        assert run(["ex1", "--bins", "0", "--out", str(tmp_path)]) == EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--seed", "--order"])
    @pytest.mark.parametrize("command", ["perturb", "sysid"])
    def test_negative_seed_or_order(self, tmp_path, capsys, flag, command):
        out = tmp_path / "o"
        bins = ["--bins", "16"] if command == "perturb" else []
        code = run([command, *bins, "--out", str(out), flag, "-1"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {flag} must be >= 0\n"
        assert not out.exists()

    def test_metadata_echoes_config(self, tmp_path):
        out = tmp_path / "o"
        run(["ex1", "--bins", "64", "--out", str(out), "--seed", "9"])
        meta = json.loads((out / "ex1_summary.json").read_text())["meta"]
        assert meta["config"]["seed"] == 9
        assert meta["config"]["n_bins"] == 64
        assert meta["config"]["subcommand"] == "ex1"

    @pytest.mark.parametrize("command, flag", [
        ("ex1", "--trials"), ("ex1", "--sigma2-norm"), ("ex1", "--sigma2-e"),
        ("ex1", "--N"), ("ex1", "--sigma2-v"), ("ex1", "--order"),
        ("hist", "--bins"), ("hist", "--sigma2-norm"), ("hist", "--N"),
        ("hist", "--sigma2-v"), ("hist", "--order"),
        ("perturb", "--N"), ("perturb", "--sigma2-v"),
        ("sysid", "--bins"), ("sysid", "--trials"), ("sysid", "--sigma2-norm"),
        ("sysid", "--sigma2-e"),
    ])
    def test_flag_the_command_does_not_read(self, tmp_path, capsys, command, flag):
        out = tmp_path / "o"
        code = run([command, "--out", str(out), flag, "1"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, args, output", [
        ("ex1", ["--bins", "16"], "ex1_summary.json"),
        ("hist", ["--trials", "100"], "hist_fits.json"),
        ("perturb", ["--bins", "16"], "perturb_diag_s2n_0p3.json"),
        ("sysid", ["--N", "2000"], "sysid_report.json"),
    ], ids=["ex1", "hist", "perturb", "sysid"])
    def test_every_flag_is_read_and_echoed(self, tmp_path, command, args, output):
        dests = set(vars(cli.build_parser().parse_args([command])))
        source = inspect.getsource(getattr(cli, f"cmd_{command}"))
        reads = {node.attr for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id == "ns"}
        # seed and fmt reach every output through the meta and the writers
        assert dests - {"subcommand", "seed", "fmt"} <= reads <= dests
        out = tmp_path / "o"
        assert run([command, "--out", str(out), *args]) == EXIT_OK
        config = json.loads((out / output).read_text())["meta"]["config"]
        assert set(config) == dests
        assert config["subcommand"] == command
        if command == "hist":
            assert config["sigma2_e"] == 1e-4

    @pytest.mark.parametrize("command, args", [
        ("ex1", ["--bins", "16"]),
        ("hist", ["--trials", "100"]),
        ("perturb", ["--bins", "16"]),
        ("sysid", ["--N", "2000"]),
    ], ids=["ex1", "hist", "perturb", "sysid"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_every_json_file_carries_the_meta(self, tmp_path, command, args, fmt):
        out = tmp_path / "o"
        assert run([command, "--out", str(out), "--seed", "3", "--format", fmt,
                    *args]) == EXIT_OK
        files = sorted(out.glob("*.json"))
        assert files
        for path in files:
            meta = json.loads(path.read_text(),
                              parse_constant=_reject_constant)["meta"]
            assert meta["seed"] == 3, path.name
            assert meta["config"]["subcommand"] == command, path.name
            assert meta["version"] == cli.__version__, path.name

    def test_system_json_keeps_the_generator_record(self, tmp_path):
        out = tmp_path / "o"
        assert run(["perturb", "--bins", "16", "--out", str(out)]) == EXIT_OK
        text = (out / "system.json").read_text()
        assert text.count("\n") == 1  # compact: one line
        system = json.loads(text)
        assert set(system) == {"meta", "generator", "U", "sigmas", "V", "A"}
        assert system["generator"]["name"] == "bigsys"
        assert system["generator"]["stream"] == 1 << 20

    @pytest.mark.parametrize("command, args", [
        ("ex1", ["--bins", "16"]),
        ("hist", ["--trials", "100"]),
        ("perturb", ["--bins", "16"]),
        ("sysid", ["--N", "2000"]),
    ], ids=["ex1", "hist", "perturb", "sysid"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rerun_notes_each_overwritten_file(self, tmp_path, capsys, command,
                                               args, fmt):
        out = tmp_path / "o"
        argv = [command, "--out", str(out), "--format", fmt, *args]
        assert run(argv) == EXIT_OK
        first_out, first_err = capsys.readouterr()
        assert "note:" not in first_err
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(argv) == EXIT_OK
        again_out, again_err = capsys.readouterr()
        assert again_out == first_out
        notes = sorted(again_err.splitlines())
        assert notes == sorted(f"note: overwriting {out / name}" for name in first)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    @pytest.mark.parametrize("below, reason", [
        ("", "not a directory"),  # refused before mkdir
        ("sub", "Not a directory"),  # mkdir's OSError
    ], ids=["file", "under-file"])
    def test_out_that_is_a_file_is_refused(self, tmp_path, capsys, below, reason):
        occupant = tmp_path / "F"
        occupant.write_text("kept\n")
        out = occupant / below if below else occupant
        assert run(["ex1", "--bins", "16", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", f"usage error: cannot write {out}: {reason}\n")
        assert occupant.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["F"]

    def test_output_path_that_is_a_directory_is_refused(self, tmp_path, capsys):
        # ex1_smooth.csv is the second output: the first is not written either
        out = tmp_path / "D"
        occupant = out / "ex1_smooth.csv"
        occupant.mkdir(parents=True)
        assert run(["ex1", "--bins", "16", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", f"usage error: cannot write {occupant}: is a directory\n")
        assert [p.name for p in out.iterdir()] == ["ex1_smooth.csv"]
        assert not any(occupant.iterdir())

    @pytest.mark.parametrize("command, abbreviation", [
        ("sysid", ["--sig", "1"]),
        ("hist", ["--sigma2", "1e-3"]),
        ("perturb", ["--tri", "2"]),
        ("ex1", ["--bin", "16"]),
    ], ids=["sysid", "hist", "perturb", "ex1"])
    def test_abbreviated_flag_rejected(self, tmp_path, capsys, command, abbreviation):
        out = tmp_path / "o"
        code = run([command, "--out", str(out), *abbreviation])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not out.exists()


def _usable_cpus():
    return os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()


@pytest.mark.skipif(len(_usable_cpus()) < 2,
                    reason="needs os.sched_setaffinity and two usable CPUs")
@pytest.mark.parametrize("argv", [
    ["perturb", "--bins", "1024", "--trials", "2"],
    ["ex1", "--bins", "1024"],
], ids=["perturb", "ex1"])
def test_outputs_do_not_depend_on_the_cpu_count(tmp_path, argv):
    # svd_stack runs one thread per usable CPU; a child pinned to one CPU
    # decomposes every stack on one thread
    cpu = min(_usable_cpus())
    env = {**os.environ,
           "PYTHONPATH": str(Path(polysvd.__file__).resolve().parents[1])}
    trees = []
    for name, pin in (("pinned", lambda: os.sched_setaffinity(0, {cpu})),
                      ("unpinned", None)):
        cwd = tmp_path / name
        cwd.mkdir()
        subprocess.run([sys.executable, "-m", "polysvd.cli", *argv], cwd=cwd,
                       env=env, preexec_fn=pin, check=True, capture_output=True,
                       timeout=120)
        trees.append({p.name: p.read_bytes() for p in (cwd / "out").iterdir()})
    assert trees[0] == trees[1]


def _io_sites(module):
    """'module.function: what' for every file or console I/O call, and every
    pathlib or io import, in one package module."""
    tree = ast.parse((Path(polysvd.__file__).parent / f"{module}.py").read_text())
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        sites += [f"{module}: import {n}" for n in names
                  if n.split(".")[0] in ("pathlib", "io")]

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name) and func.id in ("open", "print", "input"):
                    sites.append(".".join([module] + scope) + f": {func.id}()")
                if (isinstance(func, ast.Attribute)
                        and func.attr in ("write", "write_text", "open", "mkdir")):
                    sites.append(".".join([module] + scope) + f": .{func.attr}()")
            visit(child, scope)

    visit(tree, [])
    return sites


@pytest.mark.parametrize("module", ["polymat", "densela", "sysgen", "perturb",
                                    "sysid", "anasvd"])
def test_numeric_modules_do_no_io(module):
    # the command line does the I/O; anasvd's one CSV writer stays until it
    # moves out with the benchmark's tracer, which looks up
    # write_trajectory_csv by name
    allowed = {"anasvd": ["anasvd._write_rows: .write()"] * 2}
    assert _io_sites(module) == allowed.get(module, [])


def test_only_main_reports():
    # each cmd_* returns its stdout summary or raises; main alone prints the
    # result or failure line and picks the exit code, and _write_outputs
    # notes each overwrite
    printers = {site for site in _io_sites("cli") if site.endswith(": print()")}
    assert printers == {"cli.main: print()", "cli._write_outputs: print()"}
    tree = ast.parse(Path(cli.__file__).read_text())
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert [fn.name for fn in commands] == [fn.__name__ for fn in cli._COMMANDS.values()]
    for fn in commands:
        named = {ast.unparse(node) for node in ast.walk(fn)
                 if isinstance(node, (ast.Name, ast.Attribute))}
        assert not named & {"EXIT_OK", "EXIT_USAGE", "EXIT_TOLERANCE", "_sys.stderr"}
