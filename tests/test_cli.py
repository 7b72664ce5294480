"""Command-line interface: outputs, determinism, exit codes."""

import ast
import dataclasses
import inspect
import json

import numpy as np
import pytest

from polysvd import (
    DiagnosticsReport,
    MseReport,
    PolyMatrix,
    RicianFit,
    SeededRng,
    bin_histogram_trials,
    binwise_svd,
    example1,
    smooth_trajectories,
)
from polysvd import cli
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

    def test_summary_counts_ambiguous_bins(self, tmp_path):
        out = tmp_path / "o"
        assert run(["ex1", "--bins", "256", "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "ex1_summary.json").read_text())
        assert summary["n_ambiguous_bins"] == 0

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
        assert err == "hist: cannot fit index 1: degenerate samples: no spread to fit\n"
        assert not out.exists()

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
            options, least, kwargs = cli._FLAGS[dest]
            if least is None:
                continue
            flag = options[0]
            message = ("hist requires --trials >= 100" if (command, flag) ==
                       ("hist", "--trials") else f"{flag} must be >= {least}")
            yield command, flag, str(least - 1), message
            if kwargs["type"] is float:
                yield command, flag, "nan", f"{flag} must be finite"


class TestUsage:
    @pytest.mark.parametrize("command, flag, value, message", [
        pytest.param(*case, id="{}{}={}".format(*case[:3])) for case in _below_least()])
    def test_value_below_least_rejected(self, tmp_path, capsys, command, flag,
                                        value, message):
        out = tmp_path / "o"
        code = run([command, "--out", str(out), flag, value])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

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
            meta = json.loads(path.read_text())["meta"]
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
