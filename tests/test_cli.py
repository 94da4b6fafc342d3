import json

import numpy as np
import pytest

from sheardisp.cli import main
from sheardisp.eff_diffusivity import lambda_multiplicative, lambda_white, linear_profile


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestKappaEff:
    def test_linear_preset_matches_module(self, capsys):
        code, out = run_cli(["kappa-eff", "--flow", "linear", "--gamma", "1",
                             "--pe", "1"], capsys)
        assert code == 0
        rec = json.loads(out)
        eig = lambda_multiplicative(linear_profile(), 1.0, 1.0)
        assert rec["kappa_eff"] == pytest.approx(eig.kappa_eff, rel=1e-12)
        assert rec["lambda2"] == pytest.approx(eig.lambda2, rel=1e-12)
        assert "white_noise_limit" in rec

    def test_white_noise_cosine(self, capsys):
        # cosine preset, white-noise mode, Pe = 2: kappa = 1 + 4/4 = 2
        code, out = run_cli(["kappa-eff", "--flow", "cosine", "--white-noise",
                             "--pe", "2"], capsys)
        rec = json.loads(out)
        assert rec["kappa_eff"] == pytest.approx(2.0, abs=1e-10)

    def test_zero_peclet(self, capsys):
        code, out = run_cli(["kappa-eff", "--flow", "linear", "--gamma", "2",
                             "--pe", "0"], capsys)
        rec = json.loads(out)
        assert rec["kappa_eff"] == pytest.approx(1.0, abs=1e-14)

    def test_steady_taylor_periodic_walls(self, capsys):
        # u = y with periodic walls: 1 + Pe^2/720, not the no-flux 1 + Pe^2/120
        code, out = run_cli(["kappa-eff", "--flow", "linear", "--bc", "periodic",
                             "--pe", "2"], capsys)
        assert code == 0
        assert json.loads(out)["steady_taylor_kappa_eff"] == pytest.approx(1 + 4 / 720, abs=1e-12)

    def test_custom_profile_file(self, tmp_path, capsys):
        y = np.linspace(0, 1, 101)
        np.savetxt(tmp_path / "u.csv", np.column_stack([y, y]), delimiter=",")
        code, out = run_cli(["kappa-eff", "--flow", str(tmp_path / "u.csv"),
                             "--white-noise", "--pe", "1"], capsys)
        rec = json.loads(out)
        assert rec["kappa_eff"] == pytest.approx(
            lambda_white(linear_profile(), 1.0).kappa_eff, rel=1e-4)

    def test_missing_flow_file(self, capsys):
        with pytest.raises(SystemExit):
            main(["kappa-eff", "--flow", "no/such/file.csv"])

    @pytest.mark.parametrize("argv, doc, field", [
        (["kappa-eff", "--flow", "linear", "--gamma", "-3"], None, "gamma"),
        (["estimate-gamma", "--mode-index", "0"], None, "mode_index"),
        (["kappa-eff"], {"gamma": "2"}, "gamma"),
        (["kappa-eff"], {"pe": True}, "pe"),
        (["simulate", "--init-s", "0"], None, "init_s"),
        (["simulate", "--init-s", "-1"], None, "init_s"),
        (["estimate-gamma"], {"paths": 2.5}, "paths"),
        (["aris"], {"n_modes": 2.5}, "n_modes"),
        (["aris"], {"seed": 1.5}, "seed"),
        (["aris", "--seed", "-1"], None, "seed"),
        (["aris", "--threads", "0"], None, "threads"),
    ], ids=["negative-gamma", "mode-index-0", "string-gamma", "bool-pe",
            "init-s-0", "negative-init-s", "float-paths", "float-n-modes",
            "float-seed", "negative-seed", "zero-threads"])
    def test_invalid_numeric_config(self, argv, doc, field, tmp_path):
        if doc is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(doc))
            argv = argv + ["--config", str(tmp_path / "cfg.json")]
        with pytest.raises(SystemExit, match=f"config field {field}="):
            main(argv)


class TestAris:
    def test_reduced_recipe(self, tmp_path, capsys):
        # reduced-size version of the ergodicity figure recipe: the
        # kappa_estimate column converges toward the closed form
        code, out = run_cli(["aris", "--flow", "linear", "--gamma", "1",
                             "--pe", "1", "--t-end", "60", "--dt", "0.01",
                             "--realizations", "2", "--outdir", str(tmp_path)],
                            capsys)
        assert code == 0
        lines = (tmp_path / "aris_summary.ndjson").read_text().splitlines()
        assert len(lines) == 2
        closed = lambda_multiplicative(linear_profile(), 1.0, 1.0).kappa_eff
        for line in lines:
            rec = json.loads(line)
            assert abs(rec["kappa_estimate_final"] / closed - 1.0) < 0.10
        data = np.loadtxt(tmp_path / "aris_0000.csv", delimiter=",", skiprows=1)
        assert data.shape[1] == 4
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["kappa_eff_closed_form"] == pytest.approx(closed)

    def test_manifest_determinism(self, tmp_path, capsys):
        args = ["aris", "--flow", "linear", "--t-end", "20", "--dt", "0.01",
                "--seed", "3"]
        run_cli(args + ["--outdir", str(tmp_path / "a")], capsys)
        run_cli(args + ["--outdir", str(tmp_path / "b")], capsys)
        a = (tmp_path / "a" / "aris_0000.csv").read_bytes()
        b = (tmp_path / "b" / "aris_0000.csv").read_bytes()
        assert a == b
        ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
        mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
        ma["config"].pop("outdir"), mb["config"].pop("outdir")
        assert ma["config"] == mb["config"]


class TestSimulate:
    def test_steady_run(self, tmp_path, capsys):
        code, out = run_cli(["simulate", "--flow", "linear", "--steady",
                             "--pe", "1", "--t-end", "5", "--dt", "0.01",
                             "--particles", "2000", "--outdir", str(tmp_path)],
                            capsys)
        assert code == 0
        lines = (tmp_path / "simulate_summary.ndjson").read_text().splitlines()
        rec = json.loads(lines[0])
        assert rec["kappa_estimate_final"] > 0.8
        hist = np.loadtxt(tmp_path / "x_histogram.csv", delimiter=",", skiprows=1)
        widths = np.diff(hist[:, 0]).mean()
        assert np.sum(hist[:, 1] * widths) == pytest.approx(1.0, abs=0.05)


class TestPdf:
    def test_deterministic_table_mass(self, tmp_path, capsys):
        code, out = run_cli(["pdf", "--mode", "deterministic", "--beta", "1",
                             "--bins", "200", "--outdir", str(tmp_path)], capsys)
        assert code == 0
        data = np.loadtxt(tmp_path / "pdf_deterministic.csv", delimiter=",",
                          skiprows=1)
        dz = 1.0 / 200
        assert abs(np.sum(data[:, 1]) * dz - 1.0) <= 1e-3

    def test_random_wave_table(self, tmp_path, capsys):
        run_cli(["pdf", "--mode", "random-wave", "--bins", "100",
                 "--outdir", str(tmp_path)], capsys)
        data = np.loadtxt(tmp_path / "pdf_random-wave.csv", delimiter=",",
                          skiprows=1)
        dz = 12.0 / 100
        assert abs(np.sum(data[:, 1]) * dz - 1.0) <= 1e-3


class TestEstimateGamma:
    def test_recovery(self, capsys):
        code, out = run_cli(["estimate-gamma", "--gamma", "5", "--t-end", "120",
                             "--dt", "0.01", "--paths", "6"], capsys)
        rec = json.loads(out)
        assert abs(rec["gamma_hat_mean"] / 5.0 - 1.0) < 0.25
        assert len(rec["gamma_hats"]) == 6


# (subcommand, flag it does not read) pairs; aris has no-flux walls only
UNREAD_FLAGS = [
    ["kappa-eff", "--seed", "1"],
    ["kappa-eff", "--outdir", "{out}"],
    ["kappa-eff", "--threads", "2"],
    ["pdf", "--seed", "1", "--outdir", "{out}"],
    ["pdf", "--threads", "2", "--outdir", "{out}"],
    ["estimate-gamma", "--outdir", "{out}", "--t-end", "20", "--dt", "0.01", "--paths", "1"],
    ["estimate-gamma", "--threads", "2", "--t-end", "20", "--dt", "0.01", "--paths", "1"],
    ["validate", "--seed", "1", "--only", "1"],
    ["validate", "--outdir", "{out}", "--only", "1"],
    ["validate", "--threads", "2", "--only", "1"],
    ["aris", "--bc", "periodic", "--t-end", "20", "--dt", "0.01", "--outdir", "{out}"],
]


@pytest.mark.parametrize("argv", UNREAD_FLAGS, ids=[" ".join(a[:2]) for a in UNREAD_FLAGS])
def test_unread_flag_is_rejected(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path) if a == "{out}" else a for a in argv])
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err


class TestConfigDocument:
    def test_flags_override_document(self, tmp_path, capsys):
        cfg = {"flow": "linear", "gamma": 2.0, "pe": 1.0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        _, out_doc = run_cli(["kappa-eff", "--config", str(cfg_path)], capsys)
        _, out_override = run_cli(["kappa-eff", "--config", str(cfg_path),
                                   "--gamma", "5"], capsys)
        assert json.loads(out_doc)["gamma"] == 2.0
        assert json.loads(out_override)["gamma"] == 5.0

    def test_unread_field_is_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 3}))
        with pytest.raises(SystemExit, match="seed"):
            main(["kappa-eff", "--config", str(cfg_path)])
