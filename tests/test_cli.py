import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import sheardisp
from sheardisp import acceptance
from sheardisp.acceptance import Check
from sheardisp.cli import build_parser, main
from sheardisp.eff_diffusivity import lambda_multiplicative, lambda_white, linear_profile


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


_HEAVY_SCIPY = ("scipy.signal", "scipy.stats", "scipy.integrate", "scipy.special",
                "scipy.optimize")


def _heavy_scipy_loaded(code: str) -> str:
    """Run code in a fresh interpreter and return which of _HEAVY_SCIPY it loaded."""
    src = str(Path(sheardisp.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = f"{code}; import sys; print(sorted(m for m in {_HEAVY_SCIPY!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1]


def test_import_leaves_out_scipy_submodules():
    # importing the CLI loads none of these, each of which would add
    # 0.1-0.8 s to every start-up
    assert _heavy_scipy_loaded("import sheardisp.cli") == "[]"


def test_kappa_eff_run_leaves_out_scipy_submodules():
    # the closed forms need numpy only, so the whole subcommand loads none either
    code = ("from sheardisp.cli import main; "
            "main(['kappa-eff', '--flow', 'cosine', '--gamma', '2', '--pe', '3'])")
    assert _heavy_scipy_loaded(code) == "[]"


@pytest.mark.parametrize("argv, loaded", [
    (["pdf", "--mode", "deterministic", "--outdir", "{out}"], "[]"),
    (["validate", "--only", "1,2,8,10"], "[]"),
    (["estimate-gamma", "--paths", "2", "--t-end", "50"], "[]"),
    # k0e for the density and erfc for the CDF table; the table's rule is numpy
    (["pdf", "--mode", "random-wave", "--outdir", "{out}"], "['scipy.special']"),
], ids=["pdf_deterministic", "validate_quick", "estimate_gamma", "pdf_random_wave"])
def test_recipe_loads_only_the_scipy_it_uses(argv, loaded, tmp_path):
    argv = [a.format(out=tmp_path) for a in argv]
    assert _heavy_scipy_loaded(f"from sheardisp.cli import main; main({argv!r})") == loaded


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

    def test_missing_flow_file(self, tmp_path, capsys):
        (tmp_path / "one_row.csv").write_text("0.5,1.0\n")
        (tmp_path / "header.csv").write_text("y,u\n0,0\n1,1\n")
        (tmp_path / "descending.csv").write_text("1,1\n0.5,0.5\n0,0\n")
        y = np.linspace(0.2, 0.8, 61)   # u = y on part of the channel only
        np.savetxt(tmp_path / "partial.csv", np.column_stack([y, y]), delimiter=",")
        (tmp_path / "nan.csv").write_text("0,0\n0.5,nan\n1,1\n")
        specs = ["no/such/file.csv", str(tmp_path / "one_row.csv"),
                 str(tmp_path / "header.csv"), str(tmp_path / "descending.csv"), "cosine:x",
                 str(tmp_path / "partial.csv"), str(tmp_path / "nan.csv")]
        for spec in specs:
            with pytest.raises(SystemExit, match="flow spec"):
                main(["kappa-eff", "--flow", spec])

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
        (["aris", "--t-end", "10", "--dt", "0.01"], None, "t_end"),
        (["kappa-eff"], {"bc": "bogus"}, "bc"),
        (["kappa-eff"], {"flow": 3}, "flow"),
        (["kappa-eff"], {"white_noise": "yes"}, "white_noise"),
        (["simulate"], {"steady": "no"}, "steady"),
        (["pdf"], {"mode": "bogus"}, "mode"),
        (["pdf"], {"outdir": 3}, "outdir"),
        (["validate"], {"only": 1}, "only"),
        (["aris", "--t-end", "inf"], None, "t_end"),
        (["aris", "--t-end", "20.003"], None, "t_end"),
        (["simulate", "--t-end", "1.005", "--dt", "0.01"], None, "t_end"),
        (["simulate", "--dt", "inf"], None, "dt"),
        (["simulate", "--init-s", "inf"], None, "init_s"),
        (["kappa-eff", "--pe", "inf"], None, "pe"),
        (["kappa-eff", "--gamma", "inf"], None, "gamma"),
        (["pdf", "--beta", "inf"], None, "beta"),
        (["kappa-eff"], {"pe": float("nan")}, "pe"),
    ], ids=["negative-gamma", "mode-index-0", "string-gamma", "bool-pe",
            "init-s-0", "negative-init-s", "float-paths", "float-n-modes",
            "float-seed", "negative-seed", "zero-threads", "aris-short-t-end",
            "bogus-bc", "int-flow", "string-white-noise", "string-steady",
            "bogus-pdf-mode", "int-outdir", "int-only", "infinite-t-end",
            "aris-partial-step", "simulate-partial-step", "infinite-dt",
            "infinite-init-s", "infinite-pe", "infinite-gamma", "infinite-beta",
            "nan-pe-document"])
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
        for m in (ma, mb):
            assert m["numpy_version"] == np.__version__
            assert m["scipy_version"] == scipy.__version__


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

    def test_thread_count_leaves_outputs_unchanged(self, tmp_path, capsys):
        # each walk owns its work arrays, so realizations walked on three
        # threads at once write the same bytes as one thread in turn
        written = []
        for threads in ("1", "3"):
            out = tmp_path / f"threads{threads}"
            code, _ = run_cli(["simulate", "--realizations", "3", "--particles", "2000",
                               "--t-end", "1", "--threads", threads, "--outdir", str(out)],
                              capsys)
            assert code == 0
            written.append([(out / name).read_bytes()
                            for name in ("simulate_summary.ndjson", "x_histogram.csv")])
        assert written[0] == written[1]


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

    def test_out_of_domain_path(self, capsys):
        # over t_end = 0.5, paths 0-18 give a statistic in (0, 1/2) and path 19
        # gives 0.83587: the run exits naming that path, before any output
        with pytest.raises(SystemExit, match=r"estimate-gamma path 19: integral statistic 0\.83587 "):
            main(["estimate-gamma", "--t-end", "0.5"])
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("only", ["99", "1,99", "1,"])
def test_validate_rejects_unknown_criteria(only, capsys):
    # raised before any criterion runs, naming the unknown key
    bad = only.split(",")[-1]
    with pytest.raises(SystemExit, match=re.escape(f"unknown criteria {bad!r}")):
        main(["validate", "--only", only])
    assert capsys.readouterr().out == ""


def test_validate_failing_criterion_exits_1(monkeypatch, capsys):
    failing = {"1": ("1-always-fails", lambda: [Check("err", 2.0, 1.0)])}
    monkeypatch.setattr(acceptance, "CRITERIA", failing)
    assert main(["validate", "--only", "1"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL  1-always-fails  ")
    assert "err 2 <= 1 (2.00)" in out and out.rstrip().endswith("0/1 criteria passed")


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


# every subcommand's actions: dest -> (option string, default, type, choices, nargs)
_HELP = ("--help", argparse.SUPPRESS, None, None, 0)
_CONFIG = ("--config", None, None, None, None)
_BC = ("--bc", "no-flux", None, ["no-flux", "periodic"], None)
PARSER = {
    "kappa-eff": {
        "help": _HELP, "config": _CONFIG,
        "flow": ("--flow", "linear", None, None, None),
        "gamma": ("--gamma", 1.0, float, None, None),
        "pe": ("--pe", 1.0, float, None, None),
        "bc": _BC,
        "white_noise": ("--white-noise", False, None, None, 0),
    },
    "aris": {
        "help": _HELP, "config": _CONFIG,
        "seed": ("--seed", 0, int, None, None),
        "outdir": ("--outdir", None, None, None, None),
        "threads": ("--threads", 1, int, None, None),
        "flow": ("--flow", "linear", None, None, None),
        "gamma": ("--gamma", 1.0, float, None, None),
        "pe": ("--pe", 1.0, float, None, None),
        "t_end": ("--t-end", 200.0, float, None, None),
        "dt": ("--dt", 0.005, float, None, None),
        "realizations": ("--realizations", 1, int, None, None),
        "n_modes": ("--n-modes", 8, int, None, None),
    },
    "simulate": {
        "help": _HELP, "config": _CONFIG,
        "seed": ("--seed", 0, int, None, None),
        "outdir": ("--outdir", None, None, None, None),
        "threads": ("--threads", 1, int, None, None),
        "flow": ("--flow", "linear", None, None, None),
        "steady": ("--steady", False, None, None, 0),
        "gamma": ("--gamma", 1.0, float, None, None),
        "pe": ("--pe", 1.0, float, None, None),
        "bc": _BC,
        "t_end": ("--t-end", 50.0, float, None, None),
        "dt": ("--dt", 0.01, float, None, None),
        "particles": ("--particles", 20_000, int, None, None),
        "realizations": ("--realizations", 1, int, None, None),
        "init_s": ("--init-s", None, float, None, None),
        "bins": ("--bins", 100, int, None, None),
    },
    "pdf": {
        "help": _HELP, "config": _CONFIG,
        "outdir": ("--outdir", None, None, None, None),
        "mode": ("--mode", "deterministic", None, ["deterministic", "random-wave"], None),
        "beta": ("--beta", 1.0, float, None, None),
        "bins": ("--bins", 200, int, None, None),
    },
    "estimate-gamma": {
        "help": _HELP, "config": _CONFIG,
        "seed": ("--seed", 0, int, None, None),
        "gamma": ("--gamma", 5.0, float, None, None),
        "t_end": ("--t-end", 500.0, float, None, None),
        "dt": ("--dt", 0.005, float, None, None),
        "paths": ("--paths", 20, int, None, None),
        "mode_index": ("--mode-index", 1, int, None, None),
    },
    "validate": {
        "help": _HELP, "config": _CONFIG,
        "only": ("--only", None, None, None, None),
    },
}


def test_parser_is_pinned():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(PARSER)
    for name, sub in subparsers.choices.items():
        actions = {a.dest: (a.option_strings[-1], sub.get_default(a.dest), a.type,
                            a.choices, a.nargs) for a in sub._actions}
        assert actions == PARSER[name], name


class TestConfigDocument:
    def test_flags_override_document(self, tmp_path, capsys):
        cfg = {"flow": "linear", "gamma": 2.0, "pe": 1.0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        _, out_doc = run_cli(["kappa-eff", "--config", str(cfg_path)], capsys)
        _, out_override = run_cli(["kappa-eff", "--config", str(cfg_path),
                                   "--gamma", "5"], capsys)
        # a flag at its default value overrides the document too
        _, out_default = run_cli(["kappa-eff", "--config", str(cfg_path),
                                  "--gamma", "1"], capsys)
        assert json.loads(out_doc)["gamma"] == 2.0
        assert json.loads(out_override)["gamma"] == 5.0
        assert json.loads(out_default)["gamma"] == 1.0

    @pytest.mark.parametrize("content, reason", [
        (None, "No such file"),
        ("{gamma: 2}", "not valid JSON"),
        ("[1, 2]", "not a JSON object"),
    ], ids=["missing", "not-json", "json-list"])
    def test_bad_document_names_the_file(self, content, reason, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        if content is not None:
            cfg_path.write_text(content)
        with pytest.raises(SystemExit, match=re.escape(f"config file {cfg_path}: {reason}")):
            main(["kappa-eff", "--config", str(cfg_path)])

    def test_unread_field_is_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 3}))
        with pytest.raises(SystemExit, match="seed"):
            main(["kappa-eff", "--config", str(cfg_path)])
