import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qnmkit.cli import main, parse_config, ConfigError
from qnmkit.spacetime import SpacetimeParams


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def ds_params(tmp_path):
    return write(tmp_path / "ds.params", "lambda = 3.0\nmodel = deSitter\n")


# the sample rotating model, which the radial resonance solver does not cover
CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "scripts", "configs")
KDS_PARAMS = os.path.join(CONFIGS, "kds.params")


def src_env(**extra):
    """os.environ for a subprocess that imports qnmkit from this checkout."""
    src = os.path.join(os.path.dirname(CONFIGS), os.pardir, "src")
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def dss_params(tmp_path):
    return write(tmp_path / "dss.params",
                 "lambda = 3.0\nr_s = 0.2\nmodel = dSSchwarzschild\n")


class TestConfigParsing:
    # the removed knobs (grid_size, require, tol, eps, retry_budget, the
    # resonance box and recon_bound) are unknown keys like any other, and a
    # params file that names the removed domain margin delta is refused too
    @pytest.mark.parametrize("command, line", [
        ("admissible", "bogus = 1"),
        ("resonances", "scan_step = 0.2"),
        ("expand", "sigma_max = 60"),
        ("admissible", "grid_size = 2048"),
        ("admissible", "require = horizons_exist"),
        ("flow", "tol = 1e-10"),
        ("flow", "eps = 0.001"),
        ("flow", "retry_budget = 2"),
        ("resonances", "re_min = -6"),
        ("resonances", "re_max = 6"),
        ("resonances", "im_min = -3.6"),
        ("resonances", "im_max = 0.4"),
        ("expand", "recon_bound = 1e-6"),
    ], ids=["admissible-bogus", "resonances-scan_step", "expand-sigma_max",
            "admissible-grid_size", "admissible-require", "flow-tol",
            "flow-eps", "flow-retry_budget", "resonances-re_min",
            "resonances-re_max", "resonances-im_min", "resonances-im_max",
            "expand-recon_bound"])
    def test_unknown_key_rejected(self, tmp_path, ds_params, command, line):
        cfg = write(tmp_path / "c.cfg", f"params = {ds_params}\n{line}\n")
        with pytest.raises(ConfigError):
            parse_config(cfg, command, str(tmp_path))
        assert main([command, "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2

    def test_params_key_delta_rejected(self, tmp_path, capsys):
        p = write(tmp_path / "ds.params", "lambda = 3.0\ndelta = 0.1\n")
        cfg = write(tmp_path / "c.cfg", f"params = {p}\n")
        assert main(["admissible", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize("line, key", [("lambda = abc", "lambda"),
                                           ("n = 4.5", "n")], ids=["lambda", "n"])
    def test_bad_params_value_names_its_key(self, tmp_path, capsys, line, key):
        # the params file is typed by the config's reader, so a value its
        # type cannot read names its key and exits 2 before any output
        p = write(tmp_path / "bad.params", f"model = deSitter\n{line}\n")
        cfg = write(tmp_path / "c.cfg", f"params = {p}\n")
        out = tmp_path / "out"
        assert main(["admissible", "--config", cfg, "--out", str(out)]) == 2
        assert f"bad value for {key}: " in capsys.readouterr().err
        assert not out.exists()

    def test_minkowski_with_r_s_exit_two(self, tmp_path, capsys):
        p = write(tmp_path / "mk.params",
                  "lambda = 0\nr_s = 0.2\nmodel = MinkowskiBoundary\n")
        cfg = write(tmp_path / "c.cfg", f"params = {p}\nN = 16\nell_max = 0\n")
        out = tmp_path / "out"
        assert main(["resonances", "--config", cfg, "--out", str(out)]) == 2
        assert "MinkowskiBoundary requires" in capsys.readouterr().err
        assert not out.exists()

    def test_params_parsed_with_the_config(self, tmp_path, dss_params):
        # a relative params path is read from the config's folder
        from qnmkit.spacetime import load_params
        cfg = write(tmp_path / "c.cfg", "params = dss.params\n")
        rc = parse_config(cfg, "flow", str(tmp_path / "out"))
        assert rc.params == load_params(dss_params)
        assert rc.params == SpacetimeParams(3.0, 0.2, 0.0, "dSSchwarzschild")

    def test_out_of_range_rejected(self, tmp_path, ds_params):
        # a knob outside its schema range and an empty ell range
        for lines in ("N = 4", "ell_min = 2\nell_max = 0"):
            cfg = write(tmp_path / "c.cfg", f"params = {ds_params}\n{lines}\n")
            with pytest.raises(ConfigError):
                parse_config(cfg, "resonances", str(tmp_path))

    @pytest.mark.parametrize("classify", [0, 1])
    def test_zero_horizon_sign_rejected(self, tmp_path, capsys, classify):
        # every consumer would read horizon_sign = 0 as -1
        cfg = write(tmp_path / "c.cfg",
                    f"params = {KDS_PARAMS}\nhorizon_sign = 0\n"
                    f"include_classify = {classify}\n")
        with pytest.raises(ConfigError):
            parse_config(cfg, "flow", str(tmp_path))
        out = tmp_path / "out"
        assert main(["flow", "--config", cfg, "--out", str(out)]) == 2
        assert "horizon_sign" in capsys.readouterr().err
        assert not out.exists()

    def test_defaults_filled(self, tmp_path, ds_params):
        cfg = write(tmp_path / "c.cfg", f"params = {ds_params}\n")
        rc = parse_config(cfg, "resonances", str(tmp_path))
        assert rc.knobs["N"] == 80 and rc.knobs["oracle"] == 1


class TestManifest:
    # a small run of each subcommand: (command, params file, knobs)
    RUNS = [("admissible", "kds.params", ""),
            ("flow", "dss.params", "n_traj = 2\nT = 1.0\nseed = 3\n"),
            ("resonances", "ds.params", "N = 32\nell_max = 1\n"),
            ("expand", "ds.params", "N = 16\nn_sigma = 128\n")]

    def run(self, tmp_path, name, command, params, knobs=""):
        cfg = write(tmp_path / f"{name}.cfg", f"params = {params}\n{knobs}")
        out = tmp_path / name
        rc = main([command, "--config", cfg, "--out", str(out)])
        return rc, out, json.loads((out / "manifest.json").read_text())

    def test_config_without_params_names_the_key(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg", "N = 16\n")
        out = tmp_path / "out"
        assert main(["resonances", "--config", cfg, "--out", str(out)]) == 2
        assert "params = PATH" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_is_a_flow_knob(self, tmp_path, dss_params, capsys):
        # the flow's seed comes from its config; the command line has no
        # --seed, so a run that passes one is refused before any output
        cfg = write(tmp_path / "c.cfg", f"params = {dss_params}\n")
        for command in ("resonances", "flow"):
            assert main([command, "--config", cfg, "--out",
                         str(tmp_path / "o"), "--seed", "3"]) == 2
        assert not (tmp_path / "o").exists()
        rows = []
        for seed in (0, 1):
            rc, out, manifest = self.run(
                tmp_path, f"s{seed}", "flow", dss_params,
                f"n_traj = 1\nT = 0.5\ninclude_classify = 0\nseed = {seed}\n")
            assert rc == 0 and manifest["knobs"]["seed"] == seed
            rows.append((out / "trajectories.csv").read_bytes())
        assert rows[0] != rows[1]
        cfg = write(tmp_path / "neg.cfg", f"params = {dss_params}\nseed = -1\n")
        assert main(["flow", "--config", cfg, "--out", str(tmp_path / "n")]) == 2
        assert "seed = -1 outside" in capsys.readouterr().err

    def test_manifest_names_its_params(self, tmp_path):
        # every sample model gets its own hash: the manifest keys its
        # spacetime as a params file does, and the hash covers it
        from qnmkit.spacetime import load_params
        hashes = set()
        for model in ("ds", "dss", "kds", "minkowski", "dss-small"):
            path = os.path.join(CONFIGS, model + ".params")
            _, _, manifest = self.run(tmp_path, model, "admissible", path)
            p = manifest["params"]
            assert sorted(p) == ["alpha", "lambda", "model", "n", "r_s"]
            assert SpacetimeParams(p["lambda"], p["r_s"], p["alpha"],
                                   p["model"], p["n"]) == load_params(path)
            hashes.add(manifest["config_hash"])
        assert len(hashes) == 5

    def test_spacetimes_hash_apart(self, tmp_path):
        # dS and Minkowski with the same knobs wrote one manifest
        manifests = [self.run(tmp_path, m, "resonances",
                              os.path.join(CONFIGS, m + ".params"),
                              "N = 48\nell_max = 0\n")[2]
                     for m in ("ds", "minkowski")]
        assert manifests[0]["knobs"] == manifests[1]["knobs"]
        assert manifests[0]["config_hash"] != manifests[1]["config_hash"]

    @pytest.mark.parametrize("command, params, knobs", RUNS,
                             ids=[r[0] for r in RUNS])
    def test_manifest_reproduces_the_run(self, tmp_path, command, params,
                                         knobs):
        # a params file and a config written from the manifest alone rerun
        # the same study: every output, the manifest included, byte for byte
        rc, out, manifest = self.run(tmp_path, "a", command,
                                     os.path.join(CONFIGS, params), knobs)
        rebuilt = tmp_path / "rebuilt"
        rebuilt.mkdir()
        write(rebuilt / "p.params", "".join(
            f"{k} = {v}\n" for k, v in manifest["params"].items()))
        rc2, out2, _ = self.run(rebuilt, "b", manifest["command"], "p.params",
                                "".join(f"{k} = {v}\n" for k, v in
                                        manifest["knobs"].items()))
        assert rc2 == rc
        assert sorted(os.listdir(out)) == sorted(os.listdir(out2))
        for name in os.listdir(out):
            assert (out / name).read_bytes() == (out2 / name).read_bytes(), name


class TestAdmissible:
    def test_de_sitter_exit_zero(self, tmp_path, ds_params):
        cfg = write(tmp_path / "c.cfg", f"params = {ds_params}\n")
        out = tmp_path / "out"
        assert main(["admissible", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "admissibility.json").read_text())
        assert rep["horizons_exist"] is True
        assert (out / "manifest.json").exists()

    def test_no_horizons_exit_one(self, tmp_path):
        p = write(tmp_path / "bad.params",
                  "lambda = 3.0\nr_s = 1.0\nmodel = dSSchwarzschild\n")
        cfg = write(tmp_path / "c.cfg", f"params = {p}\n")
        out = tmp_path / "out"
        assert main(["admissible", "--config", cfg, "--out", str(out)]) == 1
        rep = json.loads((out / "admissibility.json").read_text())
        assert rep["horizons_exist"] is False

    def test_malformed_config_exit_two(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", "params\n")
        assert main(["admissible", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2

    def test_missing_config_exit_two(self, tmp_path):
        assert main(["admissible", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_params_file_exit_two(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg", f"params = {tmp_path / 'none.params'}\n")
        assert main(["admissible", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lambda_exit_two(self, tmp_path, capsys, value):
        # nan and inf pass the sign test on lambda; only the finiteness check
        # refuses them, before any output is written
        p = write(tmp_path / "bad.params", f"lambda = {value}\nmodel = deSitter\n")
        cfg = write(tmp_path / "c.cfg", f"params = {p}\n")
        out = tmp_path / "out"
        assert main(["admissible", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "lambda" in err
        assert not (out / "admissibility.json").exists()

    def test_semiclassical_regime_leaves_the_exit_code(self, tmp_path):
        # de Sitter has no black hole, so its semiclassical margin
        # sqrt(3)/4 r_s - |alpha| is 0: the flag fails, yet the exit code
        # follows horizons_exist and classical_nontrapping only
        cfg = write(tmp_path / "c.cfg",
                    f"params = {os.path.join(CONFIGS, 'ds.params')}\n")
        out = tmp_path / "out"
        assert main(["admissible", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "admissibility.json").read_text())
        assert rep["semiclassical_regime"] is False
        assert ["semiclassical_margin", 0.0, 0.0] in rep["diagnostics"]

    def test_threads_flag_exit_two(self, tmp_path, ds_params):
        cfg = write(tmp_path / "c.cfg", f"params = {ds_params}\n")
        assert main(["admissible", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--threads", "2"]) == 2


class TestFlow:
    def test_deterministic_rerun(self, tmp_path, dss_params):
        cfg = write(tmp_path / "c.cfg",
                    f"params = {dss_params}\nn_traj = 3\nT = 2.0\n"
                    "include_classify = 0\nseed = 7\n")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
            outs.append((out / "trajectories.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_de_sitter_rows_fill_the_header(self, tmp_path, ds_params):
        cfg = write(tmp_path / "c.cfg",
                    f"params = {ds_params}\nn_traj = 2\nT = 1.0\n"
                    "include_classify = 0\n")
        out = tmp_path / "out"
        assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "trajectories.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert rows
        assert all(len(r) == len(header) for r in rows)
        # c4-c6 and the ledger columns are blank on the reduced flow
        assert all(r[3:6] != ["", "", ""] and r[6:] == [""] * 6 for r in rows)

    def test_de_sitter_classify_report(self, tmp_path, ds_params):
        cfg = write(tmp_path / "c.cfg",
                    f"params = {ds_params}\nn_traj = 8\nT = 4.0\n")
        out = tmp_path / "out"
        assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "radial_report.json").read_text())
        assert rep["beta0_expected"] == 4.0
        assert abs(rep["beta0_measured"] - 4.0) / 4.0 < 0.05

    @pytest.mark.parametrize("classify", [0, 1])
    def test_de_sitter_inner_horizon_exit_two(self, tmp_path, ds_params,
                                              capsys, classify):
        # de Sitter has no inner horizon: horizon_sign = -1 is a config
        # error, with or without the classify report, and writes no output
        cfg = write(tmp_path / "c.cfg",
                    f"params = {ds_params}\nn_traj = 3\nhorizon_sign = -1\n"
                    f"include_classify = {classify}\n")
        out = tmp_path / "out"
        assert main(["flow", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("config error: deSitter has no "
                                           "inner horizon; horizon_sign must "
                                           "be +1\n")
        assert os.listdir(out) == ["manifest.json"]

    @staticmethod
    def _fail_every_step(tmp_path, monkeypatch, dss_params, lines="",
                         failure=lambda v: math.nan):
        """Run one flow on a field that turns to failure(v) of each value v
        after each run's two start evaluations (NaN, or an OverflowError), so
        every step is rejected until it falls below the float spacing; the
        exit code and the tol of each attempt."""
        import qnmkit.cli as cli
        import qnmkit.dynamics as dynamics

        def fail_after_start(*a, _f=dynamics.hamilton_kernel):
            field, calls = _f(*a), []

            def wrapped(y):
                calls.append(1)
                if len(calls) <= 2:
                    return field(y)
                return [failure(v) for v in field(y)]
            return wrapped
        monkeypatch.setattr(dynamics, "hamilton_kernel", fail_after_start)
        tols = []

        def counted(*a, _f=cli.integrate_flow, **k):
            tols.append(k["tol"])
            return _f(*a, **k)
        monkeypatch.setattr(cli, "integrate_flow", counted)
        cfg = write(tmp_path / "c.cfg", f"params = {dss_params}\nn_traj = 1\n"
                                        f"include_classify = 0\n{lines}")
        code = main(["flow", "--config", cfg, "--out", str(tmp_path / "o")])
        return code, tols

    def test_step_failure_exits_3(self, tmp_path, monkeypatch, dss_params,
                                  capsys):
        # the two retries at looser tolerance fail alike, and flow exits 3
        # with one stderr line that names the stage
        code, tols = self._fail_every_step(tmp_path, monkeypatch, dss_params)
        assert code == 3
        assert tols == pytest.approx([1e-10, 1e-9, 1e-8], rel=1e-12)
        assert capsys.readouterr().err == (
            "step failure in flow integration: required step size is less "
            "than the spacing between numbers\n")

    def test_overflowing_field_exits_3(self, tmp_path, monkeypatch,
                                       dss_params):
        # the kernels square with Python's **, which raises OverflowError on
        # overflow: a trial step that overflows is rejected like one that
        # reads NaN, and flow exits 3, not with a traceback
        code, tols = self._fail_every_step(
            tmp_path, monkeypatch, dss_params,
            failure=lambda v: (1e200 + abs(float(v))) ** 2)
        assert code == 3
        assert tols == pytest.approx([1e-10, 1e-9, 1e-8], rel=1e-12)

    @pytest.mark.parametrize("model", ["kds", "dss", "ds"])
    def test_outputs_independent_of_blas_threads(self, tmp_path, model):
        # the flow runs no linear algebra of its own, so its files must not
        # depend on the BLAS thread count
        cfg = write(tmp_path / "c.cfg",
                    f"params = {os.path.join(CONFIGS, model + '.params')}\n"
                    "n_traj = 3\ninclude_classify = 1\n")
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            subprocess.run([sys.executable, "-m", "qnmkit.cli", "flow",
                            "--config", cfg, "--out", str(out)],
                           env=src_env(OPENBLAS_NUM_THREADS=threads), check=True)
            outs.append([(out / name).read_bytes() for name in
                         ("trajectories.csv", "radial_report.json")])
        assert outs[0] == outs[1]

    def test_classify_ignores_t(self, tmp_path):
        # T sets trajectories.csv only; the report names the T classify ran to
        reports = []
        for T in ("0.5", "8.0"):
            cfg = write(tmp_path / f"{T}.cfg",
                        f"params = {os.path.join(CONFIGS, 'dss.params')}\n"
                        f"n_traj = 1\nT = {T}\n")
            out = tmp_path / T
            assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
            reports.append((out / "radial_report.json").read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["classify_T"] == 4.0

    def test_minkowski_exit_two(self, tmp_path, capsys):
        # the flat boundary model has no Hamilton flow and no radial set
        cfg = write(tmp_path / "c.cfg",
                    f"params = {os.path.join(CONFIGS, 'minkowski.params')}\n")
        out = tmp_path / "out"
        assert main(["flow", "--config", cfg, "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (out / "radial_report.json").exists()


# run in a fresh interpreter: argv[1] is an output directory, argv[2] the
# sample configs; writes the tables of dS and Minkowski at caps 80, 110 and
# 160 and of dSS at 80, one ell = 0, 1, 2 each, with the oracle
_TABLES_SCRIPT = r"""
import os, sys
import qnmkit.cli as cli
out, configs = sys.argv[1:3]
ops = [(p, n) for p in ("minkowski", "ds") for n in (80, 110, 160)] + [("dss", 80)]
for p, n in ops:
    for ell in range(3):
        name = f"{p}-N{n}-l{ell}"
        cfg = os.path.join(out, name + ".cfg")
        with open(cfg, "w") as fh:
            fh.write(f"params = {os.path.join(configs, p + '.params')}\nN = {n}\n"
                     f"ell_min = {ell}\nell_max = {ell}\n")
        assert cli.main(["resonances", "--config", cfg,
                         "--out", os.path.join(out, name)]) == 0
"""


class TestResonances:
    def test_minkowski_table_contains_lattice(self, tmp_path):
        p = write(tmp_path / "mk.params", "lambda = 0\nmodel = MinkowskiBoundary\nn = 4\n")
        cfg = write(tmp_path / "c.cfg",
                    f"params = {p}\nN = 80\nell_min = 0\nell_max = 2\n")
        out = tmp_path / "out"
        assert main(["resonances", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "resonances.csv").read_text().strip().splitlines()[1:]
        sig = [complex(float(r.split(",")[3]), float(r.split(",")[4]))
               for r in rows if float(r.split(",")[6]) < 1e-6]
        for j in range(3):
            assert min(abs(z + 1j * (1 + j)) for z in sig) < 1e-6
        assert (out / "convergence.json").exists()

    def test_minkowski_odd_dimension_certified(self, tmp_path):
        # the oracle reads the dimension from the params file, as the solver
        # does, and the model column is the params file's model
        p = write(tmp_path / "mk.params", "lambda = 0\nmodel = MinkowskiBoundary\nn = 3\n")
        cfg = write(tmp_path / "c.cfg",
                    f"params = {p}\nN = 80\nell_min = 0\nell_max = 2\n")
        out = tmp_path / "out"
        assert main(["resonances", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "resonances.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        conv = [r for r in rows if float(r["convergence_delta"]) < 1e-6]
        assert conv and all(r["oracle_verdict"] == "agree" for r in conv)
        assert all(r["model"] == "MinkowskiBoundary" for r in rows)

    def test_dimension_of_four_dimensional_model_exit_two(self, tmp_path, capsys):
        p = write(tmp_path / "dss.params",
                  "lambda = 3.0\nr_s = 0.2\nmodel = dSSchwarzschild\nn = 7\n")
        cfg = write(tmp_path / "c.cfg", f"params = {p}\nN = 16\nell_max = 0\n")
        assert main(["resonances", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert "config error:" in capsys.readouterr().err
        with pytest.raises(ValueError):
            SpacetimeParams(3.0, 0.2, 0.05, "KerrDeSitter", n=5)

    def test_de_sitter_dimension_two_exit_two(self, tmp_path, capsys):
        p = write(tmp_path / "ds2.params", "lambda = 3.0\nmodel = deSitter\nn = 2\n")
        cfg = write(tmp_path / "c.cfg", f"params = {p}\nN = 40\nell_max = 1\n")
        assert main(["resonances", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_empty_region_exit_zero(self, tmp_path, ds_params):
        # the de Sitter ell = 4 poles start at -4i, below the box's -3.6
        cfg = write(tmp_path / "c.cfg",
                    f"params = {ds_params}\nN = 40\nell_min = 4\nell_max = 4\n"
                    "oracle = 0\n")
        out = tmp_path / "out"
        assert main(["resonances", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "resonances.csv").read_text().strip().splitlines()
        assert len(rows) == 1   # header only

    def test_unsupported_model_exit_two(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg",
                    f"params = {KDS_PARAMS}\nN = 16\nell_max = 0\noracle = 0\n")
        assert main(["resonances", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_de_sitter_without_horizon_exit_two(self, tmp_path, capsys):
        # at lambda = 0 de Sitter has no cosmological horizon: the family
        # is lambda-free, and it wrote the lambda = 3 rows with exit 0
        p = write(tmp_path / "ds0.params", "lambda = 0\nmodel = deSitter\n")
        cfg = write(tmp_path / "c.cfg", f"params = {p}\nN = 48\nell_max = 0\n")
        out = tmp_path / "out"
        assert main(["resonances", "--config", cfg, "--out", str(out)]) == 2
        assert "need lam > 0" in capsys.readouterr().err
        assert os.listdir(out) == ["manifest.json"]

    def test_oracle_failure_blanks_only_stiff_rows(self, tmp_path, ds_params,
                                                    monkeypatch):
        # a StiffFailure leaves the oracle columns blank, with the verdict
        # `failed`; any other error is a fault of the program and must not
        # be hidden as a blank row
        import qnmkit.cli
        from qnmkit.resonances import StiffFailure
        cfg = write(tmp_path / "c.cfg",
                    f"params = {ds_params}\nN = 16\nell_max = 0\n")

        def stiff(*a, **k):
            raise StiffFailure("indicial coincidence")
        monkeypatch.setattr(qnmkit.cli, "oracle_refine", stiff)
        out = tmp_path / "out"
        assert main(["resonances", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "resonances.csv").read_text().strip().splitlines()[1:]
        assert rows and all(r.endswith(",,,failed") for r in rows)

        def broken(*a, **k):
            raise ZeroDivisionError("bug")
        monkeypatch.setattr(qnmkit.cli, "oracle_refine", broken)
        with pytest.raises(ZeroDivisionError):
            main(["resonances", "--config", cfg, "--out", str(tmp_path / "o2")])

    @pytest.mark.parametrize("verdict, code", [("agree", 0), ("disagree", 1)])
    def test_oracle_verdict(self, tmp_path, ds_params, monkeypatch, verdict,
                            code):
        # the box holds the converged constant mode: an oracle 1e-3 away
        # refutes it and the run exits 1 (a failed oracle: the test above)
        import qnmkit.cli
        cfg = write(tmp_path / "c.cfg",
                    f"params = {ds_params}\nN = 16\nell_max = 0\n")
        shift = 1e-9 if verdict == "agree" else 1e-3
        monkeypatch.setattr(qnmkit.cli, "oracle_refine",
                            lambda params, ell, sigma: sigma + shift)
        out = tmp_path / "out"
        assert main(["resonances", "--config", cfg, "--out", str(out)]) == code
        with open(out / "resonances.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert any(float(r["convergence_delta"]) < 1e-6 for r in rows)
        assert all(r["oracle_verdict"] == verdict for r in rows)

    @pytest.mark.parametrize("model", ["ds", "minkowski"])
    def test_ladder_finds_the_lattice_at_every_cap(self, tmp_path, model):
        # the ladder stops below each cap here, so every cap writes the same
        # table; every lattice point in the box is a converged row within
        # 1e-7 of the lattice, and the oracle agrees with it
        params = os.path.join(CONFIGS, model + ".params")
        tables = []
        for N in (64, 96, 128, 192, 256, 320):
            cfg = write(tmp_path / f"c{N}.cfg",
                        f"params = {params}\nN = {N}\nell_min = 0\nell_max = 2\n")
            out = tmp_path / f"out{N}"
            assert main(["resonances", "--config", cfg, "--out", str(out)]) == 0
            tables.append((out / "resonances.csv").read_text())
        assert all(t == tables[0] for t in tables)
        rows = list(csv.DictReader(tables[0].splitlines()))
        for ell in range(3):
            if model == "ds":
                rates = {ell + 2 * k for k in range(3)} | {ell + 3 + 2 * k
                                                          for k in range(3)}
            else:
                rates = {1 + ell + j for j in range(4)}
            lattice = [-1j * r for r in sorted(rates) if r <= 3.6]
            conv = [r for r in rows if int(r["ell"]) == ell
                    and float(r["convergence_delta"]) < 1e-6]
            assert all(r["oracle_verdict"] == "agree" for r in conv)
            conv = [complex(float(r["re_sigma"]), float(r["im_sigma"]))
                    for r in conv]
            assert len(conv) == len(lattice)
            for z in lattice:
                assert min(abs(s - z) for s in conv) < 1e-7

    def test_ladder_on_dss(self, tmp_path, monkeypatch):
        # the sample dSS table in the two-horizon gauge: 17 converged rows,
        # each certified by the oracle, and one unconverged row, l=0
        # -3.269i.  Off-axis rows come in pairs sigma, -conj(sigma), bit for
        # bit, oracle columns included: the oracle runs once per pair, 12
        # times for the 18 rows, and the second row of a pair gets -conj of
        # its twin's oracle root.  Rows with delta < 1e-10 lie within
        # 1e-10 of the oracle (5.5e-12 at most when this was written).  The
        # axis rows l=0 -2.0836237i and l=1 -0.9985161i replace the
        # retarded gauge's -2.0839287i and -0.9984168i, which were 3.1e-4
        # and 9.9e-5 off
        cfg = write(tmp_path / "c.cfg",
                    f"params = {os.path.join(CONFIGS, 'dss.params')}\n"
                    "N = 80\nell_min = 0\nell_max = 2\n")
        import qnmkit.cli
        real, calls = qnmkit.cli.oracle_refine, []

        def counted(*a):
            calls.append(a)
            return real(*a)
        monkeypatch.setattr(qnmkit.cli, "oracle_refine", counted)
        out = tmp_path / "out"
        assert main(["resonances", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "resonances.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 18 and len(calls) == 12
        conv = [r for r in rows if float(r["convergence_delta"]) < 1e-6]
        assert len(conv) == 17
        assert all(r["oracle_verdict"] == "agree" for r in conv)
        assert all(float(r["oracle_dist"]) < 1e-10 for r in conv
                   if float(r["convergence_delta"]) < 1e-10)
        loose = [(int(r["ell"]), round(float(r["im_sigma"]), 3))
                 for r in rows if float(r["convergence_delta"]) >= 1e-6]
        assert loose == [(0, -3.269)]
        for r in rows:
            if abs(float(r["re_sigma"])) > 1e-6:
                mirror = dict(r, **{k: r[k][1:] if r[k].startswith("-")
                                    else "-" + r[k]
                                    for k in ("re_sigma", "oracle_re")})
                assert rows.count(mirror) == 1
        sig = {(int(r["ell"]), complex(float(r["re_sigma"]), float(r["im_sigma"])))
               for r in conv}
        for ell, z in ((0, -2.0836236684j), (1, -0.9985160943j)):
            assert min(abs(s - z) for e, s in sig if e == ell) < 1e-9
        for ell, z in ((0, -2.0839287j), (1, -0.9984168j)):
            assert min(abs(s - z) for e, s in sig if e == ell) > 1e-5
        appendix = json.loads((out / "convergence.json").read_text())
        assert [a["N"] for a in appendix] == [int(r["N"]) for r in rows]

    def test_tables_independent_of_blas_threads(self, tmp_path):
        # the 21 resonance tables of the benchmark's table workloads, each
        # written in one fresh process at 1 and one at 2 BLAS threads, are
        # byte-identical: the real eigensolve and the mirror pairs leave no
        # rounding digit to the thread count
        for threads in ("1", "2"):
            (tmp_path / threads).mkdir()
            subprocess.run([sys.executable, "-c", _TABLES_SCRIPT,
                            str(tmp_path / threads), CONFIGS],
                           env=src_env(OPENBLAS_NUM_THREADS=threads), check=True)
        names = sorted(p.name for p in (tmp_path / "1").iterdir() if p.is_dir())
        assert len(names) == 21
        for name in names:
            for f in ("resonances.csv", "convergence.json"):
                assert ((tmp_path / "1" / name / f).read_bytes()
                        == (tmp_path / "2" / name / f).read_bytes()), (name, f)

    @pytest.mark.parametrize("model", ["ds", "dss"])
    def test_ladder_cap_below_first_rung(self, tmp_path, model):
        # a cap of 16 lies below the ladder's first rung: the table is
        # solve_resonances at N = 16, row for row
        from qnmkit.cli import _BOX, _fmt
        from qnmkit.resonances import solve_resonances
        from qnmkit.spacetime import load_params
        params = os.path.join(CONFIGS, model + ".params")
        cfg = write(tmp_path / "c.cfg",
                    f"params = {params}\nN = 16\nell_min = 0\nell_max = 2\n"
                    "oracle = 0\n")
        out = tmp_path / "out"
        assert main(["resonances", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "resonances.csv", newline="") as fh:
            rows = [list(r.values()) for r in csv.DictReader(fh)]
        p = load_params(params)
        expected = [[p.model, str(ell), "16", _fmt(e.sigma.real),
                     _fmt(e.sigma.imag), str(e.multiplicity),
                     _fmt(e.convergence_delta)]
                    for ell in range(3)
                    for e in solve_resonances(p, ell, 16, _BOX).entries]
        assert rows == expected

    def test_solver_failure_exit_four(self, tmp_path, ds_params, monkeypatch,
                                      capsys):
        import qnmkit.cli
        from qnmkit.resonances import SolverFailure

        def failing(params, ell, N, region):
            raise SolverFailure("eigenvalue routine did not converge")
        monkeypatch.setattr(qnmkit.cli, "solve_resonances", failing)
        cfg = write(tmp_path / "c.cfg",
                    f"params = {ds_params}\nN = 16\nell_max = 0\noracle = 0\n")
        assert main(["resonances", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == (
            "eigensolver failure: eigenvalue routine did not converge\n")


# run in a fresh interpreter: argv[1] is an output directory, argv[2] the
# sample configs; expands dS l=0 and l=1, Minkowski l=0 and dSS l=0 at
# N=48 with 4000 sigma
_EXPANSIONS_SCRIPT = r"""
import os, sys
import qnmkit.cli as cli
out, configs = sys.argv[1:3]
for p, ell, ell_target in (("ds", 0, 1.5), ("ds", 1, 2.5), ("minkowski", 0, 1.5),
                           ("dss", 0, 1.5)):
    name = f"{p}-l{ell}"
    cfg = os.path.join(out, name + ".cfg")
    with open(cfg, "w") as fh:
        fh.write(f"params = {os.path.join(configs, p + '.params')}\nN = 48\n"
                 f"ell = {ell}\nell_target = {ell_target}\nn_sigma = 4000\n")
    assert cli.main(["expand", "--config", cfg,
                     "--out", os.path.join(out, name)]) == 0
"""


class TestExpand:
    def test_expansions_independent_of_blas_threads(self, tmp_path):
        # the three expand ops of the benchmark and dSS l=0, each written in
        # one fresh process at 1 and one at 2 BLAS threads, exit 0 and write
        # byte-identical expansion.json: the real Schur form and its real
        # products, and the time-domain solve's, leave no rounding digit to
        # the thread count
        for threads in ("1", "2"):
            (tmp_path / threads).mkdir()
            subprocess.run([sys.executable, "-c", _EXPANSIONS_SCRIPT,
                            str(tmp_path / threads), CONFIGS],
                           env=src_env(OPENBLAS_NUM_THREADS=threads), check=True)
        names = sorted(p.name for p in (tmp_path / "1").iterdir() if p.is_dir())
        assert names == ["ds-l0", "ds-l1", "dss-l0", "minkowski-l0"]
        for name in names:
            assert ((tmp_path / "1" / name / "expansion.json").read_bytes()
                    == (tmp_path / "2" / name / "expansion.json").read_bytes()), name

    @pytest.mark.parametrize("ell, pair", [
        (5, 9.0306938719 - 0.8256131482j), (8, 13.968069308 - 0.823597272j)],
        ids=["l5", "l8"])
    def test_dss_fundamentals_past_re_eight_are_terms(self, tmp_path, ell, pair):
        # dSS fundamentals sit near Omega_c (l + 1/2) - 0.82i, past |Re sigma|
        # = 8 from l = 5; expand takes its poles from the pulse window, so
        # both become kappa = 0 terms (with poles up to |Re sigma| = 8 only,
        # l=5 read residual 3.8e-3, exit 1, and l=8 exit 0 with no term);
        # the l=8 pair is ROADMAP item 22's table entry
        cfg = write(tmp_path / "c.cfg",
                    f"params = {os.path.join(CONFIGS, 'dss.params')}\n"
                    f"N = 48\nell = {ell}\nell_target = 1.5\nn_sigma = 4000\n")
        out = tmp_path / "out"
        assert main(["expand", "--config", cfg, "--out", str(out)]) == 0
        terms = json.loads((out / "expansion.json").read_text())["terms"]
        assert len(terms) == 2 and all(t["kappa"] == 0 for t in terms)
        sig = [complex(t["sigma_re"], t["sigma_im"]) for t in terms]
        assert all(min(abs(z - w) for z in sig) < 1e-8
                   for w in (pair, -pair.conjugate()))

    def test_unsupported_model_exit_two(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg",
                    f"params = {KDS_PARAMS}\nN = 16\nn_sigma = 128\n")
        assert main(["expand", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_de_sitter_without_horizon_exit_two(self, tmp_path, capsys):
        # as for resonances: lambda = 0 has no cosmological horizon
        p = write(tmp_path / "ds0.params", "lambda = 0\nmodel = deSitter\n")
        cfg = write(tmp_path / "c.cfg", f"params = {p}\nN = 16\nn_sigma = 128\n")
        out = tmp_path / "out"
        assert main(["expand", "--config", cfg, "--out", str(out)]) == 2
        assert "need lam > 0" in capsys.readouterr().err
        assert os.listdir(out) == ["manifest.json"]

    def test_dss_decays_to_a_constant(self, tmp_path):
        # de Sitter-Schwarzschild end to end (Melrose, Sa Barreto and Vasy):
        # the l=0 wave tends to a constant, approached at the rate and with
        # the oscillation of the first resonance pair below 0.  Exactly three
        # kappa = 0 terms, at sigma = 0 and +-0.9023073005 - 1.0299536917i
        # (a mirror pair, bit for bit); the residual read 4.6e-10 at N=48
        # when this was written, and the constant's coeff_norm 0.3138899329
        # at N=48 and at N=96: a property of the data, not of the grid
        norms = []
        for N in (48, 96):
            cfg = write(tmp_path / f"c{N}.cfg",
                        f"params = {os.path.join(CONFIGS, 'dss.params')}\n"
                        f"N = {N}\nell = 0\nell_target = 1.5\nn_sigma = 4000\n")
            out = tmp_path / f"out{N}"
            assert main(["expand", "--config", cfg, "--out", str(out)]) == 0
            rep = json.loads((out / "expansion.json").read_text())
            assert rep["reconstruction_residual"] < rep["bound"]
            terms = [complex(t["sigma_re"], t["sigma_im"]) for t in rep["terms"]]
            assert all(t["kappa"] == 0 for t in rep["terms"])
            pair = 0.9023073005 - 1.0299536917j
            (c, p, q) = ([i for i, z in enumerate(terms) if abs(z - want) < 1e-8]
                         for want in (0.0, pair, -pair.conjugate()))
            assert len(terms) == 3 and len(c + p + q) == 3
            assert terms[q[0]] == -terms[p[0]].conjugate()
            assert (rep["terms"][q[0]]["coeff_norm"]
                    == rep["terms"][p[0]]["coeff_norm"])
            norms.append(rep["terms"][c[0]]["coeff_norm"])
        assert norms[0] == pytest.approx(0.3138899329, rel=1e-9)
        assert norms[1] == pytest.approx(norms[0], rel=1e-10)

    def test_de_sitter_pipeline(self, tmp_path, ds_params):
        cfg = write(tmp_path / "c.cfg",
                    f"params = {ds_params}\nN = 48\nell_target = 1.5\n"
                    "n_sigma = 4000\n")
        out = tmp_path / "out"
        code = main(["expand", "--config", cfg, "--out", str(out)])
        assert code == 0
        rep = json.loads((out / "expansion.json").read_text())
        assert rep["reconstruction_residual"] < rep["bound"]
        assert any(abs(t["sigma_re"]) < 1e-7 and abs(t["sigma_im"]) < 1e-7
                   for t in rep["terms"])
        assert rep["remainder_rate"] >= 1.5 - 0.05
        assert math.isfinite(rep["remainder_fit_residual"])
        assert rep["remainder_fit_residual"] >= 0

    def test_coeff_norm_is_grid_independent(self, tmp_path):
        # coeff_norm is the root mean square over the grid nodes: the dS
        # constant term reads 0.1171145729 at N = 48 and at N = 96
        norms = []
        for N in (48, 96):
            cfg = write(tmp_path / f"c{N}.cfg",
                        f"params = {os.path.join(CONFIGS, 'ds.params')}\n"
                        f"N = {N}\nell_target = 1.5\nn_sigma = 4000\n")
            out = tmp_path / f"out{N}"
            main(["expand", "--config", cfg, "--out", str(out)])
            rep = json.loads((out / "expansion.json").read_text())
            norms += [t["coeff_norm"] for t in rep["terms"]
                      if abs(complex(t["sigma_re"], t["sigma_im"])) < 1e-7]
        assert len(norms) == 2
        assert norms[0] == pytest.approx(0.1171145729, rel=1e-9)
        assert norms[1] == pytest.approx(norms[0], rel=1e-8)

    @pytest.mark.parametrize("params, ell, ell_target, lu_residual", [
        ("ds", 0, 1.5, 1.40e-9), ("ds", 1, 2.5, 1.48e-5),
        ("minkowski", 0, 1.5, 6.55e-9)], ids=["ds-l0", "ds-l1", "minkowski-l0"])
    def test_benchmark_cases(self, tmp_path, params, ell, ell_target,
                             lu_residual):
        # the three expand operations of perfbench: each reconstruction
        # residual is below the one the per-sigma LU solve gave, and the exit
        # code says whether it meets the bound
        cfg = write(tmp_path / "c.cfg",
                    f"params = {os.path.join(CONFIGS, params + '.params')}\n"
                    f"N = 48\nn_sigma = 4000\nell = {ell}\n"
                    f"ell_target = {ell_target}\n")
        out = tmp_path / "out"
        code = main(["expand", "--config", cfg, "--out", str(out)])
        rep = json.loads((out / "expansion.json").read_text())
        resid = rep["reconstruction_residual"]
        assert resid < lu_residual
        assert code == (0 if resid < rep["bound"] else 1)

    def test_recon_bound_sets_the_exit_code(self, tmp_path, monkeypatch):
        # a small dS expand reconstructs to about 1.7e-11, within the bound
        # 1e-6 it reports; without its resonance terms (the constant mode
        # among them) the reconstruction misses the bound and exits 1
        import qnmkit.cli
        cfg = write(tmp_path / "c.cfg",
                    f"params = {os.path.join(CONFIGS, 'ds.params')}\n"
                    "N = 24\nn_sigma = 2000\n")
        for code in (0, 1):
            out = tmp_path / f"out{code}"
            assert main(["expand", "--config", cfg, "--out", str(out)]) == code
            rep = json.loads((out / "expansion.json").read_text())
            assert rep["bound"] == 1e-6
            assert (rep["reconstruction_residual"] < 1e-6) == (code == 0)
            monkeypatch.setattr(qnmkit.cli, "evaluate_terms",
                                lambda terms, tau: 0)

    def test_near_pole_exit_five(self, tmp_path, ds_params, monkeypatch, capsys):
        import qnmkit.mellin
        from qnmkit.resonances import NearPole

        def at_pole(op, sigma, f):
            raise NearPole(f"pencil nearly singular at sigma = {sigma}")
        monkeypatch.setattr(qnmkit.mellin, "resolvent_apply", at_pole)
        cfg = write(tmp_path / "c.cfg",
                    f"params = {ds_params}\nN = 16\nn_sigma = 128\n")
        code = main(["expand", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 5
        assert "sigma = " in capsys.readouterr().err

    def test_near_pole_names_the_residue_circle(self, tmp_path, capsys):
        # dS l=0 at ell_target 2.5 and N=96: the gate refuses the first node
        # of the residue circle of the pole -2i, not a point of the contour
        # Im sigma = -2.5, and the stderr line names that circle
        cfg = write(tmp_path / "c.cfg",
                    f"params = {os.path.join(CONFIGS, 'ds.params')}\n"
                    "N = 96\nell_target = 2.5\n")
        assert main(["expand", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 5
        err = capsys.readouterr().err
        head = "near-pole gate of the resolvent: residue circle of the pole "
        assert err.startswith(head) and "sigma = " in err
        pole = complex(err[len(head):].split(":")[0].strip("()"))
        assert abs(pole + 2j) < 1e-6

    def test_lines_solved_only_in_the_pulse_window(self, tmp_path, monkeypatch):
        # the remainder line (Im -1.5) is the only line solved: it keeps the
        # 1,214 of its 4,000 sigma where the pulse is above 1e-18 of its
        # peak (|Re sigma| <= 18.2); the dS pencil is real in tau = -i sigma
        # and f0 is real, so those form 607 mirror pairs sigma, -conj(sigma),
        # and only one of each reaches the resolvent, in the one call that
        # solves the residue circle of the pole 0 first; the residual's
        # reference is stepped in time and solves no line
        import qnmkit.mellin
        from qnmkit.resonances import resolvent_apply
        calls = []

        def spy(op, sigma, f):
            calls.append(np.asarray(sigma))
            return resolvent_apply(op, sigma, f)
        monkeypatch.setattr(qnmkit.mellin, "resolvent_apply", spy)
        cfg = write(tmp_path / "c.cfg",
                    f"params = {os.path.join(CONFIGS, 'ds.params')}\n"
                    "n_sigma = 4000\n")
        assert main(["expand", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1
        on_line = calls[0].imag == -1.5
        assert np.count_nonzero(on_line) == 607 and on_line[64:].all()

    def test_residual_sees_an_error_of_the_resolvent(self, tmp_path, monkeypatch):
        # every resolvent solve off by 2e-6 relative biases the terms and the
        # remainder alike; the time-domain reference solves no resolvent, so
        # the residual reads the bias (2.0000e-6 when this was written) and
        # dS l=0 misses its 1e-6 bound, where it reads 8.4e-11 unbiased; a
        # reference solved by the same resolvent would cancel the bias; a
        # bias of 1e-6 would land on the bound itself, 9.99999936e-7 here
        import qnmkit.mellin
        from qnmkit.resonances import resolvent_apply

        def biased(op, sigma, f):
            return resolvent_apply(op, sigma, f) * (1.0 + 2e-6)
        monkeypatch.setattr(qnmkit.mellin, "resolvent_apply", biased)
        cfg = write(tmp_path / "c.cfg",
                    f"params = {os.path.join(CONFIGS, 'ds.params')}\n"
                    "N = 48\nn_sigma = 4000\n")
        out = tmp_path / "out"
        assert main(["expand", "--config", cfg, "--out", str(out)]) == 1
        rep = json.loads((out / "expansion.json").read_text())
        assert rep["reconstruction_residual"] >= 1e-6

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_ds_l1_meets_its_bound_at_either_thread_count(self, tmp_path,
                                                          threads):
        # dS l=1 at the benchmark's size passes its 1e-6 reconstruction bound
        # in a fresh process at 1 and at 2 BLAS threads (4.97e-7 and 4.04e-7
        # when mirror pairs were introduced; 6.26e-7 and 1.19e-6, exit 1,
        # when every sigma was solved)
        cfg = write(tmp_path / "c.cfg",
                    f"params = {os.path.join(CONFIGS, 'ds.params')}\n"
                    "N = 48\nell = 1\nell_target = 2.5\nn_sigma = 4000\n")
        out = tmp_path / "out"
        run = subprocess.run([sys.executable, "-m", "qnmkit.cli", "expand",
                              "--config", cfg, "--out", str(out)],
                             env=src_env(OPENBLAS_NUM_THREADS=threads),
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stdout + run.stderr
        rep = json.loads((out / "expansion.json").read_text())
        assert rep["reconstruction_residual"] < 1e-6

    def test_pole_on_contour_exit_five(self, tmp_path, ds_params, monkeypatch,
                                       capsys):
        import qnmkit.cli
        from qnmkit.mellin import PoleOnContour

        def on_contour(f0, op, ell_target, **kw):
            raise PoleOnContour("a resonance sits on the shifted contour")
        monkeypatch.setattr(qnmkit.cli, "resonance_expand", on_contour)
        cfg = write(tmp_path / "c.cfg",
                    f"params = {ds_params}\nN = 16\nn_sigma = 128\n")
        assert main(["expand", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 5
        assert capsys.readouterr().err == (
            "pole on or near the expansion contour: a resonance sits on the "
            "shifted contour\n")


# run in a fresh interpreter: argv[1] is a scratch directory, argv[2] the
# sample configs
_STARTUP_SCRIPT = r"""
import os, sys
import qnmkit.cli as cli
work, configs = sys.argv[1:3]
heavy = ("scipy.integrate", "scipy.optimize", "scipy.special")
def loaded():
    return [m for m in heavy if m in sys.modules]
def run(command, params, knobs):
    cfg = os.path.join(work, command + ".cfg")
    with open(cfg, "w") as fh:
        fh.write(f"params = {os.path.join(configs, params)}\n{knobs}")
    return cli.main([command, "--config", cfg, "--out", os.path.join(work, command)])
assert not loaded(), loaded()
assert run("resonances", "dss.params", "N = 16\nell_min = 0\nell_max = 0\noracle = 1\n") == 0
assert run("expand", "ds.params", "N = 16\n") == 0
assert not loaded(), loaded()
for params in ("dss.params", "kds.params", "ds.params"):
    assert run("flow", params, "n_traj = 1\nT = 0.1\n") == 0
from qnmkit.dynamics import find_trapped_set
from qnmkit.spacetime import SpacetimeParams
find_trapped_set(SpacetimeParams(3.0, 0.2, 0.05, "KerrDeSitter"))
assert not loaded(), loaded()
"""


def test_no_command_loads_the_ode_stack(tmp_path):
    # of scipy, resonances and expand load scipy.linalg only, at their first
    # resolvent probe or resolvent call; the flow reads the DOP853
    # tableau from scipy's coefficient module by path and finds its roots
    # with its own Brent loop, so scipy.integrate (and the scipy.optimize and
    # scipy.special it would pull in) never load
    subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT, str(tmp_path),
                    CONFIGS], env=src_env(), check=True)


# run in a fresh interpreter, with the arguments of _STARTUP_SCRIPT
_SCIPY_SCRIPT = r"""
import os, sys
import qnmkit.cli as cli
work, configs = sys.argv[1:3]
def scipy_loaded():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]
def run(command, params, knobs=""):
    cfg = os.path.join(work, command + ".cfg")
    with open(cfg, "w") as fh:
        fh.write(f"params = {os.path.join(configs, params)}\n{knobs}")
    return cli.main([command, "--config", cfg, "--out", os.path.join(work, command)])
assert not scipy_loaded(), scipy_loaded()
for params in ("ds.params", "dss.params", "kds.params", "minkowski.params"):
    assert run("admissible", params) == 0
for params in ("dss.params", "kds.params", "ds.params"):
    assert run("flow", params, "n_traj = 1\nT = 0.1\n") == 0
assert not scipy_loaded(), scipy_loaded()
assert run("resonances", "dss.params", "N = 16\nell_min = 0\nell_max = 0\noracle = 0\n") == 0
assert "scipy.linalg" in sys.modules
"""


def test_geometry_commands_load_no_scipy(tmp_path):
    # importing the CLI, admissible and flow load no scipy module at all;
    # the first resolvent probe of resonances loads scipy.linalg, so a run
    # with the oracle off loads it too
    subprocess.run([sys.executable, "-c", _SCIPY_SCRIPT, str(tmp_path),
                    CONFIGS], env=src_env(), check=True)
