"""End-to-end tests of the command-line surface."""

import json
import zipfile

import numpy as np
import pytest

from fvar.basis import BasisSpec
from fvar.cli import main
from fvar.moments import operator_norm_var1_kernel
from fvar.panel import CurvePanel, write_csv
from fvar.pipeline import fpca_panel
from fvar.solver import KernelEstimate, build_design, fit_row, kkt_residuals

from oracles import stability_grid_tops


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = run("simulate", "--n", 60, "--p", 3, "--model", "banded",
               "--bandwidth", 1, "--grid-size", 24, "--sigma-e", 0.1,
               "--basis-dim", 4, "--seed", 5, "--out", out)
    assert code == 0
    return out


class TestSimulate:
    def test_outputs_exist(self, sim_dir):
        for name in ("panel.csv", "panel.npz", "model.json", "manifest.json"):
            assert (sim_dir / name).exists()
        panel = CurvePanel.from_npz(sim_dir / "panel.npz")
        assert panel.values.shape == (60, 3, 24)

    def test_rerun_bit_identical(self, sim_dir, tmp_path):
        out2 = tmp_path / "again"
        assert run("simulate", "--n", 60, "--p", 3, "--model", "banded",
                   "--bandwidth", 1, "--grid-size", 24, "--sigma-e", 0.1,
                   "--basis-dim", 4, "--seed", 5, "--out", out2) == 0
        assert (out2 / "panel.csv").read_bytes() == \
            (sim_dir / "panel.csv").read_bytes()

    def test_csv_round_trip_bit_exact(self, sim_dir):
        from_csv = CurvePanel.from_csv(sim_dir / "panel.csv")
        from_npz = CurvePanel.from_npz(sim_dir / "panel.npz")
        assert from_csv.ids == from_npz.ids
        np.testing.assert_array_equal(from_csv.values, from_npz.values)
        np.testing.assert_array_equal(from_csv.grid, from_npz.grid)

    def test_fit_reads_simulated_csv(self, sim_dir, tmp_path):
        outs = {}
        for name in ("panel.csv", "panel.npz"):
            outs[name] = tmp_path / name
            assert run("fit", "--panel", sim_dir / name, "--basis-dim", 8,
                       "--q", 3, "--eta", 1e-4, "--n-gammas", 6, "--seed", 5,
                       "--out", outs[name]) == 0
        for result in ("kernels.json", "fits.json", "ic_table.csv"):
            assert (outs["panel.csv"] / result).read_bytes() == \
                (outs["panel.npz"] / result).read_bytes()

    def test_unparsable_csv_value_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        CurvePanel(values=np.ones((4, 2, 3)), grid=np.linspace(0, 1, 3),
                   ids=["a", "b"]).to_csv(path)
        lines = path.read_text().splitlines()
        lines[1 + 2 * 6 + 3 + 2] = "2,b,2,oops"  # t=2, variable b, s=2
        path.write_text("\n".join(lines) + "\n")
        assert run("fit", "--panel", path, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "'oops'" in err and "'b'" in err and "t=2" in err
        assert "grid index 2" in err

    def test_duplicate_csv_key_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        CurvePanel(values=np.ones((4, 2, 3)), grid=np.linspace(0, 1, 3),
                   ids=["a", "b"]).to_csv(path)
        with open(path, "a") as fh:
            fh.write("1,a,2,5.0\n")
        assert run("fit", "--panel", path, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "duplicate" in err and "'a'" in err and "t=1" in err
        assert "grid index 2" in err

    @pytest.mark.parametrize("row, t, s", [("-1,a,0,99.0", -1, 0),
                                           ("0,a,-1,99.0", 0, -1)])
    def test_negative_csv_index_is_data_error(self, tmp_path, capsys, row, t, s):
        # numpy's negative indexing would write 99.0 into the last point
        path = tmp_path / "neg.csv"
        CurvePanel(values=np.ones((3, 1, 4)), grid=np.linspace(0, 1, 4),
                   ids=["a"]).to_csv(path)
        with open(path, "a") as fh:
            fh.write(row + "\n")
        assert run("fit", "--panel", path, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "negative" in err and "'a'" in err and f"t={t}" in err
        assert f"grid index {s}" in err

    @pytest.mark.parametrize("row, index", [
        ("0,a,99999999999999999999,2.0", "grid index 99999999999999999999"),
        ("99999999999999999999,a,0,2.0", "t=99999999999999999999"),
        (f"{2**62},a,0,1.0", f"t={2**62}"),
        (f"0,a,{2**62},1.0", f"grid index {2**62}")])
    def test_out_of_range_csv_index_is_data_error(self, tmp_path, capsys, row,
                                                  index):
        # indices past int64, or so large that the panel they imply cannot
        # even be sized; either way more cells than rows
        path = tmp_path / "far.csv"
        CurvePanel(values=np.ones((3, 1, 4)), grid=np.linspace(0, 1, 4),
                   ids=["a"]).to_csv(path)
        with open(path, "a") as fh:
            fh.write(row + "\n")
        assert run("fit", "--panel", path, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "out of range" in err and "'a'" in err and index in err

    @pytest.mark.parametrize("text, expected", [
        ("t,variable,grid_index\n0,a,0\n",
         ["need columns t, variable, grid_index and value"]),
        ("t,variable,grid_index,value\n0,a,0,1.0\n0,a,1\n",
         ["line 3: short row"]),
        ("t,variable,grid_index,value\n", ["no panel rows"]),
        ("t,variable,grid_index,value\n0,a,0,1.0\n0,a,1,nan\n",
         ["non-finite value nan", "'a'", "t=0", "grid index 1"]),
    ], ids=["no-value-column", "short-row", "header-only", "nan-value"])
    def test_malformed_panel_csv_is_data_error(self, tmp_path, capsys, text,
                                               expected):
        path = tmp_path / "panel.csv"
        path.write_text(text)
        assert run("fit", "--panel", path, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert all(part in err for part in expected), err

    def test_first_repeated_csv_key_in_file_order_is_named(self, tmp_path,
                                                           capsys):
        path = tmp_path / "dup.csv"
        CurvePanel(values=np.ones((4, 2, 3)), grid=np.linspace(0, 1, 3),
                   ids=["a", "b"]).to_csv(path)
        with open(path, "a") as fh:
            fh.write("3,b,1,5.0\n1,a,2,5.0\n")
        assert run("fit", "--panel", path, "--out", tmp_path / "out") == 2
        assert ("duplicate row for variable 'b' at t=3, grid index 1"
                in capsys.readouterr().err)

    def test_csv_ids_with_comma_and_quote_round_trip(self, tmp_path):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        panel = CurvePanel(values=np.arange(12.0).reshape(2, 2, 3) / 7,
                           grid=np.linspace(0, 1, 3), ids=['a,b', 'say "hi"'])
        panel.to_csv(first)
        back = CurvePanel.from_csv(first)
        assert back.ids == panel.ids
        back.to_csv(second)
        assert second.read_bytes() == first.read_bytes()

    def test_preset_desk(self, tmp_path):
        out = tmp_path / "desk"
        assert run("simulate", "--preset", "desk", "--seed", 1,
                   "--out", out) == 0
        panel = CurvePanel.from_npz(out / "panel.npz")
        assert panel.values.shape == (200, 20, 50)
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["n"], config["p"], config["grid_size"]) == (200, 20, 50)

    @pytest.mark.parametrize("flags, named", [
        (("--n", 5, "--p", 3), "fixes --n, --p;"),
        (("--grid-size", 10), "fixes --grid-size;"),
        (("--sigma-e", 0.1, "--bandwidth", 1), "fixes --sigma-e, --bandwidth;")])
    def test_size_flag_with_preset_is_config_error(self, tmp_path, capsys,
                                                   flags, named):
        assert run("simulate", "--preset", "desk", *flags, "--out", tmp_path) == 2
        assert f"preset 'desk' {named}" in capsys.readouterr().err
        assert not (tmp_path / "panel.npz").exists()

    def test_unknown_preset_is_config_error(self, tmp_path):
        assert run("simulate", "--preset", "nope", "--out", tmp_path) == 2

    def test_missing_size_is_config_error(self, tmp_path):
        assert run("simulate", "--out", tmp_path) == 2

    @pytest.mark.parametrize("flags, message", [
        (("--n", -5, "--p", 3), "n must be >= 1; got -5"),
        (("--n", 0, "--p", 3), "n must be >= 1; got 0"),
        (("--n", 10, "--p", 0),
         "need p >= 1 and basis dimension G >= 1; got p=0, G=5"),
        (("--n", 10, "--p", -3), "got p=-3, G=5"),
        (("--n", 10, "--p", 3, "--basis-dim", 0), "got p=3, G=0"),
        (("--n", 10, "--p", 3, "--basis-dim", -2), "got p=3, G=-2"),
        (("--n", 10, "--p", 3, "--grid-size", -1),
         "--grid-size must be >= 2; got -1"),
        (("--n", 10, "--p", 3, "--sigma-e", "nan"),
         "measurement_noise must be nonnegative and finite; got nan"),
        (("--n", 10, "--p", 3, "--sigma-e", "inf"),
         "measurement_noise must be nonnegative and finite; got inf")])
    def test_degenerate_size_is_config_error(self, tmp_path, capsys, flags,
                                             message):
        assert run("simulate", *flags, "--out", tmp_path) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "panel.npz").exists()


@pytest.fixture(scope="module")
def fit_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    code = run("fit", "--panel", sim_dir / "panel.npz", "--basis", "bspline",
               "--basis-dim", 8, "--q", 3, "--eta", 1e-4, "--ic", "bic",
               "--n-gammas", 12, "--tol", 1e-9, "--seed", 5, "--out", out)
    assert code == 0
    return out


class TestFit:
    def test_tiny_curve_scale_is_not_singular(self, tmp_path):
        # curves 1e-7 times their simulated size give score Grams of order
        # 1e-14, which the singularity floor once refused for every q
        sim = tmp_path / "sim"
        assert run("simulate", "--n", 60, "--p", 6, "--model", "banded",
                   "--bandwidth", 1, "--grid-size", 24, "--basis-dim", 4,
                   "--seed", 5, "--out", sim) == 0
        panel = CurvePanel.from_npz(sim / "panel.npz")
        small = tmp_path / "small.npz"
        CurvePanel(values=1e-7 * panel.values, grid=panel.grid,
                   ids=panel.ids).to_npz(small)
        assert run("fit", "--panel", small, "--basis-dim", 8, "--q", 3,
                   "--eta", 1e-4, "--n-gammas", 6, "--out", tmp_path / "fit") == 0

    def test_outputs_exist(self, fit_dir):
        for name in ("kernels.json", "fits.json", "ic_table.csv",
                     "hs_norms.csv", "fpca_selection.csv", "manifest.json"):
            assert (fit_dir / name).exists()
        est = KernelEstimate.from_json((fit_dir / "kernels.json").read_text())
        assert est.p == 3 and est.L == 1

    def test_fits_record_selection(self, fit_dir):
        fits = json.loads((fit_dir / "fits.json").read_text())
        assert len(fits) == 3
        for f in fits:
            assert f["converged"]
            assert f["df"] >= 0

    def test_ic_table_holds_plain_floats(self, fit_dir):
        lines = (fit_dir / "ic_table.csv").read_text().splitlines()
        for line in lines[1:]:
            [float(cell) for cell in line.split(",")]

    def test_gamma_zero_matches_least_squares(self, sim_dir, tmp_path):
        out = tmp_path / "ls"
        assert run("fit", "--panel", sim_dir / "panel.npz", "--basis",
                   "bspline", "--basis-dim", 8, "--q", 3, "--eta", 1e-4,
                   "--gamma", 0.0, "--tol", 1e-12, "--seed", 5,
                   "--out", out) == 0
        fits = json.loads((out / "fits.json").read_text())
        from fvar.basis import BasisSpec
        from fvar.pipeline import fpca_panel
        from fvar.solver import build_design
        panel = CurvePanel.from_npz(sim_dir / "panel.npz")
        stage1 = fpca_panel(panel, BasisSpec("bspline", 8), [3], [1e-4])
        design = build_design(stage1.kl_models, 1)
        for f in fits:
            Y = design.responses[f["j"]]
            X = np.linalg.lstsq(design.design, Y, rcond=None)[0]
            rss = float(np.sum((Y - design.design @ X) ** 2))
            assert f["rss"] == pytest.approx(rss, rel=1e-8)

    def test_bic_no_denser_than_aic(self, sim_dir, tmp_path):
        counts = {}
        for ic in ("aic", "bic"):
            out = tmp_path / ic
            assert run("fit", "--panel", sim_dir / "panel.npz", "--basis",
                       "bspline", "--basis-dim", 8, "--q", 3, "--eta", 1e-4,
                       "--ic", ic, "--n-gammas", 12, "--seed", 5,
                       "--out", out) == 0
            fits = json.loads((out / "fits.json").read_text())
            counts[ic] = sum(
                1 for f in fits for row in f["psi"] for b in row
                if np.linalg.norm(np.asarray(b)) > 0)
        assert counts["bic"] <= counts["aic"]

    def test_missing_panel_is_config_error(self, tmp_path):
        assert run("fit", "--panel", tmp_path / "nope.npz",
                   "--out", tmp_path) == 2

    def test_stall_at_optimum_converges(self, tmp_path):
        # with --tol 0 the only exit is a momentum-free step whose objective
        # rises by rounding alone: converged, not diverged
        sim = tmp_path / "sim"
        assert run("simulate", "--n", 60, "--p", 3, "--grid-size", 20,
                   "--basis-dim", 4, "--seed", 1, "--out", sim) == 0
        out = tmp_path / "fit"
        assert run("fit", "--panel", sim / "panel.npz", "--basis-dim", 8,
                   "--q", 3, "--eta", 0, "--gamma", 1.0, "--tol", 0,
                   "--out", out) == 0
        fits = json.loads((out / "fits.json").read_text())
        assert all(f["converged"] for f in fits)
        stage1 = fpca_panel(CurvePanel.from_npz(sim / "panel.npz"),
                            BasisSpec("bspline", 8), [3], [0.0])
        design = build_design(stage1.kl_models, 1)
        for j, f in enumerate(fits):
            fit = fit_row(j, design, 1.0, tol=0.0)
            assert fit.iterations == f["iterations"]
            assert max(kkt_residuals(design, fit)) <= 1e-6 * (1 + 1.0)

    @pytest.mark.parametrize("flags, value", [
        (("--eta", "nan"), "nan"), (("--eta", "inf"), "inf"),
        (("--eta-grid", "0,nan"), "nan")])
    def test_non_finite_eta_is_config_error(self, sim_dir, tmp_path, capsys,
                                            flags, value):
        out = tmp_path / "fit"
        assert run("fit", "--panel", sim_dir / "panel.npz", "--basis-dim", 8,
                   "--q", 3, *flags, "--gamma", 1, "--out", out) == 2
        assert ("smoothing parameter must be finite and nonnegative; got "
                f"{value}") in capsys.readouterr().err
        assert not (out / "fits.json").exists()

    @pytest.mark.parametrize("gamma", ["inf", "nan"])
    def test_non_finite_gamma_is_config_error(self, sim_dir, tmp_path, capsys,
                                              gamma):
        out = tmp_path / "fit"
        assert run("fit", "--panel", sim_dir / "panel.npz", "--basis-dim", 8,
                   "--q", 3, "--eta", 0, "--gamma", gamma, "--out", out) == 2
        assert ("gamma must be finite and nonnegative"
                in capsys.readouterr().err)
        assert not (out / "fits.json").exists()

    def test_too_few_time_points_for_lag_order_is_config_error(self, tmp_path,
                                                                capsys):
        sim = tmp_path / "sim"
        assert run("simulate", "--n", 5, "--p", 2, "--out", sim) == 0
        assert run("fit", "--panel", sim / "panel.npz", "--q", 4, "--eta", 0,
                   "--folds", 2, "--L", 2, "--gamma", 1,
                   "--out", tmp_path / "fit") == 2
        err = capsys.readouterr().err
        assert "has q=4 scores but n=5 observations" in err
        assert "lag order L=2" in err and "n >= L + q = 6" in err
        assert not (tmp_path / "fit" / "kernels.json").exists()

    @pytest.mark.parametrize("command", ["fit", "path"])
    def test_constant_variable_is_data_error(self, tmp_path, capsys, command):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((30, 3, 12))
        values[:, 1, :] = 3.0  # no variance left to decompose
        panel = CurvePanel(values=values, grid=np.linspace(0, 1, 12))
        panel.to_npz(tmp_path / "panel.npz")
        assert run(command, "--panel", tmp_path / "panel.npz", "--basis",
                   "bspline", "--basis-dim", 6, "--q", 2, "--eta", 0.0,
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "variable 1 (x1) has zero variance" in err


    @pytest.mark.parametrize("basis", ["bspline", "fourier"])
    def test_non_finite_grid_is_config_error(self, sim_dir, tmp_path, capsys,
                                             basis):
        panel = CurvePanel.from_npz(sim_dir / "panel.npz")
        grid = panel.grid.copy()
        grid[5] = np.nan
        np.savez_compressed(tmp_path / "nan.npz", values=panel.values,
                            grid=grid, ids=np.array(panel.ids))
        assert run("fit", "--panel", tmp_path / "nan.npz", "--basis", basis,
                   "--basis-dim", 8, "--q", 3, "--eta", 1e-4,
                   "--out", tmp_path / "out") == 2
        assert "grid points must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "select", "path"])
    def test_q_zero_is_config_error(self, sim_dir, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert run(command, "--panel", sim_dir / "panel.npz", "--basis-dim", 8,
                   "--q", 0, "--eta", 0, "--out", out) == 2
        assert "q must be in [1, min(G, n)]" in capsys.readouterr().err
        assert not (out / "fpca_selection.csv").exists()


class TestPathAndSelect:
    def test_path_with_truth_reports_roc(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "path"
        assert run("path", "--panel", sim_dir / "panel.npz", "--basis",
                   "bspline", "--basis-dim", 8, "--q", 3, "--eta", 1e-4,
                   "--n-gammas", 10, "--truth", sim_dir / "model.json",
                   "--seed", 5, "--out", out) == 0
        assert (out / "roc.csv").exists()
        records = json.loads((out / "path.json").read_text())
        assert len(records) == 10
        assert records[0]["active_blocks"] == 0
        assert "AUROC" in capsys.readouterr().out

    def test_truth_with_other_variable_count_is_config_error(
            self, sim_dir, tmp_path, capsys):
        other = tmp_path / "sim4"
        assert run("simulate", "--n", 40, "--p", 4, "--grid-size", 24,
                   "--basis-dim", 4, "--seed", 6, "--out", other) == 0
        assert run("path", "--panel", sim_dir / "panel.npz", "--basis-dim", 8,
                   "--q", 3, "--eta", 1e-4, "--n-gammas", 4, "--truth",
                   other / "model.json", "--out", tmp_path / "path") == 2
        err = capsys.readouterr().err
        assert "p=3" in err and "p=4" in err
        for name in ("roc.csv", "path.json", "fpca_selection.csv"):
            assert not (tmp_path / "path" / name).exists()

    def test_missing_truth_is_config_error_before_stage_one(
            self, sim_dir, tmp_path, capsys):
        out = tmp_path / "path"
        assert run("path", "--panel", sim_dir / "panel.npz", "--basis-dim", 8,
                   "--q", 3, "--eta", 1e-4, "--n-gammas", 4, "--truth",
                   tmp_path / "missing.json", "--out", out) == 2
        assert "model file not found" in capsys.readouterr().err
        assert not (out / "path.json").exists()
        assert not (out / "fpca_selection.csv").exists()

    @pytest.mark.parametrize("text, match", [
        ('{"L": 1}', "no key 'p'"), ("{", "malformed: Expecting"),
        ('{"L": 1, "p": 3, "basis": 4}', "malformed")])
    def test_malformed_truth_is_data_error(self, sim_dir, tmp_path, capsys,
                                           text, match):
        truth = tmp_path / "model.json"
        truth.write_text(text)
        assert run("path", "--panel", sim_dir / "panel.npz", "--basis-dim", 8,
                   "--q", 3, "--eta", 1e-4, "--n-gammas", 4, "--truth", truth,
                   "--out", tmp_path / "path") == 2
        assert match in capsys.readouterr().err

    def test_select_writes_tables(self, sim_dir, tmp_path):
        out = tmp_path / "select"
        assert run("select", "--panel", sim_dir / "panel.npz", "--basis",
                   "bspline", "--basis-dim", 8, "--q", 3, "--eta", 1e-4,
                   "--n-gammas", 10, "--seed", 5, "--out", out) == 0
        selected = json.loads((out / "selected.json").read_text())
        assert len(selected) == 3
        table = (out / "ic_table.csv").read_text().splitlines()
        assert table[0] == "variable,gamma,rss,df,aic,bic"
        assert len(table) == 1 + 3 * 10


    def test_fit_and_select_share_stage_outputs(self, sim_dir, tmp_path):
        flags = ("--panel", sim_dir / "panel.npz", "--basis-dim", 8,
                 "--q-grid", "2,3", "--eta-grid", "0,1e-4", "--folds", 3,
                 "--n-gammas", 6, "--seed", 5)
        assert run("fit", *flags, "--out", tmp_path / "fit") == 0
        assert run("select", *flags, "--out", tmp_path / "select") == 0
        for name in ("ic_table.csv", "fpca_selection.csv"):
            assert (tmp_path / "fit" / name).read_bytes() == \
                (tmp_path / "select" / name).read_bytes()


    @pytest.mark.parametrize("command", ["fit", "select", "path"])
    @pytest.mark.parametrize("flag, value, name", [
        ("--n-gammas", "0", "n_gammas"), ("--min-gamma-ratio", "0", "min_ratio"),
        ("--min-gamma-ratio", "-1", "min_ratio"), ("--max-iter", "0", "max_iter"),
        ("--tol", "-1", "tol"), ("--tol", "nan", "tol")])
    def test_bad_path_option_is_config_error(self, sim_dir, tmp_path, capsys,
                                             command, flag, value, name):
        out = tmp_path / "out"
        assert run(command, "--panel", sim_dir / "panel.npz", "--basis-dim", 8,
                   "--q", 3, "--eta", 1e-4, flag, value, "--out", out) == 2
        assert name in capsys.readouterr().err
        assert not (out / "path.json").exists()
        assert not (out / "fits.json").exists()


class TestUnconvergedWarning:
    @pytest.mark.parametrize("command, extra, count", [
        ("fit", ("--gamma", 0.01), 3), ("select", ("--n-gammas", 4), 3),
        ("path", ("--n-gammas", 4), 9)])
    def test_fits_at_the_iteration_cap_warn_once(self, sim_dir, tmp_path,
                                                 capsys, command, extra, count):
        # at --max-iter 2 every fit but the path's all-zero first points
        # stops at the cap; the outputs and the exit code stay as they are
        flags = ("--panel", sim_dir / "panel.npz", "--basis-dim", 8, "--q", 3,
                 "--eta", 1e-4, *extra)
        assert run(command, *flags, "--max-iter", 2,
                   "--out", tmp_path / "capped") == 0
        err = capsys.readouterr().err
        assert err.count("warning") == 1
        assert (f"warning: {count} fit(s) did not converge within --max-iter 2 "
                "(rows [0, 1, 2]); raise --max-iter") in err
        assert run(command, *flags, "--out", tmp_path / "full") == 0
        assert "warning" not in capsys.readouterr().err
        written = sorted(f.name for f in (tmp_path / "capped").iterdir())
        assert written == sorted(f.name for f in (tmp_path / "full").iterdir())


class TestNetwork:
    def test_graph_from_fit(self, fit_dir, tmp_path):
        out = tmp_path / "net"
        assert run("network", "--kernels", fit_dir / "kernels.json",
                   "--indegree", 1, "--out", out) == 0
        graph = json.loads((out / "graph.json").read_text())
        assert len(graph["nodes"]) == 3
        assert len(graph["edges"]) == 3
        dot = (out / "graph.dot").read_text()
        assert dot.startswith("digraph")

    @pytest.mark.parametrize("labels, bad", [
        ('a"b,c,e', 'a"b'), ("a\\b,c,e", "a\\b"), ("a\nb,c,e", "a\nb"),
        ("a\rb,c,e", "a\rb"), ("a,b,a", "a")])
    def test_label_the_dot_file_cannot_name_is_config_error(
            self, fit_dir, tmp_path, capsys, labels, bad):
        out = tmp_path / "net"
        assert run("network", "--kernels", fit_dir / "kernels.json",
                   "--indegree", 1, "--labels", labels, "--out", out) == 2
        assert (f"label {bad!r} repeats or holds a quote, backslash or line "
                "break") in capsys.readouterr().err
        assert not (out / "graph.dot").exists()

    def test_rule_required(self, fit_dir, tmp_path):
        assert run("network", "--kernels", fit_dir / "kernels.json",
                   "--out", tmp_path) == 2

    def test_nan_threshold_is_config_error(self, fit_dir, tmp_path, capsys):
        assert run("network", "--kernels", fit_dir / "kernels.json",
                   "--threshold", "nan", "--out", tmp_path / "net") == 2
        assert "threshold must be >= 0; got nan" in capsys.readouterr().err
        assert not (tmp_path / "net" / "graph.json").exists()

    @pytest.mark.parametrize("edit, match", [
        (lambda obj: obj["kl_models"][1].pop("basis"), "no key 'basis'"),
        (lambda obj: obj.pop("psi"), "no key 'psi'"),
        (lambda obj: obj.__setitem__("L", "two"), "malformed")])
    def test_malformed_kernels_is_data_error(self, fit_dir, tmp_path, capsys,
                                             edit, match):
        obj = json.loads((fit_dir / "kernels.json").read_text())
        edit(obj)
        path = tmp_path / "kernels.json"
        path.write_text(json.dumps(obj))
        assert run("network", "--kernels", path, "--indegree", 1,
                   "--out", tmp_path / "net") == 2
        assert match in capsys.readouterr().err
        assert not (tmp_path / "net" / "graph.json").exists()


class TestStability:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "stab"
        assert run("stability", "--a-values", "0.0,0.5", "--b-values", "0,1",
                   "--theta-grid", 128, "--out", out) == 0
        lines = (out / "stability.csv").read_text().splitlines()
        assert lines[0] == "a,b,operator_norm,stability_measure"
        assert len(lines) == 5
        first = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(first["stability_measure"]) == pytest.approx(1.0, abs=1e-8)

    def test_default_sweep_matches_full_grid_oracle(self, tmp_path):
        out = tmp_path / "stab"
        assert run("stability", "--out", out) == 0
        rows = []
        for a in (0.1, 0.3, 0.5, 0.7, 0.9):
            for b in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
                C = np.array([[a, b], [0.0, a]])
                rows.append((a, b, operator_norm_var1_kernel(C),
                             stability_grid_tops(C, np.eye(2), 1024)[0]))
        write_csv(tmp_path / "oracle.csv",
                  ["a", "b", "operator_norm", "stability_measure"], rows)
        assert (out / "stability.csv").read_bytes() == \
            (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("flag, value, name", [
        ("--a-values", "nan", "a_values"), ("--b-values", "0,inf", "b_values"),
        ("--sigma", "0", "sigma"), ("--sigma", "nan", "sigma"),
        ("--theta-grid", "32", "theta grid"), ("--a-values", "", "a_values"),
        ("--b-values", "", "b_values"), ("--sigma", "-1", "sigma"),
        ("--sigma", "1e160", "sigma**2 overflows"),
        ("--sigma", "1e200", "sigma**2 overflows"),
        ("--a-values", "0.5,1.0", "a_values: the (a, b) pair (1.0, 0.0)")])
    def test_bad_argument_is_config_error(self, tmp_path, capsys, flag, value, name):
        assert run("stability", flag, value, "--out", tmp_path) == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "stability.csv").exists()


class TestVerifyConcentration:
    def test_report_written(self, tmp_path):
        out = tmp_path / "conc"
        assert run("verify-concentration", "--p", 3, "--q0", 2, "--ns",
                   "200,400,800", "--reps", 10, "--compare-ar", 0.5,
                   "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["slopes"]) == {"sigma_max", "eigen_rel",
                                         "score_scaled"}
        assert report["compare"]["stability"] == 3.0
        assert (out / "rates.csv").exists()

    @pytest.mark.parametrize("flag, value, name", [
        ("--reps", "0", "reps"), ("--p", "0", "p must"), ("--q0", "0", "q0"),
        ("--ns", "250,250", "ns"), ("--ns", "0,100", "ns"),
        ("--alpha", "nan", "alpha")])
    def test_bad_argument_is_config_error(self, tmp_path, capsys, flag, value, name):
        assert run("verify-concentration", "--ns", "50,100", "--reps", 2,
                   flag, value, "--out", tmp_path) == 2
        assert name in capsys.readouterr().err


class TestIngestCidr:
    def test_prices_to_panel(self, tmp_path):
        rows = ["date,ticker,minute_index,price"]
        rng = np.random.default_rng(1)
        for d in ("2017-01-03", "2017-01-04", "2017-01-05"):
            for tick in ("AAA", "BBB"):
                price = 100.0
                for s in range(6):
                    price *= float(np.exp(0.001 * rng.standard_normal()))
                    rows.append(f"{d},{tick},{s},{price}")
        src = tmp_path / "prices.csv"
        src.write_text("\n".join(rows) + "\n")
        out = tmp_path / "cidr"
        assert run("ingest-cidr", "--prices", src, "--no-demean",
                   "--out", out) == 0
        panel = CurvePanel.from_npz(out / "panel.npz")
        assert panel.values.shape == (3, 2, 6)
        np.testing.assert_allclose(panel.values[:, :, 0], 0.0, atol=1e-12)
        assert panel.ids == ["AAA", "BBB"]


    def test_duplicate_price_key_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "prices.csv"
        src.write_text("date,ticker,minute_index,price\n"
                       "2017-01-03,AAA,0,10\n2017-01-03,AAA,1,11\n"
                       "2017-01-03,AAA,0,12\n")
        assert run("ingest-cidr", "--prices", src,
                   "--out", tmp_path / "cidr") == 2
        assert "duplicate" in capsys.readouterr().err

    @pytest.mark.parametrize("price", ["nan", "inf"])
    def test_non_finite_price_is_data_error(self, tmp_path, capsys, price):
        src = tmp_path / "prices.csv"
        src.write_text("date,ticker,minute_index,price\n"
                       f"2017-01-03,AAA,0,10\n2017-01-03,AAA,1,{price}\n")
        assert run("ingest-cidr", "--prices", src,
                   "--out", tmp_path / "cidr") == 2
        err = capsys.readouterr().err
        assert "line 3" in err and f"price {price}" in err


class TestOutDir:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--preset", "nope"],
        ["fit", "--panel", "{panel}", "--basis-dim", 8, "--q", 3, "--eta", 0,
         "--L", 0],
        ["network", "--kernels", "{kernels}", "--indegree", 0],
        ["network", "--kernels", "{kernels}", "--threshold", -1],
        ["network", "--kernels", "{kernels}", "--indegree", 3, "--no-self"],
        ["stability", "--sigma", 0]], ids=lambda argv: " ".join(
            str(a) for a in argv if not str(a).startswith("{")))
    def test_rejected_input_makes_no_out_dir(self, sim_dir, fit_dir, tmp_path,
                                             argv):
        paths = {"{panel}": sim_dir / "panel.npz",
                 "{kernels}": fit_dir / "kernels.json"}
        out = tmp_path / "out"
        assert run(*(paths.get(a, a) for a in argv), "--out", out) == 2
        assert not out.exists()


VALUES, GRID, IDS = np.ones((6, 2, 5)), np.linspace(0, 1, 5), np.array(["a", "b"])


def _npy(path):
    with open(path, "wb") as fh:
        np.save(fh, VALUES)


def _edited(path, edit):
    """A valid panel archive with ``edit`` applied to its bytes."""
    np.savez_compressed(path, values=VALUES, grid=GRID, ids=IDS)
    path.write_bytes(edit(path.read_bytes()))


def _garble_first_member(data):
    """Flip 8 bytes inside the compressed data of the first member, which
    starts after the 30-byte local header, the name and the extra field."""
    start = (30 + int.from_bytes(data[26:28], "little")
             + int.from_bytes(data[28:30], "little") + 10)
    return (data[:start] + bytes(b ^ 0x5A for b in data[start:start + 8])
            + data[start + 8:])


def _unknown_method(data):
    """Compression method 99 in the first central-directory entry."""
    at = data.index(b"PK\x01\x02") + 10
    return data[:at] + (99).to_bytes(2, "little") + data[at + 2:]


def _unparsable_header(path):
    """An archive whose values.npy header is cut inside a parenthesis."""
    header = b"{'descr': '<f8', 'fortran_order': False, 'shape': (6, 2,\n"
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("values.npy", b"\x93NUMPY\x01\x00"
                         + len(header).to_bytes(2, "little") + header)


# malformed panel files by name; each writes its file to the given path
MALFORMED_PANELS = {
    "no-ids": lambda p: np.savez(p, values=VALUES, grid=GRID),
    "no-values": lambda p: np.savez(p, grid=GRID, ids=IDS),
    "object-ids": lambda p: np.savez(p, values=VALUES, grid=GRID,
                                     ids=np.array(["a", 1], dtype=object)),
    "text-values": lambda p: np.savez(p, values=np.full(VALUES.shape, "x"),
                                      grid=GRID, ids=IDS),
    "scalar-ids": lambda p: np.savez(p, values=VALUES, grid=GRID,
                                     ids=np.array("ab")),
    "not-a-zip": lambda p: p.write_text("t,variable,grid_index,value\n"),
    "empty": lambda p: p.write_bytes(b""),
    "npy-array": _npy,
    "truncated": lambda p: _edited(p, lambda data: data[:100]),
    "garbled-member": lambda p: _edited(p, _garble_first_member),
    "unknown-compression": lambda p: _edited(p, _unknown_method),
    "unparsable-header": _unparsable_header,
    "renamed-member": lambda p: _edited(
        p, lambda data: data.replace(b"values.npy", b"valuez.npy")),
}


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ["stability", "--a-values", "0.1,x"],
        ["stability", "--b-values", "0,0.5,y"],
        ["verify-concentration", "--ns", "250,abc"],
        ["fit", "--panel", "{panel}", "--q-grid", "4,x"],
        ["fit", "--panel", "{panel}", "--q-grid", "4,5.5"],
        ["fit", "--panel", "{panel}", "--eta-grid", "0,1e-4,zz"],
        ["select", "--panel", "{panel}", "--q-grid", "3,?"],
        ["path", "--panel", "{panel}", "--eta-grid", "nan?"],
        ["fit", "--panel", "missing.npz"],
        ["fit", "--panel", "missing.csv"],
    ] + [["fit", "--panel", f"{{{name}}}"] for name in MALFORMED_PANELS],
        ids=lambda argv: " ".join(str(a).strip("{}") for a in argv))
    def test_malformed_input_is_an_error_message(self, sim_dir, tmp_path,
                                                 capsys, argv):
        # the error names the list flag, or else the panel file
        argv = list(argv)
        named = next((a for a in argv if a.startswith("--") and a != "--panel"),
                     None)
        if argv[1] == "--panel" and argv[2] != "{panel}":
            name = argv[2].strip("{}")
            argv[2] = named = tmp_path / (name if "." in name else f"{name}.npz")
            if name in MALFORMED_PANELS:
                MALFORMED_PANELS[name](argv[2])
        argv = [sim_dir / "panel.npz" if a == "{panel}" else a for a in argv]
        out = tmp_path / "out"
        assert run(*argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(named) in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--a-values", "0.5", "--b-values", "1e154"],
        ["--a-values", "0.5", "--b-values", "1e200"],
        ["--a-values", "0.5", "--b-values", "1e300"],
        ["--a-values", "-0.5", "--b-values", "1e300"],
        ["--sigma", "1e-100"]], ids=" ".join)
    def test_overflowing_stability_input_is_a_numerical_error(
            self, tmp_path, capsys, flags):
        # finite flags whose stationary covariance or level-set solve
        # overflows; a sigma whose square overflows is TestStability's
        out = tmp_path / "out"
        assert run("stability", *flags, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "overflows" in err
        assert "Traceback" not in err and not out.exists()


class TestFlags:
    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--threads"), ("network", "--threads"),
        ("stability", "--threads"), ("verify-concentration", "--threads"),
        ("ingest-cidr", "--threads"), ("network", "--seed"),
        ("stability", "--seed"), ("ingest-cidr", "--seed")])
    def test_unread_flag_rejected(self, tmp_path, capsys, command, flag):
        required = {"network": ["--kernels", "k.json", "--indegree", "1"],
                    "ingest-cidr": ["--prices", "p.csv"]}.get(command, [])
        with pytest.raises(SystemExit) as exc:
            run(command, *required, flag, 2, "--out", tmp_path)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 25, "p": 2, "grid_size": 10,
                                   "basis_dim": 4}))
        out = tmp_path / "sim"
        assert run("simulate", "--config", cfg, "--seed", 3, "--out", out) == 0
        panel = CurvePanel.from_npz(out / "panel.npz")
        assert panel.values.shape == (25, 2, 10)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n"] == 25

    def test_missing_config_is_error(self, tmp_path):
        assert run("simulate", "--config", tmp_path / "nope.json",
                   "--out", tmp_path) == 2

    @pytest.mark.parametrize("text", ["{bad", "null", '"ab"', "[1]"])
    def test_config_that_is_not_an_object_is_error(self, tmp_path, capsys,
                                                   text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run("stability", "--config", cfg, "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "must hold a JSON object" in err
        assert not (tmp_path / "stability.csv").exists()

    @pytest.mark.parametrize("command, cfg, expected", [
        ("simulate", {"n": [1], "p": 2}, "'n' must be an integer"),
        ("simulate", {"n": True, "p": 2}, "'n' must be an integer"),
        ("simulate", {"n": 2.5, "p": 2}, "'n' must be an integer"),
        ("verify-concentration", {"p": None}, "'p' must be an integer"),
        ("simulate", {"n": 20, "p": 2, "sigma_e": False}, "'sigma_e' must be a number"),
        ("simulate", {"n": 20, "p": 2, "preset": 3}, "'preset' must be a string"),
        ("simulate", {"n": 20, "p": 2, "model": "dense"},
         "'model' must be one of ['sparse', 'banded']"),
        ("stability", {"a_values": [0.5]}, "'a_values' must be a string"),
        ("network", {"no_self": 1}, "'no_self' must be true or false"),
        ("network", {"no_self": "yes"}, "'no_self' must be true or false"),
        ("verify-concentration", {"ar": "0.5", "reps": {"x": 1}},
         "'reps' must be an integer"),
    ])
    def test_config_value_of_wrong_kind_is_error(self, tmp_path, capsys,
                                                 command, cfg, expected):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        required = {"network": ["--kernels", tmp_path / "k.json"]}.get(command, [])
        assert run(command, *required, "--config", path,
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert str(path) in err and expected in err, err
        assert not (tmp_path / "out").exists()

    def test_config_values_of_each_accepted_kind(self, tmp_path):
        # a string is converted as on the command line, an integer serves a
        # float flag and null a flag whose default is null
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "25", "p": 2, "sigma_e": 1,
                                   "model": "banded", "preset": None}))
        out = tmp_path / "sim"
        assert run("simulate", "--config", cfg, "--out", out) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["n"], config["sigma_e"], config["preset"]) == (25, 1, None)
