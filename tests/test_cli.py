"""End-to-end tests of the command-line surface."""

import json

import numpy as np
import pytest

from fvar.basis import BasisSpec
from fvar.cli import main
from fvar.panel import CurvePanel
from fvar.pipeline import fpca_panel
from fvar.solver import KernelEstimate, build_design, fit_row, kkt_residuals


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

    def test_unknown_preset_is_config_error(self, tmp_path):
        assert run("simulate", "--preset", "nope", "--out", tmp_path) == 2

    def test_missing_size_is_config_error(self, tmp_path):
        assert run("simulate", "--out", tmp_path) == 2


@pytest.fixture(scope="module")
def fit_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    code = run("fit", "--panel", sim_dir / "panel.npz", "--basis", "bspline",
               "--basis-dim", 8, "--q", 3, "--eta", 1e-4, "--ic", "bic",
               "--n-gammas", 12, "--tol", 1e-9, "--seed", 5, "--out", out)
    assert code == 0
    return out


class TestFit:
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

    def test_rule_required(self, fit_dir, tmp_path):
        assert run("network", "--kernels", fit_dir / "kernels.json",
                   "--out", tmp_path) == 2

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

    @pytest.mark.parametrize("flag, value, name", [
        ("--a-values", "nan", "a_values"), ("--b-values", "0,inf", "b_values"),
        ("--sigma", "0", "sigma"), ("--sigma", "nan", "sigma"),
        ("--theta-grid", "32", "theta grid"), ("--a-values", "", "a_values"),
        ("--b-values", "", "b_values"), ("--sigma", "-1", "sigma"),
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
