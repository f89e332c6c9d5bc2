"""Tests for network extraction, ROC metrics and CIDR ingestion."""

import json
import tracemalloc

import numpy as np
import pytest

from fvar.errors import ConfigError, DataError
from fvar.fpca import KLModel
from fvar.network import (cidr_transform, extract_network, read_price_csv,
                          relative_error, roc_and_auroc, roc_points)
from fvar.pipeline import fit_vfar
from fvar.solver import fit_row, gamma_max, recover_kernels
from fvar.solver import KernelEstimate, _kernel_estimate
from fvar.vfar import (VFARModel, gen_block_banded, simulate,
                       simulate_coefficients)

from helpers import kl_from_scores, oracle_design
from fvar.basis import BasisSpec
from oracles import relative_error_loop


def kernels_from_weights(weights, q=2):
    """Kernel estimate whose block norms reproduce a given weight matrix."""
    p = weights.shape[0]
    rng = np.random.default_rng(0)
    kl = [kl_from_scores(rng.standard_normal((10, q)), BasisSpec("fourier", q))
          for _ in range(p)]
    psi = [[[np.eye(q) * (weights[j, k] / np.sqrt(q)) for k in range(p)]
            for j in range(p)]]
    return _kernel_estimate(1, kl, psi)


class TestExtractNetwork:
    def test_zero_kernels_empty_graph(self):
        est = kernels_from_weights(np.zeros((3, 3)))
        graph = extract_network(est, threshold=0.0)
        assert graph.edges == []

    def test_indegree_p_complete_with_self_loops(self):
        est = kernels_from_weights(np.abs(np.random.default_rng(1)
                                          .standard_normal((4, 4))) + 0.1)
        graph = extract_network(est, indegree=4)
        assert len(graph.edges) == 16
        assert any(e.source == e.target for e in graph.edges)

    def test_indegree_three_on_fourteen_nodes(self):
        rng = np.random.default_rng(2)
        est = kernels_from_weights(np.abs(rng.standard_normal((14, 14))))
        graph = extract_network(est, indegree=3)
        np.testing.assert_array_equal(graph.indegrees(), np.full(14, 3))

    def test_ties_prefer_smaller_source(self):
        weights = np.zeros((3, 3))
        weights[0] = [1.0, 1.0, 1.0]
        est = kernels_from_weights(weights)
        graph = extract_network(est, indegree=1)
        src = [e.source for e in graph.edges if e.target == 0]
        assert src == [0]

    def test_no_self_excludes_loops(self):
        weights = np.eye(3) * 5.0 + 0.5
        est = kernels_from_weights(weights)
        graph = extract_network(est, indegree=1, include_self=False)
        assert all(e.source != e.target for e in graph.edges)

    def test_indegree_p_without_self_loops_rejected(self):
        est = kernels_from_weights(np.ones((3, 3)))
        with pytest.raises(ConfigError, match=r"indegree must be in "
                           r"\[1, p-1\] = \[1, 2\] when self-loops are "
                           r"excluded; got 3"):
            extract_network(est, indegree=3, include_self=False)
        graph = extract_network(est, indegree=2, include_self=False)
        np.testing.assert_array_equal(graph.indegrees(), [2, 2, 2])
        assert all(e.source != e.target for e in graph.edges)

    def test_threshold_zero_matches_solver_support(self):
        design, _ = oracle_design(p=3, q=2, n=60, seed=31)
        fits = [fit_row(j, design, 0.45 * gamma_max(design, j))
                for j in range(design.p)]
        kl = [kl_from_scores(design.responses[j], BasisSpec("fourier", 2))
              for j in range(design.p)]
        est = recover_kernels(fits, kl)
        graph = extract_network(est, threshold=0.0)
        adj = graph.adjacency()
        for j in range(3):
            for k in range(3):
                active = np.linalg.norm(fits[j].psi[0][k]) > 0
                assert adj[j, k] == active

    @pytest.mark.parametrize("threshold", [-0.1, np.nan])
    def test_threshold_below_zero_or_nan_rejected(self, threshold):
        est = kernels_from_weights(np.ones((2, 2)))
        with pytest.raises(ConfigError, match=f"got {threshold!r}"):
            extract_network(est, threshold=threshold)

    def test_infinite_threshold_keeps_no_edge(self):
        est = kernels_from_weights(np.ones((2, 2)))
        assert extract_network(est, threshold=np.inf).edges == []

    def test_requires_exactly_one_rule(self):
        est = kernels_from_weights(np.ones((2, 2)))
        with pytest.raises(ConfigError):
            extract_network(est)
        with pytest.raises(ConfigError):
            extract_network(est, threshold=0.1, indegree=1)

    def test_exports(self):
        est = kernels_from_weights(np.array([[0.0, 2.0], [0.0, 0.0]]))
        graph = extract_network(est, threshold=1.0, labels=["AAA", "BBB"])
        dot = graph.to_dot()
        assert '"BBB" -> "AAA"' in dot
        payload = json.loads(graph.to_json())
        assert payload["nodes"] == ["AAA", "BBB"]
        assert payload["edges"][0]["source"] == 1


class TestRoc:
    def test_perfect_path_point_gives_unit_auroc(self):
        truth = np.array([[True, False], [True, True]])
        report = roc_points([truth], truth)
        assert report.auroc == pytest.approx(1.0)
        assert (0.0, 1.0) in set(zip(report.fpr, report.tpr))

    def test_coin_flip_supports_near_half(self):
        rng = np.random.default_rng(3)
        p = 12
        truth = rng.random((p, p)) < 0.3
        aurocs = []
        for _ in range(100):
            path = [rng.random((p, p)) < level
                    for level in np.linspace(0.05, 0.95, 19)]
            aurocs.append(roc_points(path, truth).auroc)
        assert np.mean(aurocs) == pytest.approx(0.5, abs=0.05)

    def test_invariant_under_monotone_reweighting(self):
        rng = np.random.default_rng(4)
        scores = rng.random((6, 6))
        truth = rng.random((6, 6)) < 0.4
        thresholds = np.linspace(0, 1, 21)
        path_raw = [scores > t for t in thresholds]
        path_exp = [np.exp(scores) > np.exp(t) for t in thresholds]
        a = roc_points(path_raw, truth).auroc
        b = roc_points(path_exp, truth).auroc
        assert a == pytest.approx(b, abs=1e-12)

    def test_roc_and_auroc_uses_model_support(self):
        model = gen_block_banded(p=4, G=2, bandwidth=1, seed=5)
        est = kernels_from_weights(model.support().astype(float))
        report = roc_and_auroc([est], model)
        assert report.auroc == pytest.approx(1.0)


class TestRelativeError:
    def make_pair(self, scale=1.0, seed=6):
        model = gen_block_banded(p=3, G=4, bandwidth=1, seed=seed,
                                 measurement_noise=0.0)
        coeffs = simulate_coefficients(model, 30, seed=seed)
        kl = [kl_from_scores(coeffs[:, j, :], model.basis) for j in range(3)]
        psi = [[[scale * model.blocks[0, j, k].T for k in range(3)]
                for j in range(3)]]
        return _kernel_estimate(1, kl, psi), model

    def test_exact_estimate_zero_error(self):
        est, model = self.make_pair(1.0)
        assert relative_error(est, model) == pytest.approx(0.0, abs=1e-10)

    def test_zero_estimate_unit_error(self):
        est, model = self.make_pair(0.0)
        assert relative_error(est, model) == pytest.approx(1.0, rel=1e-10)

    def test_double_estimate_unit_error(self):
        est, model = self.make_pair(2.0)
        assert relative_error(est, model) == pytest.approx(1.0, rel=1e-6)

    def test_matches_grid_loop_on_mixed_orders_and_two_lags(self):
        rng = np.random.default_rng(10)
        basis = BasisSpec("bspline", 6)
        sizes = (1, 2, 3)
        kl = [KLModel(basis=basis, mean_coeffs=np.zeros(6),
                      eigenvalues=np.ones(q),
                      eigen_coeffs=rng.standard_normal((q, 6)),
                      scores=np.zeros((5, q))) for q in sizes]
        psi = [[[rng.standard_normal((qk, qj)) for qk in sizes]
                for qj in sizes] for _ in range(2)]
        truth = VFARModel(L=2, p=3, basis=basis,
                          blocks=0.3 * rng.standard_normal((2, 3, 3, 6, 6)))
        est = _kernel_estimate(2, kl, psi)
        expected = relative_error_loop(est, truth)
        assert relative_error(est, truth) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("chunk_bytes", [1, 6000, 2**20])
    def test_matches_grid_loop_across_bases_and_chunks(self, monkeypatch,
                                                       chunk_bytes):
        # chunks of 1, 2 and all 5 target variables; two bases among the
        # variables and a third for the truth
        monkeypatch.setattr("fvar.network._CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(12)
        sizes = (1, 3, 2, 4, 2)
        bases = [BasisSpec("bspline", 6), BasisSpec("fourier", 5)] * 3
        kl = [KLModel(basis=basis, mean_coeffs=np.zeros(basis.dimension),
                      eigenvalues=np.ones(q),
                      eigen_coeffs=rng.standard_normal((q, basis.dimension)),
                      scores=np.zeros((5, q))) for basis, q in zip(bases, sizes)]
        psi = [[[rng.standard_normal((qk, qj)) for qk in sizes]
                for qj in sizes] for _ in range(2)]
        truth = VFARModel(L=2, p=5, basis=BasisSpec("bspline", 4),
                          blocks=0.3 * rng.standard_normal((2, 5, 5, 4, 4)))
        est = _kernel_estimate(2, kl, psi)
        expected = relative_error_loop(est, truth)
        assert relative_error(est, truth) == pytest.approx(expected, rel=1e-12)

    def test_matches_grid_loop_on_a_fitted_panel(self):
        model = gen_block_banded(p=20, G=5, bandwidth=2, seed=11)
        panel = simulate(model, 80, grid=np.linspace(0, 1, 30), seed=11)
        est, *_ = fit_vfar(panel, BasisSpec("bspline", 8), q_grid=[3],
                           eta_grid=[0.0], gamma=2.0)
        assert est.support().any()
        expected = relative_error_loop(est, model)
        assert relative_error(est, model) == pytest.approx(expected, rel=1e-12)

    def test_builds_no_stacked_lag_array(self):
        # p=100 variables of q=5 components: one (sum q, sum q) float array
        # is 2 MB, and relative_error must peak below half of that
        rng = np.random.default_rng(13)
        p, q = 100, 5
        basis = BasisSpec("fourier", q)
        kl = [kl_from_scores(rng.standard_normal((10, q)), basis)
              for _ in range(p)]
        est = KernelEstimate(kl, [rng.standard_normal((p * q, q))
                                  for _ in range(p)])
        truth = VFARModel(L=1, p=p, basis=basis,
                          blocks=rng.standard_normal((1, p, p, q, q)))
        tracemalloc.start()
        try:
            relative_error(est, truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * (p * q) ** 2 * 8

    def test_variable_count_mismatch_is_config_error(self):
        est, _ = self.make_pair(1.0)
        other = gen_block_banded(p=4, G=4, bandwidth=1, seed=6)
        with pytest.raises(ConfigError, match="p=3 .* p=4"):
            relative_error(est, other)
        with pytest.raises(ConfigError, match="p=3 .* p=4"):
            roc_and_auroc([est], other)


class TestCidr:
    def test_constant_price_zero_curve(self):
        prices = np.full((3, 2, 5), 7.0)
        panel = cidr_transform(prices, demean=False)
        np.testing.assert_array_equal(panel.values, 0.0)

    def test_doubling_price_log_return(self):
        prices = np.ones((1, 1, 3))
        prices[0, 0] = [1.0, 1.5, 2.0]
        panel = cidr_transform(prices, demean=False)
        assert panel.values[0, 0, -1] == pytest.approx(100 * np.log(2.0))

    def test_curves_start_at_zero(self):
        rng = np.random.default_rng(7)
        prices = np.exp(rng.standard_normal((4, 3, 6)) * 0.01).cumprod(axis=2)
        panel = cidr_transform(prices, demean=False)
        np.testing.assert_allclose(panel.values[:, :, 0], 0.0, atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        prices = np.exp(0.01 * rng.standard_normal((5, 2, 10))).cumprod(axis=2)
        scaled = prices.copy()
        scaled[:, 1, :] *= 42.0
        a = cidr_transform(prices)
        b = cidr_transform(scaled)
        np.testing.assert_allclose(a.values, b.values, atol=1e-10)

    def test_demeaning_centers_series(self):
        rng = np.random.default_rng(9)
        prices = np.exp(0.01 * rng.standard_normal((6, 2, 8))).cumprod(axis=2)
        panel = cidr_transform(prices)
        np.testing.assert_allclose(panel.values.mean(axis=0), 0.0, atol=1e-12)

    def test_ids_given_as_array(self):
        panel = cidr_transform(np.ones((2, 2, 3)), ids=np.array(["a", "b"]))
        assert panel.ids == ["a", "b"]

    def test_repeated_id_rejected(self):
        with pytest.raises(ConfigError, match="id 'a' names more than one"):
            cidr_transform(np.ones((2, 3, 3)), ids=("b", "a", "a"))

    def test_nonpositive_price_reports_coordinates(self):
        prices = np.ones((2, 2, 3))
        prices[1, 0, 2] = -1.0
        with pytest.raises(DataError, match="day=1, variable=0, point=2"):
            cidr_transform(prices)


class TestPriceCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "prices.csv"
        rows = ["date,ticker,minute_index,price"]
        for d in ("2017-01-03", "2017-01-04"):
            for tick in ("AAA", "BBB"):
                for s in range(3):
                    rows.append(f"{d},{tick},{s},{10 + s}")
        path.write_text("\n".join(rows) + "\n")
        prices, tickers, days = read_price_csv(path)
        assert prices.shape == (2, 2, 3)
        assert tickers == ["AAA", "BBB"]
        assert days == ["2017-01-03", "2017-01-04"]
        assert prices[0, 0, 2] == 12.0

    def test_missing_cell_rejected(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("date,ticker,minute_index,price\n"
                        "2017-01-03,AAA,0,10\n2017-01-03,AAA,2,11\n")
        with pytest.raises(DataError):
            read_price_csv(path)

    def test_duplicate_key_named(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("date,ticker,minute_index,price\n"
                        "2017-01-03,AAA,0,10\n2017-01-03,BBB,0,20\n"
                        "2017-01-03,AAA,1,11\n2017-01-03,BBB,1,21\n"
                        "2017-01-03,BBB,0,22\n2017-01-03,AAA,1,12\n")
        with pytest.raises(DataError, match="line 6: duplicate row for date "
                           "2017-01-03, ticker BBB, minute 0"):
            read_price_csv(path)

    @pytest.mark.parametrize("minute", [2**62, 99999999999999999999])
    def test_out_of_range_minute_is_data_error(self, tmp_path, minute):
        path = tmp_path / "prices.csv"
        path.write_text("date,ticker,minute_index,price\n"
                        "2017-01-03,AAA,0,10\n2017-01-03,BBB,0,20\n"
                        f"2017-01-03,BBB,{minute},21\n")
        with pytest.raises(DataError, match=f"line 4: minute_index {minute} of "
                           "ticker BBB is out of range"):
            read_price_csv(path)

    def test_nan_price_is_missing_not_duplicate(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("date,ticker,minute_index,price\n"
                        "2017-01-03,AAA,0,10\n2017-01-03,AAA,1,nan\n")
        with pytest.raises(DataError, match="missing"):
            read_price_csv(path)

    @pytest.mark.parametrize("price", ["nan", "inf", "-inf"])
    def test_non_finite_price_names_line(self, tmp_path, price):
        path = tmp_path / "prices.csv"
        path.write_text("date,ticker,minute_index,price\n"
                        f"2017-01-03,AAA,0,10\n2017-01-03,AAA,1,{price}\n"
                        "2017-01-03,AAA,2,11\n")
        with pytest.raises(DataError, match=f"prices.csv, line 3: missing or "
                           f"non-finite price {price}"):
            read_price_csv(path)

    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "prices.csv"
        cells = {(d, tick, s): 100 * i + 10 * j + s
                 for i, d in enumerate(("2017-01-03", "2017-01-04", "2017-01-05"))
                 for j, tick in enumerate(("BBB", "AAA")) for s in range(2)}
        order = np.random.default_rng(3).permutation(len(cells))
        keys = list(cells)
        path.write_text("price,minute_index,ticker,date\n" + "".join(
            f"{cells[keys[i]]},{keys[i][2]},{keys[i][1]},{keys[i][0]}\n"
            for i in order))
        prices, tickers, days = read_price_csv(path)
        assert days == ["2017-01-03", "2017-01-04", "2017-01-05"]
        first_ticker = keys[order[0]][1]
        assert tickers[0] == first_ticker
        for (d, tick, s), v in cells.items():
            assert prices[days.index(d), tickers.index(tick), s] == v

    @pytest.mark.parametrize("text, match", [
        ("date,ticker,price\n2017-01-03,AAA,10\n", "minute_index"),
        ("date,ticker,minute_index,price\n2017-01-03,AAA,0,ten\n", "line 2"),
        ("date,ticker,minute_index,price\n", "no price rows"),
    ])
    def test_malformed_file_is_data_error(self, tmp_path, text, match):
        path = tmp_path / "prices.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=match):
            read_price_csv(path)
