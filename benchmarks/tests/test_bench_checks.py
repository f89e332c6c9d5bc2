"""Every correctness check passes on the program's outputs and rejects a
deliberately wrong one."""

import json

import numpy as np
import pytest

import checks
from checks import CheckFailed
from tracing import NullTracer
from workloads import CidrIngest, DeskPath, Ops, P80Fit, Stability


def run_smoke(cls, tmp_path, seed=2):
    workload = cls("smoke")
    inputs = workload.setup(seed, tmp_path)
    out = workload.run_pass(inputs, tmp_path, Ops(NullTracer()))
    workload.check(inputs, out)
    return workload, inputs, out


def edit_json(path, fn):
    obj = json.loads(path.read_text())
    fn(obj)
    path.write_text(json.dumps(obj))


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    return run_smoke(DeskPath, tmp_path_factory.mktemp("desk"))


def test_desk_kkt_rejects_a_perturbed_kernel_block(desk):
    workload, inputs, out = desk
    fit = next(f for f in out["selected"] if f.active().any())
    h, k = 0, int(np.flatnonzero(fit.active())[0])
    saved = fit.psi[h][k]
    fit.psi[h][k] = saved * 1.05
    try:
        with pytest.raises(CheckFailed, match="KKT"):
            workload.check(inputs, out)
    finally:
        fit.psi[h][k] = saved


def test_desk_rejects_a_wrong_relative_error_or_auroc(desk):
    workload, inputs, out = desk
    for key, wrong in (("rel", out["rel"] * 1.01), ("auroc", out["auroc"] - 1e-6)):
        saved = out[key]
        out[key] = wrong
        try:
            with pytest.raises(CheckFailed):
                workload.check(inputs, out)
        finally:
            out[key] = saved


@pytest.fixture(scope="module")
def p80(tmp_path_factory):
    return run_smoke(P80Fit, tmp_path_factory.mktemp("p80"))


@pytest.mark.parametrize("tamper, match", [
    (lambda d: edit_json(d["fit_dir"] / "fits.json",
                         lambda f: f[0]["psi"][0][0][0].__setitem__(0, 0.5)), "KKT"),
    (lambda d: edit_json(d["fit_dir"] / "fits.json",
                         lambda f: f[1].__setitem__("converged", False)), "converge"),
    (lambda d: edit_json(d["net_dir"] / "graph.json",
                         lambda g: g["edges"][0].__setitem__(
                             "weight", g["edges"][0]["weight"] * (1 + 1e-9))),
     "weight"),
    (lambda d: edit_json(d["net_dir"] / "graph.json",
                         lambda g: g["edges"].pop()), "edges"),
])
def test_p80_checks_reject_wrong_outputs(p80, tamper, match, tmp_path):
    workload, inputs, out = p80
    backup = {p: p.read_bytes() for p in (out["fit_dir"] / "fits.json",
                                          out["net_dir"] / "graph.json")}
    tamper(out)
    try:
        with pytest.raises(CheckFailed, match=match):
            workload.check(inputs, out)
    finally:
        for p, data in backup.items():
            p.write_bytes(data)


def test_cidr_rejects_a_shifted_value(tmp_path):
    workload, inputs, out = run_smoke(CidrIngest, tmp_path)
    path = out["ingest_dir"] / "panel.npz"
    with np.load(path) as data:
        arrays = dict(data)
    arrays["values"][3, 1, 4] += 1e-9
    np.savez_compressed(path, **arrays)
    with pytest.raises(CheckFailed, match="CIDR"):
        workload.check(inputs, out)


def test_stability_rejects_wrong_values(tmp_path):
    workload, inputs, out = run_smoke(Stability, tmp_path)
    out["value"] += 1e-6
    with pytest.raises(CheckFailed, match="closed form"):
        workload.check(inputs, out)
    out["value"] -= 1e-6

    csv_path = out["sweep_dir"] / "stability.csv"
    lines = csv_path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[3] = repr(float(cells[3]) + 1e-6)
    csv_path.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
    with pytest.raises(CheckFailed, match="sweep"):
        workload.check(inputs, out)


def test_own_kernel_error_agrees_with_fvar_and_is_zero_at_the_truth():
    from fvar.basis import BasisSpec, evaluate_basis
    from fvar.fpca import KLModel
    from fvar.network import relative_error
    from fvar.solver import _kernel_estimate
    import generators as gen

    truth = gen.banded_truth(3, 4)
    G = truth.G
    kl = [KLModel(basis=truth.basis, mean_coeffs=np.zeros(G),
                  eigenvalues=np.ones(G), eigen_coeffs=np.eye(G),
                  scores=np.zeros((5, G))) for _ in range(3)]
    exact = [[[truth.blocks[0, j, k].T for k in range(3)] for j in range(3)]]
    u, w = checks.simpson_weights(0.0, 1.0)
    S = evaluate_basis(truth.basis, u)
    phis = [S] * 3
    assert checks.kernel_relative_error(exact, phis, truth.blocks, S, w) < 1e-6

    rng = np.random.default_rng(0)
    noisy = [[[b + 0.1 * rng.standard_normal(b.shape) for b in row]
              for row in exact[0]]]
    own = checks.kernel_relative_error(noisy, phis, truth.blocks, S, w)
    theirs = relative_error(_kernel_estimate(1, kl, noisy), truth)
    assert own > 0.01
    assert abs(own - theirs) <= 1e-3 * own


def test_two_by_two_closed_form_matches_the_general_measure():
    from fvar.moments import stability_measure_var1
    C = np.array([[0.6, 1.2], [0.0, 0.6]])
    op, value = checks.stability_2x2(0.6, 1.2, 1.0, 512)
    assert abs(value - stability_measure_var1(C, np.eye(2), 512).value) <= 1e-9
    assert abs(op - np.linalg.norm(C, 2)) <= 1e-12
