import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decolab.cli import main
from decolab.diffusion import read_diffusion_csv, read_manifest
from decolab.files import DataError, FitError
import decolab.fitting as fitting
from decolab.fitting import (DecayCurve, fit_power_scaling, fit_stretched_exp, least_squares,
                             read_decay_csv, stretched_exp, write_decay_csv)
from decolab.noise import load_field_config
from conftest import make_rng
from oracles import wls_normal_equations

FIXTURES = Path(__file__).parent / "fixtures"
BUNDLED_CONFIG = Path(__file__).parents[1] / "src" / "decolab" / "data" / "mains_50hz.cfg"

X20 = np.linspace(0.5, 30.0, 20)


def test_decay_curve_validation():
    with pytest.raises(ValueError):
        DecayCurve(np.array([1.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        DecayCurve(np.array([1.0, 2.0]), np.array([1.0]))


def test_stretched_exp_noiseless_recovery():
    y = stretched_exp(X20, (1.0, 11.2, 1.7))
    fit = fit_stretched_exp(DecayCurve(X20, y))
    assert fit.converged
    assert fit.params["A"] == pytest.approx(1.0, rel=1e-3)
    assert fit.params["T2"] == pytest.approx(11.2, rel=1e-3)
    assert fit.params["n"] == pytest.approx(1.7, rel=1e-3)
    assert np.allclose(fit.covariance, fit.covariance.T)


def test_stretched_exp_constant_curve_flagged():
    fit = fit_stretched_exp(DecayCurve(X20, np.full_like(X20, 0.7)))
    assert not fit.converged


def test_stretched_exp_requires_points():
    with pytest.raises(DataError):
        fit_stretched_exp(DecayCurve(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.5, 0.2])))


def test_fix_n_recovers_plain_exponential():
    y = np.exp(-X20 / 7.3)
    fit = fit_stretched_exp(DecayCurve(X20, y), fix_n=1.0)
    assert fit.params["T2"] == pytest.approx(7.3, rel=1e-9)
    assert fit.params["n"] == 1.0


def test_stretch_exponent_bounded_to_five():
    x = np.linspace(0.5, 2.0, 24)
    y = stretched_exp(x, (1.0, 1.3, 8.0))  # generated beyond the allowed bound
    fit = fit_stretched_exp(DecayCurve(x, y))
    assert fit.params["n"] <= 5.0 + 1e-12


def test_power_scaling_exact():
    n = np.array([1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 24000.0])
    fit = fit_power_scaling(n, 16e-3 * n ** 0.67)
    assert fit.params["T0"] == pytest.approx(16e-3, rel=1e-12)
    assert fit.params["eta"] == pytest.approx(0.67, abs=1e-12)
    lin = fit_power_scaling(n, 1.8e-3 * n)
    assert lin.params["eta"] == pytest.approx(1.0, abs=1e-12)
    assert lin.params["T0"] == pytest.approx(1.8e-3, rel=1e-12)


def test_power_scaling_two_points_exact_interpolation():
    fit = fit_power_scaling([8.0, 64.0], [1e-3, 3e-3])
    assert fit.params["T0"] * 8.0 ** fit.params["eta"] == pytest.approx(1e-3, rel=1e-12)
    assert fit.params["T0"] * 64.0 ** fit.params["eta"] == pytest.approx(3e-3, rel=1e-12)
    assert "dof=0" in fit.message


def test_no_residual_degree_of_freedom_without_sigma_leaves_errors_unknown():
    # as many points as parameters: the residuals, which set the error scale
    # when no sigma is given, vanish by construction, so every error is nan
    def lin(xv, p):
        return p[..., 0, None] * xv + p[..., 1, None]

    x, y = np.array([1.0, 2.0]), np.array([0.5, 2.0])
    for fit in (least_squares(lin, [1.0, 0.0], x, y), fit_power_scaling(x, y)):
        assert np.isnan(fit.covariance).all() and np.isnan(list(fit.stderr.values())).all()
        assert np.isnan(fit.reduced_chi2)
    # a given sigma sets the scale, so the errors stay known
    for fit in (least_squares(lin, [1.0, 0.0], x, y, sigma=[0.1, 0.1]),
                fit_power_scaling(x, y, [0.1, 0.1])):
        assert np.isfinite(fit.covariance).all() and np.all(np.diag(fit.covariance) > 0.0)


def test_power_scaling_rejects_nonpositive():
    with pytest.raises(DataError):
        fit_power_scaling([1.0, 2.0, 4.0], [1.0, -2.0, 4.0])


@given(st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=25)
def test_power_scaling_scale_covariance(c):
    n = np.array([2.0, 8.0, 32.0, 128.0])
    t2 = 4e-3 * n ** 0.61
    base = fit_power_scaling(n, t2)
    scaled = fit_power_scaling(n, c * t2)
    assert scaled.params["eta"] == pytest.approx(base.params["eta"], abs=1e-12)
    assert scaled.params["T0"] == pytest.approx(c * base.params["T0"], rel=1e-9)


def test_power_scaling_nonlinear_option_agrees():
    # the log-log regression agrees with a direct nonlinear fit of T0 N^eta
    n = np.array([2.0, 8.0, 32.0, 128.0, 512.0])
    t2 = 5e-3 * n ** 0.71
    a = fit_power_scaling(n, t2)

    def power_law(xv, p):
        return p[..., 0, None] * np.power(xv, p[..., 1, None])

    b = least_squares(power_law, [a.params["T0"], a.params["eta"]], n, t2,
                      bounds=[(1e-300, np.inf), (-10.0, 10.0)], param_names=["T0", "eta"])
    assert b.params["T0"] == pytest.approx(a.params["T0"], rel=1e-6)
    assert b.params["eta"] == pytest.approx(a.params["eta"], rel=1e-6)


def test_engine_zero_residual_is_immediate():
    def lin(x, p):
        return p[..., 0, None] * x + p[..., 1, None]

    res = least_squares(lin, [2.0, -1.0], X20, 2.0 * X20 - 1.0)
    assert res.converged and res.n_iter == 1


def test_engine_matches_normal_equations():
    rng = make_rng(1)
    x = np.linspace(0.0, 1.0, 40)
    y = 1.3 * x + 0.4 + rng.normal(0.0, 0.02, 40)
    sigma = np.full(40, 0.02)

    def lin(xv, p):
        return p[..., 0, None] * xv + p[..., 1, None]

    fit = least_squares(lin, [0.0, 0.0], x, y, sigma=sigma)
    design = np.column_stack([x, np.ones_like(x)])
    params, cov = wls_normal_equations(design, y, 1.0 / sigma ** 2)
    assert fit.params["p0"] == pytest.approx(params[0], abs=1e-10)
    assert fit.params["p1"] == pytest.approx(params[1], abs=1e-10)
    assert np.allclose(fit.covariance, cov, rtol=1e-6)


def test_engine_rosenbrock_valley():
    def rosen(xv, p):
        return np.stack([10.0 * (p[..., 1] - p[..., 0] ** 2), 1.0 - p[..., 0]], axis=-1)

    res = least_squares(rosen, [-1.2, 1.0], np.zeros(2), np.zeros(2))
    assert res.converged
    assert res.params["p0"] == pytest.approx(1.0, abs=1e-6)
    assert res.params["p1"] == pytest.approx(1.0, abs=1e-6)


def test_engine_bounds_enforced():
    def lin(x, p):
        return p[..., 0, None] * x

    with pytest.raises(FitError):
        least_squares(lin, [2.0], X20, X20, bounds=[(0.0, 1.0)])
    res = least_squares(lin, [0.5], X20, 3.0 * X20, bounds=[(0.0, 1.0)])
    assert res.params["p0"] == pytest.approx(1.0)


def engine_probe(monkeypatch) -> dict:
    """The parameter scale of the Jacobian steps and the residuals' roundoff
    noise that least_squares takes at its start point, for the last call."""
    seen = {}
    jacobian, measure = fitting._forward_jacobian, fitting._roundoff_noise

    def forward_jacobian(fn, p, r0, scale, probe=False):
        seen["scale"] = scale
        return jacobian(fn, p, r0, scale, probe)

    monkeypatch.setattr(fitting, "_forward_jacobian", forward_jacobian)
    monkeypatch.setattr(fitting, "_roundoff_noise",
                        lambda *args: seen.update(noise=measure(*args)) or seen["noise"])
    return seen


def test_engine_holds_a_parameter_at_its_bound(monkeypatch):
    def lin(x, p):
        return p[..., 0, None] * x + p[..., 1, None]

    # the best slope, 3, lies beyond the bound 1; the intercept stays free
    bounds = [(0.0, 1.0), (-100.0, 100.0)]
    probe = engine_probe(monkeypatch)
    res = least_squares(lin, [0.5, 0.0], X20, 3.0 * X20 + 2.0, bounds=bounds)
    assert res.converged and res.at_bound == ["p0"] and res.n_iter <= 10
    assert res.params["p0"] == 1.0
    assert res.params["p1"] == pytest.approx(2.0 + 2.0 * X20.mean(), rel=1e-9)
    assert res.stderr["p0"] == 0.0 and np.all(res.covariance[0] == 0.0)
    assert np.all(res.covariance[:, 0] == 0.0) and res.covariance[1, 1] > 0.0
    assert_kkt(lin, DecayCurve(X20, 3.0 * X20 + 2.0), res, bounds, probe)


def assert_kkt(model_fn, curve: DecayCurve, fit, bounds, probe: dict) -> None:
    """The returned point is a KKT point of the engine's forward-difference
    gradient: the gradient of each parameter in at_bound points out of the
    box there, and the Gauss-Newton reduction predicted over the others is
    below the engine's tolerance, FLOOR_MARGIN times the cost's roundoff
    floor from the residuals' noise it measured."""
    w = 1.0 / curve.sigma if curve.sigma is not None else 1.0
    p = np.array([fit.params[k] for k in fit.param_names[:len(bounds)]])
    lo, hi = np.array(bounds, dtype=float).T

    def residuals(q):
        return (model_fn(curve.x, q) - curve.y) * w

    r = residuals(p)
    jac = fitting._forward_jacobian(residuals, p, r, probe["scale"])
    grad = jac.T @ r
    held = np.isin(fit.param_names[:len(bounds)], fit.at_bound)
    assert np.array_equal(held, (p == lo) & (grad > 0.0) | (p == hi) & (grad < 0.0))
    free = ~held
    scale = 1.0 / np.sqrt(np.sum(jac[:, free] ** 2, axis=0))
    grad_s = scale * grad[free]
    hs = scale[:, None] * (jac[:, free].T @ jac[:, free]) * scale[None, :]
    predicted = float(grad_s @ np.linalg.solve(hs, grad_s))
    noise = probe["noise"]
    assert predicted <= fitting.FLOOR_MARGIN * noise * (2.0 * math.sqrt(r @ r) + noise)


def test_free_n_feedforward_fits_stop_at_kkt_points(tmp_path, monkeypatch):
    # simulate feedforward -> fit decay with free n, the README chain, at
    # seeds 0-11: where n ends at its bound of 5 the fit once ran to the
    # 500-iteration cap and exited 4
    held = []
    for seed in range(12):
        run = tmp_path / f"seed{seed}"
        assert main(["simulate", "feedforward", "--tau-range", "0.25ms:7.5ms:0.25ms",
                     "--seed", str(seed), "--out", str(run)]) == 0
        assert main(["fit", "decay", "--data", str(run / "feedforward.csv"),
                     "--out", str(run)]) == 0
        payload = json.loads((run / "fit_decay.json").read_text(encoding="utf-8"))
        assert payload["at_bound"] == (["n"] if payload["params"]["n"] == 5.0 else []), seed
        if payload["at_bound"]:
            held.append(seed)
            assert payload["n_iter"] <= 30, seed
            assert payload["stderr"]["n"] == 0.0 and not any(payload["covariance"][2])
        with monkeypatch.context() as m:
            probe = engine_probe(m)
            fit = fit_stretched_exp(read_decay_csv(run / "feedforward.csv"))
        assert fit.at_bound == payload["at_bound"]
        assert_kkt(stretched_exp, read_decay_csv(run / "feedforward.csv"), fit,
                   [(0.0, np.inf), (1e-300, np.inf), (1e-6, 5.0)], probe)
    assert held == [2, 4, 6, 8, 10]


def test_engine_reorder_invariance():
    rng = make_rng(2)
    x = np.linspace(0.1, 5.0, 30)
    y = stretched_exp(x, (0.9, 2.0, 1.3)) + rng.normal(0, 0.005, 30)
    perm = rng.permutation(30)

    fit_a = least_squares(stretched_exp, [1.0, 1.5, 1.0], x, y,
                          param_names=["A", "T2", "n"])
    fit_b = least_squares(stretched_exp, [1.0, 1.5, 1.0], x[perm], y[perm],
                          param_names=["A", "T2", "n"])
    for k in ("A", "T2", "n"):
        assert fit_a.params[k] == pytest.approx(fit_b.params[k], rel=1e-9)


def test_forward_jacobian_matches_central_difference():
    from decolab.fitting import _forward_jacobian

    def model(p):
        return np.stack([np.sin(p[..., 0]) * p[..., 1], p[..., 0] * p[..., 1] ** 2,
                         np.exp(0.3 * p[..., 0])], axis=-1)

    p = np.array([0.7, 1.9])
    jac = _forward_jacobian(model, p, model(p), np.abs(p))
    central = np.empty_like(jac)
    for i in range(2):
        h = 1e-6 * abs(p[i])
        pp, pm = p.copy(), p.copy()
        pp[i] += h
        pm[i] -= h
        central[:, i] = (model(pp) - model(pm)) / (2 * h)
    assert np.allclose(jac, central, rtol=1e-4)


def test_noisy_recovery_within_reported_errors():
    rng = make_rng(3)
    ok = 0
    trials = 40
    for _ in range(trials):
        y = stretched_exp(X20, (1.0, 11.2, 1.7)) + rng.normal(0.0, 0.01, X20.size)
        fit = fit_stretched_exp(DecayCurve(X20, y, np.full(X20.size, 0.01)))
        if not fit.converged:
            continue
        ok += all(abs(fit.params[k] - v) <= 5.0 * fit.stderr[k]
                  for k, v in (("A", 1.0), ("T2", 11.2), ("n", 1.7)))
    assert ok >= 0.95 * trials


def test_csv_round_trip(tmp_path):
    curve = DecayCurve(X20, stretched_exp(X20, (1.0, 5.0, 1.0)), np.full(X20.size, 0.01))
    path = tmp_path / "curve.csv"
    write_decay_csv(path, curve)
    back = read_decay_csv(path)
    assert np.array_equal(back.x, curve.x)
    assert np.array_equal(back.y, curve.y)
    assert np.array_equal(back.sigma, curve.sigma)


def test_fit_result_json(tmp_path):
    # `fit decay` saves the fit result as strict JSON next to its plot
    write_decay_csv(tmp_path / "curve.csv", DecayCurve(X20, stretched_exp(X20, (1.0, 5.0, 1.0))))
    assert main(["fit", "decay", "--data", str(tmp_path / "curve.csv"),
                 "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "fit_decay.json").read_text(encoding="utf-8"))
    assert payload["converged"] is True
    assert payload["params"]["T2"] == pytest.approx(5.0, rel=1e-3)
    assert set(payload["stderr"]) == set(payload["params"]) == {"A", "T2", "n"}
    assert np.shape(payload["covariance"]) == (3, 3)
    # with n held, its row and column of the covariance are zero
    assert main(["fit", "decay", "--data", str(tmp_path / "curve.csv"), "--fix-n", "1",
                 "--out", str(tmp_path / "fixed")]) == 0
    fixed = json.loads((tmp_path / "fixed" / "fit_decay.json").read_text(encoding="utf-8"))
    assert fixed["params"]["n"] == 1.0 and fixed["stderr"]["n"] == 0.0
    assert set(fixed["stderr"]) == set(fixed["params"]) == {"A", "T2", "n"}
    cov = np.array(fixed["covariance"])
    assert cov.shape == (3, 3)
    assert np.all(cov[2] == 0.0) and np.all(cov[:, 2] == 0.0)
    assert np.sqrt(np.diag(cov)[:2]) == pytest.approx([fixed["stderr"]["A"],
                                                       fixed["stderr"]["T2"]], rel=1e-12)


def test_csv_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1.0,2.0\noops,3.0\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        read_decay_csv(path)
    assert err.value.line == 3


def _commented(src: Path, dst: Path) -> Path:
    """src with a blank first line, a comment line, a blank line, and a
    trailing comment on every line that holds text."""
    lines = src.read_text(encoding="utf-8").splitlines()
    dst.write_text("\n# commented copy\n\n" + "".join(
        f"{line}  # note {i}\n" if line.strip() else "\n" for i, line in enumerate(lines)),
        encoding="utf-8")
    return dst


@pytest.mark.parametrize("name, reader", [
    ("diffusion_500nW.csv", lambda p: [(c.x.tolist(), c.y.tolist(), c.sigma.tolist())
                                       for c in read_diffusion_csv(p)]),
    ("decay_synthetic.csv", lambda p: [a.tolist() for a in vars(read_decay_csv(p)).values()]),
    ("diffusion_manifest.txt", lambda p: [(power, path.name) for power, path in read_manifest(p)]),
    ("mains_50hz.cfg", load_field_config),
], ids=["diffusion-csv", "decay-csv", "manifest", "config"])
def test_every_input_format_skips_blank_lines_and_comments_alike(tmp_path, name, reader):
    # one rule for CSVs, manifests and configs: a '#' starts a comment
    # anywhere on a line, and a line left blank is skipped
    src = BUNDLED_CONFIG if name.endswith(".cfg") else FIXTURES / name
    assert reader(_commented(src, tmp_path / name)) == reader(src)


@pytest.mark.parametrize("reader, text, line", [
    (read_decay_csv, "x,y\n1.0,2.0\n2.0,1.0\n,,\n", 4),
    (read_diffusion_csv, "tau_d_s,counts_forward,counts_backward,stderr\n"
                         "0.001,2.0,2.0,0.1\n , , , \n", 3),
], ids=["decay", "diffusion"])
def test_row_of_only_commas_is_data_error_at_its_line(tmp_path, reader, text, line):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError) as err:
        reader(path)
    assert err.value.line == line
