"""The Levenberg-Marquardt engine evaluates its models on rows of parameter
vectors: one call for the forward-difference Jacobian (the first with the
roundoff probe row) and one per doubling batch of damped trials.  Every fit
must equal, bit for bit, the engine with one call per Jacobian column, probe
and trial (``least_squares_sequential`` in ``oracles.py``, which holds the
same bound and stopping rules), and every library model's rows must equal
single-row calls."""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import decolab.diffusion as diffusion
import decolab.fitting as fitting
import decolab.growth as growth
from decolab.diffusion import (HomogeneousLine, IonizationSink, OuDiffusionModel, PowerDataset,
                               SinkSolver, fit_ionization_rate, joint_fit_backward,
                               read_diffusion_csv, read_manifest)
from decolab.fitting import DecayCurve, fit_stretched_exp, read_decay_csv, stretched_exp
from decolab.growth import fit_arrhenius
from oracles import least_squares_sequential

FIXTURES = Path(__file__).parent / "fixtures"
LINE = HomogeneousLine(c0=38.0, gamma_h=22.0)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def _decay_curve() -> DecayCurve:
    return read_decay_csv(f"{FIXTURES}/decay_synthetic.csv")


def _arrhenius_data() -> tuple[np.ndarray, np.ndarray]:
    table = np.loadtxt(f"{FIXTURES}/arrhenius_synthetic.csv", delimiter=",", skiprows=1)
    return table[:, 0], table[:, 1]


def _backward_datasets() -> list[PowerDataset]:
    return [PowerDataset(power, read_diffusion_csv(path)[1])
            for power, path in read_manifest(f"{FIXTURES}/diffusion_manifest.txt")]


def _forward(power: str) -> DecayCurve:
    return read_diffusion_csv(f"{FIXTURES}/diffusion_{power}nW.csv")[0]


#: every library fit on the committed fixtures, as (module holding the
#: least_squares reference, call); README run6, run7, run8 and run11 are here
LIBRARY_FITS = {
    "decay": (fitting, lambda: fit_stretched_exp(_decay_curve())),
    "decay-fix-n-1.7": (fitting, lambda: fit_stretched_exp(_decay_curve(), fix_n=1.7)),
    "decay-fix-n-4": (fitting, lambda: fit_stretched_exp(_decay_curve(), fix_n=4.0)),
    "arrhenius": (growth, lambda: fit_arrhenius(*_arrhenius_data())[1]),
    "joint-backward": (diffusion, lambda: joint_fit_backward(_backward_datasets(), 22.0)),
    "ionization-readme": (diffusion, lambda: fit_ionization_rate(
        _forward("500"), OuDiffusionModel(1.6e4, 117.0), LINE)),
    "ionization-250": (diffusion, lambda: fit_ionization_rate(
        _forward("250"), OuDiffusionModel(8e3, 117.0), HomogeneousLine(40.0, 22.0))),
    "ionization-1000": (diffusion, lambda: fit_ionization_rate(
        _forward("1000"), OuDiffusionModel(3.2e4, 117.0), HomogeneousLine(36.0, 22.0))),
}


def assert_same_fit(got, want) -> None:
    assert got.param_names == want.param_names
    assert np.array_equal(bits(list(got.params.values())), bits(list(want.params.values())))
    assert np.array_equal(bits(list(got.stderr.values())), bits(list(want.stderr.values())))
    assert np.array_equal(bits(got.covariance), bits(want.covariance))
    assert bits(got.reduced_chi2) == bits(want.reduced_chi2)
    assert (got.converged, got.n_iter, got.message) == (want.converged, want.n_iter,
                                                        want.message)


def sequential(module, fit):
    """``fit()`` with the per-column, per-trial engine in place of least_squares."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(module, "least_squares", least_squares_sequential)
        return fit()


@pytest.mark.parametrize("name", LIBRARY_FITS)
def test_library_fit_matches_sequential_engine(name):
    module, fit = LIBRARY_FITS[name]
    assert_same_fit(fit(), sequential(module, fit))


@given(a=st.floats(0.2, 5.0), t2=st.floats(0.5, 20.0), n=st.floats(0.5, 4.0),
       noise=st.floats(0.0, 0.05), points=st.integers(5, 40), seed=st.integers(0, 2 ** 16),
       fix_n=st.sampled_from([None, 0.5, 1.0, 2.0, 2.5]))
@settings(max_examples=60, deadline=None)
# a Jacobian row of this fixed-n fit overflows np.power in both engines
@example(a=0.2, t2=1.570171696551104, n=4.0, noise=0.05, points=5, seed=40042, fix_n=2.0)
def test_drawn_stretched_exp_fit_matches_sequential_engine(a, t2, n, noise, points, seed,
                                                           fix_n):
    x = np.linspace(0.05, 3.0, points) * t2
    y = stretched_exp(x, (a, t2, n)) + noise * np.random.default_rng(seed).normal(size=points)
    curve = DecayCurve(x, y, np.full(points, max(noise, 1e-3)) if seed % 2 else None)
    fit = lambda: fit_stretched_exp(curve, fix_n=fix_n)  # noqa: E731
    with warnings.catch_warnings():  # an overflow the fit rejects raises no warning
        warnings.simplefilter("error", RuntimeWarning)
        assert_same_fit(fit(), sequential(fitting, fit))


def _captured_model(monkeypatch, module, fit):
    """The model function and start point that ``fit()`` hands least_squares."""
    captured = {}

    def capture(model_fn, p0, x, y, **kwargs):
        captured.update(model_fn=model_fn, p0=np.asarray(p0, dtype=float), x=x)
        return least_squares_sequential(model_fn, p0, x, y, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(module, "least_squares", capture)
        fit()
    return captured["model_fn"], captured["p0"], captured["x"]


@pytest.mark.parametrize("name", ["decay", "decay-fix-n-4", "arrhenius", "joint-backward",
                                  "ionization-readme"])
def test_model_rows_match_single_row_calls(monkeypatch, name):
    model_fn, p0, x = _captured_model(monkeypatch, *LIBRARY_FITS[name])
    rng = np.random.default_rng(11)
    # the Jacobian's rows, then damped-trial-like rows, then a 2 x 3 stack
    jac_rows = np.full((p0.size, p0.size), p0)
    jac_rows.flat[::p0.size + 1] *= 1.0 + 1e-6
    trial_rows = p0 * rng.uniform(0.8, 1.25, (29, p0.size))
    for rows in (jac_rows, trial_rows, trial_rows[:6].reshape(2, 3, p0.size)):
        got = model_fn(x, rows)
        assert got.shape == rows.shape[:-1] + x.shape
        for index in np.ndindex(rows.shape[:-1]):
            assert np.array_equal(bits(got[index]), bits(model_fn(x, rows[index])))


def test_stretched_exp_rows_match_single_row_calls():
    x = np.linspace(0.1, 30.0, 25)
    # n = 0.5 and 2 take numpy's scalar-exponent paths (square root, square)
    rows = np.array([[1.0, 11.2, 1.7], [0.5, 3.0, 0.5], [2.0, 0.7, 2.0], [0.3, 0.2, -1.0]])
    got = stretched_exp(x, rows)
    for row, values in zip(rows, got):
        assert np.array_equal(bits(values), bits(stretched_exp(x, tuple(row))))


@pytest.mark.parametrize("shape", [(7,), (2, 3)])
def test_counts_factorized_with_array_of_strengths(shape):
    solver = SinkSolver(OuDiffusionModel(1.6e4, 117.0), IonizationSink(strength_s=0.0))
    taus = np.geomspace(3e-3, 0.6, 12)
    counts_of_s = solver.counts_factorized(LINE, taus)
    strengths = np.linspace(0.0, 900.0, math.prod(shape)).reshape(shape)
    got = counts_of_s(strengths)
    assert got.shape == shape + taus.shape
    for index in np.ndindex(shape):
        assert np.array_equal(bits(got[index]), bits(counts_of_s(float(strengths[index]))))


def test_joint_model_gives_an_overflowing_row_non_finite_counts(monkeypatch):
    model_fn, p0, x = _captured_model(monkeypatch, *LIBRARY_FITS["joint-backward"])
    rows = np.tile(p0, (4, 1))
    rows[2, 0] = 1e200  # gamma_i: the stationary variance overflows
    # under the errstate the engine evaluates its trial rows in, the row
    # neither raises nor warns; its non-finite cost rejects it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            got = model_fn(x, rows)
    assert not np.isfinite(got[2]).any()
    for k in (0, 1, 3):
        assert np.array_equal(bits(got[k]), bits(model_fn(x, rows[k])))


def test_joint_fit_rejects_negative_times_before_any_model_call(monkeypatch):
    fits = []
    monkeypatch.setattr(diffusion, "least_squares", lambda *args, **kwargs: fits.append(args))
    datasets = _backward_datasets()
    curve = datasets[1].curve
    datasets[1] = PowerDataset(datasets[1].power_nw,
                               DecayCurve(curve.x - curve.x[2], curve.y, curve.sigma))
    with pytest.raises(ValueError) as want:
        diffusion.ou_variance(OuDiffusionModel(1.6e4, 117.0), -1.0)
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        joint_fit_backward(datasets, 22.0)
    assert fits == []


def test_forward_jacobian_is_c_contiguous():
    x = np.linspace(0.1, 30.0, 25)
    p = np.array([1.0, 11.2, 1.7])
    jac = fitting._forward_jacobian(lambda q: stretched_exp(x, q), p, stretched_exp(x, p),
                                    np.abs(p))
    assert jac.shape == (x.size, p.size)
    assert jac.flags.c_contiguous
