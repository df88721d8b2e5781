import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import wofz

from decolab.diffusion import (HomogeneousLine, IonizationSink, OuDiffusionModel,
                               PowerDataset, SinkSolver, SolverSettings,
                               ValidityError, counts_no_ionization,
                               faddeeva_w, fit_ionization_rate, hermite_phi_table,
                               invert_laplace, joint_fit_backward, ou_pdf,
                               ou_variance, power_broadened_linewidth,
                               read_diffusion_csv, read_manifest, tau_c,
                               voigt_density, write_diffusion_csv, LN2_8)
from decolab.fitting import DecayCurve, fit_power_scaling
from conftest import make_rng
from oracles import hermite_phi_mp, voigt_quadrature, weight_table

MODEL = OuDiffusionModel(d_coeff=4.4e4, gamma_i=117.0)
LINE = HomogeneousLine(c0=40.0, gamma_h=22.0)


# ---------------------------------------------------------------------------
# O-U basics
# ---------------------------------------------------------------------------

def test_variance_limits():
    assert ou_variance(MODEL, 0.0) == 0.0
    m222 = OuDiffusionModel(d_coeff=1.0, gamma_i=222.0)
    assert ou_variance(m222, 1e12) == pytest.approx(222.0 ** 2 / LN2_8, rel=1e-12)
    assert ou_variance(m222, 1e12) == pytest.approx(8888.0, rel=1e-4)


def test_variance_small_time_linear():
    v_inf = MODEL.stationary_variance
    t = 0.0005 * v_inf / (2 * MODEL.d_coeff) * 1e-3
    assert ou_variance(MODEL, t) == pytest.approx(2 * MODEL.d_coeff * t, rel=1e-3)


def test_theta_consistency():
    assert MODEL.theta == pytest.approx(
        MODEL.d_coeff * (2 * math.sqrt(2 * math.log(2)) / MODEL.gamma_i) ** 2, rel=1e-12)
    assert MODEL.stationary_variance == pytest.approx(MODEL.d_coeff / MODEL.theta, rel=1e-12)


def test_pdf_steady_state_fwhm():
    # FWHM of the stationary Gaussian equals gamma_i
    fwhm = math.sqrt(LN2_8 * ou_variance(MODEL, 1e9))
    assert fwhm == pytest.approx(MODEL.gamma_i, rel=1e-9)
    peak = ou_pdf(MODEL, 0.0, 1e9)
    assert ou_pdf(MODEL, MODEL.gamma_i / 2, 1e9) == pytest.approx(0.5 * peak, rel=1e-9)


@given(st.floats(min_value=5e3, max_value=1e5), st.floats(min_value=30.0, max_value=300.0),
       st.floats(min_value=1e-4, max_value=1.0))
@settings(max_examples=15, deadline=None)
@example(d=5000.0, gamma_i=60.1015625, tau=1.0)  # quad over (-inf, inf) read 1 + 1.7e-9
def test_pdf_normalized(d, gamma_i, tau):
    m = OuDiffusionModel(d_coeff=d, gamma_i=gamma_i)
    # +-12 standard deviations leave 4e-33 outside; the peak is a breakpoint
    sd = math.sqrt(ou_variance(m, tau))
    val, err = quad(lambda f: ou_pdf(m, f, tau), -12.0 * sd, 12.0 * sd, points=[0.0],
                    epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-12
    assert val == pytest.approx(1.0, abs=1e-9)


def test_semigroup_moments_compose():
    m = MODEL
    t1, t2 = 3e-3, 7e-3
    v12 = ou_variance(m, t2) + math.exp(-2 * m.theta * t2) * ou_variance(m, t1)
    assert v12 == pytest.approx(ou_variance(m, t1 + t2), rel=1e-12)


# ---------------------------------------------------------------------------
# tau_c
# ---------------------------------------------------------------------------

def test_tau_c_formula_and_scaling():
    d = 16.9 ** 2 / (16 * math.log(2) * 0.8e-3)
    assert d == pytest.approx(3.22e4, rel=1e-3)
    assert tau_c(d, 16.9) == pytest.approx(0.8e-3, rel=1e-12)
    assert tau_c(2 * d, 16.9) == pytest.approx(0.4e-3, rel=1e-12)


def _tau_c_bisection(model, gamma_h):
    # solve FWHM(P(., t)) = gamma_h on the exact variance
    def width_gap(t):
        return math.sqrt(LN2_8 * ou_variance(model, t)) - gamma_h

    upper = 10.0 / model.theta
    return brentq(width_gap, 1e-12, upper, xtol=1e-18, rtol=1e-14)


def test_tau_c_against_bisection_small_ratio():
    # the approximation is 1%-accurate only while (gamma_h/gamma_i)^2/2 < 1%
    for ratio in (0.05, 0.10, 0.14):
        gamma_h = ratio * MODEL.gamma_i
        exact = _tau_c_bisection(MODEL, gamma_h)
        assert tau_c(MODEL.d_coeff, gamma_h) == pytest.approx(exact, rel=0.01)
    # at ratio 0.2 the time-domain disagreement is ~2% (= x/2 with x = 0.04)
    gamma_h = 0.2 * MODEL.gamma_i
    exact = _tau_c_bisection(MODEL, gamma_h)
    assert tau_c(MODEL.d_coeff, gamma_h) / exact == pytest.approx(1.0 - 0.02, abs=0.005)


# ---------------------------------------------------------------------------
# Voigt counts
# ---------------------------------------------------------------------------

def test_faddeeva_matches_scipy():
    rng = make_rng(1)
    z = rng.uniform(-10, 10, 200) + 1j * 10 ** rng.uniform(-4, 1.5, 200)
    ours = faddeeva_w(z)
    ref = wofz(z)
    assert np.max(np.abs(ours - ref) / np.abs(ref)) < 1e-12


def test_voigt_against_quadrature():
    for x in (0.0, 8.0, 40.0):
        v = voigt_density(x, 31.0, 11.0)
        assert v == pytest.approx(voigt_quadrature(x, 31.0, 11.0), rel=1e-9)


def test_counts_delta_start():
    assert counts_no_ionization(MODEL, LINE, 0.0, probe_detuning=0.0) == LINE.c0
    assert counts_no_ionization(MODEL, LINE, 0.0, probe_detuning=11.0) == \
        pytest.approx(LINE.c0 / 2.0, rel=1e-12)


def test_counts_long_time_voigt_peak():
    tau = 50.0 / MODEL.theta
    sigma = math.sqrt(MODEL.stationary_variance)
    expected = LINE.c0 * math.pi * 11.0 * voigt_quadrature(0.0, sigma, 11.0)
    assert counts_no_ionization(MODEL, LINE, tau) == pytest.approx(expected, rel=1e-6)


def test_counts_array_matches_scalar_calls():
    # one call per curve: the array path is the per-time path, bit for bit,
    # and keeps the bare Lorentzian at tau = 0
    taus = np.concatenate([[0.0], np.geomspace(1e-5, 1.0, 25)])
    for detuning in (0.0, 11.0):
        vals = counts_no_ionization(MODEL, LINE, taus, probe_detuning=detuning)
        assert isinstance(vals, np.ndarray) and vals.shape == taus.shape
        one_by_one = [counts_no_ionization(MODEL, LINE, float(t), probe_detuning=detuning)
                      for t in taus]
        assert all(isinstance(v, float) for v in one_by_one)
        assert vals.tolist() == one_by_one
        assert vals[0] == LINE.counts(detuning)
    with pytest.raises(ValueError):
        counts_no_ionization(MODEL, LINE, np.array([1e-3, -1e-3]))


@pytest.mark.parametrize("make", [
    lambda v: OuDiffusionModel(d_coeff=v, gamma_i=117.0),
    lambda v: OuDiffusionModel(d_coeff=4.4e4, gamma_i=v),
    lambda v: HomogeneousLine(c0=v, gamma_h=22.0),
    lambda v: HomogeneousLine(c0=40.0, gamma_h=v),
    lambda v: IonizationSink(strength_s=v),
], ids=["d_coeff", "gamma_i", "c0", "gamma_h", "strength_s"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_parameters_that_are_not_finite_are_rejected(make, value):
    # the CLI's parser rejects these values before the library sees them
    with pytest.raises(ValueError, match="must be finite"):
        make(value)


def test_counts_at_nan_time_are_nan():
    # a nan time has a nan variance: nan counts, not the bare Lorentzian
    assert math.isnan(counts_no_ionization(MODEL, LINE, math.nan))
    vals = counts_no_ionization(MODEL, LINE, np.array([0.0, math.nan, 1e-3]), probe_detuning=11.0)
    assert vals[0] == LINE.counts(11.0) and math.isnan(vals[1]) and math.isfinite(vals[2])


def test_counts_monotone_and_symmetric():
    taus = np.geomspace(1e-5, 1.0, 25)
    vals = counts_no_ionization(MODEL, LINE, taus)
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    for t in (1e-3, 0.1):
        plus = counts_no_ionization(MODEL, LINE, t, probe_detuning=17.0)
        minus = counts_no_ionization(MODEL, LINE, t, probe_detuning=-17.0)
        assert plus == pytest.approx(minus, rel=1e-12)


def test_power_broadening_chain():
    assert power_broadened_linewidth(13.0, 65.0, 0.0) == 13.0
    b = (17.3 ** 2 - 13.0 ** 2) / 2.0
    assert b == pytest.approx(65.1, rel=1e-2)
    assert power_broadened_linewidth(13.0, b, 5.0) == pytest.approx(22.2, abs=0.1)


# ---------------------------------------------------------------------------
# Hermite functions and eigen-expansion
# ---------------------------------------------------------------------------

def test_hermite_low_orders():
    # the table holds the even orders only: rows 0 and 1 are phi_0 and phi_2
    xs = np.linspace(-3.0, 3.0, 13)
    table = hermite_phi_table(3, xs)
    assert table.shape == (2, xs.size) and hermite_phi_table(2, xs).shape == (1, xs.size)
    phi0 = np.exp(-xs ** 2 / 2) / math.pi ** 0.25
    assert np.allclose(table[0], phi0, rtol=1e-12)
    assert np.allclose(table[1], (2 * xs ** 2 - 1) / math.sqrt(2) * phi0, rtol=1e-12)


def test_hermite_table_matches_scalar():
    xs = np.linspace(-4.0, 4.0, 9)
    table = hermite_phi_table(40, xs)
    for n in (0, 2, 8, 38):
        scalar = [hermite_phi_mp(n, float(x)) for x in xs]
        assert np.allclose(table[n // 2], scalar, rtol=1e-10)


def test_hermite_recurrence_matches_mp():
    # up to order 500, where the table stays finite and exact
    points = ((20, 0.5), (50, 2.0), (120, 1.3), (500, 1.0))
    table = hermite_phi_table(501, np.array([x for _, x in points]))
    for i, (n, x) in enumerate(points):
        assert table[n // 2, i] == pytest.approx(hermite_phi_mp(n, x), rel=1e-9)


def test_eigen_weight_ground_state_and_parity():
    f = np.linspace(-150.0, 150.0, 7)
    table = weight_table(MODEL, f, 8)
    sigma2 = MODEL.stationary_variance
    gaussian = np.exp(-f ** 2 / (2 * sigma2)) / math.sqrt(2 * math.pi * sigma2)
    assert table.shape == (4, f.size)  # orders 0, 2, 4, 6: odd ones vanish at f = 0
    assert np.allclose(table[0], gaussian, rtol=1e-10)
    assert np.allclose(table, table[:, ::-1], rtol=1e-10)  # even modes are even in f


def test_eigen_series_reproduces_gaussian():
    f = np.linspace(-250.0, 250.0, 41)
    table = weight_table(MODEL, f, 2000)
    n = np.arange(0, 2000, 2)
    for theta_tau in (0.05, 0.2, 1.0, 5.0):
        tau = theta_tau / MODEL.theta
        series = (table * np.exp(-n * MODEL.theta * tau)[:, None]).sum(axis=0)
        exact = ou_pdf(MODEL, f, tau)
        assert np.max(np.abs(series - exact)) < 1e-6


# ---------------------------------------------------------------------------
# Laplace domain and inversion
# ---------------------------------------------------------------------------

def test_laplace_p0_large_s_decay():
    # once |s| dwarfs the truncated spectrum (n_eigen * theta), the sum
    # decays as 1/|s|
    solver = SinkSolver(MODEL, IonizationSink(strength_s=0.0))
    s = np.array([1e6, 1e7], dtype=complex)
    v1, v2 = solver._laplace_sp0(s, solver._w_sink[None])[0][0] / s
    assert abs(v2) == pytest.approx(abs(v1) * 0.1, rel=0.05)


def test_laplace_p0_tail_suppressed():
    # the grid spans +-6.5 stationary sigmas around the source at f = 0
    solver = SinkSolver(MODEL, IonizationSink(strength_s=0.0))
    p0 = solver._laplace_sp0(np.array([50.0], dtype=complex), solver._w_f.T)[0][:, 0]
    sigma_inf = math.sqrt(MODEL.stationary_variance)
    assert solver.grid[-1] == pytest.approx(6.5 * sigma_inf, rel=1e-12)
    assert abs(p0[-1]) < 1e-8 * abs(p0[solver.grid.size // 2])


def test_sink_reduces_to_p0_at_zero_strength():
    """At S = 0 the sink factor s + S s P~0(0, s) is s itself, so pdf gives
    bit for bit the generic inversion of the sinkless transform s P~0 / s:
    no trace of the sink row is left in any value, down to the pdf's tail
    far below the contour's roundoff, and pdf's windowed contour sum is
    ``invert_laplace``'s.  Both take the same mode sums, from the same
    products on the same matrix, so on any BLAS kernel they agree; that the
    sums themselves are right is checked against the complex resolvent in
    tests/test_diffusion_oracle.py."""
    solver = SinkSolver(MODEL, IonizationSink(strength_s=500.0))
    tau = 0.4 / MODEL.theta
    coef = solver._scale * solver._w_f.T
    sinkless = invert_laplace(lambda s: solver._laplace_sp0(s, coef)[0] / s, tau)
    assert np.allclose(solver.pdf(tau, strength_s=0.0), sinkless, rtol=1e-12, atol=0.0)


def test_invert_textbook_pairs_two_decades():
    for a in (1.0, 20.0):
        for at in np.geomspace(0.1, 10.0, 13):
            t = at / a
            got = invert_laplace(lambda s: 1.0 / (s + a), t)
            assert got == pytest.approx(math.exp(-at), rel=1e-8)
    for t in np.geomspace(0.05, 5.0, 9):
        assert invert_laplace(lambda s: 1.0 / s ** 2, t) == pytest.approx(t, rel=1e-8)


def test_invert_vector_valued_over_times():
    # one contour sum for many times and a vector-valued transform
    taus = np.geomspace(0.05, 3.0, 9)
    rates = np.array([1.0, 2.0, 3.0])
    got = invert_laplace(lambda s: 1.0 / (s + rates[:, None, None]), taus)
    assert got.shape == (3, 9)
    assert np.allclose(got, np.exp(-np.outer(rates, taus)), rtol=1e-8, atol=0.0)
    solver = SinkSolver(MODEL, IonizationSink(strength_s=300.0))
    many = solver.counts_factorized(LINE, taus / MODEL.theta)(300.0)
    one_at_a_time = [solver.counts(LINE, t / MODEL.theta) for t in taus]
    assert np.allclose(many, one_at_a_time, rtol=1e-12, atol=0.0)
    pdf = solver.pdf(taus[3] / MODEL.theta)
    assert solver.counts(LINE, taus[3] / MODEL.theta) == pytest.approx(
        np.trapezoid(pdf * LINE.counts(-solver.grid), solver.grid), rel=1e-10)


def test_validity_guard():
    solver = SinkSolver(MODEL, IonizationSink(strength_s=100.0))
    bound = solver.min_valid_time
    with pytest.raises(ValidityError, match="theta"):
        solver.pdf(0.5 * bound)


def test_sinkless_round_trip_grid():
    solver = SinkSolver(MODEL, IonizationSink(strength_s=0.0))
    for theta_tau in np.geomspace(0.05, 5.0, 6):
        tau = theta_tau / MODEL.theta
        pdf = solver.pdf(tau)
        exact = ou_pdf(MODEL, solver.grid, tau)
        sel = exact > 1e-3 * exact.max()
        assert np.max(np.abs(pdf[sel] - exact[sel]) / exact[sel]) < 1e-3
        assert solver.survival(tau) == pytest.approx(1.0, abs=1e-3)


def test_survival_monotone():
    solver = SinkSolver(MODEL, IonizationSink(strength_s=0.0))
    taus = np.geomspace(0.05, 3.0, 5) / MODEL.theta
    strengths = [0.0, 100.0, 1000.0, 10000.0]
    table = np.array([[solver.survival(t, s) for t in taus] for s in strengths])
    assert np.all(np.diff(table, axis=1) < 1e-6)   # in tau
    assert np.all(np.diff(table, axis=0) < 1e-9)   # in S
    assert np.all(table[1:, :] < 1.0)


@pytest.mark.parametrize("strength", [0.0, 400.0])
def test_survival_is_trapezoid_of_pdf(strength):
    # survival inverts the trapezoid projection of the eigen-weights; the
    # trapezoid of the inverted pdf is the same sum taken after inversion
    solver = SinkSolver(OuDiffusionModel(d_coeff=3.2e4, gamma_i=117.0),
                        IonizationSink(strength_s=strength))
    for tau in (3e-3, 50e-3, 0.6):
        assert abs(solver.survival(tau) - np.trapezoid(solver.pdf(tau), solver.grid)) < 1e-11


def test_sink_solver_against_finite_difference_integrator():
    # independent route: Crank-Nicolson integration of the sink
    # Fokker-Planck equation (upwinded drift, one-cell delta sink), sharing
    # nothing with the eigen-expansion / Laplace-inversion path
    from oracles import fokker_planck_fd

    sigma_inf = math.sqrt(MODEL.stationary_variance)
    solver = SinkSolver(MODEL, IonizationSink(strength_s=0.0))
    for strength, theta_tau in ((500.0, 0.5), (2000.0, 0.2), (100.0, 2.0)):
        tau = theta_tau / MODEL.theta
        f, p = fokker_planck_fd(MODEL.theta, MODEL.d_coeff, strength, tau,
                                6.5 * sigma_inf)
        surv_fd = float(np.trapezoid(p, f))
        assert solver.survival(tau, strength) == pytest.approx(surv_fd, abs=5e-3)
        pdf = solver.pdf(tau, strength)
        pdf_fd = np.interp(solver.grid, f, p)
        assert np.max(np.abs(pdf_fd - pdf)) < 2.5e-2 * pdf.max()


def test_counts_with_ionization_reduction_and_monotonicity():
    st_ = SolverSettings(n_eigen=1200, grid_points=601)
    tau = 0.4 / MODEL.theta
    solver = SinkSolver(MODEL, IonizationSink(strength_s=0.0), st_)
    c0 = solver.counts(LINE, tau)
    assert c0 == pytest.approx(counts_no_ionization(MODEL, LINE, tau), rel=2e-3)
    vals = [solver.counts(LINE, tau, strength_s=s) for s in (0.0, 200.0, 2000.0)]
    assert vals[0] > vals[1] > vals[2]


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------

def _make_backward_datasets(gamma_i, powers, ds, c0s, gamma_h, taus):
    datasets = []
    for p, d, c0 in zip(powers, ds, c0s):
        model = OuDiffusionModel(d, gamma_i)
        y = np.array([counts_no_ionization(model, HomogeneousLine(c0, gamma_h), t)
                      for t in taus])
        datasets.append(PowerDataset(p, DecayCurve(taus, y)))
    return datasets


def test_joint_fit_single_dataset_recovery():
    taus = np.geomspace(2e-4, 0.5, 14)
    datasets = _make_backward_datasets(117.0, [500.0], [1.6e4], [38.0], 22.0, taus)
    fit = joint_fit_backward(datasets, gamma_h_fixed=22.0)
    assert fit.converged
    assert fit.params["gamma_i"] == pytest.approx(117.0, rel=0.01)
    assert fit.params["D_500nW"] == pytest.approx(1.6e4, rel=0.01)
    assert fit.params["C0_500nW"] == pytest.approx(38.0, rel=0.01)


def test_joint_fit_shared_gamma_across_powers():
    taus = np.geomspace(2e-4, 0.5, 12)
    powers = [250.0, 500.0, 1000.0]
    ds = [8e3, 1.6e4, 3.2e4]
    datasets = _make_backward_datasets(117.0, powers, ds, [40.0, 38.0, 36.0], 22.0, taus)
    fit = joint_fit_backward(datasets, gamma_h_fixed=22.0)
    assert fit.converged
    assert sum(1 for k in fit.params if k == "gamma_i") == 1
    assert fit.params["gamma_i"] == pytest.approx(117.0, rel=0.01)


def test_diffusion_power_scaling_recovery():
    # tau_c ~ P^-1.05 synthetic ladder: D ~ P^[+]1.05
    powers = np.array([125.0, 250.0, 500.0, 1000.0, 2000.0])
    ds_true = 2e3 * (powers / 125.0) ** 1.05
    taus = np.geomspace(5e-4, 2.0, 12)
    datasets = _make_backward_datasets(117.0, powers, ds_true, [40.0] * 5, 22.0, taus)
    fit = joint_fit_backward(datasets, gamma_h_fixed=22.0)
    d_fit = [fit.params[f"D_{p:g}nW"] for p in powers]
    taucs = [tau_c(d, 22.0) for d in d_fit]
    scaling = fit_power_scaling(powers, taucs)
    assert scaling.params["eta"] == pytest.approx(-1.05, abs=0.02)


def test_ionization_fit_recovery():
    st_ = SolverSettings(n_eigen=1200, grid_points=601)
    model = OuDiffusionModel(1.6e4, 117.0)
    solver = SinkSolver(model, IonizationSink(strength_s=300.0), st_)
    taus = np.geomspace(3e-3, 0.4, 10)
    fwd = 0.96 * np.array([solver.counts(LINE, t) for t in taus])
    fit = fit_ionization_rate(DecayCurve(taus, fwd), model, LINE, settings=st_)
    assert fit.converged
    assert fit.params["S"] == pytest.approx(300.0, rel=0.05)


def test_ionization_fit_zero_strength_data():
    st_ = SolverSettings(n_eigen=1200, grid_points=601)
    model = OuDiffusionModel(1.6e4, 117.0)
    solver = SinkSolver(model, IonizationSink(strength_s=0.0), st_)
    taus = np.geomspace(3e-3, 0.4, 8)
    fwd = 0.96 * np.array([solver.counts(LINE, t) for t in taus])
    fit = fit_ionization_rate(DecayCurve(taus, fwd), model, LINE, settings=st_)
    assert fit.params["S"] == pytest.approx(0.0, abs=1e-6 + 3 * fit.stderr["S"])


def test_ionization_rate_tracks_power_ladder():
    st_ = SolverSettings(n_eigen=900, grid_points=501)
    model = OuDiffusionModel(1.6e4, 117.0)
    taus = np.geomspace(3e-3, 0.4, 8)
    fitted = []
    for s_true in (50.0, 200.0, 800.0):
        solver = SinkSolver(model, IonizationSink(strength_s=s_true), st_)
        fwd = 0.96 * np.array([solver.counts(LINE, t) for t in taus])
        fit = fit_ionization_rate(DecayCurve(taus, fwd), model, LINE, settings=st_)
        fitted.append(fit.params["S"])
    assert fitted[0] < fitted[1] < fitted[2]


def test_dataset_csv_and_manifest(tmp_path):
    taus = np.geomspace(1e-3, 0.1, 6)
    fwd = np.linspace(30.0, 10.0, 6)
    bwd = np.linspace(32.0, 12.0, 6)
    err = np.full(6, 0.5)
    path = tmp_path / "power_500nW.csv"
    write_diffusion_csv(path, taus, fwd, bwd, err)
    forward, backward = read_diffusion_csv(path)
    assert np.allclose(forward.y, fwd) and np.allclose(backward.y, bwd)
    assert np.allclose(forward.sigma, err)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("# power_nW file\n500 power_500nW.csv\n", encoding="utf-8")
    entries = read_manifest(manifest)
    assert entries == [(500.0, path)]
