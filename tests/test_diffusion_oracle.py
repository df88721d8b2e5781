"""The sink solver and the joint backward fit do the same float arithmetic as
the references in ``oracles.py`` with less repeated work: one Hermite table
of the even orders per process and (n_eigen, grid_points), one hyperbolic
contour per process, the sinkless sums of every projection from one pair of
mode tables per window of times, the e^{z t} tables of a factorized build
kept across calls, and one Voigt call per joint-fit model evaluation.
Results agree bit for bit; with the per-model eigen-weights in frequency
units, or with the complex resolvent 1/(n theta + s) in place of the
solver's real arithmetic, they agree to rounding; with the fixed-Talbot
contour of one inversion per time, they agree to that contour's error."""

import tracemalloc
import warnings

import numpy as np
import pytest

import decolab.diffusion as diffusion
from decolab.diffusion import (HomogeneousLine, IonizationSink, OuDiffusionModel,
                               PowerDataset, SinkSolver, SolverSettings, hermite_phi_table,
                               joint_fit_backward)
from decolab.fitting import DecayCurve
from oracles import (folded_unit_sink, hermite_phi_all_orders, hyperbola_per_call,
                     joint_backward_model_per_power, model_unit_sink, sink_counts_reference,
                     sink_inverse_real_per_contour, sink_inverse_talbot,
                     sink_inverse_two_resolvents, sink_pdf_reference, sink_survival_reference)

MODELS = [OuDiffusionModel(d_coeff=d, gamma_i=117.0) for d in (8.0e3, 1.6e4, 3.2e4)]
LINE = HomogeneousLine(c0=38.0, gamma_h=22.0)
SETTINGS = [
    SolverSettings(),                                # every CLI command
    SolverSettings(n_eigen=1200, grid_points=601),   # scripts/make_fixtures.py
    SolverSettings(n_eigen=900, grid_points=501),    # acceptance criterion 10
    SolverSettings(n_eigen=1),
    SolverSettings(n_eigen=2),
]
SETTING_IDS = ["default", "fixtures", "criterion10", "n1", "n2"]


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("settings", SETTINGS, ids=SETTING_IDS)
@pytest.mark.parametrize("model", MODELS, ids=["D8e3", "D1.6e4", "D3.2e4"])
def test_eigen_weights_match_separate_recurrences(model, settings):
    solver = SinkSolver(model, IonizationSink(strength_s=150.0), settings)
    ref = folded_unit_sink(model, settings)
    assert np.array_equal(bits(solver.grid), bits(ref.grid))
    assert np.array_equal(bits(solver._w_f), bits(ref.w_f))
    assert np.array_equal(bits(solver._w_sink), bits(ref.w_sink))
    assert solver._w_f.flags.c_contiguous


@pytest.mark.parametrize("settings", SETTINGS[:3], ids=SETTING_IDS[:3])
def test_counts_and_pdf_match_reference(settings):
    model = MODELS[1]
    sink = IonizationSink(strength_s=150.0)
    solver = SinkSolver(model, sink, settings)
    ref = folded_unit_sink(model, settings)
    taus = np.geomspace(3e-3, 0.6, 12)
    real = sink_inverse_real_per_contour
    counts_of_s = solver.counts_factorized(LINE, taus)
    for strength in (0.0, 60.0, 400.0):
        assert np.array_equal(bits(counts_of_s(strength)),
                              bits(sink_counts_reference(ref, LINE, taus, strength, real)))
    assert bits(solver.counts(LINE, taus[-1])) == bits(
        sink_counts_reference(ref, LINE, taus[-1], 150.0, real))
    for tau in (taus[0], 0.05):
        assert np.array_equal(bits(solver.pdf(tau)),
                              bits(sink_pdf_reference(ref, tau, 150.0, real)))
        assert bits(solver.survival(tau)) == bits(sink_survival_reference(ref, tau, 150.0, real))


STRENGTHS = (0.0, 60.0, 150.0, 400.0, 1e6)


def _deviation_from_two_resolvents(solver, ref, taus, pdf_taus, strengths=STRENGTHS,
                                   inverse=sink_inverse_two_resolvents):
    """Largest |solver - complex-resolvent reference| of the counts at taus,
    the survival at each of taus and the pdf at each of pdf_taus, each over
    its largest |reference| across the strengths.  The inversion's roundoff
    is absolute, set by the sinkless transform: where a strong sink empties
    a value, both arithmetics sit at the same floor.  The reference inverts
    on the solver's hyperbolic windows, or with ``sink_inverse_talbot`` on
    one fixed-Talbot contour per time."""
    deviation = {}
    counts = np.array([solver.counts_factorized(LINE, taus)(s) for s in strengths])
    ref_counts = np.array([sink_counts_reference(ref, LINE, taus, s, inverse)
                           for s in strengths])
    deviation["counts"] = np.max(np.abs(counts - ref_counts)) / np.max(np.abs(ref_counts))
    survival = np.array([[solver.survival(t, s) for t in taus] for s in strengths])
    ref_survival = np.array([[sink_survival_reference(ref, t, s, inverse) for t in taus]
                             for s in strengths])
    deviation["survival"] = np.max(np.max(np.abs(survival - ref_survival), axis=0) /
                                   np.max(np.abs(ref_survival), axis=0))
    deviation["pdf"] = 0.0
    for tau in pdf_taus:
        pdf = np.array([solver.pdf(tau, s) for s in strengths])
        ref_pdf = np.array([sink_pdf_reference(ref, tau, s, inverse) for s in strengths])
        deviation["pdf"] = max(deviation["pdf"],
                               np.max(np.abs(pdf - ref_pdf)) / np.max(np.abs(ref_pdf)))
    for values in (counts, survival):
        assert np.all(np.isfinite(values))
    return deviation


@pytest.mark.parametrize("settings", SETTINGS, ids=SETTING_IDS)
@pytest.mark.parametrize("model", MODELS, ids=["D8e3", "D1.6e4", "D3.2e4"])
def test_real_arithmetic_matches_complex_resolvent(model, settings):
    # the real sums against 1/(n theta + s) in complex arithmetic, from the
    # validity bound to 0.6 s (n_eigen 1 and 2 leave no mode n >= 2, and
    # their bound lies near or beyond 0.6 s); measured: at most 2.8e-12
    solver = SinkSolver(model, IonizationSink(strength_s=0.0), settings)
    ref = folded_unit_sink(model, settings)
    bound = solver.min_valid_time
    taus = np.geomspace(bound, 0.6, 6) if bound < 0.6 else np.array([bound])
    deviation = _deviation_from_two_resolvents(solver, ref, taus, taus[:1])
    assert max(deviation.values()) <= 1e-11, deviation


EXTREME_MODELS = [(1e-3, 1e-3), (1e-3, 1e3), (1.0, 117.0), (1e12, 1e3), (1e290, 1e-3),
                  (1e290, 117.0)]


def test_real_arithmetic_over_extreme_models():
    # D from 1e-3 to 1e290 MHz^2/s, gamma_i from 1e-3 to 1e3 MHz (theta from
    # 5.5e-9 to 5.5e296 s^-1) and tau from the validity bound to 1e300 s:
    # x and q stay finite and w_0 / s stays in physical units, so every value
    # is finite and no RuntimeWarning is raised; measured: at most 4.3e-12
    # from the complex resolvent, normalised as in the test above, over D in
    # {1e-3, 1, 1.6e4, 1e12, 1e100, 1e200, 1e290} x gamma_i in {1e-3, 1, 117,
    # 1e3} and all five strengths
    worst = 0.0
    for d, gamma_i in EXTREME_MODELS:
        model = OuDiffusionModel(d_coeff=d, gamma_i=gamma_i)
        solver = SinkSolver(model, IonizationSink(strength_s=0.0))
        ref = folded_unit_sink(model, solver.settings)
        taus = np.geomspace(solver.min_valid_time, 1e300, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            deviation = _deviation_from_two_resolvents(solver, ref, taus, taus[-1:],
                                                       (0.0, 150.0, 1e6))
        worst = max(worst, *deviation.values())
    assert worst <= 1e-11


@pytest.mark.parametrize("d_coeff", [4.4e4, 3.2e4], ids=["MODEL", "fixture"])
def test_contour_matches_fixed_talbot(d_coeff):
    # the hyperbolic windows against one 24-node fixed-Talbot contour per
    # time, both in complex arithmetic for the reference, over 3 ms - 0.6 s
    # (one window) and from the validity bound (two); measured: at most
    # 2.9e-12 of the largest value for S <= 400
    model = OuDiffusionModel(d_coeff=d_coeff, gamma_i=117.0)
    solver = SinkSolver(model, IonizationSink(strength_s=0.0))
    ref = folded_unit_sink(model, solver.settings)
    for taus in (np.geomspace(3e-3, 0.6, 12), np.geomspace(solver.min_valid_time, 0.6, 6)):
        deviation = _deviation_from_two_resolvents(solver, ref, taus, taus[-1:], STRENGTHS[:4],
                                                   sink_inverse_talbot)
        assert max(deviation.values()) <= 1e-11, deviation


def test_contour_matches_fixed_talbot_over_extreme_models():
    # the model grid of the test above, one window per time; measured: at
    # most 1.6e-12
    worst = 0.0
    for d, gamma_i in EXTREME_MODELS:
        model = OuDiffusionModel(d_coeff=d, gamma_i=gamma_i)
        solver = SinkSolver(model, IonizationSink(strength_s=0.0))
        ref = folded_unit_sink(model, solver.settings)
        taus = np.geomspace(solver.min_valid_time, 1e300, 4)
        deviation = _deviation_from_two_resolvents(solver, ref, taus, taus[-1:],
                                                   (0.0, 150.0, 400.0), sink_inverse_talbot)
        worst = max(worst, *deviation.values())
    assert worst <= 1e-11


def test_contour_converges_in_its_node_count(monkeypatch):
    # N + 16 nodes move no count by more than 1e-13 of the largest, at
    # S = 1e6 too, where the fixed-Talbot reference differs by about 3e-12:
    # that gap is Talbot's; measured: at most 7e-16
    model = OuDiffusionModel(d_coeff=3.2e4, gamma_i=117.0)
    taus = np.geomspace(3e-3, 0.6, 12)
    strengths = np.array([0.0, 400.0, 1e6])
    counts = []
    for n in (diffusion.CONTOUR_N, diffusion.CONTOUR_N + 16):
        monkeypatch.setattr(diffusion, "CONTOUR_N", n)
        solver = SinkSolver(model, IonizationSink(strength_s=0.0))
        counts.append(solver.counts_factorized(LINE, taus)(strengths))
    assert np.max(np.abs(counts[1] - counts[0])) <= 1e-13 * np.max(counts[0])


def test_sink_ratio_stays_in_the_float_range():
    # theta = 5545 s^-1 and tau = 3e301 s: the contour's node nearest 0 sits
    # near 2.7e-304, where S P~0(0, s) ~ S w_0 / s would overflow; the solver
    # forms s P~0 / (s + S s P~0(0, s)), whose terms stay finite
    model = OuDiffusionModel(d_coeff=1e-3, gamma_i=1e-3)
    solver = SinkSolver(model, IonizationSink(strength_s=0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        counts = solver.counts_factorized(LINE, 3e301)(np.array([0.0, 150.0, 1e6]))
        survival = [solver.survival(3e301, s) for s in (0.0, 150.0, 1e6)]
    # at S > 0 the counts are 0 up to roundoff that is subnormal here
    assert np.all((counts > -np.finfo(float).tiny) & (counts <= LINE.c0))
    assert np.all(np.isfinite(survival))


@pytest.mark.parametrize("settings", SETTINGS[:3], ids=SETTING_IDS[:3])
@pytest.mark.parametrize("model", MODELS, ids=["D8e3", "D1.6e4", "D3.2e4"])
def test_shared_weights_match_model_unit_weights(model, settings):
    # the shared oscillator-unit table moves results only at the rounding
    # level against eigen-weights built per model in frequency units
    solver = SinkSolver(model, IonizationSink(strength_s=150.0), settings)
    ref = model_unit_sink(model, settings)
    taus = np.geomspace(5e-3, 0.6, 12)
    counts_of_s = solver.counts_factorized(LINE, taus)
    for strength in (0.0, 60.0, 400.0, 2000.0):
        np.testing.assert_allclose(counts_of_s(strength),
                                   sink_counts_reference(ref, LINE, taus, strength),
                                   rtol=1e-9, atol=0.0)
        pdf = sink_pdf_reference(ref, 0.05, strength)
        assert np.max(np.abs(solver.pdf(0.05, strength) - pdf)) <= 1e-10 * np.max(pdf)
        assert solver.survival(0.05, strength) == pytest.approx(
            sink_survival_reference(ref, 0.05, strength), rel=1e-11, abs=0.0)


def test_shared_weights_are_read_only():
    solver = SinkSolver(MODELS[0], IonizationSink(strength_s=150.0))
    x, w_f, w_sink = diffusion._unit_weights(solver.settings.n_eigen,
                                             solver.settings.grid_points)
    assert solver._w_f is w_f
    for shared in (x, w_f, w_sink, *diffusion._hyperbola(diffusion.CONTOUR_N)):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            shared *= 2.0


@pytest.mark.parametrize("n", [48, 64])
def test_hyperbola_matches_per_call_formula(n):
    for got, want in zip(diffusion._hyperbola(n), hyperbola_per_call(n)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert diffusion._hyperbola(n)[0] is diffusion._hyperbola(n)[0]


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 41, 1200, 2000, 2001])
def test_even_hermite_rows_match_all_orders_recurrence(n_max):
    x = np.append(np.r_[np.linspace(-4.6, 4.6, 801), np.random.default_rng(5).normal(0, 9, 50)],
                  0.0)
    table = hermite_phi_all_orders(n_max, x)
    assert np.array_equal(bits(hermite_phi_table(n_max, x)), bits(table[0::2]))
    assert np.all(table[1::2, -1] == 0.0)  # odd orders vanish at the source x = 0


def test_tau_blocks_do_not_change_results(monkeypatch):
    # blocks of 5 times of one window (0.6 s / 3 ms = 200), with no e^{z t}
    # table kept or with one kept: each time's sum is its own dot product
    solver = SinkSolver(MODELS[1], IonizationSink(strength_s=150.0))
    taus = np.geomspace(3e-3, 0.6, 12)
    strengths = np.array([0.0, 150.0, 1e6])
    want = solver.counts_factorized(LINE, taus)(strengths)
    assert [t0 for t0, _ in diffusion._windows(taus)] == [taus[0]]
    monkeypatch.setattr(diffusion, "_TAU_BLOCK", 5)
    assert [(t0, index.size) for t0, index in diffusion._windows(taus)] == \
        [(taus[0], 5), (taus[0], 5), (taus[0], 2)]
    for kept in (0, 1):
        monkeypatch.setattr(diffusion, "_KEPT_BLOCKS", kept)
        assert np.array_equal(bits(solver.counts_factorized(LINE, taus)(strengths)), bits(want))
    # times in any order fall in the same windows
    order = np.random.default_rng(0).permutation(taus.size)
    assert np.array_equal(bits(solver.counts_factorized(LINE, taus[order])(strengths)),
                          bits(want[:, order]))


def test_counts_factorized_memory_is_bounded():
    # 10^5 times in one window: the e^{z t} table of every time would take
    # 104 MB, and the per-time Talbot sums of the sink and the counts 77 MB
    solver = SinkSolver(MODELS[1], IonizationSink(strength_s=150.0))
    taus = np.geomspace(3e-3, 0.6, 100_000)
    tracemalloc.start()
    try:
        counts_of_s = solver.counts_factorized(LINE, taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    counts = counts_of_s(150.0)
    assert np.all(np.isfinite(counts)) and np.all(np.diff(counts) < 0.0)


def test_one_hermite_table_per_settings_in_a_process(monkeypatch):
    calls = []

    def counting(n_max, x):
        calls.append((n_max, np.size(x)))
        return hermite_phi_table(n_max, x)

    hermite_phi_table = diffusion.hermite_phi_table
    monkeypatch.setattr(diffusion, "hermite_phi_table", counting)
    diffusion._unit_weights.cache_clear()
    taus = np.geomspace(5e-3, 0.6, 12)
    for settings in SETTINGS[:3:2]:
        for model in MODELS:
            solver = SinkSolver(model, IonizationSink(strength_s=150.0), settings)
            solver.counts_factorized(LINE, taus)(150.0)
            solver.pdf(0.05)
    assert calls == [(s.n_eigen, s.grid_points) for s in SETTINGS[:3:2]]


def test_unit_weights_peak_at_one_table():
    # the weights are formed in place in the Hermite table over the grid,
    # the x = 0 column apart, so the build holds one table, not two
    n_eigen, grid_points = 2000, 801
    table_bytes = (n_eigen + 1) // 2 * grid_points * 8
    tracemalloc.start()
    try:
        diffusion._unit_weights.__wrapped__(n_eigen, grid_points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * table_bytes


def _captured_joint_model(monkeypatch, datasets):
    captured = {}

    def capture(model_fn, p0, x, y, **kwargs):
        captured.update(model_fn=model_fn, p0=np.asarray(p0), x=x)

    monkeypatch.setattr(diffusion, "least_squares", capture)
    joint_fit_backward(datasets, gamma_h_fixed=LINE.gamma_h)
    return captured["model_fn"], captured["p0"], captured["x"]


@pytest.mark.parametrize("first_tau", [0.0, 3e-3], ids=["with-tau0", "diffused"])
def test_joint_model_matches_per_power_counts(monkeypatch, first_tau):
    taus = np.r_[first_tau, np.geomspace(5e-3, 0.6, 11)]
    datasets = [PowerDataset(250.0, DecayCurve(taus, np.linspace(40.0, 10.0, taus.size))),
                PowerDataset(500.0, DecayCurve(taus[1:], np.linspace(38.0, 9.0, taus.size - 1))),
                PowerDataset(1000.0, DecayCurve(taus[:5], np.linspace(36.0, 20.0, 5)))]
    model_fn, p0, x = _captured_joint_model(monkeypatch, datasets)
    voigt_calls = []
    voigt_density = diffusion.voigt_density

    def counting(x, sigma, gamma_hwhm):
        voigt_calls.append(np.size(x))
        return voigt_density(x, sigma, gamma_hwhm)

    monkeypatch.setattr(diffusion, "voigt_density", counting)
    sizes = [len(ds.curve) for ds in datasets]
    rng = np.random.default_rng(3)
    for params in [p0, np.array([117.0, 8e3, 40.0, 1.6e4, 38.0, 3.2e4, 36.0])] + \
            [p0 * rng.uniform(0.5, 2.0, p0.size) for _ in range(4)]:
        got = model_fn(x, params)
        assert voigt_calls == [np.count_nonzero(x > 0.0)]
        want = joint_backward_model_per_power(x, params, sizes, LINE.gamma_h)
        voigt_calls.clear()
        assert np.array_equal(bits(got), bits(want))
    if first_tau == 0.0:
        assert got[0] == params[2]  # the bare Lorentzian on resonance is C0


def test_joint_model_rows_match_per_power_counts(monkeypatch):
    # gamma_i values whose scalar square (C pow, as OuDiffusionModel forms
    # it) and array square (a multiplication) differ in the last bit: each
    # row must take the diffusion model's own arithmetic
    candidates = np.random.default_rng(7).uniform(60.0, 200.0, 40000)
    gammas = [g for g in candidates if np.float64(g) ** 2 != np.square(g)][:12]
    assert len(gammas) == 12
    taus = np.geomspace(3e-3, 0.6, 12)
    datasets = [PowerDataset(250.0, DecayCurve(taus, np.linspace(40.0, 10.0, taus.size))),
                PowerDataset(500.0, DecayCurve(taus[:7], np.linspace(38.0, 9.0, 7)))]
    model_fn, p0, x = _captured_joint_model(monkeypatch, datasets)
    rows = np.tile(p0, (len(gammas), 1))
    rows[:, 0] = gammas
    got = model_fn(x, rows)
    for row, values in zip(rows, got):
        want = joint_backward_model_per_power(x, row, [taus.size, 7], LINE.gamma_h)
        assert np.array_equal(bits(values), bits(want))
