"""The sink solver and the joint backward fit do the same float arithmetic as
the references in ``oracles.py`` with less repeated work: one Hermite table
of the even orders per process and (n_eigen, grid_points), one Talbot
contour per node count, the sinkless sums of every projection in one pass
over blocks of contour nodes and one Voigt call per joint-fit model
evaluation.  Results agree bit for bit; with the per-model eigen-weights in
frequency units, or with the complex resolvent 1/(n theta + s) in place of
the solver's real arithmetic, they agree to rounding."""

import tracemalloc
import warnings

import numpy as np
import pytest

import decolab.diffusion as diffusion
from decolab.diffusion import (HomogeneousLine, IonizationSink, OuDiffusionModel,
                               PowerDataset, SinkSolver, SolverSettings, hermite_phi_table,
                               joint_fit_backward)
from decolab.fitting import DecayCurve
from oracles import (folded_unit_sink, hermite_phi_all_orders, joint_backward_model_per_power,
                     model_unit_sink, sink_counts_reference, sink_inverse_real_per_contour,
                     sink_pdf_reference, sink_survival_reference, talbot_contour_per_call)

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


def _deviation_from_two_resolvents(solver, ref, taus, pdf_taus, strengths=STRENGTHS):
    """Largest |solver - complex-resolvent reference| of the counts at taus,
    the survival at each of taus and the pdf at each of pdf_taus, each over
    its largest |reference| across the strengths.  The inversion's roundoff
    is absolute, set by the sinkless transform: where a strong sink empties
    a value, both arithmetics sit at the same floor."""
    deviation = {}
    counts = np.array([solver.counts_factorized(LINE, taus)(s) for s in strengths])
    ref_counts = np.array([sink_counts_reference(ref, LINE, taus, s) for s in strengths])
    deviation["counts"] = np.max(np.abs(counts - ref_counts)) / np.max(np.abs(ref_counts))
    survival = np.array([[solver.survival(t, s) for t in taus] for s in strengths])
    ref_survival = np.array([[sink_survival_reference(ref, t, s) for t in taus]
                             for s in strengths])
    deviation["survival"] = np.max(np.max(np.abs(survival - ref_survival), axis=0) /
                                   np.max(np.abs(ref_survival), axis=0))
    deviation["pdf"] = 0.0
    for tau in pdf_taus:
        pdf = np.array([solver.pdf(tau, s) for s in strengths])
        ref_pdf = np.array([sink_pdf_reference(ref, tau, s) for s in strengths])
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


def test_real_arithmetic_over_extreme_models():
    # D from 1e-3 to 1e290 MHz^2/s, gamma_i from 1e-3 to 1e3 MHz (theta from
    # 5.5e-9 to 5.5e296 s^-1) and tau from the validity bound to 1e300 s:
    # x and q stay finite and w_0 / s stays in physical units, so every value
    # is finite and no RuntimeWarning is raised; measured: at most 4.3e-12
    # from the complex resolvent, normalised as in the test above, over D in
    # {1e-3, 1, 1.6e4, 1e12, 1e100, 1e200, 1e290} x gamma_i in {1e-3, 1, 117,
    # 1e3} and all five strengths
    worst = 0.0
    for d, gamma_i in [(1e-3, 1e-3), (1e-3, 1e3), (1.0, 117.0), (1e12, 1e3), (1e290, 1e-3),
                       (1e290, 117.0)]:
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
    for shared in (x, w_f, w_sink, *diffusion._talbot_contour(diffusion.INVERSION_NODES)):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            shared *= 2.0


@pytest.mark.parametrize("m", [4, 24])
def test_talbot_contour_matches_per_call_formula(m):
    for got, want in zip(diffusion._talbot_contour(m), talbot_contour_per_call(m)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert diffusion._talbot_contour(m)[0] is diffusion._talbot_contour(m)[0]


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 41, 1200, 2000, 2001])
def test_even_hermite_rows_match_all_orders_recurrence(n_max):
    x = np.append(np.r_[np.linspace(-4.6, 4.6, 801), np.random.default_rng(5).normal(0, 9, 50)],
                  0.0)
    table = hermite_phi_all_orders(n_max, x)
    assert np.array_equal(bits(hermite_phi_table(n_max, x)), bits(table[0::2]))
    assert np.all(table[1::2, -1] == 0.0)  # odd orders vanish at the source x = 0


def test_resolvent_blocks_do_not_change_results(monkeypatch):
    # blocks of 8 and of 240 nodes, the narrowest and widest whole 8-node
    # groups for which BLAS reduces each node's column alike
    solver = SinkSolver(MODELS[1], IonizationSink(strength_s=150.0))
    taus = np.geomspace(3e-3, 0.6, 12)
    blocks = []
    reciprocal = np.reciprocal

    def counting(*args, **kwargs):
        blocks[-1] += 1  # one reciprocal table per block
        return reciprocal(*args, **kwargs)

    monkeypatch.setattr(np, "reciprocal", counting)

    def evaluate():
        out = []
        for run in (lambda: solver.counts_factorized(LINE, taus)(150.0),
                    lambda: solver.survival(0.05), lambda: solver.pdf(0.05)):
            blocks.append(0)
            out.append(run())
        return out

    monkeypatch.setattr(diffusion, "_NODE_BLOCK", 240)
    wide = evaluate()
    assert blocks == [2, 1, 1]  # 288 nodes in blocks of 240, then 24 nodes
    blocks.clear()
    monkeypatch.setattr(diffusion, "_NODE_BLOCK", 8)
    narrow = evaluate()
    assert blocks == [taus.size * 3, 3, 3]  # 8 of the 24 Talbot nodes per block
    for a, b in zip(wide, narrow):
        assert np.array_equal(bits(a), bits(b))


def test_counts_factorized_memory_is_bounded():
    # one complex resolvent table over all 2000 x 24 nodes would take 768 MB
    # (1.5 GB with the odd modes)
    solver = SinkSolver(MODELS[1], IonizationSink(strength_s=150.0))
    taus = np.geomspace(3e-3, 0.6, 2000)
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
    assert calls == [(s.n_eigen, s.grid_points + 1) for s in SETTINGS[:3:2]]


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
