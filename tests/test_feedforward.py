import math

import numpy as np
import pytest

from decolab import feedforward
from decolab.feedforward import (FeedforwardOutcome, ShotConfig, _block_estimate,
                                 run_feedforward)
from decolab.noise import (AcComponent, AcFieldModel, AmplitudeScaleProcess,
                           table1_model)
from decolab.sequences import PulseSequence, phase_of
from conftest import make_rng
from oracles import feedforward_loop

EMPTY = AcFieldModel()


def sample_block(true_expectation: float, cfg: ShotConfig, rng) -> float:
    """One block of the shot sampler run_feedforward uses, at a fixed expectation."""
    return float(_block_estimate(np.full(cfg.n_shots, true_expectation), cfg,
                                 rng.random(cfg.n_shots)))


def first_estimate(model: AcFieldModel, tau: float, cfg: ShotConfig, rng) -> FeedforwardOutcome:
    """One repetition of run_feedforward for the echo at tau without drift."""
    return run_feedforward(model, [tau], cfg, None, rng, n_repetitions=1)[0]


def estimate_phase(model: AcFieldModel, tau: float, cfg: ShotConfig, rng) -> float:
    """run_feedforward's X/Y phase estimate for the echo at tau without drift."""
    return first_estimate(model, tau, cfg, rng).phi_estimate


def test_shot_config_validation():
    with pytest.raises(ValueError):
        ShotConfig(n_shots=0)


def test_sample_observable_perfect(monkeypatch):
    monkeypatch.setattr(feedforward, "READOUT_FIDELITY", 1.0)
    cfg = ShotConfig(n_shots=25)
    assert sample_block(1.0, cfg, make_rng(0)) == 1.0
    assert sample_block(-1.0, cfg, make_rng(0)) == -1.0


def test_sample_observable_variance_scaling(monkeypatch):
    monkeypatch.setattr(feedforward, "READOUT_FIDELITY", 1.0)
    rng = make_rng(1)
    cfg = ShotConfig(n_shots=400)
    draws = np.array([sample_block(0.0, cfg, rng) for _ in range(3000)])
    assert abs(draws.mean()) < 4.0 / math.sqrt(400 * 3000)
    assert draws.std() == pytest.approx(1.0 / math.sqrt(400), rel=0.1)


def test_sample_observable_fidelity_corrected():
    rng = make_rng(2)
    cfg = ShotConfig(n_shots=10 ** 6)
    est = sample_block(0.6, cfg, rng)
    # corrected estimator is unbiased; sigma ~ 1/(0.85 sqrt(n))
    assert est == pytest.approx(0.6, abs=3.0 / (0.85 * 1000.0))


def test_sample_observable_clipped():
    cfg = ShotConfig(n_shots=3)
    vals = [sample_block(0.99, cfg, make_rng(s)) for s in range(50)]
    assert all(-1.0 <= v <= 1.0 for v in vals)


def test_estimate_phase_zero_model_exact():
    phi = estimate_phase(EMPTY, 1e-3, ShotConfig(exact=True), make_rng(3))
    assert phi == 0.0


def test_estimate_phase_exact_matches_truth_mod_2pi():
    m = table1_model()
    tau = 5e-3
    truth = phase_of(m, PulseSequence.hahn(tau), 0.0)
    phi = estimate_phase(m, tau, ShotConfig(exact=True), make_rng(4))
    assert math.cos(phi - truth) == pytest.approx(1.0, abs=1e-12)


def test_estimate_phase_circular_mean_unbiased():
    m = AcFieldModel((AcComponent(2.95e-7, 50.0, 0.0),))
    tau = 5e-3
    truth = phase_of(m, PulseSequence.hahn(tau), 0.0)
    rng = make_rng(5)
    cfg = ShotConfig(n_shots=50)
    zs = [np.exp(1j * (estimate_phase(m, tau, cfg, rng) - truth)) for _ in range(3000)]
    mean_angle = np.angle(np.mean(zs))
    assert abs(mean_angle) < 0.02


def test_estimate_phase_undefined_flag(monkeypatch):
    monkeypatch.setattr(feedforward, "READOUT_FIDELITY", 0.75)
    cfg = ShotConfig(n_shots=2)
    # pi/2 phase: <X> = 0 and shot noise can land both estimators on zero,
    # which leaves the phase undefined (nan)
    m = AcFieldModel((AcComponent(2.95e-7, 50.0, 0.0),))
    undefined = 0
    for seed in range(300):
        out = first_estimate(m, 19e-3, cfg, make_rng(seed))
        phi, x_raw, y_raw = out.phi_estimate, out.x_raw, out.y_raw
        assert math.isnan(phi) == (x_raw == 0.0 and y_raw == 0.0)
        undefined += math.isnan(phi)
    assert undefined > 0


def test_phase_variance_scales_inverse_shots():
    m = AcFieldModel((AcComponent(1.0e-9, 50.0, 0.0),))  # small phase, no wrapping
    tau = 3e-3
    rng = make_rng(6)
    ns = [10, 100, 1000, 10000]
    variances = []
    for n in ns:
        cfg = ShotConfig(n_shots=n)
        phis = np.array([estimate_phase(m, tau, cfg, rng) for _ in range(400)])
        variances.append(np.var(phis))
    slope = np.polyfit(np.log(ns), np.log(variances), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)


def test_feedforward_exact_frozen_drift_is_unity():
    m = table1_model()
    taus = np.linspace(0.5e-3, 7e-3, 14)
    out = run_feedforward(m, taus, ShotConfig(exact=True), None, make_rng(7))
    assert all(o.c_expectation == pytest.approx(1.0, abs=1e-12) for o in out)


def test_feedforward_zero_model():
    out = run_feedforward(EMPTY, [1e-3], ShotConfig(exact=True), None, make_rng(8))
    assert out[0].c_expectation == pytest.approx(1.0)
    assert out[0].phi_estimate == pytest.approx(0.0)


def test_feedforward_outcome_fields_bounded():
    m = table1_model()
    out = run_feedforward(m, [2e-3, 4e-3], ShotConfig(), AmplitudeScaleProcess(),
                          make_rng(9))
    for o in out:
        assert isinstance(o, FeedforwardOutcome)
        assert -1.0 <= o.x_raw <= 1.0 and -1.0 <= o.y_raw <= 1.0
        assert -1.0 <= o.c_expectation <= 1.0


def test_feedforward_global_phase_offset_invariance():
    m = table1_model()
    shifted = AcFieldModel(tuple(
        AcComponent(c.amplitude, c.frequency, c.phase + 0.7) for c in m.components),
        t0=m.t0)
    drift = AmplitudeScaleProcess()
    taus = [3e-3]
    a = [run_feedforward(m, taus, ShotConfig(), drift, make_rng(100 + s))[0].c_expectation
         for s in range(12)]
    b = [run_feedforward(shifted, taus, ShotConfig(), drift, make_rng(300 + s))[0].c_expectation
         for s in range(12)]
    sem = math.hypot(np.std(a, ddof=1), np.std(b, ddof=1)) / math.sqrt(12)
    assert abs(np.mean(a) - np.mean(b)) < 4.0 * sem


def test_reestimation_tracks_drift_better_than_single_estimate():
    # a stale estimate accumulates drift over all 12 repetitions (~36 s);
    # re-estimating every repetition keeps the estimation-to-correction gap
    # at ~1.5 s and retains visibly more coherence
    m = table1_model()
    drift = AmplitudeScaleProcess(sigma=0.01)
    per_rep, once = [], []
    for s in range(30):
        per_rep.append(run_feedforward(m, [3.5e-3], ShotConfig(), drift,
                                       make_rng(9100 + s))[0].c_expectation)
        once.append(feedforward_loop(m, [3.5e-3], ShotConfig(), drift,
                                     make_rng(9100 + s),
                                     estimate_each_repetition=False)[0].c_expectation)
    diff = np.mean(per_rep) - np.mean(once)
    sem = math.hypot(np.std(per_rep), np.std(once)) / math.sqrt(len(per_rep))
    assert diff > 3.0 * sem
