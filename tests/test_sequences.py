import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decolab.constants import CONSTANTS, TWO_PI
from decolab.noise import AcComponent, AcFieldModel, table1_model
from decolab import sequences
from decolab.sequences import (PulseSequence, _trigger_offsets, expectation_unsynchronized,
                               filter_function, is_revival, phase_of, ramsey_envelope)
from conftest import make_rng
import oracles
from oracles import (j0_series, phase_quadrature, ramsey_envelope_direct, scale_amplitudes,
                     toggled_segments)

FIFTY = AcFieldModel((AcComponent(2.95e-7, 50.0, 0.0),))
EMPTY = AcFieldModel()


def random_model(rng, max_components=4):
    n = int(rng.integers(1, max_components + 1))
    freqs = np.sort(rng.uniform(20.0, 500.0, n))
    freqs += np.arange(n) * 2.0  # keep strictly increasing
    comps = tuple(AcComponent(float(rng.uniform(0.0, 3e-7)), float(f),
                              float(rng.uniform(-math.pi, math.pi))) for f in freqs)
    return AcFieldModel(comps)


def random_sequence(rng):
    kind = rng.choice(["ramsey", "hahn", "cpmg"])
    if kind == "ramsey":
        return PulseSequence.ramsey(float(rng.uniform(1e-5, 5e-3)))
    if kind == "hahn":
        return PulseSequence.hahn(float(rng.uniform(1e-5, 5e-3)))
    return PulseSequence.cpmg(int(rng.integers(1, 48)), float(rng.uniform(1e-5, 1.5e-3)))


# ---------------------------------------------------------------------------
# filter function
# ---------------------------------------------------------------------------

def test_filter_dc_refocused():
    assert filter_function(0.0, 8, 1e-3) == 0
    assert abs(filter_function(1e-8, 8, 1e-3)) < 1e-12


def test_filter_revival_zero():
    f = filter_function(TWO_PI * 50.0, 8, 1.25e-3)
    assert abs(f) < 1e-12 * (2 * 8 * 1.25e-3)


def test_filter_matches_formula_and_quadrature():
    omega, n, tau = TWO_PI * 50.0, 4, 0.7e-3
    val = filter_function(omega, n, tau)
    alpha = omega * tau
    formula = (2 * n * tau) * np.exp(-1j * omega * n * tau) * \
        (1 - 1 / math.cos(alpha)) * math.sin(omega * n * tau) / (omega * n * tau)
    assert val == pytest.approx(formula, rel=1e-12)
    # toggled time-domain integral of e^{-i w t}
    x, w = np.polynomial.legendre.leggauss(80)
    total = 0.0
    bounds = [0.0] + [(2 * k - 1) * tau for k in range(1, n + 1)] + [2 * n * tau]
    for k in range(n + 1):
        a, b = bounds[k], bounds[k + 1]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        ts = mid + half * x
        total += (1 if k % 2 == 0 else -1) * half * np.dot(w, np.exp(-1j * omega * ts))
    assert val == pytest.approx(total, rel=1e-9)


def test_filter_odd_parity_matches_quadrature():
    omega, n, tau = TWO_PI * 130.0, 5, 0.9e-3
    val = filter_function(omega, n, tau)
    x, w = np.polynomial.legendre.leggauss(80)
    bounds = [0.0] + [(2 * k - 1) * tau for k in range(1, n + 1)] + [2 * n * tau]
    total = 0.0
    for k in range(n + 1):
        a, b = bounds[k], bounds[k + 1]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total += (1 if k % 2 == 0 else -1) * half * np.dot(w, np.exp(-1j * omega * (mid + half * x)))
    assert val == pytest.approx(total, rel=1e-9)


def test_filter_ramsey_matches_quadrature():
    # N = 0: the untoggled integral of e^{-i w t} over the free evolution
    x, w = np.polynomial.legendre.leggauss(80)
    for omega, total in ((TWO_PI * 50.0, 3.1e-3), (TWO_PI * 410.0, 0.7e-3)):
        val = filter_function(omega, 0, total)
        (a, b, sign), = toggled_segments(PulseSequence.ramsey(total))
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        quad = sign * half * np.dot(w, np.exp(-1j * omega * (mid + half * x)))
        assert val == pytest.approx(quad, rel=1e-9)
    assert filter_function(0.0, 0, 2e-3) == 2e-3  # DC is integrated, not refocused


def test_phase_equals_filter_projection():
    # Phi = gamma sum_i B_i Re[e^{-i(phi_i - w_i t0)} F(w_i)] for both parities
    m = table1_model()
    for n, tau, t0 in [(8, 0.41e-3, 0.003), (5, 0.27e-3, 0.011)]:
        total = sum(CONSTANTS.gamma_nv * c.amplitude *
                    (np.exp(-1j * (c.phase - TWO_PI * c.frequency * t0)) *
                     filter_function(TWO_PI * c.frequency, n, tau)).real
                    for c in m.components)
        assert phase_of(m, PulseSequence.cpmg(n, tau), t0) == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def test_phase_zero_model():
    assert phase_of(EMPTY, PulseSequence.cpmg(8, 1e-3), 0.0) == 0.0
    assert phase_of(EMPTY, PulseSequence.ramsey(1e-3)) == 0.0


def test_cpmg_revival_phase_tiny():
    m = table1_model()
    tau = 0.02 / (2 * 32)
    assert abs(phase_of(m, PulseSequence.cpmg(32, tau), 0.0123)) < 1e-6


def test_phase_echo_value_and_quadrature():
    tau = 5e-3
    phi = phase_of(FIFTY, PulseSequence.hahn(tau), 0.0)
    omega = TWO_PI * 50.0
    expected = 4 * CONSTANTS.gamma_nv * 2.95e-7 / omega * math.sin(omega * tau / 2) ** 2
    assert phi == pytest.approx(expected, rel=1e-12)
    # 2 * (B gamma_nv / 2 pi) / f = 2 * 8260 Hz / 50 Hz
    assert phi == pytest.approx(330.4, abs=1e-3)
    oracle = phase_quadrature(FIFTY, PulseSequence.hahn(tau), 0.0)
    assert abs(phi - oracle) < 1e-9


def test_phase_echo_full_period_zero():
    assert abs(phase_of(FIFTY, PulseSequence.hahn(0.02), 0.0)) < 1e-12


def test_ramsey_full_period_zero():
    assert abs(phase_of(table1_model(), PulseSequence.ramsey(0.02), 0.0)) < 1e-9


def test_ramsey_quadrature():
    m = table1_model()
    phi = phase_of(m, PulseSequence.ramsey(100e-6), 0.0)
    oracle = phase_quadrature(m, PulseSequence.ramsey(100e-6), 0.0)
    assert abs(phi - oracle) < 1e-9


@given(st.floats(min_value=1e-5, max_value=9e-3),
       st.floats(min_value=0.0, max_value=0.02))
@settings(max_examples=40, deadline=None)
def test_echo_is_cpmg_one(tau, t0):
    # the Hahn echo is CPMG-1; its phase has the closed form
    # (4 gamma B / w) sin^2(w tau / 2) sin(w (tau - t0) + phi) per component
    m = table1_model()
    echo = phase_of(m, PulseSequence.hahn(tau), t0)
    closed = 0.0
    for c in m.components:
        w = TWO_PI * c.frequency
        closed += (4.0 * CONSTANTS.gamma_nv * c.amplitude / w * math.sin(0.5 * w * tau) ** 2
                   * math.sin(w * (tau - t0 - m.t0) + c.phase))
    assert echo == pytest.approx(closed, abs=1e-10)
    assert echo == pytest.approx(phase_of(m, PulseSequence.cpmg(1, tau), t0), abs=1e-10)


def test_closed_forms_vs_quadrature_randomized():
    rng = make_rng(1234)
    worst = 0.0
    for _ in range(100):
        model = random_model(rng)
        seq = random_sequence(rng)
        t0 = float(rng.uniform(0.0, 0.02))
        worst = max(worst, abs(phase_of(model, seq, t0) - phase_quadrature(model, seq, t0)))
    assert worst < 1e-8


def test_single_50hz_cpmg_vs_quadrature():
    rng = make_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 64))
        tau = float(rng.uniform(1e-5, 2e-3))
        t0 = float(rng.uniform(0.0, 0.02))
        seq = PulseSequence.cpmg(n, tau)
        assert abs(phase_of(FIFTY, seq, t0) - phase_quadrature(FIFTY, seq, t0)) < 1e-9


def test_near_pole_phases_match_quadrature():
    m = table1_model()
    # omega*tau = pi/2 for the 50 Hz line at tau = 5 ms
    for tau in (5e-3, 5e-3 + 1e-12, 5e-3 - 3e-10, 5e-3 + 2e-9):
        for n in (1, 2, 3, 8):
            seq = PulseSequence.cpmg(n, tau)
            assert abs(phase_of(m, seq, 0.0042) -
                       phase_quadrature(m, seq, 0.0042)) < 1e-7


@given(st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=25, deadline=None)
def test_phase_linear_in_amplitude(a):
    m = table1_model()
    scaled = scale_amplitudes(m, a)
    for seq in (PulseSequence.hahn(0.8e-3), PulseSequence.cpmg(6, 0.3e-3),
                PulseSequence.ramsey(0.4e-3)):
        phi = phase_of(m, seq, 0.0071)
        assert phase_of(scaled, seq, 0.0071) == pytest.approx(a * phi, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# unsynchronized expectation
# ---------------------------------------------------------------------------

def test_unsync_zero_model_exactly_one():
    assert expectation_unsynchronized(EMPTY, PulseSequence.hahn(1e-3)) == 1.0


def test_unsync_bessel_dephasing():
    omega = TWO_PI * 50.0
    for tau in np.linspace(2e-4, 9.5e-3, 9):
        amp = 4 * CONSTANTS.gamma_nv * 2.95e-7 / omega * math.sin(omega * tau / 2) ** 2
        got = expectation_unsynchronized(FIFTY, PulseSequence.hahn(float(tau)), n_t0=1600)
        assert got == pytest.approx(j0_series(amp), abs=1e-3)


def test_unsync_node_doubling_converged():
    seq = PulseSequence.cpmg(32, np.linspace(5e-5, 4e-4, 15))
    a = expectation_unsynchronized(table1_model(), seq, n_t0=400)
    b = expectation_unsynchronized(table1_model(), seq, n_t0=800)
    assert np.max(np.abs(a - b)) < 1e-6


def test_synchronized_response():
    # one call over many delays and offsets equals one call per delay and
    # offset, and repeated calls are bit-identical
    m = table1_model()
    taus = np.linspace(2e-5, 4e-3, 23)
    t0s = np.array([0.0, 0.0042, 0.0137])
    for seq_of in (PulseSequence.ramsey, PulseSequence.hahn,
                   lambda t: PulseSequence.cpmg(2, t), lambda t: PulseSequence.cpmg(5, t)):
        phases = phase_of(m, seq_of(taus), t0s)
        assert phases.shape == (taus.size, t0s.size)
        single = np.array([[phase_of(m, seq_of(float(t)), float(t0)) for t0 in t0s]
                           for t in taus])
        assert np.max(np.abs(phases - single)) < 1e-10
        assert np.array_equal(phase_of(m, seq_of(taus), t0s), phases)
        unsync = expectation_unsynchronized(m, seq_of(taus), 200)
        assert unsync.shape == taus.shape
        assert np.allclose(unsync, [expectation_unsynchronized(m, seq_of(float(t)), 200)
                                    for t in taus], rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# offset-averaged sweeps in blocks of delays
# ---------------------------------------------------------------------------

SWEEPS = {"ramsey": PulseSequence.ramsey, "hahn": PulseSequence.hahn,
          "cpmg8": lambda t: PulseSequence.cpmg(8, t)}
ENVELOPE = ((0.85, 1.27), 21)


def _envelope_of_phases(phi):
    (a_min, a_max), n_a = ENVELOPE
    half_step = 0.5 * (a_max - a_min) / (n_a - 1)
    return sequences._scale_averaged_cos(phi, 0.5 * (a_min + a_max), half_step, n_a)


def _sweep(kind, times, n_t0):
    m = table1_model()
    if kind == "envelope":
        return ramsey_envelope(m, ENVELOPE[0], times, n_t0=n_t0, n_a=ENVELOPE[1])
    return expectation_unsynchronized(m, SWEEPS[kind](times), n_t0)


@pytest.mark.parametrize("kind", [*SWEEPS, "envelope"])
@pytest.mark.parametrize("n_t0", [40, 400])
def test_one_block_sweep_is_the_mean_over_the_phase_table(kind, n_t0):
    # 101 delays at 400 offsets, the CLI default, stay one block with the
    # bits of the whole delays x offsets table
    m = table1_model()
    delays = np.linspace(2e-5, 6e-4, 101)
    assert delays.size * n_t0 <= sequences._SWEEP_PHASES
    for times in (delays, delays[7]):  # and one delay, a scalar
        seq = SWEEPS["ramsey" if kind == "envelope" else kind](times)
        phi = phase_of(m, seq, _trigger_offsets(m, n_t0))
        want = np.mean(_envelope_of_phases(phi) if kind == "envelope" else np.cos(phi), axis=-1)
        assert np.array_equal(_sweep(kind, times, n_t0), want)


@pytest.mark.parametrize("kind", ["hahn", "envelope"])
def test_multi_block_sweep_is_its_blocks_calls(kind):
    # 2 blocks and a remainder of 7 delays, each block its own one-block call
    n_t0 = 400
    rows = sequences._SWEEP_PHASES // n_t0
    times = np.linspace(2e-5, 6e-4, 2 * rows + 7)
    want = np.concatenate([_sweep(kind, times[i:i + rows], n_t0)
                           for i in range(0, times.size, rows)])
    assert np.array_equal(_sweep(kind, times, n_t0), want)


@pytest.mark.parametrize("kind, n_delays", [("hahn", 25_000), ("envelope", 12_500)])
def test_sweep_memory_is_bounded_by_its_blocks(kind, n_delays):
    # 25 000 (12 500) delays x 400 offsets: the delays x offsets phase table
    # alone would take 80 (40) MB, 160 (80) MB complex; one block's complex
    # product takes 4.2 MB, and only one is alive at a time
    times = np.linspace(1e-3, 2e-3, n_delays)
    tracemalloc.start()
    try:
        out = _sweep(kind, times, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 16 * sequences._SWEEP_PHASES
    assert np.all(np.abs(out) <= 1.0)


# ---------------------------------------------------------------------------
# revivals
# ---------------------------------------------------------------------------

def test_is_revival_examples():
    assert is_revival(0.02, 1.25e-3, 50.0) is True
    assert is_revival(0.02, 5e-3, 50.0) is False
    assert is_revival(0.01, 1.25e-3, 50.0) is False


def test_is_revival_rejects_unquantized():
    with pytest.raises(ValueError):
        is_revival(0.02, 3.125e-7, 50.0)
    with pytest.raises(ValueError):
        is_revival(0.0199999993, 1.25e-3, 50.0)


def test_is_revival_second_condition_for_harmonics():
    # tau = 1.25 ms sits on the (1/4 + n/2) grid of the 200 Hz harmonic
    assert is_revival(0.02, 1.25e-3, 200.0) is False
    # and tau = 2.5 ms on that of the 100 Hz harmonic
    assert is_revival(0.02, 2.5e-3, 100.0) is False
    assert is_revival(0.02, 2.5e-3, 50.0) is True


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=400))
@settings(max_examples=60)
def test_is_revival_multiple_condition(k, tau_us):
    # T not an integer multiple of T_ac never revives
    t_dd = k * 0.02 + 1e-3
    assert is_revival(t_dd, tau_us * 1e-6, 50.0) is False


# ---------------------------------------------------------------------------
# Ramsey envelope
# ---------------------------------------------------------------------------

def test_envelope_degenerate_equals_unsync():
    m = table1_model()
    times = np.array([5e-5, 2e-4, 5e-4])
    env = ramsey_envelope(m, (1.0, 1.0), times, n_t0=200, n_a=5)
    direct = [expectation_unsynchronized(m, PulseSequence.ramsey(float(t)), 200)
              for t in times]
    assert np.allclose(env, direct, atol=1e-12)


def test_envelope_zero_model_is_ones():
    env = ramsey_envelope(EMPTY, (0.85, 1.27), np.array([1e-4, 2e-4]))
    assert np.all(env == 1.0)


def test_envelope_crossing_set_by_50hz_amplitude():
    # the 8.28 kHz 50 Hz line dephases the t0-averaged Ramsey signal to 1/e
    # once gamma_nv B T ~ 1.7 rad, i.e. near 33 us for the bundled comb
    m = table1_model()
    times = np.linspace(5e-6, 1.5e-4, 59)
    env = ramsey_envelope(m, (0.85, 1.27), times, n_t0=400, n_a=9)
    below = np.nonzero(env < 1.0 / math.e)[0]
    assert below.size, "envelope never crossed 1/e"
    crossing = times[below[0]]
    assert 2e-5 < crossing < 6e-5
    # beyond the crossing the envelope stays collapsed well below 1
    assert np.all(env[below[0]:] < 0.75)


#: closed-form envelope against the n_a-term sum, absolute
ENVELOPE_ATOL = 1e-13


@pytest.mark.parametrize("n_a", [1, 2, 21, 64])
@pytest.mark.parametrize("amplitude_range", [(0.85, 1.27), (0.5, 2.0), (1.1, 1.1)])
def test_envelope_closed_form_matches_direct_sum(n_a, amplitude_range):
    m = table1_model()
    times = np.linspace(1e-5, 20e-3, 240)
    got = ramsey_envelope(m, amplitude_range, times, n_a=n_a)
    want = ramsey_envelope_direct(m, amplitude_range, times, n_a=n_a)
    assert got.shape == times.shape
    assert np.max(np.abs(got - want)) <= ENVELOPE_ATOL


def test_envelope_grid_crosses_poles_of_the_ratio():
    # on (0.5, 2.0) up to 20 ms, h = s Phi / 2 passes pi for every n_a > 1
    # above, so the closed form goes through its removable poles at h = m pi
    m = table1_model()
    times = np.linspace(1e-5, 20e-3, 240)
    phi = phase_of(m, PulseSequence.ramsey(times), _trigger_offsets(m, sequences.N_T0))
    for n_a in (2, 21, 64):
        assert np.abs(0.5 * 1.5 / (n_a - 1) * phi).max() > math.pi


def _phase_on_pole(half_step: float, m: int) -> float:
    """A phase Phi with half_step * Phi == m pi in floating point."""
    phi = m * math.pi / half_step
    for _ in range(64):
        if half_step * phi == m * math.pi:
            return phi
        phi = math.nextafter(phi, math.inf if half_step * phi < m * math.pi else -math.inf)
    raise AssertionError("no phase on the pole")


@pytest.mark.parametrize("n_a", [2, 21, 64])
def test_envelope_exactly_on_a_pole(n_a, monkeypatch):
    a_range = (0.5, 2.0)
    half_step = 0.5 * (a_range[1] - a_range[0]) / (n_a - 1)
    table = np.array([[_phase_on_pole(half_step, 1), _phase_on_pole(half_step, -3),
                       _phase_on_pole(half_step, 2), 0.7]])

    def fake_phase_of(model, seq, t0):
        return table.reshape(np.shape(seq.tau) + (table.shape[-1],))

    monkeypatch.setattr(sequences, "_phases", lambda r, e: table)  # each block's phases
    monkeypatch.setattr(oracles, "phase_of", fake_phase_of)
    got = ramsey_envelope(FIFTY, a_range, [1e-3], n_t0=table.shape[-1], n_a=n_a)
    want = ramsey_envelope_direct(FIFTY, a_range, [1e-3], n_t0=table.shape[-1], n_a=n_a)
    assert np.isfinite(got).all()
    assert np.max(np.abs(got - want)) <= ENVELOPE_ATOL


def test_envelope_scalar_time_matches_direct_sum():
    m = table1_model()
    got = ramsey_envelope(m, (0.85, 1.27), 3e-4)
    assert np.ndim(got) == 0
    assert abs(got - ramsey_envelope_direct(m, (0.85, 1.27), 3e-4)) <= ENVELOPE_ATOL


def test_envelope_without_spread_is_the_single_cosine():
    # a_min = a_max (or n_a = 1) leaves cos(a Phi) averaged over t0 alone
    m = table1_model()
    times = np.array([5e-5, 2e-4, 5e-4])
    phi = phase_of(m, PulseSequence.ramsey(times), _trigger_offsets(m, sequences.N_T0))
    for (a_min, a_max), n_a in [((1.1, 1.1), 21), ((0.85, 1.27), 1)]:
        want = np.mean(np.cos(0.5 * (a_min + a_max) * phi), axis=-1)
        assert np.array_equal(ramsey_envelope(m, (a_min, a_max), times, n_a=n_a), want)
