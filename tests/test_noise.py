import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decolab.constants import MG_TO_TESLA, TWO_PI, CONSTANTS
import decolab.noise
from decolab.noise import (AcComponent, AcFieldModel, AmplitudeScaleProcess,
                           ConfigError, load_field_config,
                           sample_amplitude_trajectory, table1_model)
from conftest import make_rng
from oracles import field_at, field_sum_mp, scale_amplitudes


def test_field_empty_model_is_zero():
    assert field_at(AcFieldModel(), 123.456) == 0.0


def test_field_single_component_at_zero():
    m = AcFieldModel((AcComponent(2.95e-7, 50.0, 0.0),))
    assert field_at(m, 0.0) == pytest.approx(2.95e-7, rel=1e-15)


def test_field_full_comb_matches_extended_precision_sum():
    m = table1_model()
    comps = [(c.amplitude, c.frequency, c.phase) for c in m.components]
    for t in (0.0, 1.7e-3, 9.31e-3):
        expected = field_sum_mp(comps, t - m.t0)
        assert field_at(m, t) == pytest.approx(expected, rel=1e-15)


def test_field_periodic_at_fundamental():
    m = table1_model()
    for t in np.linspace(0.0, 0.02, 7):
        assert abs(field_at(m, t) - field_at(m, t + 0.02)) < 1e-18


def test_table1_components():
    m = table1_model()
    first = m.components[0]
    assert (first.amplitude, first.frequency, first.phase) == (2.95e-7, 50.0, 0.0)
    c150 = next(c for c in m.components if c.frequency == 150.0)
    assert c150.amplitude == pytest.approx(0.490 * MG_TO_TESLA)
    assert c150.phase == -1.77
    # electron-spin frequency shift of the 50 Hz line
    shift_khz = CONSTANTS.gamma_nv * first.amplitude / TWO_PI / 1e3
    assert shift_khz == pytest.approx(8.28, rel=5e-3)
    # eight harmonics of 50 Hz up to 450 Hz, with no 400 Hz component
    assert [c.frequency for c in m.components] == [50.0, 100.0, 150.0, 200.0, 250.0,
                                                   300.0, 350.0, 450.0]


def test_model_validation():
    with pytest.raises(ValueError):
        AcFieldModel((AcComponent(1e-7, 100.0), AcComponent(1e-7, 50.0)))
    with pytest.raises(ValueError):
        AcFieldModel((AcComponent(1e-7, 50.0),), t0=0.02)
    with pytest.raises(ValueError):
        AcComponent(-1e-7, 50.0)
    with pytest.raises(ValueError):
        AcComponent(1e-7, 0.0)


def test_scale_amplitudes_identity_and_values():
    m = table1_model()
    assert scale_amplitudes(m, 1.0) == m
    low = scale_amplitudes(m, 0.85)
    assert low.components[0].amplitude == pytest.approx(2.5075e-7, rel=1e-12)
    high = scale_amplitudes(m, 1.27)
    for c, c0 in zip(high.components, m.components):
        assert c.amplitude == pytest.approx(1.27 * c0.amplitude, rel=1e-15)
        assert c.phase == c0.phase and c.frequency == c0.frequency
    with pytest.raises(ValueError):
        scale_amplitudes(m, 0.0)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_scale_round_trip(a):
    m = table1_model()
    back = scale_amplitudes(scale_amplitudes(m, a), 1.0 / a)
    for c, c0 in zip(back.components, m.components):
        assert c.amplitude == pytest.approx(c0.amplitude, rel=1e-15)


@given(st.floats(min_value=0.01, max_value=100.0),
       st.floats(min_value=0.0, max_value=0.02))
@settings(max_examples=30)
def test_field_linear_in_amplitudes(a, t):
    m = table1_model()
    assert field_at(scale_amplitudes(m, a), t) == pytest.approx(a * field_at(m, t), rel=1e-15)


def test_amplitude_process_validation():
    with pytest.raises(ValueError):
        AmplitudeScaleProcess(a_min=1.2)
    with pytest.raises(ValueError):
        AmplitudeScaleProcess(correlation_time=0.0)


def test_trajectory_empty_and_frozen():
    proc = AmplitudeScaleProcess()
    assert sample_amplitude_trajectory(proc, [], make_rng(1).standard_normal(0)).size == 0
    frozen = AmplitudeScaleProcess(correlation_time=math.inf)
    traj = sample_amplitude_trajectory(frozen, np.arange(50) * 0.02,
                                       make_rng(2).standard_normal(50))
    assert np.all(traj == traj[0])


def test_trajectory_degenerate_bounds():
    proc = AmplitudeScaleProcess(a_min=1.0, a_max=1.0, sigma=0.3)
    traj = sample_amplitude_trajectory(proc, np.arange(100.0), make_rng(3).standard_normal(100))
    assert np.all(traj == 1.0)


def test_trajectory_stationary_mean():
    proc = AmplitudeScaleProcess()
    # sample far apart so draws are effectively independent
    times = np.arange(1000) * 10.0 * proc.correlation_time
    traj = sample_amplitude_trajectory(proc, times, make_rng(4).standard_normal(times.size))
    assert np.all((traj >= proc.a_min) & (traj <= proc.a_max))
    assert abs(traj.mean() - 1.0) < 3.0 * proc.sigma / math.sqrt(times.size)


def test_config_round_trip(tmp_path):
    m = replace(table1_model(), t0=0.004)
    lines = [f"t0_s = {m.t0!r}"]
    for c in m.components:
        lines += ["[component]", f"frequency_Hz = {c.frequency!r}",
                  f"amplitude_mG = {c.amplitude / MG_TO_TESLA!r}", f"phase_rad = {c.phase!r}"]
    path = tmp_path / "model.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert load_field_config(path) == m


def test_bundled_default_config_matches_table():
    bundled = Path(decolab.noise.__file__).parent / "data" / "mains_50hz.cfg"
    assert load_field_config(bundled) == table1_model()


def test_config_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("t0_s = 0\n[component]\nfrequency_Hz = fifty\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_field_config(bad)
    assert err.value.line == 3 and err.value.key == "frequency_Hz"

    bad.write_text("bogus = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_field_config(bad)
    assert err.value.line == 1
