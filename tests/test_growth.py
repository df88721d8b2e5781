import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decolab.cli import main
from decolab.constants import TORR_TO_PA
from decolab.growth import (ETA_LOWER, ETA_UPPER, LeakModel, R_VPDB, chi_from_flows,
                            chi_to_ratio, delta_permil, fit_arrhenius, molar_flow_to_sccm,
                            n2_molar_flow, nitrogen_ppb, ratio_from_delta)


def test_chi_endpoints():
    assert chi_from_flows(1.0, 0.0) == pytest.approx(13e-6, rel=1e-12)
    # natural-methane dominated limit approaches chi1
    assert chi_from_flows(0.06, 1e9) == pytest.approx(1.0937e-2, rel=1e-6)


def test_chi_mixed_flows():
    assert chi_from_flows(1.0, 1.0) == pytest.approx(5.3185e-3, rel=1e-4)


def test_chi_rejects_zero_flows():
    with pytest.raises(ValueError):
        chi_from_flows(0.0, 0.0)


@given(st.floats(min_value=0.06, max_value=3.0), st.floats(min_value=0.1, max_value=5.0),
       st.floats(min_value=0.01, max_value=1.0))
@settings(max_examples=40)
def test_chi_monotone(f0, f1, df):
    assert chi_from_flows(f0, f1 + df) > chi_from_flows(f0, f1)
    assert chi_from_flows(f0 + df, f1) < chi_from_flows(f0, f1)


def test_nitrogen_point_values():
    assert nitrogen_ppb(7.5e-5, 4.0e-12, 0.19) == pytest.approx(2.12, rel=0.01)
    assert nitrogen_ppb(8.9e-4, 4.0e-12, 1.53) == pytest.approx(3.13, rel=0.01)
    # doubling the methane flow halves the concentration
    assert nitrogen_ppb(7.5e-5, 4.0e-12, 0.38) == pytest.approx(
        0.5 * nitrogen_ppb(7.5e-5, 4.0e-12, 0.19), rel=1e-12)


@given(st.floats(min_value=1e-5, max_value=1e-3), st.floats(min_value=1e-13, max_value=1e-11))
@settings(max_examples=30)
def test_nitrogen_linear(eta, n2):
    base = nitrogen_ppb(eta, n2, 0.5)
    assert nitrogen_ppb(2 * eta, n2, 0.5) == pytest.approx(2 * base, rel=1e-12)
    assert nitrogen_ppb(eta, 3 * n2, 0.5) == pytest.approx(3 * base, rel=1e-12)


def test_nitrogen_bounds_ordering(tmp_path):
    # without --eta, growth nitrogen reports [N] at both incorporation bounds
    assert main(["growth", "nitrogen", "--ch4-sccm", "0.19", "--n2-molps", "4e-12",
                 "--out", str(tmp_path)]) == 0
    b = json.loads((tmp_path / "growth_nitrogen.json").read_text())
    assert b["nitrogen_ppb_lower"] < b["nitrogen_ppb_upper"]
    assert b["nitrogen_ppb_lower"] == nitrogen_ppb(ETA_LOWER, 4.0e-12, 0.19)
    assert b["nitrogen_ppb_upper"] == nitrogen_ppb(ETA_UPPER, 4.0e-12, 0.19)


def test_n2_molar_flow_and_sccm():
    leak = LeakModel(q_leak=1.5e-8)
    n2 = n2_molar_flow(leak, 120.0 * TORR_TO_PA)
    assert n2 == pytest.approx(4.0e-12, rel=0.02)
    assert molar_flow_to_sccm(n2) == pytest.approx(5.4e-6, rel=0.02)
    # flow vanishes as the chamber approaches atmosphere
    assert n2_molar_flow(leak, 101324.9) < 1e-17
    with pytest.raises(ValueError):
        n2_molar_flow(leak, 2e5)


def test_arrhenius_recovery():
    true = LeakModel(q_leak=1.5e-8, q0=1.885e-5, e_a=4.01e-20)
    temps = np.linspace(295.0, 588.0, 9)
    leak, fit = fit_arrhenius(temps, true.throughput(temps) / true.volume)
    assert fit.converged
    assert leak.q_leak == pytest.approx(true.q_leak, rel=0.01)
    assert leak.q0 == pytest.approx(true.q0, rel=0.01)
    assert leak.e_a == pytest.approx(true.e_a, rel=0.01)


def test_arrhenius_flat_data():
    temps = np.linspace(295.0, 588.0, 7)
    leak, fit = fit_arrhenius(temps, np.full(7, 1.5e-8 / 11.3e-3))
    assert leak.q_leak == pytest.approx(1.5e-8, rel=1e-6)
    assert leak.throughput(500.0) - leak.q_leak == pytest.approx(0.0, abs=1e-12)


def test_arrhenius_needs_three_points():
    with pytest.raises(ValueError):
        fit_arrhenius([300.0, 400.0], [1e-6, 2e-6])


def test_chi_ratio_conversions():
    assert chi_to_ratio(1.0991e-2) == pytest.approx(R_VPDB, rel=1e-4)
    assert delta_permil(0.0112, 0.0112) == 0.0
    r_ref = ratio_from_delta(13.2, R_VPDB)
    assert delta_permil(r_ref, R_VPDB) == pytest.approx(13.2, abs=1e-12)


@given(st.floats(min_value=1e-6, max_value=0.5))
@settings(max_examples=50)
def test_chi_ratio_involution(chi):
    ratio = chi_to_ratio(chi)
    assert ratio / (1.0 + ratio) == pytest.approx(chi, rel=1e-15)


def test_leak_model_validation():
    with pytest.raises(ValueError):
        LeakModel(q_leak=-1e-9)
