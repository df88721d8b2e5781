"""Deterministic CVD-growth calculators: isotope mixing, nitrogen bounds,
leak-rate Arrhenius analysis and isotope-ratio conversions.

Gas flows quoted in sccm are at standard conditions (0 C, 1 atm); the
conversion factor to molar flow is 1.345e6 sccm per mol/s at the 298 K
reference used for the leak-derived nitrogen inflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ATM_PA, R_GAS, TORR_TO_PA, CONSTANTS
from .fitting import FitResult, least_squares

__all__ = [
    "LeakModel",
    "chi_from_flows",
    "nitrogen_ppb",
    "fit_arrhenius",
    "n2_molar_flow",
    "molar_flow_to_sccm",
    "sccm_to_molar_flow",
    "chi_to_ratio",
    "delta_permil",
    "ratio_from_delta",
    "R_VPDB",
    "SCCM_PER_MOL_S",
    "ETA_LOWER",
    "ETA_UPPER",
    "CHAMBER_VOLUME_M3",
]

#: sccm per (mol/s) at standard conditions, for flows referenced to 298 K.
SCCM_PER_MOL_S = 1.345e6

#: IUPAC 13C/12C ratio of the VPDB reference.
R_VPDB = 0.011113

#: 13C fractions of the pure methane endpoints: enriched and natural.
CHI_ENRICHED = 13e-6
CHI_NATURAL = 1.0937e-2

#: nitrogen incorporation efficiency bounds.
ETA_LOWER = 0.55e-4
ETA_UPPER = 8.9e-4

#: N2 volume fraction of air.
AIR_N2_FRACTION = 0.78

#: reference temperature (K) for ideal-gas conversion of leak throughput.
T_REF = 298.0

#: volume (m^3) of the growth chamber whose pressure rise gives the leak rate.
CHAMBER_VOLUME_M3 = 11.3e-3

#: leak throughput (Pa m^3/s) and growth pressure (Pa) of the default N2 inflow
Q_LEAK_PA_M3_S = 1.5e-8
GROWTH_PRESSURE_PA = 120.0 * TORR_TO_PA


@dataclass(frozen=True)
class LeakModel:
    """Q(T) = q_leak + q0 exp(-e_a / kB T), throughputs in Pa m^3 / s."""

    q_leak: float
    q0: float = 0.0
    e_a: float = 0.0
    volume: float = CHAMBER_VOLUME_M3

    def __post_init__(self) -> None:
        if self.q_leak < 0.0:
            raise ValueError("q_leak must be >= 0")

    def throughput(self, temperature_k):
        return _throughput(self.q_leak, self.q0, self.e_a,
                           np.asarray(temperature_k, dtype=float))


def _throughput(q_leak, q0, e_a, t: np.ndarray):
    """The leak law at temperatures t (K), for parameters that broadcast against t."""
    return q_leak + q0 * np.exp(-e_a / (CONSTANTS.kB * t))


def chi_from_flows(f0: float, f1: float) -> float:
    """13C fraction from the enriched (f0) and natural (f1) methane flows (sccm).

    Uses the effective flow ratio f1 / f0' with the empirical MFC correction
    f0' = 1.023 f0 + 0.036.
    """
    if f0 < 0.0 or f1 < 0.0 or (f0 == 0.0 and f1 == 0.0):
        raise ValueError("flows must be non-negative and not both zero")
    f0_eff = 1.023 * f0 + 0.036
    ratio = f1 / f0_eff
    return (CHI_ENRICHED + ratio * CHI_NATURAL) / (1.0 + ratio)


def sccm_to_molar_flow(flow_sccm: float) -> float:
    return flow_sccm / SCCM_PER_MOL_S


def molar_flow_to_sccm(flow_mol_s: float) -> float:
    return flow_mol_s * SCCM_PER_MOL_S


def nitrogen_ppb(eta: float, n2_flow_mol_s: float, ch4_flow_sccm: float) -> float:
    """Solid-state [N] in ppb from the incorporation efficiency and flows."""
    if eta <= 0.0 or n2_flow_mol_s <= 0.0 or ch4_flow_sccm <= 0.0:
        raise ValueError("inputs must be positive")
    return eta * (n2_flow_mol_s / sccm_to_molar_flow(ch4_flow_sccm)) * 1e9


def fit_arrhenius(temps_k, dpdt_pa_s,
                  volume: float = CHAMBER_VOLUME_M3) -> tuple[LeakModel, FitResult]:
    """Split Q = V dP/dt into a leak floor and a thermally activated part.

    Fits q_leak + q0 exp(-e_a / kB T) by nonlinear least squares; initial
    guesses come from the coldest point (leak) and a log-linearization of
    the remainder.
    """
    if not 0.0 < volume < math.inf:
        raise ValueError(f"volume must be positive and finite, not {volume!r}")
    temps = np.asarray(temps_k, dtype=float)
    dpdt = np.asarray(dpdt_pa_s, dtype=float)
    if temps.size < 3:
        raise ValueError("need at least 3 temperatures")
    q = volume * dpdt
    q_leak0 = float(np.min(q))
    excess = q - 0.9999 * q_leak0
    # log(excess) = log(q0) - (e_a/kB) / T on thermally activated points
    mask = excess > 0.05 * q_leak0
    if np.count_nonzero(mask) >= 2:
        slope, intercept = np.polyfit(1.0 / temps[mask], np.log(excess[mask]), 1)
        e_a0 = max(-slope * CONSTANTS.kB, 1e-22)
        q00 = math.exp(intercept)
    else:
        e_a0, q00 = 1e-20, q_leak0

    def model(t, params):
        return _throughput(*(params[..., i, None] for i in range(3)), t)

    fit = least_squares(model, [q_leak0, q00, e_a0], temps, q,
                        bounds=[(0.0, np.inf), (0.0, np.inf), (0.0, np.inf)],
                        param_names=["q_leak", "q0", "e_a"])
    leak = LeakModel(q_leak=fit.params["q_leak"], q0=fit.params["q0"],
                     e_a=fit.params["e_a"], volume=volume)
    return leak, fit


def n2_molar_flow(leak: LeakModel, p_in_pa: float) -> float:
    """Leak-derived N2 inflow in mol/s at growth pressure p_in.

    The effective air throughput is q_leak (p_atm - p_in)/p_atm, of which
    78% is N2, converted with the ideal gas law at 298 K.
    """
    if not p_in_pa < ATM_PA:
        raise ValueError("growth pressure must be below atmospheric")
    q_eff = leak.q_leak * (ATM_PA - p_in_pa) / ATM_PA
    return AIR_N2_FRACTION * q_eff / (R_GAS * T_REF)


def chi_to_ratio(chi: float) -> float:
    """13C fraction -> isotope ratio R = chi / (1 - chi)."""
    if not (0.0 <= chi < 1.0):
        raise ValueError("chi must lie in [0, 1)")
    return chi / (1.0 - chi)


def delta_permil(r_a: float, r_b: float) -> float:
    """Isotope delta of a relative to b, (R_a/R_b - 1) * 1000."""
    if r_b <= 0.0:
        raise ValueError("reference ratio must be > 0")
    return (r_a / r_b - 1.0) * 1000.0


def ratio_from_delta(delta: float, r_ref: float) -> float:
    return r_ref * (1.0 + delta / 1000.0)
