"""Shot-level simulation of the mains-synchronized Hahn-echo feedforward
protocol.

Per echo time tau the protocol runs three 50-shot blocks: <X> and <Y> of the
synchronized echo determine the phase estimate Phi = atan2(<Y>, <X>), then a
corrected block measures <C> = cos(Phi_true - Phi).  Each shot is
triggered on the mains zero crossing and therefore occupies one 20 ms
period, so one block spans n_shots periods of wall-clock time; slow drift
of the comb amplitude between the estimation and correction blocks is what
limits <C>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS, PhysicalConstants
from .noise import AcFieldModel, AmplitudeScaleProcess, sample_amplitude_trajectory
from .sequences import PulseSequence, phase_of

__all__ = [
    "ShotConfig",
    "FeedforwardOutcome",
    "run_feedforward",
]

#: wall-clock time of one shot (s): one period of the 50 Hz mains
SHOT_PERIOD = 0.02


@dataclass(frozen=True)
class ShotConfig:
    """Measurement shots per observable and the readout fidelities.

    exact=True short-circuits sampling and returns true expectations (the
    infinite-shot limit).
    """

    n_shots: int = 50
    readout_fidelity_0: float = 0.925
    readout_fidelity_1: float = 0.925
    exact: bool = False

    def __post_init__(self) -> None:
        if self.n_shots < 1:
            raise ValueError("n_shots must be >= 1")
        for f in (self.readout_fidelity_0, self.readout_fidelity_1):
            if not (0.5 < f <= 1.0):
                raise ValueError("readout fidelities must lie in (0.5, 1]")


@dataclass(frozen=True)
class FeedforwardOutcome:
    tau: float
    phi_estimate: float
    c_expectation: float
    x_raw: float
    y_raw: float


def _correct_and_clip(p_click: float, cfg: ShotConfig) -> float:
    f0, f1 = cfg.readout_fidelity_0, cfg.readout_fidelity_1
    p_up = (p_click - (1.0 - f0)) / (f1 + f0 - 1.0)
    return min(max(2.0 * p_up - 1.0, -1.0), 1.0)


def _sample_shotwise(true_expectations: np.ndarray, cfg: ShotConfig,
                     rng: np.random.Generator) -> float:
    """Fidelity-corrected block estimate of a Pauli expectation that may
    drift shot to shot.

    Each shot is a Bernoulli outcome with p = (1 + E)/2 passed through the
    binary readout confusion matrix; the block estimate is inverted through
    the same matrix and clipped to [-1, 1].
    """
    if cfg.exact:
        return min(max(float(np.mean(true_expectations)), -1.0), 1.0)
    p_up = 0.5 * (1.0 + true_expectations)
    f0, f1 = cfg.readout_fidelity_0, cfg.readout_fidelity_1
    p_click = np.clip(p_up * f1 + (1.0 - p_up) * (1.0 - f0), 0.0, 1.0)
    clicks = rng.random(p_click.size) < p_click
    return _correct_and_clip(np.count_nonzero(clicks) / clicks.size, cfg)


def _xy_phase(phi_x: np.ndarray, phi_y: np.ndarray, cfg: ShotConfig,
                    rng: np.random.Generator) -> tuple[float, float, float]:
    """(Phi, <X>, <Y>) from an X block and a Y block whose shots see the true
    phases phi_x and phi_y.

    Phi = atan2(<Y>, <X>) resolves the quadrant (the estimate is the true
    phase modulo 2 pi); <X> = <Y> = 0 leaves it undefined (nan).
    """
    x_raw = _sample_shotwise(np.cos(phi_x), cfg, rng)
    y_raw = _sample_shotwise(np.sin(phi_y), cfg, rng)
    if x_raw == 0.0 and y_raw == 0.0:
        return float("nan"), x_raw, y_raw
    return math.atan2(y_raw, x_raw), x_raw, y_raw


def run_feedforward(model: AcFieldModel, taus, cfg: ShotConfig,
                    drift: AmplitudeScaleProcess | None,
                    rng: np.random.Generator,
                    n_repetitions: int = 12,
                    estimate_each_repetition: bool = True,
                    constants: PhysicalConstants = CONSTANTS) -> list[FeedforwardOutcome]:
    """Simulate the X / Y / C block protocol for each echo time.

    Per repetition the wall clock advances one SHOT_PERIOD per shot through
    the X, Y and C blocks in order; the comb amplitude follows one drift
    trajectory across all blocks and repetitions of a given tau (drift=None
    freezes a = 1).  Phases are linear in the comb amplitude, so the
    per-shot true phase is a(t) * Phi_echo.  With
    estimate_each_repetition=False the estimate from the first repetition
    corrects every later C block.
    """
    if n_repetitions < 1:
        raise ValueError("n_repetitions must be >= 1")
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    n = cfg.n_shots
    shot_times = np.arange(3 * n * n_repetitions) * SHOT_PERIOD
    phis = phase_of(model, PulseSequence.hahn(taus), constants=constants)
    outcomes: list[FeedforwardOutcome] = []
    for tau, phi_unit in zip(taus, phis):
        if drift is None:
            a_traj = np.ones(shot_times.size)
        else:
            a_traj = sample_amplitude_trajectory(drift, shot_times, rng)
        # true phase of every shot, as (repetition, X/Y/C block, shot)
        blocks = (a_traj * phi_unit).reshape(n_repetitions, 3, n)
        phi_est = float("nan")
        x_raw = y_raw = float("nan")
        c_values = []
        for rep, (phi_x, phi_y, phi_c) in enumerate(blocks):
            if estimate_each_repetition or rep == 0:
                phi_est, x_raw, y_raw = _xy_phase(phi_x, phi_y, cfg, rng)
            if math.isnan(phi_est):
                c_values.append(0.0)
                continue
            c_values.append(_sample_shotwise(np.cos(phi_c - phi_est), cfg, rng))
        outcomes.append(FeedforwardOutcome(
            tau=float(tau), phi_estimate=phi_est, c_expectation=float(np.mean(c_values)),
            x_raw=x_raw, y_raw=y_raw))
    return outcomes
