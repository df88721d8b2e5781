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

from .noise import AcFieldModel, AmplitudeScaleProcess, sample_amplitude_trajectory
from .sequences import PulseSequence, phase_of

__all__ = [
    "ShotConfig",
    "FeedforwardOutcome",
    "run_feedforward",
]

#: wall-clock time of one shot (s): one period of the 50 Hz mains
SHOT_PERIOD = 0.02
#: X / Y / C block repetitions per echo time
N_REPETITIONS = 12
#: probability that a shot reads out the spin state it ends in, for either state
READOUT_FIDELITY = 0.925


@dataclass(frozen=True)
class ShotConfig:
    """Measurement shots per observable.

    exact=True short-circuits sampling and returns true expectations (the
    infinite-shot limit).
    """

    n_shots: int = 50
    exact: bool = False

    def __post_init__(self) -> None:
        if self.n_shots < 1:
            raise ValueError("n_shots must be >= 1")


@dataclass(frozen=True)
class FeedforwardOutcome:
    tau: float
    phi_estimate: float
    c_expectation: float
    x_raw: float
    y_raw: float


#: most drift samples held at once; longer runs take their delays in chunks
_CHUNK_SAMPLES = 1 << 20


def _block_estimate(true_expectations: np.ndarray, cfg: ShotConfig,
                    uniforms: np.ndarray) -> np.ndarray:
    """Fidelity-corrected block estimates of Pauli expectations that may
    drift shot to shot, one per row of ``true_expectations`` (..., n_shots).

    Each shot is a Bernoulli outcome with p = (1 + E)/2 passed through the
    binary readout confusion matrix of READOUT_FIDELITY: it clicks when its
    uniform (same shape as the expectations) lies below the click
    probability.  The block estimate is inverted through the same matrix and
    clipped to [-1, 1].
    With cfg.exact the uniforms are unused and the clipped mean of E is
    returned.
    """
    if cfg.exact:
        # over C-contiguous rows this is the pairwise sum of one block's mean
        return np.clip(np.mean(true_expectations, axis=-1), -1.0, 1.0)
    p_up = 0.5 * (1.0 + true_expectations)
    f = READOUT_FIDELITY
    p_click = np.clip(p_up * f + (1.0 - p_up) * (1.0 - f), 0.0, 1.0)
    clicked = np.count_nonzero(uniforms < p_click, axis=-1) / true_expectations.shape[-1]
    p_up = (clicked - (1.0 - f)) / (2.0 * f - 1.0)
    return np.clip(2.0 * p_up - 1.0, -1.0, 1.0)


def _estimate_lanes(phases: np.ndarray, cfg: ShotConfig, uniforms: np.ndarray):
    """The X / Y / C blocks of several delays (lanes) at once.

    ``phases`` holds every shot's true phase as (lane, repetition, X/Y/C
    block, shot); ``uniforms`` has the same layout (with no shots under
    cfg.exact), so each block reads its own fixed slice.  Every repetition
    estimates Phi = atan2(<Y>, <X>) afresh and corrects its own C block.
    atan2 resolves the quadrant (the estimate is the true phase modulo
    2 pi); <X> = <Y> = 0 leaves it undefined (nan), and the C block it
    would correct does not run, leaves its uniforms unused and counts
    <C> = 0.  Returns Phi, <X>, <Y> (of the last repetition) and <C> (mean
    over repetitions) per lane.
    """
    x_raw = _block_estimate(np.cos(phases[:, :, 0]), cfg, uniforms[:, :, 0])
    y_raw = _block_estimate(np.sin(phases[:, :, 1]), cfg, uniforms[:, :, 1])
    phi = np.array([math.nan if x == 0.0 and y == 0.0 else math.atan2(y, x)
                    for x, y in zip(x_raw.ravel().tolist(), y_raw.ravel().tolist())]
                   ).reshape(x_raw.shape)
    c_values = np.where(np.isnan(phi), 0.0, _block_estimate(
        np.cos(phases[:, :, 2] - phi[..., None]), cfg, uniforms[:, :, 2]))
    return phi[:, -1], x_raw[:, -1], y_raw[:, -1], np.mean(c_values, axis=-1)


def run_feedforward(model: AcFieldModel, taus, cfg: ShotConfig,
                    drift: AmplitudeScaleProcess | None,
                    rng: np.random.Generator,
                    n_repetitions: int = N_REPETITIONS) -> list[FeedforwardOutcome]:
    """Simulate the X / Y / C block protocol for each echo time.

    Per repetition the wall clock advances one SHOT_PERIOD per shot through
    the X, Y and C blocks in order; the comb amplitude follows one drift
    trajectory across all blocks and repetitions of a given tau (drift=None
    freezes a = 1).  Phases are linear in the comb amplitude, so the
    per-shot true phase is a(t) * Phi_echo.  Each repetition's X and Y
    blocks estimate the phase that its own C block corrects.

    The random stream is consumed tau by tau: the trajectory's normals
    (none with drift=None), then 3 * n_shots * n_repetitions uniforms laid
    out as (repetition, X/Y/C block, shot) (none with cfg.exact).  A block
    that does not run leaves its uniforms unused, so every tau draws the
    same amount and a tau's draws do not depend on the outcomes of the taus
    before it.
    """
    if n_repetitions < 1:
        raise ValueError("n_repetitions must be >= 1")
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    layout = (n_repetitions, 3, cfg.n_shots)
    shot_times = np.arange(math.prod(layout)) * SHOT_PERIOD
    phis = phase_of(model, PulseSequence.hahn(taus))
    chunk = max(1, _CHUNK_SAMPLES // shot_times.size)
    outcomes: list[FeedforwardOutcome] = []
    for start in range(0, taus.size, chunk):
        lanes = slice(start, start + chunk)
        n_lanes = taus[lanes].size
        normals = np.empty((n_lanes, shot_times.size))
        uniforms = np.empty((n_lanes, *layout[:2], 0 if cfg.exact else cfg.n_shots))
        for lane in range(n_lanes):
            if drift is not None:
                rng.standard_normal(out=normals[lane])
            rng.random(out=uniforms[lane])
        phases = (np.ones_like(normals) if drift is None
                  else sample_amplitude_trajectory(drift, shot_times, normals))
        phases *= phis[lanes, None]
        phi, x_raw, y_raw, c_mean = _estimate_lanes(
            phases.reshape(n_lanes, *layout), cfg, uniforms)
        outcomes.extend(FeedforwardOutcome(*fields) for fields in zip(
            taus[lanes].tolist(), phi.tolist(), c_mean.tolist(), x_raw.tolist(), y_raw.tolist()))
    return outcomes
