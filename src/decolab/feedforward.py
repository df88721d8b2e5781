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


#: most drift samples held at once; longer runs take their delays in chunks
_CHUNK_SAMPLES = 1 << 20


def _block_estimate(true_expectations: np.ndarray, cfg: ShotConfig,
                    uniforms: np.ndarray | None) -> np.ndarray:
    """Fidelity-corrected block estimates of Pauli expectations that may
    drift shot to shot, one per row of ``true_expectations`` (..., n_shots).

    Each shot is a Bernoulli outcome with p = (1 + E)/2 passed through the
    binary readout confusion matrix: it clicks when its uniform (same shape
    as the expectations) lies below the click probability.  The block
    estimate is inverted through the same matrix and clipped to [-1, 1].
    With cfg.exact the uniforms are unused and the clipped mean of E is
    returned.
    """
    if cfg.exact:
        # over C-contiguous rows this is the pairwise sum of one block's mean
        return np.clip(np.mean(true_expectations, axis=-1), -1.0, 1.0)
    p_up = 0.5 * (1.0 + true_expectations)
    f0, f1 = cfg.readout_fidelity_0, cfg.readout_fidelity_1
    p_click = np.clip(p_up * f1 + (1.0 - p_up) * (1.0 - f0), 0.0, 1.0)
    clicked = np.count_nonzero(uniforms < p_click, axis=-1) / true_expectations.shape[-1]
    p_up = (clicked - (1.0 - f0)) / (f1 + f0 - 1.0)
    return np.clip(2.0 * p_up - 1.0, -1.0, 1.0)


def _estimate_lanes(phases: np.ndarray, cfg: ShotConfig, uniforms: np.ndarray,
                    estimate_each_repetition: bool):
    """The X / Y / C blocks of several delays (lanes) at once.

    ``phases`` holds every shot's true phase as (lane, repetition, X/Y/C
    block, shot); each lane reads its blocks' uniforms in order from its row
    of ``uniforms``.  Phi = atan2(<Y>, <X>) resolves the quadrant (the
    estimate is the true phase modulo 2 pi); <X> = <Y> = 0 leaves it
    undefined (nan), and a C block under an undefined estimate is skipped:
    it counts <C> = 0 and draws no uniforms.  Returns Phi, <X>, <Y> (of the
    last estimate) and <C> (mean over repetitions) per lane, and the number
    of uniforms each lane used.
    """
    n_lanes, n_repetitions, _, n = phases.shape
    cursor = np.zeros(n_lanes, dtype=np.intp)
    shots = np.arange(n)

    def next_block(lanes: np.ndarray) -> np.ndarray | None:
        if cfg.exact:
            return None
        block = uniforms[lanes[:, None], cursor[lanes, None] + shots]
        cursor[lanes] += n
        return block

    every_lane = np.arange(n_lanes)
    nan = float("nan")
    c_values = np.zeros((n_lanes, n_repetitions))
    for rep in range(n_repetitions):
        if estimate_each_repetition or rep == 0:
            x_raw = _block_estimate(np.cos(phases[:, rep, 0]), cfg, next_block(every_lane))
            y_raw = _block_estimate(np.sin(phases[:, rep, 1]), cfg, next_block(every_lane))
            phi = np.array([nan if x == 0.0 and y == 0.0 else math.atan2(y, x)
                            for x, y in zip(x_raw.tolist(), y_raw.tolist())])
            defined = np.flatnonzero(~np.isnan(phi))
        c_values[defined, rep] = _block_estimate(
            np.cos(phases[defined, rep, 2] - phi[defined, None]), cfg, next_block(defined))
    return phi, x_raw, y_raw, np.mean(c_values, axis=-1), cursor


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

    The random stream is consumed tau by tau: the trajectory's normals, then
    the uniforms of the shot blocks in order.  All taus are computed at once,
    each drawing the uniforms of a run without skipped C blocks; the
    generator state after each tau's normals is kept, so after the first tau
    that skipped a C block the generator is rewound to where that tau's own
    draws end and the later taus are drawn and computed again.
    """
    if n_repetitions < 1:
        raise ValueError("n_repetitions must be >= 1")
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    n = cfg.n_shots
    shot_times = np.arange(3 * n * n_repetitions) * SHOT_PERIOD
    phis = phase_of(model, PulseSequence.hahn(taus), constants=constants)
    n_uniforms = 0 if cfg.exact else n * (3 * n_repetitions if estimate_each_repetition
                                          else 2 + n_repetitions)
    chunk = max(1, _CHUNK_SAMPLES // shot_times.size)
    outcomes: list[FeedforwardOutcome] = []
    while len(outcomes) < taus.size:
        lanes = np.arange(len(outcomes), min(taus.size, len(outcomes) + chunk))
        normals = np.empty((lanes.size, shot_times.size))
        uniforms = np.empty((lanes.size, n_uniforms))
        states = []
        for lane in range(lanes.size):
            if drift is not None:
                rng.standard_normal(out=normals[lane])
            states.append(rng.bit_generator.state)
            rng.random(out=uniforms[lane])
        phases = (np.ones_like(normals) if drift is None
                  else sample_amplitude_trajectory(drift, shot_times, normals))
        phases *= phis[lanes, None]
        phases = phases.reshape(lanes.size, n_repetitions, 3, n)
        phi, x_raw, y_raw, c_mean, used = _estimate_lanes(
            phases, cfg, uniforms, estimate_each_repetition)
        short = np.flatnonzero(used < n_uniforms)
        final = lanes.size if short.size == 0 else short[0] + 1
        outcomes.extend(FeedforwardOutcome(*fields) for fields in zip(
            taus[lanes[:final]].tolist(), phi[:final].tolist(), c_mean[:final].tolist(),
            x_raw[:final].tolist(), y_raw[:final].tolist()))
        if short.size:
            rng.bit_generator.state = states[short[0]]
            rng.random(used[short[0]])
    return outcomes
