"""The feedforward hot path consumes the same random stream and does the same
float arithmetic as the per-step reference in ``oracles.py``: trajectories
and outcomes agree bit for bit."""

import math
from dataclasses import astuple

import numpy as np
import pytest

from decolab.feedforward import ShotConfig, run_feedforward
from decolab.noise import AmplitudeScaleProcess, sample_amplitude_trajectory, table1_model
from conftest import make_rng
from oracles import amplitude_trajectory_loop, feedforward_loop

SEEDS = (0, 7, 11, 12345)
TAUS = [0.5e-3, 0.85e-3, 3e-3, 4.5e-3]
DEFAULT = AmplitudeScaleProcess()
CLIPPING = AmplitudeScaleProcess(sigma=0.2, correlation_time=0.05)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def assert_same_outcomes(got, want) -> None:
    assert len(got) == len(want)
    assert np.array_equal(bits([astuple(o) for o in got]), bits([astuple(o) for o in want]))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("proc, times", [
    (DEFAULT, np.arange(1800) * 0.02),
    (CLIPPING, np.arange(1800) * 0.02),
    (DEFAULT, np.cumsum(np.r_[0.0, 0.0, np.geomspace(1e-4, 3e3, 400)])),
    (CLIPPING, np.sort(make_rng(99).random(500)) * 2.0),
], ids=["default", "clipping", "geometric-steps", "random-times"])
def test_trajectory_matches_scalar_draw_loop(proc, times, seed):
    got = sample_amplitude_trajectory(proc, times, make_rng(seed))
    want = amplitude_trajectory_loop(proc, times, make_rng(seed))
    assert np.array_equal(bits(got), bits(want))


def test_clipping_case_reaches_both_bounds():
    traj = sample_amplitude_trajectory(CLIPPING, np.arange(1800) * 0.02, make_rng(SEEDS[0]))
    assert traj.min() == CLIPPING.a_min and traj.max() == CLIPPING.a_max


FEEDFORWARD_CASES = {
    "default-drift": (ShotConfig(), DEFAULT, {}),
    "clipping": (ShotConfig(), CLIPPING, {}),
    "frozen": (ShotConfig(), None, {}),
    "exact": (ShotConfig(exact=True), DEFAULT, {}),
    "estimate-once": (ShotConfig(), DEFAULT, {"estimate_each_repetition": False}),
    "nan-estimate": (ShotConfig(n_shots=2, readout_fidelity_0=1.0, readout_fidelity_1=1.0),
                     DEFAULT, {}),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", FEEDFORWARD_CASES)
def test_feedforward_matches_block_loop(case, seed):
    cfg, drift, kwargs = FEEDFORWARD_CASES[case]
    got = run_feedforward(table1_model(), TAUS, cfg, drift, make_rng(seed), **kwargs)
    want = feedforward_loop(table1_model(), TAUS, cfg, drift, make_rng(seed), **kwargs)
    assert_same_outcomes(got, want)


def test_nan_case_leaves_estimates_undefined():
    """Two perfect-readout shots land <X> = <Y> = 0 in up to 1/16 of the
    estimates (phase near pi/4 at 0.85 ms): the outcomes compared above
    include nan estimates, so the skipped C blocks are covered."""
    cfg, drift, _ = FEEDFORWARD_CASES["nan-estimate"]
    undefined = sum(math.isnan(o.phi_estimate)
                    for seed in SEEDS
                    for o in run_feedforward(table1_model(), TAUS, cfg, drift, make_rng(seed)))
    assert undefined > 0
