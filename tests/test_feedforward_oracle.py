"""The feedforward hot path consumes the same random stream and does the same
float arithmetic as the per-step reference in ``oracles.py``: trajectories
and outcomes agree bit for bit, and the generator ends where the reference
leaves it."""

import warnings
from dataclasses import astuple

import numpy as np
import pytest

from decolab import feedforward
from decolab.feedforward import ShotConfig, run_feedforward
from decolab.noise import (_CHECK_STEPS, AmplitudeScaleProcess, sample_amplitude_trajectory,
                           table1_model)
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
    got = sample_amplitude_trajectory(proc, times, make_rng(seed).standard_normal(times.size))
    want = amplitude_trajectory_loop(proc, times, make_rng(seed))
    assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("proc", [DEFAULT, CLIPPING], ids=["default", "clipping"])
def test_trajectory_batch_matches_loop_rows(proc):
    """A (3, L) block of normals gives the three trajectories that three
    consecutive per-step loops draw from one generator."""
    times = np.arange(1800) * 0.02
    got = sample_amplitude_trajectory(proc, times, make_rng(5).standard_normal((3, times.size)))
    rng = make_rng(5)
    want = [amplitude_trajectory_loop(proc, times, rng) for _ in range(3)]
    assert got.shape == (3, times.size)
    assert np.array_equal(bits(got), bits(want))


def test_clipping_case_reaches_both_bounds():
    times = np.arange(1800) * 0.02
    traj = sample_amplitude_trajectory(CLIPPING, times,
                                       make_rng(SEEDS[0]).standard_normal(times.size))
    assert traj.min() == CLIPPING.a_min and traj.max() == CLIPPING.a_max


class Replay:
    """Stands in for a generator in ``amplitude_trajectory_loop``: hands out
    the given normals in order, one per ``standard_normal()`` call."""

    def __init__(self, normals):
        self._normals = iter(np.ravel(normals).tolist())

    def standard_normal(self) -> float:
        return next(self._normals)


def loop_rows(proc, times, normals) -> np.ndarray:
    """The per-step loop on each row of a (rows, len(times)) block of normals."""
    replay = Replay(normals)
    return np.array([amplitude_trajectory_loop(proc, times, replay) for _ in normals])


#: DEFAULT's innovation is about 1.2e-3 a 20 ms step, so a normal of +-500
#: kicks a(t) past a bound at that step and nowhere else
@pytest.mark.parametrize("row", [0, _CHECK_STEPS - 1, _CHECK_STEPS, 900, 1799],
                         ids=["first", "block-end", "block-start", "middle", "last"])
@pytest.mark.parametrize("kick", [500.0, -500.0], ids=["above", "below"])
def test_trajectory_first_crossing_is_exact(row, kick):
    times = np.arange(1800) * 0.02
    normals = make_rng(3).standard_normal((2, times.size))
    normals[1, row] = kick
    got = sample_amplitude_trajectory(DEFAULT, times, normals)
    want = loop_rows(DEFAULT, times, normals)
    assert got[1, row] == (DEFAULT.a_max if kick > 0 else DEFAULT.a_min)
    assert np.all((got[:, :row] > DEFAULT.a_min) & (got[:, :row] < DEFAULT.a_max))
    assert np.array_equal(bits(got), bits(want))


def test_trajectory_nan_lane_does_not_hide_a_crossing():
    # lane 0 turns NaN before lane 1 leaves the bounds; a NaN-propagating
    # bound check would see only NaN and skip the clip
    times = np.arange(1800) * 0.02
    normals = make_rng(4).standard_normal((3, times.size))
    normals[0, 100] = np.nan
    normals[1, 700] = 500.0
    got = sample_amplitude_trajectory(DEFAULT, times, normals)
    assert np.isnan(got[0, 100:]).all() and got[1, 700] == DEFAULT.a_max
    assert np.array_equal(bits(got), bits(loop_rows(DEFAULT, times, normals)))


@pytest.mark.parametrize("proc", [DEFAULT, CLIPPING], ids=["default", "clipping"])
@pytest.mark.parametrize("times", [[0.0], [0.0, 0.02]], ids=["one", "two"])
def test_trajectory_of_one_and_two_times(proc, times):
    normals = make_rng(6).standard_normal((3, len(times)))
    normals[2, -1] = -900.0  # clips at the last time
    got = sample_amplitude_trajectory(proc, times, normals)
    assert got[2, -1] == proc.a_min
    assert np.array_equal(bits(got), bits(loop_rows(proc, times, normals)))
    assert np.array_equal(bits(sample_amplitude_trajectory(proc, times, normals[0])),
                          bits(got[0]))


def test_trajectory_infinite_normal_is_clipped_without_warnings():
    # unclipped, the inf at 0.02 s would meet a zero decay (a step of 1000
    # correlation times) as inf * 0; the clip bounds it first
    times = [0.0, 0.02, 3000.0, 3000.02]
    normals = np.array([0.1, np.inf, 0.2, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sample_amplitude_trajectory(DEFAULT, times, normals)
    assert got[1] == DEFAULT.a_max and got[3] == DEFAULT.a_min
    assert np.array_equal(bits(got), bits(loop_rows(DEFAULT, times, normals[None])[0]))


#: case -> (shot config, drift, readout fidelity)
FEEDFORWARD_CASES = {
    "default-drift": (ShotConfig(), DEFAULT, feedforward.READOUT_FIDELITY),
    "clipping": (ShotConfig(), CLIPPING, feedforward.READOUT_FIDELITY),
    "frozen": (ShotConfig(), None, feedforward.READOUT_FIDELITY),
    "exact": (ShotConfig(exact=True), DEFAULT, feedforward.READOUT_FIDELITY),
    "nan-estimate": (ShotConfig(n_shots=2), DEFAULT, 1.0),
}


def use_case(case: str, monkeypatch) -> tuple[ShotConfig, AmplitudeScaleProcess | None]:
    """The case's shot config and drift, with its readout fidelity set."""
    cfg, drift, fidelity = FEEDFORWARD_CASES[case]
    monkeypatch.setattr(feedforward, "READOUT_FIDELITY", fidelity)
    return cfg, drift


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", FEEDFORWARD_CASES)
def test_feedforward_matches_block_loop(case, seed, monkeypatch):
    cfg, drift = use_case(case, monkeypatch)
    rng, ref_rng = make_rng(seed), make_rng(seed)
    got = run_feedforward(table1_model(), TAUS, cfg, drift, rng)
    want = feedforward_loop(table1_model(), TAUS, cfg, drift, ref_rng)
    assert_same_outcomes(got, want)
    assert rng.random() == ref_rng.random()


def test_nan_case_leaves_estimates_undefined(monkeypatch):
    """Two perfect-readout shots land <X> = <Y> = 0 in up to 1/16 of the
    estimates (phase near pi/4 at 0.85 ms), which leaves them undefined: the
    outcomes compared above include skipped C blocks.  The X, Y and C block
    estimates of each pass are recorded in that order."""
    cfg, drift = use_case("nan-estimate", monkeypatch)
    blocks = []
    block_estimate = feedforward._block_estimate

    def recording(*args):
        blocks.append(block_estimate(*args))
        return blocks[-1]

    monkeypatch.setattr(feedforward, "_block_estimate", recording)
    for seed in SEEDS:
        run_feedforward(table1_model(), TAUS, cfg, drift, make_rng(seed))
    x_raw, y_raw = np.array(blocks[0::3]), np.array(blocks[1::3])
    assert np.count_nonzero((x_raw == 0.0) & (y_raw == 0.0)) > 0


@pytest.mark.parametrize("case", ["default-drift", "frozen", "exact", "nan-estimate"])
def test_stream_advances_by_a_fixed_budget_per_tau(case, monkeypatch):
    """Whatever blocks run, each tau draws its trajectory's normals and then
    3 * n_shots * n_repetitions uniforms (none in exact mode)."""
    cfg, drift = use_case(case, monkeypatch)
    n_draws = 3 * cfg.n_shots * 12
    for seed in SEEDS:
        rng, ref_rng = make_rng(seed), make_rng(seed)
        run_feedforward(table1_model(), TAUS, cfg, drift, rng)
        for _ in TAUS:
            if drift is not None:
                ref_rng.standard_normal(n_draws)
            if not cfg.exact:
                ref_rng.random(n_draws)
        assert np.array_equal(rng.bit_generator.state["state"]["state"],
                              ref_rng.bit_generator.state["state"]["state"])


def _record_passes(monkeypatch) -> list[int]:
    """Patch the lane estimator to record how many taus each pass computes."""
    passes = []
    estimate_lanes = feedforward._estimate_lanes

    def recording(phases, *args):
        passes.append(phases.shape[0])
        return estimate_lanes(phases, *args)

    monkeypatch.setattr(feedforward, "_estimate_lanes", recording)
    return passes


@pytest.mark.parametrize("case", ["default-drift", "frozen", "exact", "nan-estimate"])
def test_runs_without_skipped_blocks_take_one_pass(case, monkeypatch):
    """Each tau draws a fixed number of uniforms whether or not its blocks
    run, so every run that fits in one chunk, with skipped C blocks or
    without, computes all its taus in one pass."""
    cfg, drift = use_case(case, monkeypatch)
    passes = _record_passes(monkeypatch)
    run_feedforward(table1_model(), TAUS, cfg, drift, make_rng(0))
    assert passes == [len(TAUS)]


@pytest.mark.parametrize("case", ["default-drift", "nan-estimate"])
def test_chunked_run_matches_block_loop(case, monkeypatch):
    """A run longer than one chunk of drift samples takes its taus a few at a
    time (here three per chunk) and still matches the reference."""
    cfg, drift = use_case(case, monkeypatch)
    monkeypatch.setattr(feedforward, "_CHUNK_SAMPLES", 3 * 3 * cfg.n_shots * 12)
    taus = np.linspace(0.5e-3, 6e-3, 12)
    rng, ref_rng = make_rng(1), make_rng(1)
    got = run_feedforward(table1_model(), taus, cfg, drift, rng)
    want = feedforward_loop(table1_model(), taus, cfg, drift, ref_rng)
    assert_same_outcomes(got, want)
    assert rng.random() == ref_rng.random()
