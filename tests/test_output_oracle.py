"""The column-wise CSV writer reproduces the row-wise ``csv.writer`` output
kept in ``oracles.py`` byte for byte, for every CSV the CLI writes; the
array-mapped SVG renderer reproduces the per-point renderer kept there, for
every SVG the CLI writes; and the in-place near-shell arithmetic of the bath
sampler reproduces the temporaries-based sampler bit for bit."""

import re
from pathlib import Path

import numpy as np
import pytest

from decolab import __version__, files, plotsvg
from decolab.bath import ELECTRON_R_MAX, BathConfig, t2star_distribution
from decolab.cli import OutputWriter, main, parse_quantity, parse_range
from decolab.diffusion import (HomogeneousLine, IonizationSink, OuDiffusionModel, SinkSolver,
                               counts_no_ionization, write_diffusion_csv)
from decolab.feedforward import ShotConfig, run_feedforward
from decolab.fitting import DecayCurve, write_decay_csv
from decolab.noise import AmplitudeScaleProcess, table1_model
from decolab.plotsvg import SvgPlot, histogram_plot, quick_line_plot
from decolab.sequences import PulseSequence, expectation_unsynchronized
from conftest import make_rng
from oracles import svg_per_point, t2star_with_temporaries, write_csv_rows

FIXTURES = Path(__file__).parent / "fixtures"


def stamp(command: str, seed: int) -> str:
    return f"# decolab {__version__} command={command} seed={seed}"


def run_cli(tmp_path, *argv) -> Path:
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    return out


def assert_same_bytes(got, header, rows, comment, tmp_path) -> str:
    want = tmp_path / "want.csv"
    write_csv_rows(want, header, rows, comment)
    assert got.read_bytes() == want.read_bytes()
    return got.read_text()


# ---------------------------------------------------------------------------
# CLI CSV files
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("chi, n_baths", [("1e-9", 60), ("0.0013%", 3000), ("1.0937%", 20)])
def test_t2star_csv(tmp_path, chi, n_baths):
    out = run_cli(tmp_path, "bath", "t2star", "--chi", chi, "--n-baths", str(n_baths),
                  "--seed", "5")
    cfg = BathConfig(concentration=parse_quantity(chi, "fraction"))
    samples = t2star_distribution(cfg, n_baths, make_rng(5)).samples
    text = assert_same_bytes(out / "t2star.csv", ["t2star_us"], [[v * 1e6] for v in samples],
                             stamp("bath t2star", 5), tmp_path)
    assert ("\ninf\n" in text) == (chi == "1e-9")


@pytest.mark.parametrize("kind, n_pulses, range_text, points", [
    ("cpmg", 4, "0.02ms:0.3ms:0.02ms", None),
    ("hahn", 1, "-0.1ms:1ms", 12),
    ("ramsey", 0, "0.005ms:0.2ms", 9),
])
def test_sweep_csv(tmp_path, kind, n_pulses, range_text, points):
    option = "--t-range" if kind == "ramsey" else "--tau-range"
    argv = ["simulate", kind, f"{option}={range_text}", "--n-t0", "40"]
    argv += ["--n", str(n_pulses)] if kind == "cpmg" else ["--points", str(points)]
    out = run_cli(tmp_path, *argv)
    times = parse_range(range_text, "time", points or 101)
    times = times[times > 0.0]
    seq = {"cpmg": lambda: PulseSequence.cpmg(n_pulses, times),
           "hahn": lambda: PulseSequence.hahn(times),
           "ramsey": lambda: PulseSequence.ramsey(times)}[kind]()
    vals = expectation_unsynchronized(table1_model(), seq, 40)
    rows = [[kind, n_pulses, tau, t_total, v]
            for tau, t_total, v in zip(times, seq.total_time, vals)]
    assert_same_bytes(out / "sweep.csv",
                      ["sequence_kind", "n_pulses", "tau_s", "t_total_s", "expectation"], rows,
                      stamp(f"simulate {kind}", 0), tmp_path)


def test_sweep_csv_in_blocks_of_rows(tmp_path, monkeypatch):
    # 11 rows written 4 at a time, a remainder of 3; columns of unequal
    # length are refused before anything is written
    monkeypatch.setattr(files, "_CSV_ROWS", 4)
    test_sweep_csv(tmp_path, "hahn", 1, "-0.1ms:1ms", 12)
    with pytest.raises(ValueError, match="differ in length"):
        files.write_csv(tmp_path / "bad.csv", ["a", "b"], [[1.0, 2.0], [1.0]])
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("extra, seed", [
    (["--shots", "2", "--repetitions", "1", "--frozen-drift"], 1),
    (["--shots", "20", "--repetitions", "2"], 7),
], ids=["nan-phase", "drift"])
def test_feedforward_csv(tmp_path, extra, seed):
    out = run_cli(tmp_path, "simulate", "feedforward", "--tau-range", "1ms:3ms:1ms",
                  "--seed", str(seed), *extra)
    shots, reps = int(extra[1]), int(extra[3])
    drift = None if "--frozen-drift" in extra else AmplitudeScaleProcess()
    outcomes = run_feedforward(table1_model(), parse_range("1ms:3ms:1ms", "time"),
                               ShotConfig(n_shots=shots), drift, make_rng(seed),
                               n_repetitions=reps)
    rows = [[o.tau, o.x_raw, o.y_raw, o.phi_estimate, o.c_expectation, seed] for o in outcomes]
    text = assert_same_bytes(out / "feedforward.csv",
                             ["tau_s", "x_raw", "y_raw", "phi_estimate_rad", "c_expectation",
                              "seed"], rows, stamp("simulate feedforward", seed), tmp_path)
    assert (",nan," in text) == (seed == 1)


@pytest.mark.parametrize("sink_s", [0.0, 150.0])
def test_diffusion_predict_csv(tmp_path, sink_s):
    out = run_cli(tmp_path, "diffusion", "predict", "--gamma-i", "117", "--d-coeff", "1.6e4",
                  "--sink-s", str(sink_s), "--tau-range", "2ms:200ms", "--points", "7",
                  "--forward-rescale", "0.9")
    model = OuDiffusionModel(d_coeff=1.6e4, gamma_i=117.0)
    line = HomogeneousLine(c0=1.0, gamma_h=22.0)
    taus = parse_range("2ms:200ms", "time", 7)
    backward = forward = counts_no_ionization(model, line, taus)
    if sink_s:
        solver = SinkSolver(model, IonizationSink(strength_s=sink_s))
        forward = solver.counts_factorized(line, taus)(sink_s)
    rows = [[t, 0.9 * f, b, 0.0] for t, f, b in zip(taus, forward, backward)]
    assert_same_bytes(out / "diffusion_predict.csv",
                      ["tau_d_s", "counts_forward", "counts_backward", "stderr"], rows,
                      stamp("diffusion predict", 0), tmp_path)


# ---------------------------------------------------------------------------
# the writer itself and the library's dataset files
# ---------------------------------------------------------------------------

def test_output_writer_cell_types(tmp_path):
    floats = np.array([0.1, -0.0, 1e-300, 5e-324, 1.7976931348623157e308, np.inf, -np.inf,
                       np.nan, 2.0 / 3.0])
    n = floats.size
    columns = [floats, list(floats), ["cpmg"] * n, [7] * n, list(np.arange(n, dtype=np.int64)),
               np.arange(n, dtype=np.uint32), [np.float64(v) for v in floats]]
    header = ["f", "f_list", "s", "i", "np_int64", "np_uint32", "np_float"]
    writer = OutputWriter(tmp_path / "got", "simulate cpmg", 3, "-")
    got = writer.csv("cells.csv", header, columns)
    text = assert_same_bytes(got, header, list(zip(*columns)), stamp("simulate cpmg", 3),
                             tmp_path)
    assert text.splitlines()[3] == "-0.0,-0.0,cpmg,7,1,1,-0.0"


def test_output_writer_no_rows(tmp_path):
    got = OutputWriter(tmp_path / "got", "bath t2star", 0, "-").csv(
        "empty.csv", ["a", "b"], [np.empty(0), []])
    assert_same_bytes(got, ["a", "b"], [], stamp("bath t2star", 0), tmp_path)


def test_dataset_writers(tmp_path):
    rng = make_rng(2)
    x = np.cumsum(rng.random(30)) + 1e-3
    y, s = rng.normal(size=30), rng.random(30)
    write_decay_csv(tmp_path / "decay.csv", DecayCurve(x, y, s))
    assert_same_bytes(tmp_path / "decay.csv", ["x", "y", "sigma"], zip(x, y, s), None, tmp_path)
    write_decay_csv(tmp_path / "xy.csv", DecayCurve(x, y), header=("n_pulses", "t2_s"))
    assert_same_bytes(tmp_path / "xy.csv", ["n_pulses", "t2_s"], zip(x, y), None, tmp_path)
    err = np.full(30, 2)  # integer stderr values are written as floats
    write_diffusion_csv(tmp_path / "diff.csv", x, y, s, err)
    assert_same_bytes(tmp_path / "diff.csv",
                      ["tau_d_s", "counts_forward", "counts_backward", "stderr"],
                      [[float(v) for v in row] for row in zip(x, y, s, err)], None, tmp_path)


# ---------------------------------------------------------------------------
# SVG files
# ---------------------------------------------------------------------------

@pytest.fixture
def written_plots(monkeypatch):
    """(plot, path) of every SvgPlot.write call; a check of this list asserts
    each file's bytes against the per-point renderer."""
    calls = []
    write = SvgPlot.write

    def record(plot, path):
        calls.append((plot, Path(path)))
        write(plot, path)

    monkeypatch.setattr(SvgPlot, "write", record)
    return calls


def assert_svgs_match_per_point(calls) -> None:
    assert calls
    for plot, path in calls:
        assert path.read_bytes() == svg_per_point(plot).encode("utf-8"), path.name


def test_svg_series_with_nan_and_inf(tmp_path, written_plots):
    x = np.array([0.0, 0.5, np.nan, 1.5, 2.0, np.inf, 3.0, -np.inf])
    ys = [np.array([1.0, np.nan, 0.2, -0.4, np.inf, 0.3, -1e-9, 0.0]),
          np.array([np.inf, 2.0, 1.0, -np.inf, 0.5, 0.1, 0.7, 0.0]),
          np.full(x.size, np.nan)]
    quick_line_plot(tmp_path / "lines.svg", x, ys, ["line", "points"], title="t",
                    xlabel="x", ylabel="y", styles=["line", "points", "line"])
    quick_line_plot(tmp_path / "points.svg", x, ys[::-1], ["", "b", "c"],
                    styles=["points", "points", "line"])
    assert_svgs_match_per_point(written_plots)
    assert '<polyline points=""' in (tmp_path / "lines.svg").read_text()


def test_svg_series_in_blocks_of_points(tmp_path, written_plots, monkeypatch):
    # series of 7 and 8 finite points formatted 3 at a time, a remainder
    # of 1 and of 2, as lines and as points
    monkeypatch.setattr(plotsvg, "_POINTS", 3)
    x = np.linspace(0.0, 2.0, 9)
    ys = [np.sin(x), np.where(x == 1.0, np.nan, np.cos(x))]
    quick_line_plot(tmp_path / "lines.svg", x, ys, ["a", "b"])
    quick_line_plot(tmp_path / "points.svg", x, ys, ["a", ""], styles=["points", "points"])
    assert_svgs_match_per_point(written_plots)


@pytest.mark.parametrize("samples", [
    np.random.default_rng(4).rayleigh(3.0, 5000),
    np.full(40, 2.5),
    np.array([np.nan, np.inf, -np.inf]),
    np.array([7.0, np.nan, 1e-3, 7.0, np.inf]),
], ids=["half-normal", "all-equal", "no-finite", "mixed"])
def test_svg_histogram(tmp_path, written_plots, samples):
    histogram_plot(tmp_path / "hist.svg", samples, bins=60,
                   overlay_pdf=lambda v: v / 9.0 * np.exp(-v ** 2 / 18.0), xlabel="T2* (us)")
    histogram_plot(tmp_path / "bare.svg", samples, bins=7)
    # bars narrower than a pixel are drawn 0.5 wide
    histogram_plot(tmp_path / "fine.svg", samples, bins=1000)
    assert_svgs_match_per_point(written_plots)


def test_svg_bars_below_the_axis_and_empty_plots(tmp_path, written_plots):
    plot = SvgPlot(title="bars")
    plot.add_histogram([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, -0.5, 0.0, 2.0])
    plot.write(tmp_path / "bars.svg")
    SvgPlot().write(tmp_path / "empty.svg")
    SvgPlot(title="only axes", xlabel="x", ylabel="y").write(tmp_path / "axes.svg")
    assert_svgs_match_per_point(written_plots)
    assert 'height="0.0"' in (tmp_path / "bars.svg").read_text()
    for edges in ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]):
        with pytest.raises(ValueError, match="4 counts need 5 edges"):
            plot.add_histogram(edges, [1.0, 2.0, 3.0, 4.0])


def test_svg_subnormal_span_is_widened_as_a_single_value(tmp_path, written_plots):
    # counts of a line 1e-300 MHz wide: a y span below the smallest normal
    # float is widened by 0.05 each side, as a span of zero is
    quick_line_plot(tmp_path / "tiny.svg", [1.0, 2.0], [np.array([0.0, 1e-310])], ["c"])
    assert_svgs_match_per_point(written_plots)
    ticks = re.findall(r'text-anchor="end" font-size="10">([^<]*)<', (tmp_path / "tiny.svg").read_text())
    assert ticks == ["-0.04", "-0.02", "0", "0.02", "0.04"]


#: (SVG file, command line) of every command that writes an SVG
CLI_SVGS = [
    ("sweep.svg", ["simulate", "cpmg", "--n", "4", "--tau-range", "0.02ms:0.3ms:0.02ms",
                   "--n-t0", "40"]),
    ("sweep.svg", ["simulate", "ramsey", "--t-range", "0.005ms:0.2ms", "--points", "9",
                   "--envelope", "--n-t0", "8"]),
    ("sweep.svg", ["simulate", "hahn", "--tau-range=-0.1ms:1ms", "--points", "12",
                   "--n-t0", "40"]),
    ("feedforward.svg", ["simulate", "feedforward", "--tau-range", "1ms:3ms:1ms",
                         "--shots", "20", "--repetitions", "2"]),
    ("t2star_hist.svg", ["bath", "t2star", "--chi", "0.0442%", "--n-baths", "500"]),
    ("fit_decay.svg", ["fit", "decay", "--data", str(FIXTURES / "decay_synthetic.csv")]),
    ("fit_scaling.svg", ["fit", "scaling", "--data", str(FIXTURES / "scaling_synthetic.csv")]),
    ("fit_diffusion.svg", ["fit", "diffusion",
                           "--manifest", str(FIXTURES / "diffusion_manifest.txt")]),
    ("growth_leak.svg", ["growth", "leak", "--data", str(FIXTURES / "arrhenius_synthetic.csv")]),
    ("diffusion_predict.svg", ["diffusion", "predict", "--gamma-i", "117", "--d-coeff", "1.6e4",
                               "--sink-s", "150", "--points", "7"]),
]


@pytest.mark.parametrize("name, argv", CLI_SVGS, ids=[" ".join(argv[:2]) for _, argv in CLI_SVGS])
def test_cli_svg(tmp_path, written_plots, name, argv):
    run_cli(tmp_path, *argv, "--seed", "7")
    assert [path.name for _, path in written_plots] == [name]
    assert_svgs_match_per_point(written_plots)


# ---------------------------------------------------------------------------
# the near/far bath sampler
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cfg, n_baths, kwargs", [
    (BathConfig(concentration=4.42e-4, exclude_above_hz=5e3), 200, {}),
    (BathConfig(concentration=1e-9), 300, {}),
    (BathConfig(concentration=1.0937e-2), 300, {"batch_size": 128}),
    (BathConfig(concentration=21e-9, r_max=ELECTRON_R_MAX, species="electron"), 3000, {}),
    (BathConfig(concentration=1.3e-5), 3000, {}),
    (BathConfig(concentration=7.5e-9), 400, {"batch_size": 8}),
], ids=["filtered-5kHz", "near-empty", "dense-multi-batch", "electron-21ppb", "chi-0.0013%",
        "empty-batch-ends"])
@pytest.mark.parametrize("seed", [0, 55])
def test_sampler_matches_temporaries(cfg, n_baths, kwargs, seed):
    got = t2star_distribution(cfg, n_baths, make_rng(seed), **kwargs).samples
    want = t2star_with_temporaries(cfg, n_baths, make_rng(seed), **kwargs)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    if cfg.concentration == 1e-9:
        assert np.isinf(got).any() and np.isfinite(got).any()
    if cfg.concentration == 7.5e-9:
        # some batch of 8 ends in an empty bath, whose segment starts at the sentinel
        assert np.isinf(got[7::8]).any() and np.isfinite(got[7::8]).any()
