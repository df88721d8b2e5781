import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from decolab import cli
from decolab.cli import MAX_RANGE_POINTS, build_parser, main, parse_quantity, parse_range
from decolab.diffusion import FORWARD_RESCALE, GAMMA_H
from decolab.feedforward import ShotConfig
from decolab.growth import GROWTH_PRESSURE_PA, Q_LEAK_PA_M3_S
from decolab.noise import AmplitudeScaleProcess
from decolab.sequences import N_A, N_T0

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).parents[1]


def run(args, capsys=None):
    code = main(args)
    return code


def test_parse_quantities():
    assert parse_quantity("1.25ms", "time") == pytest.approx(1.25e-3)
    assert parse_quantity("280us", "time") == pytest.approx(280e-6)
    assert parse_quantity("2.95mG", "field") == pytest.approx(2.95e-7)
    assert parse_quantity("22MHz", "freq_mhz") == 22.0
    assert parse_quantity("15nW", "power_nw") == 15.0
    assert parse_quantity("0.0442%", "fraction") == pytest.approx(4.42e-4)
    assert parse_quantity("120Torr", "pressure") == pytest.approx(120 * 101325 / 760)


def test_parse_range():
    taus = parse_range("0:5ms:1ms", "time")
    assert np.allclose(taus, [0.0, 1e-3, 2e-3, 3e-3, 4e-3, 5e-3])
    assert parse_range("1ms:2ms", "time", default_points=5).size == 5


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["simulate", "cpmg", "--n", "8", "--tau-range", "0.2ms:2ms:0.2ms",
                    "--out", str(out), "--seed", "11"]) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    assert (a / "sweep.svg").exists()
    manifest = json.loads((a / "run_manifest.json").read_text())
    assert manifest["seed"] == 11 and manifest["version"]


def test_simulate_empty_sweep_header_only(tmp_path):
    assert run(["simulate", "hahn", "--tau-range", "0:0ms:1ms", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split(",")[0] == "sequence_kind"
    assert len(lines) == 2


def test_simulate_cpmg_shows_revival_structure(tmp_path):
    assert run(["simulate", "cpmg", "--n", "2", "--tau-range", "2.5ms:10ms:2.5ms",
                "--out", str(tmp_path), "--n-t0", "400"]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "sweep.csv").read_text().splitlines()[2:]]
    by_tau = {float(r[2]): float(r[4]) for r in rows}
    assert by_tau[0.005] < 0.9          # collapse at tau = 5 ms (T = 20 ms)
    assert by_tau[0.01] > 0.999         # revival at T = 40 ms, tau = 10 ms


def test_simulate_feedforward_csv_schema(tmp_path):
    assert run(["simulate", "feedforward", "--tau-range", "1ms:3ms:1ms",
                "--shots", "20", "--repetitions", "2", "--out", str(tmp_path),
                "--seed", "5"]) == 0
    lines = (tmp_path / "feedforward.csv").read_text().splitlines()
    assert lines[1] == "tau_s,x_raw,y_raw,phi_estimate_rad,c_expectation,seed"
    assert all(line.split(",")[-1] == "5" for line in lines[2:])


def test_sweep_roundtrips_into_fit(tmp_path):
    # monotone initial collapse of the unsynchronized echo
    assert run(["simulate", "hahn", "--tau-range", "0.02ms:0.3ms:0.02ms",
                "--out", str(tmp_path)]) == 0
    out2 = tmp_path / "fit"
    assert run(["fit", "decay", "--data", str(tmp_path / "sweep.csv"),
                "--out", str(out2)]) == 0
    payload = json.loads((out2 / "fit_decay.json").read_text())
    assert payload["converged"]


def test_feedforward_output_roundtrips_into_fit(tmp_path):
    # x is the total echo time 2 tau, y the corrected <C>; at seed 2 most
    # y_raw values are <= 0, so read as (tau, x_raw, y_raw) the fit ran into
    # the T2 bound and still reported convergence
    assert run(["simulate", "feedforward", "--tau-range", "0.25ms:7.5ms:0.25ms",
                "--seed", "2", "--out", str(tmp_path)]) == 0
    out2 = tmp_path / "fit"
    assert run(["fit", "decay", "--data", str(tmp_path / "feedforward.csv"),
                "--fix-n", "4", "--out", str(out2)]) == 0
    payload = json.loads((out2 / "fit_decay.json").read_text())
    assert payload["converged"]
    assert 1e-3 < payload["params"]["T2"] < 0.1


@pytest.mark.parametrize("sigma", ["0.0", "-0.01", "nan", "inf"])
def test_non_positive_sigma_is_data_error(tmp_path, capsys, sigma):
    data = tmp_path / "decay.csv"
    data.write_text(f"x,y,sigma\n0.001,0.9,0.01\n0.002,0.8,{sigma}\n0.003,0.7,0.01\n",
                    encoding="utf-8")
    assert run(["fit", "decay", "--data", str(data), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("decolab: data error (line 3)") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["ionization", "diffusion"])
@pytest.mark.parametrize("column, value, line", [
    *(pytest.param("stderr", v, 3, id=v) for v in ("0.0", "-0.01", "nan", "inf")),
    # tau_d_s must be positive, finite and increasing, checked at its own line
    pytest.param("tau_d_s", "nan", 2, id="tau-nan-first-row"),
    pytest.param("tau_d_s", "0.0", 2, id="tau-zero"),
    pytest.param("tau_d_s", "-0.003", 2, id="tau-negative"),
    pytest.param("tau_d_s", "0.003", 3, id="tau-repeated"),
    pytest.param("tau_d_s", "inf", 13, id="tau-inf-last-row"),
])
def test_non_positive_diffusion_stderr_is_data_error(tmp_path, capsys, recwarn, command,
                                                     column, value, line):
    lines = (FIXTURES / "diffusion_500nW.csv").read_text(encoding="utf-8").splitlines()
    cells = lines[line - 1].split(",")
    cells[0 if column == "tau_d_s" else -1] = value
    lines[line - 1] = ",".join(cells)
    data = tmp_path / "diffusion_500nW.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if command == "ionization":
        argv = ["fit", "ionization", "--data", str(data), "--gamma-i", "117",
                "--d-coeff", "1.6e4", "--c0", "38"]
    else:
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"500 {data.name}\n", encoding="utf-8")
        argv = ["fit", "diffusion", "--manifest", str(manifest), "--gamma-h", "22MHz"]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"decolab: data error (line {line}): {column} = ")
    assert err.count("\n") == 1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["ionization", "diffusion"])
def test_header_only_diffusion_file_is_data_error(tmp_path, capsys, command):
    data = tmp_path / "empty.csv"
    data.write_text("tau_d_s,counts_forward,counts_backward,stderr\n", encoding="utf-8")
    if command == "ionization":
        argv = ["fit", "ionization", "--data", str(data), "--gamma-i", "117",
                "--d-coeff", "1.6e4", "--c0", "38"]
    else:
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"500 {data.name}\n", encoding="utf-8")
        argv = ["fit", "diffusion", "--manifest", str(manifest)]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "decolab: data error: file contains no data rows\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("powers", [["500", "500"], ["250", "500", "250.0"]])
def test_power_listed_twice_is_data_error(tmp_path, capsys, powers):
    # two datasets of one power would share their fit parameter names
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("".join(f"{p} {FIXTURES / 'diffusion_500nW.csv'}\n" for p in powers),
                        encoding="utf-8")
    assert run(["fit", "diffusion", "--manifest", str(manifest),
                "--out", str(tmp_path / "out")]) == 3
    tag = f"{float(powers[0]):g}nW"
    assert capsys.readouterr().err == f"decolab: data error: power {tag} is listed more than once\n"
    assert not (tmp_path / "out").exists()


def test_fit_decay_fixture_recovers_metadata(tmp_path):
    meta = json.loads((FIXTURES / "decay_synthetic.json").read_text())
    assert run(["fit", "decay", "--data", str(FIXTURES / "decay_synthetic.csv"),
                "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "fit_decay.json").read_text())
    assert payload["params"]["T2"] == pytest.approx(meta["T2_s"], rel=1e-3)
    assert payload["params"]["n"] == pytest.approx(meta["n"], rel=1e-3)
    assert (tmp_path / "fit_decay.svg").exists()


def test_fit_scaling_fixture(tmp_path):
    meta = json.loads((FIXTURES / "scaling_synthetic.json").read_text())
    assert run(["fit", "scaling", "--data", str(FIXTURES / "scaling_synthetic.csv"),
                "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "fit_scaling.json").read_text())
    assert payload["params"]["T0"] == pytest.approx(meta["T0_s"], rel=1e-9)
    assert payload["params"]["eta"] == pytest.approx(meta["eta"], abs=1e-9)


def test_fit_diffusion_fixture_shared_gamma(tmp_path):
    meta = json.loads((FIXTURES / "diffusion_synthetic.json").read_text())
    assert run(["fit", "diffusion", "--manifest",
                str(FIXTURES / "diffusion_manifest.txt"), "--gamma-h", "22MHz",
                "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "fit_diffusion.json").read_text())
    assert payload["gamma_i_MHz"] == pytest.approx(meta["gamma_i_MHz"], rel=0.02)
    assert set(payload["per_power"]) == {"250nW", "500nW", "1000nW"}
    for p, d_true in zip(meta["powers_nW"], meta["D_MHz2_per_s"]):
        assert payload["per_power"][f"{p:g}nW"]["D_MHz2_per_s"] == \
            pytest.approx(d_true, rel=0.05)


@pytest.mark.parametrize("name, argv", [
    ("fit_decay.json", ["fit", "decay", "--data", str(FIXTURES / "decay_synthetic.csv")]),
    ("fit_scaling.json", ["fit", "scaling", "--data", str(FIXTURES / "scaling_synthetic.csv")]),
    ("fit_diffusion.json",
     ["fit", "diffusion", "--manifest", str(FIXTURES / "diffusion_manifest.txt")]),
    ("fit_ionization.json",
     ["fit", "ionization", "--data", str(FIXTURES / "diffusion_500nW.csv"), "--gamma-i", "117",
      "--d-coeff", "1.6e4", "--c0", "38", "--power", "0.5uW"]),
    ("growth_leak.json", ["growth", "leak", "--data", str(FIXTURES / "arrhenius_synthetic.csv")]),
])
def test_fit_json_holds_the_standard_fit_keys(tmp_path, name, argv):
    assert run(argv + ["--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / name).read_text())
    assert {"params", "stderr", "covariance", "reduced_chi2", "converged", "n_iter",
            "message"} <= payload.keys()
    assert len(payload["covariance"]) == len(payload["params"])
    if name == "fit_ionization.json":
        assert payload["power_nW"] == 500.0


def test_fit_ionization_fixture(tmp_path):
    meta = json.loads((FIXTURES / "diffusion_synthetic.json").read_text())
    assert run(["fit", "ionization", "--data", str(FIXTURES / "diffusion_500nW.csv"),
                "--gamma-i", "117", "--d-coeff", "1.6e4", "--c0", "38.0",
                "--gamma-h", "22MHz", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "fit_ionization.json").read_text())
    assert payload["S_per_s"] == pytest.approx(meta["S_per_s"][1], rel=0.10)


def test_growth_commands(tmp_path):
    assert run(["growth", "chi", "--f0", "1", "--f1", "1", "--out", str(tmp_path)]) == 0
    chi = json.loads((tmp_path / "growth_chi.json").read_text())["chi"]
    assert chi == pytest.approx(5.3185e-3, rel=1e-4)

    assert run(["growth", "nitrogen", "--ch4-sccm", "0.19", "--eta", "7.5e-5",
                "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "growth_nitrogen.json").read_text())
    assert payload["nitrogen_ppb"] == pytest.approx(2.1, abs=0.1)

    assert run(["growth", "leak", "--data", str(FIXTURES / "arrhenius_synthetic.csv"),
                "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "growth_leak.json").read_text())
    meta = json.loads((FIXTURES / "arrhenius_synthetic.json").read_text())
    assert payload["q_leak_Pa_m3_s"] == pytest.approx(meta["q_leak"], rel=0.01)
    assert "<circle" in (tmp_path / "growth_leak.svg").read_text()


def test_diffusion_predict_roundtrip(tmp_path):
    assert run(["diffusion", "predict", "--gamma-i", "117", "--d-coeff", "1.6e4",
                "--gamma-h", "22MHz", "--c0", "38", "--sink-s", "150",
                "--tau-range", "5ms:100ms", "--points", "8",
                "--out", str(tmp_path)]) == 0
    from decolab.diffusion import read_diffusion_csv
    forward, backward = read_diffusion_csv(tmp_path / "diffusion_predict.csv")
    assert np.all(forward.y < backward.y)  # rescale + ionization losses
    assert (tmp_path / "diffusion_predict.svg").exists()


def test_bath_t2star_command(tmp_path):
    assert run(["bath", "t2star", "--chi", "0.0442%", "--n-baths", "300",
                "--out", str(tmp_path), "--seed", "2"]) == 0
    payload = json.loads((tmp_path / "t2star_summary.json").read_text())
    assert payload["scale_us"] * 4.42e-4 == pytest.approx(0.0318, rel=0.15)
    curve = (tmp_path / "t2star.csv").read_text().splitlines()
    assert curve[1] == "t2star_us" and len(curve) == 302
    assert (tmp_path / "t2star_hist.svg").exists()


def test_bath_single_row(tmp_path):
    assert run(["bath", "t2star", "--chi", "0.0442%", "--n-baths", "1",
                "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "t2star.csv").read_text().splitlines()) == 3


def test_bath_empty_baths_have_infinite_t2star(tmp_path):
    # a bath holds 0.07 spins on average, so most are empty
    assert run(["bath", "t2star", "--chi", "1e-9", "--n-baths", "50",
                "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "t2star.csv").read_text().splitlines()[2:]
    t2star = np.array([float(row) for row in rows])
    assert t2star.size == 50 and np.all(t2star > 0)
    assert np.isinf(t2star).sum() > 40 and np.isfinite(t2star).any()
    # the confidence interval counts the finite samples the scale uses
    summary = json.loads((tmp_path / "t2star_summary.json").read_text())
    finite = t2star[np.isfinite(t2star)]
    half_width = 1.96 * summary["scale_us"] / math.sqrt(2.0 * finite.size)
    lo, hi = summary["ci95_us"]
    assert 0.5 * (hi - lo) == pytest.approx(half_width, rel=1e-9)


def _strict_json(path):
    def reject(name):
        raise ValueError(f"non-finite number {name} in {path.name}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_bath_all_empty_writes_strict_json_and_bare_axes(tmp_path):
    # a bath holds 7e-5 spins on average: every sample is inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["bath", "t2star", "--chi", "1e-12", "--n-baths", "5",
                    "--out", str(tmp_path)]) == 0
    summary = _strict_json(tmp_path / "t2star_summary.json")
    assert summary["scale_us"] is None and summary["ci95_us"] == [None, None]
    svg = (tmp_path / "t2star_hist.svg").read_text()
    assert "nan" not in svg and "<rect x=" in svg and "<polyline" not in svg


def test_bath_seeds_differ_but_scale_agrees(tmp_path):
    outs = []
    for seed in (31, 32):
        out = tmp_path / str(seed)
        assert run(["bath", "t2star", "--chi", "0.0442%", "--n-baths", "2000",
                    "--out", str(out), "--seed", str(seed)]) == 0
        outs.append(json.loads((out / "t2star_summary.json").read_text()))
    a, b = outs
    assert (tmp_path / "31" / "t2star.csv").read_text() != \
        (tmp_path / "32" / "t2star.csv").read_text()
    pooled = np.hypot(a["scale_us"], b["scale_us"]) / np.sqrt(2 * 2000)
    assert abs(a["scale_us"] - b["scale_us"]) < 5 * pooled


def test_bath_likelihood_command(tmp_path):
    assert run(["bath", "likelihood", "--rho-ppb", "21", "--t2-lower", "280us",
                "--n-centres", "6", "--n-baths", "3000", "--out", str(tmp_path),
                "--seed", "4"]) == 0
    payload = json.loads((tmp_path / "likelihood.json").read_text())
    assert 0.0 < payload["likelihood"] < 1.0
    assert payload["stderr"] > 0.0
    assert "chi" not in payload


def test_bath_likelihood_with_13c_background(tmp_path):
    assert run(["bath", "likelihood", "--rho-ppb", "21", "--t2-lower", "280us",
                "--n-centres", "6", "--chi", "0.0013%", "--n-baths", "3000",
                "--out", str(tmp_path), "--seed", "4"]) == 0
    payload = json.loads((tmp_path / "likelihood.json").read_text())
    assert payload["chi"] == pytest.approx(1.3e-5)
    assert 0.0 < payload["likelihood"] < 1.0


@pytest.mark.parametrize("command", [["bath", "t2star"],
                                     ["bath", "likelihood", "--rho-ppb", "21",
                                      "--t2-lower", "280us", "--n-centres", "6"]])
def test_chi_outside_unit_interval_is_config_error(tmp_path, capsys, command):
    assert run(command + ["--chi", "2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        "decolab: config error: argument --chi: fraction '2' must lie in (0, 1)\n"


@pytest.mark.parametrize("argv", [
    ["bath", "t2star", "--chi", "0.0442%", "--config", "x"],
    ["growth", "chi", "--f0", "1", "--f1", "1", "--config", "x"],
    ["simulate", "hahn", "--tau-range", "1ms:2ms", "--model", "table1"],
    ["simulate", "feedforward", "--tau-range", "1ms:2ms", "--n-t0", "400"],
])
def test_flags_a_command_does_not_read_are_rejected(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("decolab: config error: unrecognized arguments: --")
    assert err.count("\n") == 1


def test_simulate_config_is_recorded(tmp_path):
    cfg = ROOT / "src" / "decolab" / "data" / "mains_50hz.cfg"
    for name, extra in (("default", []), ("file", ["--config", str(cfg)])):
        assert run(["simulate", "hahn", "--tau-range", "1ms:2ms:1ms",
                    "--out", str(tmp_path / name)] + extra) == 0
    assert json.loads((tmp_path / "default" / "run_manifest.json").read_text()) \
        ["config_path"] == "table1"
    assert json.loads((tmp_path / "file" / "run_manifest.json").read_text()) \
        ["config_path"] == str(cfg)


def _readme_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(cmd)[1:] for cmd in block.replace("\\\n", " ").splitlines()
            if cmd.startswith("decolab ")]


def test_readme_commands_run(tmp_path, monkeypatch):
    commands = _readme_commands()
    assert len(commands) >= 10
    monkeypatch.chdir(ROOT)  # the README's data paths are relative to the repo root
    for argv in commands:
        i = argv.index("--out")
        argv[i + 1] = str(tmp_path / argv[i + 1])
        assert run(argv) == 0, argv


@pytest.mark.parametrize("row, line", [
    ("hahn,1,0.0003,0.0006,x\n", 4),        # non-numeric cell
    ("hahn,1,0.0003\n", 4),                 # short row
    ("hahn,1,0.0001,0.0002,0.99\n", 4),     # t_total_s not increasing
    ("hahn,1,0.0003,inf,0.99\n", 4),        # t_total_s not finite in the last row
])
def test_malformed_sweep_is_data_error(tmp_path, capsys, recwarn, row, line):
    sweep = tmp_path / "sweep.csv"
    sweep.write_text("# decolab 0.1.0 command=simulate hahn seed=0\n"
                     "sequence_kind,n_pulses,tau_s,t_total_s,expectation\n"
                     "hahn,1,0.0002,0.0004,0.99\n" + row, encoding="utf-8")
    assert run(["fit", "decay", "--data", str(sweep), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"decolab: data error (line {line})") and err.count("\n") == 1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["scaling", "decay"])
def test_plain_row_of_more_than_three_cells_is_data_error(tmp_path, capsys, command):
    # the diffusion fixture's rows are not x,y[,sigma]: its two count columns
    # were once read as y and sigma and its stderr column dropped
    assert run(["fit", command, "--data", str(FIXTURES / "diffusion_500nW.csv"),
                "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == \
        "decolab: data error (line 2): expected x,y[,sigma], got 4 cells\n"
    assert not (tmp_path / "out").exists()


def test_nan_x_in_first_row_is_data_error_at_its_line(tmp_path, capsys):
    # no row before it to compare with: the finiteness check alone catches it
    data = tmp_path / "decay.csv"
    data.write_text("x,y\nnan,0.9\n0.002,0.8\n0.003,0.7\n0.004,0.6\n", encoding="utf-8")
    assert run(["fit", "decay", "--data", str(data), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "decolab: data error (line 2): x = nan is not finite\n"


def test_exit_code_config_error(tmp_path, capsys):
    assert run(["simulate", "hahn", "--tau-range", "nonsense",
                "--out", str(tmp_path)]) == 2


def test_exit_code_data_error(tmp_path):
    assert run(["fit", "decay", "--data", str(tmp_path / "missing.csv"),
                "--out", str(tmp_path)]) == 3


def test_rejected_overflowing_trial_step_does_not_warn(tmp_path):
    # a damped trial of this fixed-n fit overflows np.power; its non-finite
    # cost rejects it, and no RuntimeWarning reaches the user
    data = tmp_path / "decay.csv"
    data.write_text("0.1,0.13948335627135897\n0.575,0.08008832128047169\n"
                    "1.05,0.11068453754241583\n1.525,0.06419744495826976\n"
                    "2.0,-0.017459844646617033\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["fit", "decay", "--data", str(data), "--fix-n", "2",
                    "--out", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "fit_decay.json").read_text())
    assert payload["converged"] is True
    assert payload["params"] == pytest.approx(
        {"A": 0.130561369425183, "T2": 1.4967650769724876, "n": 2.0}, rel=1e-9)


def test_exit_code_nonconvergence(tmp_path):
    bad = tmp_path / "flat.csv"
    rows = "\n".join(f"{x},0.7" for x in range(1, 10))
    bad.write_text("x,y\n" + rows + "\n", encoding="utf-8")
    assert run(["fit", "decay", "--data", str(bad), "--out", str(tmp_path)]) == 4

    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    # the partial result is still saved, as strict JSON: the undefined T2 is null
    payload = json.loads((tmp_path / "fit_decay.json").read_text(), parse_constant=reject)
    assert payload["converged"] is False
    assert payload["params"]["T2"] is None
    assert payload["params"]["A"] == pytest.approx(0.7)


@pytest.mark.parametrize("argv", [
    ["simulate", "hahn", "--tau-range", "1ms:2xs"],
    ["bath", "t2star", "--chi", "0.01", "--n-baths", "0"],
    ["growth", "chi", "--f0", "-1", "--f1", "1"],
    ["diffusion", "predict", "--gamma-i", "-5", "--d-coeff", "1e4"],
    ["simulate", "feedforward", "--tau-range", "1ms:2ms:1ms", "--drift-sigma", "nan"],
    ["simulate", "feedforward", "--tau-range", "1ms:2ms:1ms", "--repetitions", "0"],
    ["simulate", "feedforward", "--tau-range", "1ms:2ms:1ms", "--repetitions", "-1"],
    *(["growth", "leak", "--data", str(FIXTURES / "arrhenius_synthetic.csv"), "--volume", v]
      for v in ("0", "-1", "nan")),
    *(["fit", "decay", "--data", str(FIXTURES / "decay_synthetic.csv"), f"--fix-n={n}"]
      for n in ("inf", "1e400", "-1", "0")),
    # the fit's start cost overflows: an error before any output, not exit 4
    ["growth", "leak", "--data", str(FIXTURES / "arrhenius_synthetic.csv"), "--volume", "1e300"],
    *(["simulate", "ramsey", "--t-range", "0.1ms:0.3ms:0.1ms", "--envelope", f"--n-t0={n}"]
      for n in ("0", "1", "-3")),
    ["simulate", "ramsey", "--t-range", "0.1ms:0.3ms:0.1ms", "--envelope", "--n-a", "0"],
    # flags that would change nothing
    ["simulate", "ramsey", "--t-range", "0.1ms:0.3ms:0.1ms", "--a-min", "0.9"],
    ["simulate", "feedforward", "--tau-range", "1ms:2ms:1ms", "--frozen-drift",
     "--drift-sigma", "0.5"],
    # rejected by the argument parser
    ["bath", "t2star", "--chi", "2"],
    ["fit", "diffusion", "--manifest", str(FIXTURES / "diffusion_manifest.txt"),
     "--gamma-h", "5xHz"],
    ["growth", "nitrogen", "--ch4-sccm", "0.19", "--pressure", "1atm"],
    ["bath", "t2star", "--chi", "0.01", "--n-baths", "x"],
    ["bath", "t2star", "--n-baths", "10"],
    ["bath", "t2star", "--chi", "0.01", "--bogus"],
    # not finite: every float option's parser rejects it
    ["bath", "likelihood", "--rho-ppb", "21", "--t2-lower", "infs", "--n-centres", "6"],
    ["bath", "likelihood", "--rho-ppb", "nan", "--t2-lower", "280us", "--n-centres", "6"],
    ["growth", "chi", "--f0", "1e400", "--f1", "1"],
])
def test_invalid_values_exit_2_without_traceback(tmp_path, capsys, recwarn, argv):
    assert run(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("decolab: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not any(tmp_path.iterdir())


def test_no_repetitions_exits_2_without_runtime_warning(tmp_path):
    # a run without repetitions once averaged an empty list: numpy's
    # RuntimeWarnings on stderr, all-nan rows and exit 0
    done = subprocess.run(
        [sys.executable, "-m", "decolab", "simulate", "feedforward", "--tau-range",
         "1ms:2ms:1ms", "--repetitions", "0", "--out", str(tmp_path / "ff")],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))),
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr == "decolab: n_repetitions must be >= 1\n"
    assert not (tmp_path / "ff" / "feedforward.csv").exists()


@pytest.mark.parametrize("flag", [["--q-leak", "5"], ["--pressure", "1Pa"]])
def test_n2_flow_excludes_leak_and_pressure(tmp_path, capsys, flag):
    argv = ["growth", "nitrogen", "--ch4-sccm", "0.19", "--n2-molps", "1e-9"]
    assert run(argv + ["--out", str(tmp_path / "n2")]) == 0
    assert run(argv + flag + ["--out", str(tmp_path / "both")]) == 2
    assert "--n2-molps excludes --q-leak and --pressure" in capsys.readouterr().err


def test_nitrogen_leak_flags_set_the_n2_flow(tmp_path):
    base = ["growth", "nitrogen", "--ch4-sccm", "0.19"]
    flows = {}
    for name, extra in (("default", []), ("leak", ["--q-leak", "3e-8"]),
                        ("pressure", ["--pressure", "1Pa"])):
        assert run(base + extra + ["--out", str(tmp_path / name)]) == 0
        flows[name] = json.loads((tmp_path / name / "growth_nitrogen.json").read_text()) \
            ["n2_mol_per_s"]
    assert flows["leak"] == pytest.approx(2.0 * flows["default"], rel=1e-12)
    assert flows["pressure"] > flows["default"]


@pytest.mark.parametrize("argv", [
    ["simulate", "hahn", "--tau-range", "1ms:2ms:0.5ms"],
    ["simulate", "ramsey", "--t-range", "0.1ms:0.3ms:0.1ms"],
    ["diffusion", "predict", "--gamma-i", "117", "--d-coeff", "1.6e4",
     "--tau-range", "5ms:50ms:5ms"],
])
def test_points_with_stepped_range_is_config_error(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path / "stepped")]) == 0
    assert run(argv + ["--points", "5", "--out", str(tmp_path / "both")]) == 2
    assert "--points applies only to a start:stop range" in capsys.readouterr().err



@pytest.mark.parametrize("argv", [
    ["simulate", "hahn", "--tau-range", "1ms:0.5ms:0.1ms"],
    ["simulate", "feedforward", "--tau-range", "3ms:1ms:1ms"],
    ["diffusion", "predict", "--gamma-i", "117", "--d-coeff", "1.6e4",
     "--tau-range", "50ms:5ms:5ms"],
])
def test_stepped_range_stopping_before_start_is_config_error(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("decolab: ") and err.count("\n") == 1
    assert "stops before it starts" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["nan:1ms:0.1ms", "1ms:inf:1ms", "-inf:1ms"])
def test_non_finite_range_is_config_error(tmp_path, capsys, text):
    assert run(["simulate", "hahn", f"--tau-range={text}", "--out", str(tmp_path / "out")]) == 2
    assert "must have finite bounds" in capsys.readouterr().err

def test_range_size_is_capped_before_the_grid_is_built(monkeypatch):
    assert parse_range("1:1000000:1", "time").size == MAX_RANGE_POINTS
    assert parse_range("0:1", "time", default_points=MAX_RANGE_POINTS).size == MAX_RANGE_POINTS

    def no_grid(*args, **kwargs):
        raise AssertionError("grid allocated for an oversized range")

    monkeypatch.setattr(np, "arange", no_grid)
    monkeypatch.setattr(np, "linspace", no_grid)
    for text, points in (("1:1000001:1", 101), ("0:1s:1e-15", 101), ("0:1s:1e-300", 101),
                         ("1ms:2ms", MAX_RANGE_POINTS + 1), ("1ms:2ms", 10 ** 15)):
        with pytest.raises(ValueError, match="more than"):
            parse_range(text, "time", default_points=points)


@pytest.mark.parametrize("argv", [
    ["simulate", "hahn", "--tau-range", "0:1s:1e-12s"],
    ["simulate", "feedforward", "--tau-range", "1ms:2ms", "--points", "2000000"],
])
def test_oversized_range_exits_2(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("decolab: ") and err.count("\n") == 1
    assert f"more than {MAX_RANGE_POINTS} points" in err


@pytest.mark.parametrize("argv, err", [
    (["simulate", "hahn", "--tau-range", "0:2ms:1ms"],
     "decolab: dropped 1 non-positive times from --tau-range\n"),
    (["simulate", "ramsey", "--t-range=-1ms:1ms:0.5ms"],
     "decolab: dropped 3 non-positive times from --t-range\n"),
    (["diffusion", "predict", "--gamma-i", "117", "--d-coeff", "1.6e4",
      "--tau-range=-5ms:5ms", "--points", "5"],
     "decolab: dropped 3 non-positive times from --tau-range\n"),
    (["simulate", "hahn", "--tau-range", "1ms:2ms:1ms"], ""),
])
def test_dropped_times_are_counted_on_stderr(tmp_path, capsys, argv, err):
    assert run(argv + ["--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("argv", [
    ["bath", "t2star", "--chi", "0.01", "--n-baths", "0"],
    ["simulate", "hahn", "--tau-range", "1ms:0.5ms:0.1ms"],
    ["fit", "decay", "--data", "missing.csv"],
])
def test_failed_run_leaves_no_manifest(tmp_path, argv):
    assert run(argv + ["--out", str(tmp_path / "e1")]) in (2, 3)
    assert not (tmp_path / "e1" / "run_manifest.json").exists()


T2STAR = ["bath", "t2star", "--chi", "0.0442%", "--n-baths", "200"]


def test_rerun_into_one_out_gives_the_same_bytes(tmp_path):
    files = []
    for _ in range(2):
        assert run(T2STAR + ["--seed", "3", "--out", str(tmp_path)]) == 0
        files.append({p.name: p.read_bytes() for p in tmp_path.iterdir()})
    assert len(files[0]) == 4 and files[1] == files[0]


def test_rerun_replaces_files_so_links_keep_the_old_bytes(tmp_path):
    out = tmp_path / "out"
    assert run(T2STAR + ["--seed", "1", "--out", str(out)]) == 0
    first = (out / "t2star.csv").read_bytes()
    os.link(out / "t2star.csv", tmp_path / "hard.csv")
    target = tmp_path / "target.json"
    target.write_text("kept\n", encoding="utf-8")
    (out / "t2star_summary.json").unlink()
    (out / "t2star_summary.json").symlink_to(target)
    assert run(T2STAR + ["--seed", "2", "--out", str(out)]) == 0
    assert (tmp_path / "hard.csv").read_bytes() == first
    assert (out / "t2star.csv").read_bytes() != first
    assert target.read_text(encoding="utf-8") == "kept\n"
    assert not (out / "t2star_summary.json").is_symlink()
    assert json.loads((out / "t2star_summary.json").read_text())["seed"] == 2


@pytest.mark.parametrize("name", ["run_manifest.json", "t2star.csv", "t2star_summary.json",
                                  "t2star_hist.svg"])
def test_output_name_that_is_a_directory_exits_3(tmp_path, capsys, name):
    (tmp_path / name).mkdir()
    assert run(T2STAR + ["--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("decolab: ") and err.count("\n") == 1
    assert (tmp_path / name).is_dir()


def test_print_config(tmp_path, capsys):
    assert run(["simulate", "hahn", "--tau-range", "1ms:2ms:1ms",
                "--out", str(tmp_path), "--print-config"]) == 0
    out = capsys.readouterr().out
    assert '"seed": 0' in out and "component" in out

    def config(*argv) -> dict:
        assert run([*argv, "--out", str(tmp_path / "-".join(argv[:2])), "--print-config"]) == 0
        return json.JSONDecoder().raw_decode(capsys.readouterr().out)[0]

    # an unset option prints the value the run uses, read from the library;
    # an option that does not apply to the run stays null
    assert json.JSONDecoder().raw_decode(out)[0]["points"] is None  # a stepped range
    drift = AmplitudeScaleProcess()
    envelope = config("simulate", "ramsey", "--t-range", "0.01ms:0.2ms", "--envelope")
    assert (envelope["a_min"], envelope["a_max"], envelope["n_a"], envelope["n_t0"],
            envelope["points"]) == (drift.a_min, drift.a_max, N_A, N_T0, 101)
    ramsey = config("simulate", "ramsey", "--t-range", "0.01ms:0.2ms", "--points", "3")
    assert (ramsey["a_min"], ramsey["a_max"], ramsey["n_a"], ramsey["points"]) == \
        (None, None, None, 3)
    argv = ["simulate", "feedforward", "--tau-range", "1ms:2ms:1ms", "--repetitions", "1"]
    feedforward = config(*argv)
    assert (feedforward["drift_sigma"], feedforward["drift_correlation"],
            feedforward["shots"]) == (drift.sigma, drift.correlation_time, ShotConfig().n_shots)
    frozen = config(*argv, "--frozen-drift")
    assert (frozen["drift_sigma"], frozen["drift_correlation"]) == (None, None)
    nitrogen = config("growth", "nitrogen", "--ch4-sccm", "0.19")
    assert (nitrogen["q_leak"], nitrogen["pressure"]) == (Q_LEAK_PA_M3_S, GROWTH_PRESSURE_PA)
    given = config("growth", "nitrogen", "--ch4-sccm", "0.19", "--n2-molps", "1e-9")
    assert (given["q_leak"], given["pressure"]) == (None, None)
    predict = config("diffusion", "predict", "--gamma-i", "117", "--d-coeff", "1.6e4")
    assert (predict["points"], predict["gamma_h"], predict["forward_rescale"]) == \
        (40, GAMMA_H, FORWARD_RESCALE)


@pytest.mark.parametrize("name, text", [
    ("header.csv", "tau,forward,backward,stderr\n0.003,30.0,31.0,0.02\n"),
    ("row.csv", "tau_d_s,counts_forward,counts_backward,stderr\n0.003,thirty,31.0,0.02\n"),
    ("manifest.txt", "500\n"),
])
def test_malformed_diffusion_data_is_data_error(tmp_path, capsys, name, text):
    bad = tmp_path / name
    bad.write_text(text, encoding="utf-8")
    if name == "manifest.txt":
        argv = ["fit", "diffusion", "--manifest", str(bad)]
    else:
        argv = ["fit", "ionization", "--data", str(bad), "--gamma-i", "117",
                "--d-coeff", "1.6e4", "--c0", "38"]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("decolab: data error (line ") and err.count("\n") == 1


def test_predict_tau_below_validity_bound_is_config_error(tmp_path, capsys):
    assert run(["diffusion", "predict", "--gamma-i", "117", "--d-coeff", "1.6e4",
                "--sink-s", "150", "--tau-range", "1us:2us",
                "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "40 of 40 times lie below the validity bound 0.00077" in err
    assert not (tmp_path / "diffusion_predict.csv").exists()


def test_benchmark_tracer_records_sequences_and_diffusion(tmp_path):
    # the benchmark's tracer wraps the public functions of each module and
    # the SinkSolver methods it names; it must still install over them and
    # read the bath scale and the feedforward shots off their calls
    from perfbench.tracer import TRACED_METHODS, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        assert run(["simulate", "hahn", "--tau-range", "0.1ms:0.5ms:0.1ms",
                    "--out", str(tmp_path / "hahn")]) == 0
        assert run(["diffusion", "predict", "--gamma-i", "117", "--d-coeff", "1.6e4",
                    "--sink-s", "150", "--tau-range", "5ms:50ms", "--points", "4",
                    "--out", str(tmp_path / "predict")]) == 0
        assert run(["bath", "t2star", "--chi", "0.0442%", "--n-baths", "200",
                    "--out", str(tmp_path / "bath")]) == 0
        assert run(["simulate", "feedforward", "--tau-range", "1ms:2ms:1ms",
                    "--repetitions", "2", "--out", str(tmp_path / "ff")]) == 0
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert "sequences.expectation_unsynchronized" in names
    assert "sequences.phase_of" in names
    assert "diffusion.SinkSolver.__init__" in names
    assert any(n.startswith("diffusion.SinkSolver.counts") for n in names)
    assert tracer.layer_metrics()["sequences.phase_evals_computed"] > 0
    assert any(n.startswith("bath.") for n in names)
    assert any(n.startswith("feedforward.") for n in names)
    assert math.isfinite(tracer.counters["bath.scale_z.chi4.42e-4"])
    for cls, methods in TRACED_METHODS.items():
        assert all(m in vars(cls) for m in methods)


def test_consecutive_runs_share_the_parser_but_no_options(tmp_path, capsys):
    """The parser is built once per process; options given to one run do
    not carry over to the next."""
    assert build_parser() is build_parser()
    argv = ["simulate", "feedforward", "--tau-range", "1ms:3ms:1ms", "--shots", "5",
            "--repetitions", "2", "--seed", "3"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    first = capsys.readouterr().out
    assert main(argv + ["--print-config", "--frozen-drift", "--out", str(tmp_path / "b")]) == 0
    second = capsys.readouterr().out
    assert main(argv + ["--out", str(tmp_path / "c")]) == 0
    third = capsys.readouterr().out
    assert '"frozen_drift": true' in second and '"print_config": true' in second
    assert first.count("\n") == third.count("\n") == 1  # only the output path
    data = {k: (tmp_path / k / "feedforward.csv").read_text() for k in "abc"}
    assert data["a"] == data["c"] != data["b"]


def test_handler_is_looked_up_per_call(monkeypatch):
    """A command handler replaced after the parser was built is the one that runs."""
    build_parser()
    monkeypatch.setattr(cli, "cmd_growth", lambda args: 7)
    assert main(["growth", "chi", "--f0", "1", "--f1", "1"]) == 7
