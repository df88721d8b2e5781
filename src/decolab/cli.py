"""Command-line front end: simulations, Monte Carlo baths, fits and growth
calculators, with CSV/JSON outputs and SVG plots.

Numeric arguments accept unit suffixes (5ms, 280us, 2.95mG, 22MHz, 15nW,
0.0442%); times and fields are converted to SI on parsing, linewidths are
kept in MHz (the diffusion model's working unit).  Every output records the
seed; rerunning with the same seed reproduces files byte for byte.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 fit non-convergence.

Each command loads only its own modules: this module imports the field
model (``noise``), the file rules and the constants, whose defaults the
parser shows, and each ``cmd_*`` handler imports the modules it runs, so
a fresh process that runs one command pays for that command's imports
alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .constants import (CHAMBER_VOLUME_M3, FORWARD_RESCALE, GAMMA_H, GROWTH_PRESSURE_PA,
                        MG_TO_TESLA, N_REPETITIONS, N_SHOTS, N_T0, Q_LEAK_PA_M3_S, TORR_TO_PA)
from .files import ConfigError, DataError, FitError, write_csv, write_json
from .noise import AcFieldModel, AmplitudeScaleProcess, load_field_config, table1_model

if TYPE_CHECKING:  # annotations only; the handlers import what they run
    from .fitting import DecayCurve, FitResult

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NOCONV = 4


# ---------------------------------------------------------------------------
# unit parsing
# ---------------------------------------------------------------------------

_TIME_SUFFIX = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}
_FIELD_SUFFIX = {"T": 1.0, "G": 1e-4, "mG": MG_TO_TESLA}
_FREQ_MHZ_SUFFIX = {"GHz": 1e3, "MHz": 1.0, "kHz": 1e-3, "Hz": 1e-6}
_POWER_NW_SUFFIX = {"uW": 1e3, "nW": 1.0, "pW": 1e-3}
_PRESSURE_PA_SUFFIX = {"Pa": 1.0, "Torr": TORR_TO_PA, "mbar": 100.0}


def parse_quantity(text: str, kind: str) -> float:
    """Parse '1.25ms' style values; bare numbers are taken in the base unit."""
    tables = {"time": _TIME_SUFFIX, "field": _FIELD_SUFFIX, "freq_mhz": _FREQ_MHZ_SUFFIX,
              "power_nw": _POWER_NW_SUFFIX, "pressure": _PRESSURE_PA_SUFFIX}
    text = text.strip()
    try:
        if kind == "fraction":
            return float(text[:-1]) / 100.0 if text.endswith("%") else float(text)
        table = tables[kind]
        for suffix in sorted(table, key=len, reverse=True):
            if text.endswith(suffix):
                return float(text[: -len(suffix)]) * table[suffix]
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse quantity {text!r} as {kind}") from None


#: most points a range option may expand to
MAX_RANGE_POINTS = 10 ** 6


def parse_range(text: str, kind: str, default_points: int = 101) -> np.ndarray:
    """'start:stop[:step]' with unit suffixes; start:stop uses a uniform grid.

    A stepped range must not stop before it starts, and no range may hold
    more than MAX_RANGE_POINTS points; both are checked before the grid is
    built.
    """
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(f"range {text!r} must be start:stop[:step]")
    lo = parse_quantity(parts[0], kind)
    hi = parse_quantity(parts[1], kind)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"range {text!r} must have finite bounds")
    if len(parts) == 3:
        step = parse_quantity(parts[2], kind)
        if not step > 0:
            raise ConfigError("range step must be positive")
        if hi < lo:
            raise ConfigError(f"range {text!r} stops before it starts")
        span = (hi - lo) / step + 1e-9
        if not span < MAX_RANGE_POINTS:
            raise ConfigError(f"range {text!r} has more than {MAX_RANGE_POINTS} points")
        return lo + step * np.arange(int(math.floor(span)) + 1)
    if default_points > MAX_RANGE_POINTS:
        raise ConfigError(f"range {text!r} has more than {MAX_RANGE_POINTS} points")
    return np.linspace(lo, hi, default_points)


#: most values a count option may make one array of
MAX_COUNT = 10 ** 6


def _check_count(option: str, value: int) -> None:
    """Reject a count above MAX_COUNT before anything is allocated."""
    if value > MAX_COUNT:
        raise ConfigError(f"{option} must be <= {MAX_COUNT}, got {value}")


def _positive_times(args: argparse.Namespace, name: str, default_points: int) -> np.ndarray:
    """The times t > 0 of the range option ``name``, with a counted warning
    for the times dropped; --points sets the grid size of a start:stop range
    (default_points when unset) and is rejected with a stepped one."""
    text = getattr(args, name)
    if text.count(":") != 2:
        _fill_unset(args, points=default_points)
    elif args.points is not None:
        raise ConfigError(f"--points applies only to a start:stop range, not {text!r}")
    times = parse_range(text, "time", default_points if args.points is None else args.points)
    positive = times[times > 0.0]
    if positive.size < times.size:
        print(f"decolab: dropped {times.size - positive.size} non-positive times from "
              f"--{name.replace('_', '-')}", file=sys.stderr)
    return positive


def _quantity(kind: str | None):
    """The argparse type of a float option: a bare number for kind None, else
    a quantity of the unit kind (see parse_quantity; a fraction must lie in
    (0, 1)).  Every float option rejects a value that is not finite.  A
    rejection keeps its reason, which the parser reports after the option's
    name."""
    def parse(text: str) -> float:
        try:
            value = float(text) if kind is None else parse_quantity(text, kind)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(exc.reason) from None
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
        if kind == "fraction" and not 0.0 < value < 1.0:
            raise argparse.ArgumentTypeError(f"fraction {text!r} must lie in (0, 1)")
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
        return value
    return parse


_FLOAT, _TIME, _FRACTION, _FREQ, _POWER, _PRESSURE = map(
    _quantity, (None, "time", "fraction", "freq_mhz", "power_nw", "pressure"))


class _Parser(argparse.ArgumentParser):
    """A parser whose rejection of a command line is a ConfigError (exit 2
    with one line), not a usage block and SystemExit."""

    def error(self, message: str):
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

class OutputWriter:
    """Writes a command's data files; the output directory and its
    run_manifest.json appear with the first data file, so a run that fails
    its input checks leaves neither."""

    def __init__(self, out_dir: Path, command: str, seed: int, config_path: str):
        self.out_dir = out_dir
        self.seed = seed
        self.command = command
        self._manifest: dict | None = dict(
            command=command, config_path=config_path, seed=seed,
            output_dir=str(out_dir), version=__version__)

    def _path(self, name: str) -> Path:
        if self._manifest is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            write_json(self.out_dir / "run_manifest.json", self._manifest)
            self._manifest = None
        return self.out_dir / name

    def csv(self, name: str, header: list[str], columns) -> Path:
        """One column (floats, ints or strings) per header name, after a stamp line."""
        path = self._path(name)
        write_csv(path, header, columns,
                  [f"# decolab {__version__} command={self.command} seed={self.seed}"])
        return path

    def json(self, name: str, payload: dict) -> Path:
        """Strict JSON: non-finite numbers are written as null."""
        path = self._path(name)
        write_json(path, {"seed": self.seed, "version": __version__, **payload})
        return path


def _fit_payload(fit: FitResult) -> dict:
    return {"params": fit.params, "stderr": fit.stderr,
            "covariance": np.atleast_2d(fit.covariance).tolist(),
            "reduced_chi2": fit.reduced_chi2, "converged": fit.converged,
            "n_iter": fit.n_iter, "message": fit.message, "at_bound": fit.at_bound}


def _finish(path: Path, fit: FitResult | None = None, n_points: int = 0) -> int:
    """Print the main output's path; a fit that did not converge then exits 4.

    A fit to as many points as it has parameters interpolates them exactly
    and has no residual to estimate its errors from: it warns first."""
    if fit is not None and n_points == len(fit.param_names):
        print(f"warning: {n_points} points for {n_points} parameters, dof=0, "
              "exact interpolation", file=sys.stderr)
    print(path)
    if fit is not None and not fit.converged:
        raise FitError(fit.message)
    return EXIT_OK


def _load_model(name: str) -> AcFieldModel:
    return table1_model() if name == "table1" else load_field_config(name)


def _given(*options) -> bool:
    """Whether any of the options was set on the command line (is not None)."""
    return any(v is not None for v in options)


def _fill_unset(args: argparse.Namespace, **values) -> None:
    """Set each unset (None) option to the value the run uses, for --print-config."""
    vars(args).update({k: v for k, v in values.items() if getattr(args, k) is None})


def _print_config(args: argparse.Namespace, model: AcFieldModel | None = None) -> None:
    """The options with the values the run uses; null where one does not apply."""
    if not getattr(args, "print_config", False):
        return
    print(json.dumps(vars(args), default=str, indent=2))
    if model is not None:
        for c in model.components:
            print(f"# component f={c.frequency} Hz B={c.amplitude / MG_TO_TESLA} mG "
                  f"phi={c.phase} rad")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    from .plotsvg import quick_line_plot
    from .sequences import N_A, PulseSequence, expectation_unsynchronized, ramsey_envelope

    if args.sequence == "feedforward":
        # the shot loop draws 3 uniforms (and a drift normal) per shot
        _check_count("--shots x --repetitions x 3", 3 * args.shots * args.repetitions)
    else:
        _check_count("--n-t0", args.n_t0)
    if args.sequence == "ramsey" and args.n_a is not None:
        _check_count("--n-a", args.n_a)
    model = _load_model(args.config)
    if args.sequence == "feedforward" and args.frozen_drift:
        if _given(args.drift_sigma, args.drift_correlation):
            raise ConfigError("--frozen-drift excludes --drift-sigma and --drift-correlation")
    elif args.sequence == "feedforward":
        _fill_unset(args, drift_sigma=AmplitudeScaleProcess.sigma,
                    drift_correlation=AmplitudeScaleProcess.correlation_time)
    elif args.sequence == "ramsey" and args.envelope:
        # the amplitude range defaults to the clip bounds of the drift process
        _fill_unset(args, a_min=AmplitudeScaleProcess.a_min, a_max=AmplitudeScaleProcess.a_max,
                    n_a=N_A)
    elif args.sequence == "ramsey" and _given(args.a_min, args.a_max, args.n_a):
        raise ConfigError("--a-min, --a-max and --n-a apply only with --envelope")
    times = _positive_times(args, "t_range" if args.sequence == "ramsey" else "tau_range", 101)
    _print_config(args, model)
    out = OutputWriter(Path(args.out), f"simulate {args.sequence}", args.seed, args.config)
    if args.sequence == "feedforward":
        from .feedforward import ShotConfig, run_feedforward

        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(args.seed)))
        drift = None if args.frozen_drift else AmplitudeScaleProcess(
            sigma=args.drift_sigma, correlation_time=args.drift_correlation)
        cfg = ShotConfig(n_shots=args.shots)
        outcomes = run_feedforward(model, times, cfg, drift, rng,
                                   n_repetitions=args.repetitions)
        tau = [o.tau for o in outcomes]
        c = [o.c_expectation for o in outcomes]
        path = out.csv("feedforward.csv",
                       ["tau_s", "x_raw", "y_raw", "phi_estimate_rad", "c_expectation",
                        "seed"],
                       [tau, [o.x_raw for o in outcomes], [o.y_raw for o in outcomes],
                        [o.phi_estimate for o in outcomes], c, [args.seed] * len(outcomes)])
        quick_line_plot(out.out_dir / "feedforward.svg", tau, [c], ["<C>"],
                        title="feedforward echo", xlabel="tau (s)", ylabel="<C>",
                        styles=["points"])
        return _finish(path)

    if args.sequence == "ramsey":
        if args.envelope:
            vals = ramsey_envelope(model, (args.a_min, args.a_max), times, n_t0=args.n_t0,
                                   n_a=args.n_a)
        else:
            vals = expectation_unsynchronized(model, PulseSequence.ramsey(times), args.n_t0)
        n_pulses, t_total = 0, times
    else:
        n_pulses = 1 if args.sequence == "hahn" else args.n
        seq = (PulseSequence.hahn(times) if args.sequence == "hahn"
               else PulseSequence.cpmg(n_pulses, times))
        vals = expectation_unsynchronized(model, seq, args.n_t0)
        t_total = seq.total_time

    n = len(vals)
    path = out.csv("sweep.csv",
                   ["sequence_kind", "n_pulses", "tau_s", "t_total_s", "expectation"],
                   [[args.sequence] * n, [n_pulses] * n, times, t_total, vals])
    if n:
        quick_line_plot(out.out_dir / "sweep.svg", t_total, [vals], [args.sequence],
                        title=f"{args.sequence} sweep", xlabel="total time (s)",
                        ylabel="expectation")
    return _finish(path)


# ---------------------------------------------------------------------------
# bath
# ---------------------------------------------------------------------------

def cmd_bath(args: argparse.Namespace) -> int:
    from . import bath as bathmod

    _check_count("--n-baths", args.n_baths)
    _print_config(args)
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(args.seed)))
    if args.bath_command == "t2star":
        from .plotsvg import histogram_plot

        out = OutputWriter(Path(args.out), "bath t2star", args.seed, "-")
        cfg = bathmod.BathConfig(concentration=args.chi)
        dist = bathmod.t2star_distribution(cfg, args.n_baths, rng)
        out.csv("t2star.csv", ["t2star_us"], [dist.samples * 1e6])
        scale_us = dist.half_normal_scale * 1e6
        ci = 1.96 * dist.scale_stderr() * 1e6
        out.json("t2star_summary.json", {
            "chi": args.chi, "n_baths": args.n_baths,
            "scale_us": scale_us, "ci95_us": [scale_us - ci, scale_us + ci],
        })
        histogram_plot(out.out_dir / "t2star_hist.svg", dist.samples * 1e6, bins=60,
                       overlay_pdf=lambda x: (math.sqrt(2 / math.pi) / scale_us
                                              * np.exp(-x ** 2 / (2 * scale_us ** 2))),
                       title=f"T2* distribution, chi={args.chi}", xlabel="T2* (us)")
        return _finish(out.out_dir / "t2star_summary.json")

    out = OutputWriter(Path(args.out), "bath likelihood", args.seed, "-")
    est = bathmod.electron_bath_likelihood(args.rho_ppb, args.t2_lower, args.n_centres,
                                           rng, n_baths=args.n_baths, chi=args.chi)
    # the 13C fraction is recorded only when given, so electron-only runs
    # keep their output bytes
    background = {} if args.chi is None else {"chi": args.chi}
    out.json("likelihood.json", {
        "rho_ppb": args.rho_ppb, "t2_lower_s": args.t2_lower, **background,
        "n_centres": args.n_centres, "likelihood": est.likelihood,
        "stderr": est.stderr, "exceedance": est.exceedance,
        "exceedance_stderr": est.exceedance_stderr, "n_baths": est.n_baths,
    })
    return _finish(out.out_dir / "likelihood.json")


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _plot_fit(out: OutputWriter, name: str, curve: DecayCurve, model_y, label: str) -> None:
    from .plotsvg import quick_line_plot

    quick_line_plot(out.out_dir / name, curve.x, [curve.y, model_y], ["data", "fit"],
                    title=label, xlabel="x", ylabel="y", styles=["points", "line"])


def cmd_fit(args: argparse.Namespace) -> int:
    from .fitting import fit_power_scaling, fit_stretched_exp, read_decay_csv, stretched_exp

    _print_config(args)
    out = OutputWriter(Path(args.out), f"fit {args.fit_command}", args.seed, "-")

    if args.fit_command == "decay":
        curve = read_decay_csv(args.data)
        fit = fit_stretched_exp(curve, fix_n=args.fix_n)
        out.json("fit_decay.json", _fit_payload(fit))
        _plot_fit(out, "fit_decay.svg", curve, stretched_exp(curve.x, fit.values()),
                  "stretched exponential fit")
        return _finish(out.out_dir / "fit_decay.json", fit, len(curve))

    if args.fit_command == "scaling":
        curve = read_decay_csv(args.data)
        fit = fit_power_scaling(curve.x, curve.y, curve.sigma)
        out.json("fit_scaling.json", _fit_payload(fit))
        model_y = fit.params["T0"] * np.power(curve.x, fit.params["eta"])
        _plot_fit(out, "fit_scaling.svg", curve, model_y, "power-law scaling fit")
        return _finish(out.out_dir / "fit_scaling.json", fit, len(curve))

    if args.fit_command == "diffusion":
        from . import diffusion as diff
        from .plotsvg import SvgPlot

        datasets = [diff.PowerDataset(power, diff.read_diffusion_csv(path)[1])
                    for power, path in diff.read_manifest(args.manifest)]
        fit = diff.joint_fit_backward(datasets, gamma_h_fixed=args.gamma_h)
        per_power = {}
        plot = SvgPlot(title="joint backward diffusion fit", xlabel="tau_d (s)",
                       ylabel="counts")
        for ds in datasets:
            d, c0 = fit.params[f"D_{ds.tag}"], fit.params[f"C0_{ds.tag}"]
            per_power[ds.tag] = {"D_MHz2_per_s": d, "C0": c0,
                                 "D_stderr": fit.stderr[f"D_{ds.tag}"],
                                 "C0_stderr": fit.stderr[f"C0_{ds.tag}"]}
            model = diff.OuDiffusionModel(d, fit.params["gamma_i"])
            line = diff.HomogeneousLine(c0, args.gamma_h)
            plot.add_line(ds.curve.x, ds.curve.y, ds.tag, "points")
            plot.add_line(ds.curve.x, diff.counts_no_ionization(model, line, ds.curve.x), "")
        out.json("fit_diffusion.json", {"gamma_i_MHz": fit.params["gamma_i"],
                                        "gamma_h_MHz_fixed": args.gamma_h, **_fit_payload(fit),
                                        "per_power": per_power})
        plot.write(out.out_dir / "fit_diffusion.svg")
        return _finish(out.out_dir / "fit_diffusion.json", fit,
                       sum(len(ds.curve) for ds in datasets))

    # ionization
    from . import diffusion as diff

    forward, _ = diff.read_diffusion_csv(args.data)
    model = diff.OuDiffusionModel(d_coeff=args.d_coeff, gamma_i=args.gamma_i)
    line = diff.HomogeneousLine(c0=args.c0, gamma_h=args.gamma_h)
    _check_forward_rescale(args.forward_rescale)
    fit = diff.fit_ionization_rate(forward, model, line, forward_rescale=args.forward_rescale)
    out.json("fit_ionization.json", {
        **_fit_payload(fit),
        "S_per_s": fit.params["S"], "forward_rescale": args.forward_rescale,
        "power_nW": args.power,
    })
    return _finish(out.out_dir / "fit_ionization.json", fit, len(forward))


# ---------------------------------------------------------------------------
# growth
# ---------------------------------------------------------------------------

def cmd_growth(args: argparse.Namespace) -> int:
    from . import growth

    if args.growth_command == "nitrogen" and args.n2_molps is None:
        _fill_unset(args, q_leak=Q_LEAK_PA_M3_S, pressure=GROWTH_PRESSURE_PA)
    _print_config(args)
    out = OutputWriter(Path(args.out), f"growth {args.growth_command}", args.seed, "-")
    if args.growth_command == "chi":
        chi = growth.chi_from_flows(args.f0, args.f1)
        out.json("growth_chi.json", {
            "f0_sccm": args.f0, "f1_sccm": args.f1, "chi": chi,
            "chi_percent": 100.0 * chi, "ratio_13c_12c": growth.chi_to_ratio(chi),
        })
        return _finish(out.out_dir / "growth_chi.json")
    if args.growth_command == "nitrogen":
        n2 = args.n2_molps
        if n2 is None:
            n2 = growth.n2_molar_flow(growth.LeakModel(q_leak=args.q_leak), args.pressure)
        elif args.q_leak is not None or args.pressure is not None:
            raise ConfigError("--n2-molps excludes --q-leak and --pressure")
        if args.eta is not None:
            ppb = growth.nitrogen_ppb(args.eta, n2, args.ch4_sccm)
            payload = {"eta": args.eta, "nitrogen_ppb": ppb}
        else:
            lower, upper = (growth.nitrogen_ppb(eta, n2, args.ch4_sccm)
                            for eta in (growth.ETA_LOWER, growth.ETA_UPPER))
            payload = {"eta_lower": growth.ETA_LOWER, "eta_upper": growth.ETA_UPPER,
                       "nitrogen_ppb_lower": lower, "nitrogen_ppb_upper": upper}
        payload.update({"n2_mol_per_s": n2, "n2_sccm": growth.molar_flow_to_sccm(n2),
                        "ch4_sccm": args.ch4_sccm})
        out.json("growth_nitrogen.json", payload)
        return _finish(out.out_dir / "growth_nitrogen.json")
    # leak
    from .fitting import read_decay_csv

    curve = read_decay_csv(args.data)
    leak, fit = growth.fit_arrhenius(curve.x, curve.y, volume=args.volume)
    out.json("growth_leak.json", {
        "q_leak_Pa_m3_s": leak.q_leak, "q0_Pa_m3_s": leak.q0, "e_a_J": leak.e_a,
        "volume_m3": leak.volume, **_fit_payload(fit),
    })
    _plot_fit(out, "growth_leak.svg", curve, leak.throughput(curve.x) / leak.volume,
              "Arrhenius throughput fit")
    return _finish(out.out_dir / "growth_leak.json", fit, len(curve))


# ---------------------------------------------------------------------------
# diffusion predict
# ---------------------------------------------------------------------------

def _check_forward_rescale(value: float) -> None:
    if not value > 0.0:  # the parser has rejected a value that is not finite
        raise ConfigError(f"--forward-rescale must be > 0, got {value!r}")


def cmd_diffusion(args: argparse.Namespace) -> int:
    from . import diffusion as diff
    from .plotsvg import quick_line_plot

    model = diff.OuDiffusionModel(d_coeff=args.d_coeff, gamma_i=args.gamma_i)
    line = diff.HomogeneousLine(c0=args.c0, gamma_h=args.gamma_h)
    sink = diff.IonizationSink(strength_s=args.sink_s)
    _check_forward_rescale(args.forward_rescale)
    taus = _positive_times(args, "tau_range", 40)
    _print_config(args)
    out = OutputWriter(Path(args.out), "diffusion predict", args.seed, "-")
    if sink.strength_s > 0.0:
        solver = diff.SinkSolver(model, sink)
        try:
            _, backward, (forward,) = diff._resolved_counts(solver, line, taus, args.detuning,
                                                            [sink.strength_s])
        except diff.ValidityError as exc:
            raise ConfigError(f"--tau-range: {exc}") from None
    else:
        forward = backward = diff.counts_no_ionization(model, line, taus, args.detuning)
    forward = args.forward_rescale * forward
    path = out.csv("diffusion_predict.csv", diff.DIFFUSION_COLUMNS,
                   [taus, forward, backward, np.zeros(taus.size)])
    if taus.size:
        quick_line_plot(out.out_dir / "diffusion_predict.svg", taus, [backward, forward],
                        ["backward", "forward"], title="check-probe counts",
                        xlabel="tau_d (s)", ylabel="counts")
    return _finish(path)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    ``main`` call; callers must not modify it."""
    parser = _Parser(prog="decolab", description="decoherence / spectral-diffusion toolkit")
    parser.add_argument("--version", action="version", version=f"decolab {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--print-config", action="store_true")
    # the diffusion commands' line, and the model of the two that take one
    line = argparse.ArgumentParser(add_help=False)
    line.add_argument("--gamma-h", type=_FREQ, default=GAMMA_H)
    model = argparse.ArgumentParser(add_help=False, parents=[line])
    model.add_argument("--gamma-i", type=_FREQ, required=True)
    model.add_argument("--d-coeff", type=_FLOAT, required=True, help="MHz^2/s")
    model.add_argument("--forward-rescale", type=_FLOAT, default=FORWARD_RESCALE)

    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="pulse-sequence and feedforward simulations")
    sim_sub = sim.add_subparsers(dest="sequence", required=True)
    for kind in ("ramsey", "hahn", "cpmg", "feedforward"):
        p = sim_sub.add_parser(kind, parents=[common])
        p.add_argument("--config", default="table1",
                       help="'table1' or a field-model config path")
        if kind != "feedforward":
            p.add_argument("--n-t0", type=int, default=N_T0)
        p.add_argument("--points", type=int, default=None,
                       help="grid size of a start:stop range (default 101)")
        if kind == "ramsey":
            p.add_argument("--t-range", required=True)
            p.add_argument("--envelope", action="store_true")
            p.add_argument("--a-min", type=_FLOAT, default=None)
            p.add_argument("--a-max", type=_FLOAT, default=None)
            p.add_argument("--n-a", type=int, default=None)
        else:
            p.add_argument("--tau-range", required=True)
        if kind == "cpmg":
            p.add_argument("--n", type=int, required=True)
        if kind == "feedforward":
            p.add_argument("--shots", type=int, default=N_SHOTS)
            p.add_argument("--repetitions", type=int, default=N_REPETITIONS)
            p.add_argument("--drift-sigma", type=_FLOAT, default=None)
            p.add_argument("--drift-correlation", type=_FLOAT, default=None)
            p.add_argument("--frozen-drift", action="store_true")

    bath_p = sub.add_parser("bath", help="spin-bath Monte Carlo")
    bath_sub = bath_p.add_subparsers(dest="bath_command", required=True)
    p = bath_sub.add_parser("t2star", parents=[common])
    p.add_argument("--chi", type=_FRACTION, required=True)
    p.add_argument("--n-baths", type=int, default=10000)
    p = bath_sub.add_parser("likelihood", parents=[common])
    p.add_argument("--rho-ppb", type=_FLOAT, required=True)
    p.add_argument("--t2-lower", type=_TIME, required=True)
    p.add_argument("--n-centres", type=int, required=True)
    p.add_argument("--chi", type=_FRACTION, default=None,
                   help="13C fraction of the host; adds each centre's own 13C bath")
    p.add_argument("--n-baths", type=int, default=20000)

    fit_p = sub.add_parser("fit", help="curve fits")
    fit_sub = fit_p.add_subparsers(dest="fit_command", required=True)
    p = fit_sub.add_parser("decay", parents=[common])
    p.add_argument("--data", required=True)
    p.add_argument("--fix-n", type=_FLOAT, default=None)
    p = fit_sub.add_parser("scaling", parents=[common])
    p.add_argument("--data", required=True)
    p = fit_sub.add_parser("diffusion", parents=[common, line])
    p.add_argument("--manifest", required=True)
    p = fit_sub.add_parser("ionization", parents=[common, model])
    p.add_argument("--data", required=True)
    p.add_argument("--power", type=_POWER, default=0.0)
    p.add_argument("--c0", type=_FLOAT, required=True)

    growth_p = sub.add_parser("growth", help="growth calculators")
    growth_sub = growth_p.add_subparsers(dest="growth_command", required=True)
    p = growth_sub.add_parser("chi", parents=[common])
    p.add_argument("--f0", type=_FLOAT, required=True, help="enriched methane flow (sccm)")
    p.add_argument("--f1", type=_FLOAT, required=True, help="natural methane flow (sccm)")
    p = growth_sub.add_parser("nitrogen", parents=[common])
    p.add_argument("--eta", type=_FLOAT, default=None)
    p.add_argument("--ch4-sccm", type=_FLOAT, required=True)
    p.add_argument("--n2-molps", type=_FLOAT, default=None,
                   help="N2 inflow (mol/s); excludes --q-leak and --pressure")
    p.add_argument("--q-leak", type=_FLOAT, default=None,
                   help=f"leak throughput (Pa m^3/s, default {Q_LEAK_PA_M3_S:g})")
    p.add_argument("--pressure", type=_PRESSURE, default=None,
                   help="growth pressure (default "
                        f"{GROWTH_PRESSURE_PA / TORR_TO_PA:g}Torr)")
    p = growth_sub.add_parser("leak", parents=[common])
    p.add_argument("--data", required=True, help="CSV with T_K, dPdt_Pa_per_s")
    p.add_argument("--volume", type=_FLOAT, default=CHAMBER_VOLUME_M3)

    diff_p = sub.add_parser("diffusion", help="spectral-diffusion prediction")
    diff_sub = diff_p.add_subparsers(dest="diff_command", required=True)
    p = diff_sub.add_parser("predict", parents=[common, model])
    p.add_argument("--c0", type=_FLOAT, default=1.0)
    p.add_argument("--sink-s", type=_FLOAT, default=0.0)
    p.add_argument("--detuning", type=_FREQ, default=0.0)
    p.add_argument("--tau-range", default="1ms:500ms")
    p.add_argument("--points", type=int, default=None,
                   help="grid size of a start:stop range (default 40)")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up per call, so the cached parser pins no handler: a replaced
        # cmd_* function (a wrapper or a stub) is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except (DataError, OSError) as exc:  # unreadable files too, e.g. a directory
        print(f"decolab: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FitError as exc:
        print(f"decolab: fit did not converge: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except ValueError as exc:
        print(f"decolab: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
