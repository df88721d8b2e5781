"""The four seeded study workloads of the decolab benchmark.

Each workload turns the benchmark seed into its inputs (CLI arguments, data
files, config files) when it is built, so the code under test only receives
them.  Data inputs are the committed fixture curves (copied under
``fixtures/``) resampled with seeded Gaussian noise at their stated stderr;
no decolab forward model generates an input.  A pass runs the workload's
operations in order: CLI commands go through ``decolab.cli.main`` in this
process, and the few paths the CLI has no command for are library calls.
``checks()`` reads the outputs of the last pass and returns, per checked
output, |output - reference| / tolerance; a value <= 1 passes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import decolab.cli
from decolab import bath, constants, diffusion, feedforward, noise

from tracer import analytic_half_normal_scale

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: Monte Carlo outputs must lie within this many standard errors of the reference
Z_TOL = 4.0
#: fitted parameters must lie within this many standard errors of the generating
#: value; resampling adds noise at the stated stderr to curves that already
#: carry it once, so the fit's own stderr is widened by sqrt(2)
FIT_Z_TOL = 6.0
RESAMPLED = math.sqrt(2.0)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag])))


def _seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2 ** 31)))


def _dev(value: float, ref: float, tol: float) -> float:
    """|value - ref| / tol; a non-finite output never passes."""
    if not math.isfinite(value):
        return math.inf
    return abs(value - ref) / tol


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _bessel_j0(x: float) -> float:
    """J0 from its power series sum_k (-1)^k (x/2)^(2k) / (k!)^2 (|x| <= 10)."""
    term, total, q = 1.0, 1.0, -0.25 * x * x
    for k in range(1, 60):
        term *= q / (k * k)
        total += term
    return total


class CliOp:
    """One decolab command; its outputs go to its own directory."""

    def __init__(self, label: str, argv: list[str], out: Path, before=None):
        self.label = label
        self.argv = argv + ["--out", str(out)]
        self.out = out
        self.before = before

    def run(self, tracer=None) -> bool:
        if self.before is not None:
            self.before()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                rc = decolab.cli.main(self.argv)
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code if isinstance(exc.code, int) else 2
        if tracer is not None:
            tracer.counters["cli.nonzero_exits"] += rc != 0
            if self.out.is_dir():
                tracer.counters["cli.bytes_written"] += sum(
                    f.stat().st_size for f in self.out.iterdir())
        return rc == 0


class LibOp:
    """A library call for a path the CLI has no command for."""

    def __init__(self, label: str, fn):
        self.label = label
        self.fn = fn

    def run(self, tracer=None) -> bool:
        return bool(self.fn())


class Workload:
    """Inputs, operations and output checks of one workload; the reason each
    workload exists is its ``why`` in BENCHMARK.json."""

    name = ""
    tag = 0  # mixed into the seed so workloads draw independent inputs

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.ops: list = []
        self.dropped = 0  # requested outputs missing without an error, last check
        self.build(_rng(seed, self.tag))

    def build(self, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def checks(self) -> list[tuple[str, float]]:
        raise NotImplementedError

    def cli(self, label: str, *argv: str, before=None) -> Path:
        out = self.dir / "out" / label
        self.ops.append(CliOp(label, list(argv), out, before))
        return out

    def lib(self, label: str, fn) -> None:
        self.ops.append(LibOp(label, fn))

    def rows(self, path: Path, expected: int) -> list[dict[str, str]]:
        """Output rows; a short file counts as a requested value dropped."""
        rows = _read_rows(path)
        if len(rows) != expected:
            self.dropped += 1
        return rows


# ---------------------------------------------------------------------------
# bath workloads
# ---------------------------------------------------------------------------

def _t2star_checks(wl: Workload, label: str, out: Path, species: str, chi: float,
                   n_baths: int) -> list[tuple[str, float]]:
    summary = _read_json(out / "t2star_summary.json")
    ref_us = analytic_half_normal_scale(species, chi) * 1e6
    se_us = ref_us / math.sqrt(2.0 * n_baths)
    wl.rows(out / "t2star.csv", n_baths)
    return [(f"{label}.scale", _dev(summary["scale_us"], ref_us, Z_TOL * se_us))]


def filtered_inverse_square_mean(cfg: bath.BathConfig) -> float:
    """E[1 / T2*^2] (s^-2) of a 13C bath with |A| > exclude_above_hz removed.

    1/T2*^2 = (pi^2 / 2) sum A_j^2 with A in Hz.  For a spin at v = (r/R)^3
    (uniform) and c = cos theta (uniform), A = K(c) / v with
    K = P |3c^2 - 1| / R^3 and P = p / (2 pi), so
    E[A^2 1{A <= H}] = E_c[(K H - K^2)^+]; the bath holds mean_spin_count
    spins on average.
    """
    k = constants.CONSTANTS
    p = k.mu0_over_4pi * k.hbar * k.gamma_c * k.gamma_e
    c = (np.arange(200_000) + 0.5) / 200_000
    big_k = p / (2.0 * math.pi) * np.abs(3.0 * c * c - 1.0) / cfg.r_max ** 3
    h = cfg.exclude_above_hz
    per_spin = float(np.mean(np.maximum(big_k * h - big_k * big_k, 0.0)))
    return 0.5 * math.pi ** 2 * cfg.mean_spin_count() * per_spin


class BathDense(Workload):
    name = "bath_dense"
    tag = 1
    #: criterion 4's concentrations; 54 baths at 1.0937e-2 fill one 4e7-spin batch
    RUNS = ((4.42e-4, "4.42e-4", 600), (1.949e-3, "1.949e-3", 130),
            (1.0937e-2, "1.0937e-2", 54))
    FILTER = bath.BathConfig(concentration=4.42e-4, exclude_above_hz=5e3)
    FILTER_BATHS = 200

    def build(self, rng):
        self.outs = []
        for chi, text, n in self.RUNS:
            out = self.cli(f"t2star_{text}", "bath", "t2star", "--chi", text,
                           "--n-baths", str(n), "--seed", _seed(rng))
            self.outs.append((f"chi{text}", out, chi, n))
        filter_seed = int(_seed(rng))

        def filtered() -> bool:
            gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(filter_seed)))
            self.filtered = bath.t2star_distribution(self.FILTER, self.FILTER_BATHS, gen)
            return True

        self.lib("t2star_filtered", filtered)

    def checks(self):
        self.dropped = 0
        out = []
        for label, path, chi, n in self.outs:
            out += _t2star_checks(self, label, path, "carbon13", chi, n)
        inv2 = 1.0 / self.filtered.samples ** 2
        se = float(np.std(inv2, ddof=1)) / math.sqrt(inv2.size)
        ref = filtered_inverse_square_mean(self.FILTER)
        out.append(("filtered.inverse_square_mean", _dev(float(np.mean(inv2)), ref, Z_TOL * se)))
        return out


class BathDilute(Workload):
    name = "bath_dilute"
    tag = 2
    N_BATHS = 20000
    RHO_PPB, T2_LOWER, N_CENTRES = 21.0, 280e-6, 6
    #: the honest electron-bath values; criterion 5's "< 0.05" is not encoded
    LIKELIHOOD_STATED, EXCEEDANCE_STATED, STATED_TOL = 0.0618, 0.629, 1e-3

    def build(self, rng):
        self.t2_out = self.cli("t2star_1.3e-5", "bath", "t2star", "--chi", "0.0013%",
                               "--n-baths", str(self.N_BATHS), "--seed", _seed(rng))
        self.like_out = self.cli("likelihood_21ppb", "bath", "likelihood", "--rho-ppb", "21",
                                 "--t2-lower", "280us", "--n-centres", "6",
                                 "--n-baths", str(self.N_BATHS), "--seed", _seed(rng))

    def checks(self):
        self.dropped = 0
        out = _t2star_checks(self, "chi1.3e-5", self.t2_out, "carbon13", 1.3e-5, self.N_BATHS)
        sigma = analytic_half_normal_scale("electron", self.RHO_PPB * 1e-9)
        p_ref = math.erfc(self.T2_LOWER / (sigma * math.sqrt(2.0)))
        l_ref = p_ref ** self.N_CENTRES
        se = math.sqrt(p_ref * (1.0 - p_ref) / self.N_BATHS)
        res = _read_json(self.like_out / "likelihood.json")
        out += [
            ("e21ppb.reference.likelihood", _dev(l_ref, self.LIKELIHOOD_STATED, self.STATED_TOL)),
            ("e21ppb.reference.exceedance", _dev(p_ref, self.EXCEEDANCE_STATED, self.STATED_TOL)),
            ("e21ppb.exceedance", _dev(res["exceedance"], p_ref, Z_TOL * se)),
            # delta method: se(p^n) = n p^(n-1) se(p)
            ("e21ppb.likelihood", _dev(res["likelihood"], l_ref, Z_TOL * self.N_CENTRES
                                       * p_ref ** (self.N_CENTRES - 1) * se)),
        ]
        return out


# ---------------------------------------------------------------------------
# comb and feedforward
# ---------------------------------------------------------------------------

class CombFeedforward(Workload):
    name = "comb_feedforward"
    tag = 3
    CPMG_N = (1, 2, 4, 8, 16, 32)
    CPMG_POINTS = 80        # tau_k = k T_ac / (32 N): a revival every 16th point
    FF_TAUS = "0.25ms:7.5ms:0.25ms"
    FF_POINTS = 30
    DRIFT_SEEDS = 3
    REVIVAL_MIN = 0.999
    J0_TOL = 1e-9
    EXACT_C_TOL = 1e-9

    def build(self, rng):
        period = Fraction(1, 50)
        self.cpmg = []
        for n in self.CPMG_N:
            step = period / (32 * n)
            out = self.cli(f"cpmg_{n}", "simulate", "cpmg", "--n", str(n), "--tau-range",
                           f"{float(step)!r}:{float(step * self.CPMG_POINTS)!r}:{float(step)!r}")
            self.cpmg.append((n, step, out))
        self.hahn_out = self.cli("hahn", "simulate", "hahn", "--tau-range", "0.05ms:2ms:0.05ms")
        self.cli("ramsey", "simulate", "ramsey", "--t-range", "0.005ms:0.5ms")
        self.cli("ramsey_envelope", "simulate", "ramsey", "--t-range", "0.005ms:0.5ms",
                 "--envelope")

        # one 50 Hz harmonic, weak enough that the echo phase stays below 7 rad
        self.single_amp_mg = float(rng.uniform(0.01, 0.03))
        cfg = self.dir / "single_harmonic.cfg"
        cfg.write_text(f"t0_s = 0.0\n[component]\nfrequency_Hz = 50\n"
                       f"amplitude_mG = {self.single_amp_mg!r}\n"
                       f"phase_rad = {float(rng.uniform(0.0, 2.0 * math.pi))!r}\n",
                       encoding="utf-8")
        self.single_hahn = self.cli("hahn_single", "simulate", "hahn", "--config", str(cfg),
                                    "--tau-range", "0.2ms:20ms:0.2ms")
        self.single_ramsey = self.cli("ramsey_single", "simulate", "ramsey", "--config", str(cfg),
                                      "--t-range", "0.2ms:20ms:0.2ms")

        self.ff_outs = []
        for i in range(self.DRIFT_SEEDS):
            out = self.cli(f"feedforward_{i}", "simulate", "feedforward", "--tau-range",
                           self.FF_TAUS, "--seed", _seed(rng))
            self.ff_outs.append(out)
        self.ff_outs.append(self.cli("feedforward_frozen", "simulate", "feedforward",
                                     "--tau-range", self.FF_TAUS, "--frozen-drift",
                                     "--seed", _seed(rng)))
        self.fit_outs = []
        for i, ff in enumerate(self.ff_outs[:self.DRIFT_SEEDS]):
            curve = self.dir / f"feedforward_{i}_decay.csv"
            self.fit_outs.append(self.cli(
                f"fit_feedforward_{i}", "fit", "decay", "--data", str(curve), "--fix-n", "4",
                before=lambda src=ff / "feedforward.csv", dst=curve: _echo_curve(src, dst)))

        exact_seed = int(_seed(rng))

        def exact_zero_drift() -> bool:
            gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(exact_seed)))
            taus = np.arange(1, self.FF_POINTS + 1) * 0.25e-3
            self.exact = feedforward.run_feedforward(
                noise.table1_model(), taus, feedforward.ShotConfig(exact=True), None, gen)
            return True

        self.lib("feedforward_exact", exact_zero_drift)

    def checks(self):
        self.dropped = 0
        out = []
        freqs = [Fraction(c.frequency) for c in noise.table1_model().components]
        for n, step, path in self.cpmg:
            rows = self.rows(path / "sweep.csv", self.CPMG_POINTS)
            for k, row in enumerate(rows, start=1):
                tau = step * k
                if n % 2 == 0 and k % 16 == 0 and not _any_pole(tau, freqs):
                    x = float(row["expectation"])
                    out.append((f"cpmg_{n}.revival_{k}",
                                max(0.0, 1.0 - x) / (1.0 - self.REVIVAL_MIN)))
        self.rows(self.hahn_out / "sweep.csv", 40)
        # single harmonic: the trigger average of cos(Phi_max sin(.)) is J0(Phi_max)
        b = self.single_amp_mg * constants.MG_TO_TESLA
        w = 2.0 * math.pi * 50.0
        gamma = constants.CONSTANTS.gamma_nv
        for label, path, amplitude in (
                ("hahn_single", self.single_hahn,
                 lambda t: 4.0 * gamma * b / w * math.sin(0.5 * w * t) ** 2),
                ("ramsey_single", self.single_ramsey,
                 lambda t: 2.0 * gamma * b / w * abs(math.sin(0.5 * w * t)))):
            rows = self.rows(path / "sweep.csv", 100)
            worst = max(abs(float(r["expectation"]) - _bessel_j0(amplitude(float(r["tau_s"]))))
                        for r in rows)
            out.append((f"{label}.j0", worst / self.J0_TOL))
        for path in self.ff_outs:
            rows = self.rows(path / "feedforward.csv", self.FF_POINTS)
            worst = max(abs(float(r["c_expectation"])) for r in rows)
            out.append((f"{path.name}.c_range", max(0.0, worst - 1.0) / 1e-12))
        for path in self.fit_outs:
            fit = _read_json(path / "fit_decay.json")
            t2 = fit["params"]["T2"]
            ok = fit["converged"] and math.isfinite(t2) and t2 > 0.0
            out.append((f"{path.name}.converged", 0.0 if ok else math.inf))
        c_min = min(o.c_expectation for o in self.exact)
        out.append(("feedforward_exact.c", max(0.0, 1.0 - c_min) / self.EXACT_C_TOL))
        return out


def _any_pole(tau: Fraction, freqs: list[Fraction]) -> bool:
    """Whether w tau is a sec pole pi/2 + m pi for any harmonic."""
    return any(((f * tau - Fraction(1, 4)) * 2).denominator == 1 for f in freqs)


def _echo_curve(feedforward_csv: Path, dst: Path) -> None:
    """Write the feedforward <C> against total echo time 2 tau as an x,y CSV."""
    rows = _read_rows(feedforward_csv)
    with open(dst, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for r in rows:
            fh.write(f"{2.0 * float(r['tau_s'])!r},{float(r['c_expectation'])!r}\n")


# ---------------------------------------------------------------------------
# spectral diffusion fits and growth
# ---------------------------------------------------------------------------

def _voigt_counts(c0: float, gamma_i: float, d_coeff: float, gamma_h: float,
                  tau: float) -> float:
    """Sinkless check-probe counts on resonance from the stated closed form:
    c0 pi hw V(0; sigma, hw) with V(0) = erfcx(hw / (sigma sqrt 2)) / (sigma sqrt(2 pi))
    and sigma^2 = v_inf (1 - exp(-2 D tau / v_inf)), v_inf = gamma_i^2 / (8 ln 2)."""
    v_inf = gamma_i ** 2 / (8.0 * math.log(2.0))
    sigma = math.sqrt(-v_inf * math.expm1(-2.0 * d_coeff * tau / v_inf))
    hw = 0.5 * gamma_h
    x = hw / (sigma * math.sqrt(2.0))
    return c0 * math.pi * hw * math.exp(x * x) * math.erfc(x) / (sigma * math.sqrt(2.0 * math.pi))


def _growth_chi_ref(f0: float, f1: float) -> float:
    """Stated mixing rule with the MFC correction f0' = 1.023 f0 + 0.036."""
    ratio = f1 / (1.023 * f0 + 0.036)
    return (13e-6 + ratio * 1.0937e-2) / (1.0 + ratio)


class SpectralFits(Workload):
    name = "spectral_fits"
    tag = 4
    RESAMPLINGS = 2
    PREDICT_POINTS = 40
    PREDICT_TAUS = "0.003:0.6"     # the fixture's first and last tau, exactly
    ARRHENIUS_REL_NOISE = 1e-3
    LEAK_Z_TOL = 8.0               # residual-scaled stderr with 6 degrees of freedom
    GAMMA_I_TOL = 2.0              # MHz, the quoted gamma_i uncertainty
    SURVIVAL_TOL = 1e-6
    SURVIVAL_TAUS = (0.003, 0.05, 0.6)
    N2_STATED, N2_STATED_REL = 4.0e-12, 0.02
    EXACT_REL = 1e-9

    def build(self, rng):
        self.truth = _read_json(FIXTURES / "diffusion_synthetic.json")
        self.decay_truth = _read_json(FIXTURES / "decay_synthetic.json")
        self.leak_truth = _read_json(FIXTURES / "arrhenius_synthetic.json")
        powers = self.truth["powers_nW"]
        self.rounds = []
        for j in range(self.RESAMPLINGS):
            data = self.dir / f"resample_{j}"
            data.mkdir(exist_ok=True)
            manifest = []
            for power in powers:
                name = f"diffusion_{power:g}nW.csv"
                rows = _read_rows(FIXTURES / name)
                err = np.array([float(r["stderr"]) for r in rows])
                fwd = np.array([float(r["counts_forward"]) for r in rows])
                bwd = np.array([float(r["counts_backward"]) for r in rows])
                fwd = fwd + rng.normal(0.0, err)
                bwd = bwd + rng.normal(0.0, err)
                with open(data / name, "w", newline="\n", encoding="utf-8") as fh:
                    fh.write("tau_d_s,counts_forward,counts_backward,stderr\n")
                    for r, f, b, e in zip(rows, fwd, bwd, err):
                        fh.write(f"{r['tau_d_s']},{float(f)!r},{float(b)!r},{float(e)!r}\n")
                manifest.append(f"{power:g} {name}")
            (data / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="utf-8")
            _resample_xy(FIXTURES / "decay_synthetic.csv", data / "decay.csv", rng,
                         lambda y, s: rng.normal(0.0, s))
            _resample_xy(FIXTURES / "arrhenius_synthetic.csv", data / "arrhenius.csv", rng,
                         lambda y, s: y * rng.normal(0.0, self.ARRHENIUS_REL_NOISE, y.size))
            rnd = {"f0": float(rng.uniform(0.05, 5.0)), "f1": float(rng.uniform(0.0, 5.0)),
                   "ch4": float(rng.uniform(0.05, 1.0))}
            rnd["joint"] = self.cli(f"fit_diffusion_{j}", "fit", "diffusion", "--manifest",
                                    str(data / "manifest.txt"), "--gamma-h", "22MHz")
            rnd["ionization"] = []
            for power, d, c0, s in zip(powers, self.truth["D_MHz2_per_s"], self.truth["C0"],
                                       self.truth["S_per_s"]):
                out = self.cli(f"fit_ionization_{j}_{power:g}nW", "fit", "ionization",
                               "--data", str(data / f"diffusion_{power:g}nW.csv"),
                               "--power", f"{power:g}nW",
                               "--gamma-i", repr(self.truth["gamma_i_MHz"]),
                               "--d-coeff", repr(d), "--c0", repr(c0))
                rnd["ionization"].append((power, s, out))
            rnd["decay"] = self.cli(f"fit_decay_{j}", "fit", "decay", "--data",
                                    str(data / "decay.csv"))
            rnd["leak"] = self.cli(f"growth_leak_{j}", "growth", "leak", "--data",
                                   str(data / "arrhenius.csv"))
            rnd["chi"] = self.cli(f"growth_chi_{j}", "growth", "chi", "--f0", repr(rnd["f0"]),
                                  "--f1", repr(rnd["f1"]))
            rnd["nitrogen"] = self.cli(f"growth_nitrogen_{j}", "growth", "nitrogen",
                                       "--ch4-sccm", repr(rnd["ch4"]))
            self.rounds.append(rnd)

        # 500 nW generating values: one full inversion per tau with the sink
        i500 = powers.index(500.0)
        self.sink_args = (self.truth["D_MHz2_per_s"][i500], self.truth["C0"][i500],
                          self.truth["S_per_s"][i500])
        d, c0, s = self.sink_args
        self.predict_sink = self.cli(
            "predict_sink", "diffusion", "predict", "--gamma-i", repr(self.truth["gamma_i_MHz"]),
            "--d-coeff", repr(d), "--c0", repr(c0), "--sink-s", repr(s),
            "--tau-range", self.PREDICT_TAUS, "--points", str(self.PREDICT_POINTS))
        self.nosink_args = (self.truth["D_MHz2_per_s"][0], self.truth["C0"][0])
        self.predict_nosink = self.cli(
            "predict_nosink", "diffusion", "predict", "--gamma-i",
            repr(self.truth["gamma_i_MHz"]), "--d-coeff", repr(self.nosink_args[0]),
            "--c0", repr(self.nosink_args[1]), "--tau-range", self.PREDICT_TAUS,
            "--points", str(self.PREDICT_POINTS))

        def survival() -> bool:
            model = diffusion.OuDiffusionModel(d_coeff=d, gamma_i=self.truth["gamma_i_MHz"])
            solver = diffusion.SinkSolver(model, diffusion.IonizationSink(strength_s=0.0))
            self.survival = [solver.survival(t, 0.0) for t in self.SURVIVAL_TAUS]
            return True

        self.lib("survival_self_check", survival)

    def checks(self):
        self.dropped = 0
        t = self.truth
        out = []
        for j, rnd in enumerate(self.rounds):
            joint = _read_json(rnd["joint"] / "fit_diffusion.json")
            out.append((f"joint_{j}.gamma_i", _dev(joint["gamma_i_MHz"], t["gamma_i_MHz"],
                                                   self.GAMMA_I_TOL)))
            for power, d, c0 in zip(t["powers_nW"], t["D_MHz2_per_s"], t["C0"]):
                pp = joint["per_power"][f"{power:g}nW"]
                tol = FIT_Z_TOL * RESAMPLED
                out.append((f"joint_{j}.D_{power:g}nW",
                            _dev(pp["D_MHz2_per_s"], d, tol * pp["D_stderr"])))
                out.append((f"joint_{j}.C0_{power:g}nW", _dev(pp["C0"], c0, tol * pp["C0_stderr"])))
            for power, s, path in rnd["ionization"]:
                fit = _read_json(path / "fit_ionization.json")
                out.append((f"ionization_{j}.S_{power:g}nW",
                            _dev(fit["params"]["S"], s,
                                 FIT_Z_TOL * RESAMPLED * fit["stderr"]["S"])))
            fit = _read_json(rnd["decay"] / "fit_decay.json")
            for name, key in (("A", "A"), ("T2", "T2_s"), ("n", "n")):
                out.append((f"decay_{j}.{name}", _dev(fit["params"][name], self.decay_truth[key],
                                                      FIT_Z_TOL * RESAMPLED * fit["stderr"][name])))
            leak = _read_json(rnd["leak"] / "growth_leak.json")
            for name, key in (("q_leak", "q_leak_Pa_m3_s"), ("q0", "q0_Pa_m3_s"),
                              ("e_a", "e_a_J")):
                out.append((f"leak_{j}.{name}", _dev(leak[key], self.leak_truth[name],
                                                     self.LEAK_Z_TOL * leak["stderr"][name])))
            chi = _read_json(rnd["chi"] / "growth_chi.json")
            chi_ref = _growth_chi_ref(rnd["f0"], rnd["f1"])
            out.append((f"chi_{j}.chi", _dev(chi["chi"], chi_ref, self.EXACT_REL * chi_ref)))
            ratio_ref = chi_ref / (1.0 - chi_ref)
            out.append((f"chi_{j}.ratio", _dev(chi["ratio_13c_12c"], ratio_ref,
                                               self.EXACT_REL * ratio_ref)))
            out += self._nitrogen_checks(j, rnd)
        out += self._predict_checks()
        out += [(f"survival_{tau!r}", abs(1.0 - s) / self.SURVIVAL_TOL)
                for tau, s in zip(self.SURVIVAL_TAUS, self.survival)]
        return out

    def _nitrogen_checks(self, j: int, rnd: dict) -> list[tuple[str, float]]:
        res = _read_json(rnd["nitrogen"] / "growth_nitrogen.json")
        p_atm, p_in = 101325.0, 120.0 * 101325.0 / 760.0
        n2 = 0.78 * 1.5e-8 * (p_atm - p_in) / p_atm / (constants.R_GAS * 298.0)
        per_eta = n2 * 1.345e6 / rnd["ch4"] * 1e9
        return [
            (f"nitrogen_{j}.n2", _dev(res["n2_mol_per_s"], n2, self.EXACT_REL * n2)),
            (f"nitrogen_{j}.n2_stated", _dev(res["n2_mol_per_s"], self.N2_STATED,
                                             self.N2_STATED_REL * self.N2_STATED)),
            (f"nitrogen_{j}.lower_ppb", _dev(res["nitrogen_ppb_lower"], 0.55e-4 * per_eta,
                                             self.EXACT_REL * 0.55e-4 * per_eta)),
            (f"nitrogen_{j}.upper_ppb", _dev(res["nitrogen_ppb_upper"], 8.9e-4 * per_eta,
                                             self.EXACT_REL * 8.9e-4 * per_eta)),
        ]

    def _predict_checks(self) -> list[tuple[str, float]]:
        t = self.truth
        out = []
        d, c0, s = self.sink_args
        rows = self.rows(self.predict_sink / "diffusion_predict.csv", self.PREDICT_POINTS)
        fixture = _read_rows(FIXTURES / "diffusion_500nW.csv")
        by_tau = {float(r["tau_d_s"]): r for r in fixture}
        rescale = t["forward_rescale"]
        for r in rows:
            tau = float(r["tau_d_s"])
            bwd, fwd = float(r["counts_backward"]), float(r["counts_forward"])
            ref = _voigt_counts(c0, t["gamma_i_MHz"], d, t["gamma_h_MHz"], tau)
            out.append((f"predict_sink.backward_{tau!r}", _dev(bwd, ref, self.EXACT_REL * ref)))
            out.append((f"predict_sink.sink_removes_{tau!r}",
                        max(0.0, fwd - rescale * bwd) / (self.EXACT_REL * bwd)))
            if tau in by_tau:  # the committed noisy data at the fixture's end points
                noise_sd = float(by_tau[tau]["stderr"])
                out.append((f"predict_sink.fixture_{tau!r}",
                            _dev(fwd, float(by_tau[tau]["counts_forward"]),
                                 FIT_Z_TOL * noise_sd)))
        d0, c00 = self.nosink_args
        rows = self.rows(self.predict_nosink / "diffusion_predict.csv", self.PREDICT_POINTS)
        for r in rows:
            tau = float(r["tau_d_s"])
            bwd, fwd = float(r["counts_backward"]), float(r["counts_forward"])
            ref = _voigt_counts(c00, t["gamma_i_MHz"], d0, t["gamma_h_MHz"], tau)
            out.append((f"predict_nosink.backward_{tau!r}", _dev(bwd, ref, self.EXACT_REL * ref)))
            out.append((f"predict_nosink.forward_{tau!r}",
                        _dev(fwd, rescale * bwd, self.EXACT_REL * bwd)))
        return out


def _resample_xy(src: Path, dst: Path, rng: np.random.Generator, noise_of) -> None:
    """Copy an x,y[,sigma] CSV with y + noise_of(y, sigma) (header kept)."""
    with open(src, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    sigma = body[:, 2] if body.shape[1] > 2 else None
    body[:, 1] = body[:, 1] + noise_of(body[:, 1], sigma)
    with open(dst, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in body:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


WORKLOADS = {w.name: w for w in (BathDense, BathDilute, CombFeedforward, SpectralFits)}
