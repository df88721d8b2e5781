#!/usr/bin/env python3
"""End-to-end spectral-diffusion analysis on the bundled multi-power fixture.

Runs ``decolab fit diffusion`` (joint backward fit, shared inhomogeneous
linewidth), ``decolab fit ionization`` on each power's forward counts and
``decolab fit scaling`` of tau_c against power, each into its own directory.
A command that fails, a fit that did not converge (exit 4) included, ends
the study with its exit code.
"""

import argparse
import json
import math
import sys
from pathlib import Path

from decolab.cli import main as decolab
from decolab.diffusion import read_manifest, tau_c
from decolab.files import write_csv, write_json

DEFAULT_MANIFEST = Path(__file__).resolve().parents[1] / "tests/fixtures/diffusion_manifest.txt"


def run(argv: list[str], out: Path, name: str) -> dict:
    """The JSON output ``name`` of a decolab command line run into ``out``; an
    exit code other than 0 ends the study."""
    if (code := decolab([*argv, "--out", str(out)])) != 0:
        sys.exit(code)
    return json.loads((out / name).read_text(encoding="utf-8"))


def plus_minus(value: float, err: float | None) -> str:
    """value +- err, err to two significant digits and value to the same place."""
    if not err:  # zero, or null: unknown
        return f"{value:g} +- {json.dumps(err)}"
    place = 1 - math.floor(math.log10(float(f"{err:.2g}")))  # the place of err's 2nd digit
    return f"{round(value, place):.{max(place, 0)}f} +- {round(err, place):.{max(place, 0)}f}"


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifest", default=str(DEFAULT_MANIFEST))
    ap.add_argument("--out", default="out-diffusion")
    args = ap.parse_args()
    out = Path(args.out)

    joint = run(["fit", "diffusion", "--manifest", args.manifest], out / "joint",
                "fit_diffusion.json")
    gamma_i, gamma_h = joint["gamma_i_MHz"], joint["gamma_h_MHz_fixed"]
    print(f"shared gamma_i = {plus_minus(gamma_i, joint['stderr']['gamma_i'])} MHz "
          f"(reduced chi2 = {joint['reduced_chi2']:.2f})")

    payload = {"gamma_i_MHz": gamma_i, "gamma_h_MHz_fixed": gamma_h,
               "reduced_chi2": joint["reduced_chi2"], "per_power": {}}
    rows = []  # (power_nW, tau_c_s)
    # the joint fit keeps the manifest's order; repr round-trips its numbers
    for (power, path), (tag, fit) in zip(read_manifest(args.manifest),
                                         joint["per_power"].items()):
        d, c0 = fit["D_MHz2_per_s"], fit["C0"]
        ion = run(["fit", "ionization", "--data", str(path), "--gamma-i", repr(gamma_i),
                   "--d-coeff", repr(d), "--c0", repr(c0), "--gamma-h", repr(gamma_h),
                   "--power", repr(power)], out / f"ionization_{tag}", "fit_ionization.json")
        tc = tau_c(d, gamma_h)
        payload["per_power"][tag] = {"D_MHz2_per_s": d, "C0": c0, "S_per_s": ion["S_per_s"],
                                     "S_stderr": ion["stderr"]["S"], "tau_c_s": tc}
        rows.append((power, tc))
        print(f"  {tag}: D = {d:.3e} MHz^2/s, C0 = {c0:.2f}, "
              f"S = {plus_minus(ion['S_per_s'], ion['stderr']['S'])} /s, "
              f"tau_c = {tc * 1e3:.2f} ms")

    if len(rows) >= 3:
        write_csv(out / "tau_c.csv", ["power_nW", "tau_c_s"], list(zip(*rows)))
        eta = run(["fit", "scaling", "--data", str(out / "tau_c.csv")], out / "scaling",
                  "fit_scaling.json")["params"]["eta"]
        payload["tau_c_power_exponent"] = eta
        print(f"tau_c scales as P^{eta:.2f}")
    write_json(out / "diffusion_fit.json", payload)
    print(out / "diffusion_fit.json")


if __name__ == "__main__":
    main()
