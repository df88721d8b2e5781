#!/usr/bin/env python3
"""End-to-end spectral-diffusion analysis on the bundled multi-power fixture.

Joint backward fit (shared inhomogeneous linewidth), per-power
ionization-rate fits on the forward counts, and the tau_c power-law scaling.
"""

import argparse
import json
from pathlib import Path

from decolab.diffusion import (FORWARD_RESCALE, GAMMA_H, HomogeneousLine,
                               OuDiffusionModel, PowerDataset, fit_ionization_rate,
                               joint_fit_backward, read_diffusion_csv, read_manifest, tau_c)
from decolab.fitting import fit_power_scaling

DEFAULT_MANIFEST = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / \
    "diffusion_manifest.txt"


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifest", default=str(DEFAULT_MANIFEST))
    ap.add_argument("--gamma-h", type=float, default=GAMMA_H)
    ap.add_argument("--forward-rescale", type=float, default=FORWARD_RESCALE)
    ap.add_argument("--out", default="out-diffusion")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    entries = read_manifest(args.manifest)
    backwards, forwards = [], []
    for power, path in entries:
        fwd, bwd = read_diffusion_csv(path)
        backwards.append(PowerDataset(power, bwd))
        forwards.append(fwd)

    joint = joint_fit_backward(backwards, gamma_h_fixed=args.gamma_h)
    gamma_i = joint.params["gamma_i"]
    print(f"shared gamma_i = {gamma_i:.1f} +- {joint.stderr['gamma_i']:.1f} MHz "
          f"(reduced chi2 = {joint.reduced_chi2:.2f})")

    payload = {"gamma_i_MHz": gamma_i, "gamma_h_MHz_fixed": args.gamma_h,
               "reduced_chi2": joint.reduced_chi2, "per_power": {}}
    powers, taucs = [], []
    for ds_b, fwd in zip(backwards, forwards):
        tag = ds_b.tag
        d = joint.params[f"D_{tag}"]
        c0 = joint.params[f"C0_{tag}"]
        model = OuDiffusionModel(d, gamma_i)
        line = HomogeneousLine(c0, args.gamma_h)
        ion = fit_ionization_rate(fwd, model, line, forward_rescale=args.forward_rescale)
        tc = tau_c(d, args.gamma_h)
        payload["per_power"][tag] = {"D_MHz2_per_s": d, "C0": c0,
                                     "S_per_s": ion.params["S"],
                                     "S_stderr": ion.stderr["S"],
                                     "tau_c_s": tc}
        powers.append(ds_b.power_nw)
        taucs.append(tc)
        print(f"  {tag}: D = {d:.3e} MHz^2/s, C0 = {c0:.2f}, "
              f"S = {ion.params['S']:.0f} +- {ion.stderr['S']:.0f} /s, "
              f"tau_c = {tc * 1e3:.2f} ms")

    if len(powers) >= 3:
        scaling = fit_power_scaling(powers, taucs)
        payload["tau_c_power_exponent"] = scaling.params["eta"]
        print(f"tau_c scales as P^{scaling.params['eta']:.2f}")
    (out / "diffusion_fit.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(out / "diffusion_fit.json")


if __name__ == "__main__":
    main()
