#!/usr/bin/env python3
"""Regenerate the bundled synthetic fixtures (default: tests/fixtures).

Each fixture is produced by the package's own forward models with a fixed
seed; the generating parameters are stored alongside as JSON metadata so
tests and CLI examples can assert recovery.

    python scripts/make_fixtures.py [--out DIR]
"""

import argparse
from pathlib import Path

import numpy as np

from decolab.diffusion import (HomogeneousLine, IonizationSink, OuDiffusionModel,
                               SinkSolver, SolverSettings, counts_no_ionization,
                               write_diffusion_csv)
from decolab.files import write_json, write_text
from decolab.fitting import DecayCurve, stretched_exp, write_decay_csv
from decolab.growth import CHAMBER_VOLUME_M3, LeakModel

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=FIXTURES,
                    help="output directory (default: tests/fixtures)")
    out = ap.parse_args().out
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(424242)))

    # stretched-exponential decay, headline coherence values
    meta = {"A": 1.0, "T2_s": 11.2, "n": 1.7, "sigma": 1e-4, "seed": 424242}
    x = np.linspace(0.4, 30.0, 24)
    y = stretched_exp(x, (meta["A"], meta["T2_s"], meta["n"]))
    y = y + rng.normal(0.0, meta["sigma"], x.size)
    write_decay_csv(out / "decay_synthetic.csv",
                    DecayCurve(x, y, np.full(x.size, meta["sigma"])))
    write_json(out / "decay_synthetic.json", meta)

    # power-law coherence scaling
    meta = {"T0_s": 16e-3, "eta": 0.67}
    n = np.array([4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 24000.0])
    t2 = meta["T0_s"] * n ** meta["eta"]
    write_decay_csv(out / "scaling_synthetic.csv", DecayCurve(n, t2),
                    header=("n_pulses", "t2_s"))
    write_json(out / "scaling_synthetic.json", meta)

    # multi-power spectral-diffusion set with ionization in the forward counts
    meta = {"gamma_i_MHz": 117.0, "gamma_h_MHz": 22.0, "forward_rescale": 0.96,
            "powers_nW": [250.0, 500.0, 1000.0],
            "D_MHz2_per_s": [8.0e3, 1.6e4, 3.2e4],
            "C0": [40.0, 38.0, 36.0],
            "S_per_s": [60.0, 150.0, 400.0],
            "noise_counts": 0.02}
    settings = SolverSettings(n_eigen=1200, grid_points=601)
    taus = np.geomspace(3e-3, 0.6, 12)
    lines = []
    for power, d, c0, s in zip(meta["powers_nW"], meta["D_MHz2_per_s"], meta["C0"],
                               meta["S_per_s"]):
        model = OuDiffusionModel(d, meta["gamma_i_MHz"])
        line = HomogeneousLine(c0, meta["gamma_h_MHz"])
        solver = SinkSolver(model, IonizationSink(strength_s=s), settings)
        backward = counts_no_ionization(model, line, taus)
        forward = meta["forward_rescale"] * np.array([solver.counts(line, t) for t in taus])
        err = np.full(taus.size, meta["noise_counts"])
        backward = backward + rng.normal(0.0, meta["noise_counts"], taus.size)
        forward = forward + rng.normal(0.0, meta["noise_counts"], taus.size)
        name = f"diffusion_{power:g}nW.csv"
        write_diffusion_csv(out / name, taus, forward, backward, err)
        lines.append(f"{power:g} {name}")
    write_text(out / "diffusion_manifest.txt", "# power_nW file\n" + "\n".join(lines) + "\n")
    write_json(out / "diffusion_synthetic.json", meta)

    # leak-rate Arrhenius points
    meta = {"q_leak": 1.5e-8, "q0": 1.885e-5, "e_a": 4.01e-20, "volume": CHAMBER_VOLUME_M3}
    leak = LeakModel(**meta)
    temps = np.linspace(295.0, 588.0, 9)
    dpdt = leak.throughput(temps) / leak.volume
    write_decay_csv(out / "arrhenius_synthetic.csv", DecayCurve(temps, dpdt),
                    header=("temperature_K", "dpdt_Pa_per_s"))
    write_json(out / "arrhenius_synthetic.json", meta)

    print(f"fixtures written to {out}")


if __name__ == "__main__":
    main()
