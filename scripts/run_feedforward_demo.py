#!/usr/bin/env python3
"""Hahn-echo decay with and without the feedforward phase correction.

Simulates the unsynchronized echo and the 50-shot X/Y/C protocol under slow
amplitude drift, fits both to stretched exponentials and prints the 1/e
times (total evolution time 2 tau).
"""

import argparse
from pathlib import Path

import numpy as np

from decolab.feedforward import ShotConfig, run_feedforward
from decolab.fitting import DecayCurve, fit_stretched_exp, write_decay_csv
from decolab.noise import AmplitudeScaleProcess, table1_model
from decolab.plotsvg import SvgPlot
from decolab.sequences import PulseSequence, expectation_unsynchronized


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out-feedforward")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--shots", type=int, default=ShotConfig.n_shots)
    ap.add_argument("--drift-sigma", type=float, default=AmplitudeScaleProcess.sigma)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    model = table1_model()
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(args.seed)))

    taus_u = np.arange(0.05e-3, 2.0e-3, 0.05e-3)
    unsync = expectation_unsynchronized(model, PulseSequence.hahn(taus_u))
    fit_u = fit_stretched_exp(DecayCurve(2 * taus_u, unsync))

    taus_c = np.arange(0.25e-3, 7.75e-3, 0.25e-3)
    drift = AmplitudeScaleProcess(sigma=args.drift_sigma)
    outcomes = run_feedforward(model, taus_c, ShotConfig(n_shots=args.shots), drift, rng)
    corrected = np.array([o.c_expectation for o in outcomes])
    fit_c = fit_stretched_exp(DecayCurve(2 * taus_c, corrected))

    write_decay_csv(out / "echo_unsynchronized.csv", DecayCurve(2 * taus_u, unsync),
                    header=("t_total_s", "expectation"))
    write_decay_csv(out / "echo_feedforward.csv", DecayCurve(2 * taus_c, corrected),
                    header=("t_total_s", "expectation"))

    plot = SvgPlot(title="Hahn echo: unsynchronized vs feedforward",
                   xlabel="total evolution time (s)", ylabel="echo signal")
    plot.add_line(2 * taus_u, unsync, "unsynchronized", "points")
    plot.add_line(2 * taus_c, corrected, "feedforward <C>", "points")
    plot.write(out / "feedforward.svg")

    print(f"unsynchronized 1/e: {fit_u.params['T2'] * 1e3:.3f} ms")
    print(f"feedforward     1/e: {fit_c.params['T2'] * 1e3:.2f} ms "
          f"(n = {fit_c.params['n']:.2f})")


if __name__ == "__main__":
    main()
