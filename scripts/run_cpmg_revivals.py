#!/usr/bin/env python3
"""CPMG collapse-and-revival curves under the bundled 50 Hz comb.

Sweeps tau for N in {4, 8, 16, 32}, marks the decoupling times where every
comb harmonic is refocused, and writes one CSV plus an overview SVG.
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from decolab.noise import table1_model
from decolab.plotsvg import SvgPlot
from decolab.sequences import N_T0, PulseSequence, expectation_unsynchronized, is_revival


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out-cpmg-revivals")
    ap.add_argument("--n-t0", type=int, default=N_T0)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    model = table1_model()
    freqs = [c.frequency for c in model.components]
    plot = SvgPlot(title="CPMG revivals under the 50 Hz comb",
                   xlabel="total decoupling time (s)", ylabel="<X> (offset per N)")
    with open(out / "cpmg_revivals.csv", "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n_pulses", "tau_s", "t_total_s", "expectation", "is_revival_all"])
        for row, n in enumerate((4, 8, 16, 32)):
            taus = np.linspace(20e-6, 90e-3 / (2 * n), 220)
            seq = PulseSequence.cpmg(n, taus)
            vals = expectation_unsynchronized(model, seq, args.n_t0)
            for tau, t_total, val in zip(taus, seq.total_time, vals):
                tau_us = round(tau * 1e6)
                quantized = abs(tau * 1e6 - tau_us) < 1e-9
                revival = quantized and all(is_revival(t_total, tau, f) for f in freqs)
                writer.writerow([n, repr(float(tau)), repr(float(t_total)),
                                 repr(float(val)), int(revival)])
            plot.add_line(seq.total_time, vals + 1.5 * row, f"N={n}")
    plot.write(out / "cpmg_revivals.svg")
    print(out / "cpmg_revivals.csv")


if __name__ == "__main__":
    main()
