#!/usr/bin/env python3
"""CPMG collapse-and-revival curves under the bundled 50 Hz comb.

Runs ``decolab simulate cpmg`` for N in {4, 8, 16, 32}, each into its own
directory ``cpmg_<N>``, on a grid of whole-microsecond delays tau from 20 us
up to a total decoupling time 2 N tau of 180 ms, marks the delays where
every comb harmonic is refocused (``is_revival``), and writes one CSV plus
an overview SVG.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from decolab.cli import main as decolab
from decolab.files import csv_rows, write_csv
from decolab.noise import table1_model
from decolab.plotsvg import SvgPlot
from decolab.sequences import is_revival

#: longest total decoupling time (us); N = 8 has no all-harmonic revival
#: before 160 ms
T_TOTAL_MAX_US = 180_000
#: whole-microsecond tau step per N from tau = 20 us, each chosen so that
#: the grid holds at least one all-harmonic revival (20 ms, 10 ms, 3.125 ms
#: and 0.625 ms) in about 250 points (562 for N = 8)
TAU_STEP_US = {4: 90, 8: 20, 16: 23, 32: 11}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out-cpmg-revivals")
    args = ap.parse_args()
    out = Path(args.out)

    freqs = [c.frequency for c in table1_model().components]
    plot = SvgPlot(title="CPMG revivals under the 50 Hz comb",
                   xlabel="total decoupling time (s)", ylabel="<X> (offset per N)")
    rows = []
    for k, (n, step) in enumerate(TAU_STEP_US.items()):
        run = out / f"cpmg_{n}"
        tau_range = f"20us:{T_TOTAL_MAX_US / (2 * n)!r}us:{step}us"
        if code := decolab(["simulate", "cpmg", "--n", str(n), "--tau-range", tau_range,
                            "--out", str(run)]):
            sys.exit(code)
        # the sweep's columns after sequence_kind: n_pulses, tau_s, t_total_s, expectation
        taus, t_totals, vals = np.array([[float(v) for v in cells[2:]]
                                         for _, cells in csv_rows(run / "sweep.csv")[1:]]).T
        for tau, t_total, val in zip(taus, t_totals, vals):
            revival = all(is_revival(t_total, tau, f) for f in freqs)
            rows.append((n, tau, t_total, val, int(revival)))
        plot.add_line(t_totals, vals + 1.5 * k, f"N={n}")
    write_csv(out / "cpmg_revivals.csv",
              ["n_pulses", "tau_s", "t_total_s", "expectation", "is_revival_all"],
              list(zip(*rows)))
    plot.write(out / "cpmg_revivals.svg")
    print(out / "cpmg_revivals.csv")


if __name__ == "__main__":
    main()
