#!/usr/bin/env python3
"""Hahn-echo decay with and without the feedforward phase correction.

Runs ``decolab simulate hahn`` (the unsynchronized echo) and ``decolab
simulate feedforward`` (the 50-shot X/Y/C protocol under slow amplitude
drift), fits both with ``decolab fit decay`` and prints the 1/e times (total
evolution time 2 tau).  A command that fails, a fit that did not converge
(exit 4) included, ends the study with its exit code.
"""

import argparse
import json
import sys
from pathlib import Path

from decolab.cli import main as decolab
from decolab.files import csv_rows
from decolab.plotsvg import SvgPlot


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out-feedforward")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    out = Path(args.out)

    plot = SvgPlot(title="Hahn echo: unsynchronized vs feedforward",
                   xlabel="total evolution time (s)", ylabel="echo signal")
    fits = []
    # directory, simulate command, CSV, its (x, y) columns, x to 2 tau, plot label
    for name, simulate, csv_name, xy, x_factor, label in (
            ("unsynchronized", ["hahn", "--tau-range", "5e-05:0.00195:5e-05"], "sweep.csv",
             ("t_total_s", "expectation"), 1.0, "unsynchronized"),
            ("feedforward", ["feedforward", "--tau-range", "0.00025:0.0075:0.00025",
                             "--seed", str(args.seed)], "feedforward.csv",
             ("tau_s", "c_expectation"), 2.0, "feedforward <C>")):
        data = out / name / csv_name
        for argv in (["simulate", *simulate, "--out", str(data.parent)],
                     ["fit", "decay", "--data", str(data), "--out", str(out / f"{name}_fit")]):
            if (code := decolab(argv)) != 0:
                sys.exit(code)
        fits.append(json.loads((out / f"{name}_fit" / "fit_decay.json").read_text("utf-8")))
        header, *rows = (cells for _, cells in csv_rows(data))
        x, y = ([float(row[header.index(col)]) for row in rows] for col in xy)
        plot.add_line([x_factor * v for v in x], y, label, "points")
    plot.write(out / "feedforward.svg")

    fit_u, fit_c = (fit["params"] for fit in fits)
    print(f"unsynchronized 1/e: {fit_u['T2'] * 1e3:.3f} ms")
    print(f"feedforward     1/e: {fit_c['T2'] * 1e3:.2f} ms (n = {fit_c['n']:.2f})")


if __name__ == "__main__":
    main()
