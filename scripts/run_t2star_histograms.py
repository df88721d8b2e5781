#!/usr/bin/env python3
"""T2* distributions over random nuclear-spin baths at three concentrations.

Runs ``decolab bath t2star`` once per concentration, the k-th at seed
``--seed`` + k, each into its own directory (sample CSV, summary JSON and a
histogram with the half-normal overlay), and writes a summary of the fitted
scale against the T0 / chi law.
"""

import argparse
import json
import sys
from pathlib import Path

from decolab.cli import main as decolab


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out-t2star")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--n-baths", type=int, default=20000,
                    help="baths at the lowest concentration; higher ones scale down")
    args = ap.parse_args()
    out = Path(args.out)

    summary = {}
    for k, (chi, frac) in enumerate(((4.42e-4, 1.0), (1.949e-3, 0.25), (1.0937e-2, 0.05))):
        n_baths = max(500, int(args.n_baths * frac))
        tag = f"{chi:.6f}"
        run = out / f"t2star_chi_{tag}"
        code = decolab(["bath", "t2star", "--chi", repr(chi), "--n-baths", str(n_baths),
                        "--seed", str(args.seed + k), "--out", str(run)])
        if code:
            sys.exit(code)
        summary_json = (run / "t2star_summary.json").read_text(encoding="utf-8")
        scale_us = json.loads(summary_json)["scale_us"]
        summary[tag] = {"n_baths": n_baths, "scale_us": scale_us,
                        "scale_times_chi_us": scale_us * chi}
        print(f"chi={100 * chi:.4f}%  scale={scale_us:9.2f} us  "
              f"scale*chi={scale_us * chi:.5f} us")
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")


if __name__ == "__main__":
    main()
