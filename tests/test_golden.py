"""The README commands reproduce the outputs committed under tests/golden/.

tests/golden/ holds the files that the README's "Command line" commands
write (run1 ... run14, each command's run_manifest.json left out: it names
its output directory), and env.json, the numpy, Python, machine and OpenBLAS
kernel they were written with.  A `--data` under an earlier command's
output directory (run14 fits run3's feedforward.csv) reads that command's
output.  In that environment every file must match byte for byte: a matrix
product's last bits depend on the kernel's blocking.  The numbers are
compared in every environment, the CSV and JSON files number by number, at a
relative tolerance of GOLDEN_RTOL: a CSV column relative to its largest
value, and a fit's stderr and covariance (in units of its parameters) and
reduced chi^2 with an absolute floor of GOLDEN_ATOL, since for the fits to
noise-free data (run11, run13) they are roundoff.  The SVGs are skipped:
their coordinates are printed to one decimal, so a change in the last bit of
a number can move a digit.  How far two numpy builds differ has not been
measured.

A change that means to change outputs rewrites the record with

    PYTHONPATH=src python tests/test_golden.py

and the golden diff is then its list of changed bytes.
"""

import ctypes
import json
import math
import os
import platform
import shlex
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from decolab.cli import main

ROOT = Path(__file__).parents[1]
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RTOL, GOLDEN_ATOL = 1e-6, 1e-12
#: fit keys that are roundoff for a fit to noise-free data (run11, run13)
ROUNDOFF_KEYS = ("stderr", "covariance", "reduced_chi2")


def blas_core() -> str | None:
    """The OpenBLAS kernel (say SkylakeX) of numpy's scipy-openblas library,
    or None where numpy's BLAS is another."""
    for lib in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def environment() -> dict[str, str | None]:
    return {"numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine(), "system": platform.system(),
            "blas_core": blas_core()}


def _readme_commands() -> list[list[str]]:
    """The arguments of each ``decolab`` line in the README's "Command line" block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(cmd)[1:] for cmd in block.replace("\\\n", " ").splitlines()
            if cmd.startswith("decolab ")]


def write_outputs(out: Path) -> None:
    """Run the README commands with their outputs under ``out``, from the
    repository root (the README's data paths are relative to it, except a
    ``--data`` under an earlier command's ``--out``)."""
    cwd = Path.cwd()
    runs = set()
    try:
        os.chdir(ROOT)
        for argv in _readme_commands():
            if "--data" in argv and Path(argv[argv.index("--data") + 1]).parts[0] in runs:
                j = argv.index("--data") + 1
                argv[j] = str(out / argv[j])
            i = argv.index("--out")
            runs.add(argv[i + 1])
            argv[i + 1] = str(out / argv[i + 1])
            assert main(argv) == 0, argv
    finally:
        os.chdir(cwd)
    for manifest in out.rglob("run_manifest.json"):
        manifest.unlink()


def _files(root: Path) -> list[str]:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*")
                  if p.is_file() and p.name != "env.json")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("golden")
    write_outputs(out)
    return out


@pytest.fixture(scope="module")
def same_environment() -> bool:
    return json.loads((GOLDEN / "env.json").read_text(encoding="utf-8")) == environment()


def _close(got, want, atol: float = 0.0) -> bool:
    """JSON values equal, numbers to GOLDEN_RTOL; under ROUNDOFF_KEYS with the
    absolute floor GOLDEN_ATOL."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_close(got[k], want[k], GOLDEN_ATOL if k in ROUNDOFF_KEYS else atol)
                        for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w, atol) for g, w in zip(got, want)))
    if isinstance(want, float) or isinstance(got, float):
        return (isinstance(got, (int, float)) and isinstance(want, (int, float))
                and math.isclose(got, want, rel_tol=GOLDEN_RTOL, abs_tol=atol))
    return got == want


def _in_parameter_units(payload: dict) -> dict:
    """A fit's stderr and covariance divided by its parameters (by 1 where a
    parameter is zero or null), so that GOLDEN_ATOL is relative to them."""
    if not isinstance(payload.get("params"), dict):
        return payload
    scale = [abs(v) if v else 1.0 for v in payload["params"].values()]
    names = list(payload["params"])
    return {**payload,
            "stderr": {k: s if s is None else s / scale[names.index(k)]
                       for k, s in payload["stderr"].items()},
            "covariance": [[c if c is None else c / (scale[i] * scale[j])
                            for j, c in enumerate(row)]
                           for i, row in enumerate(payload["covariance"])]}


def _same_numbers(got: Path, want: Path) -> bool:
    """JSON: see _close.  CSV: the stamp and header lines equal, then each
    column equal if it holds text, else to GOLDEN_RTOL of its largest value."""
    if want.suffix == ".json":
        return _close(*(_in_parameter_units(json.loads(p.read_text(encoding="utf-8")))
                        for p in (got, want)))
    lines = [p.read_text(encoding="utf-8").splitlines() for p in (got, want)]
    if lines[0][:2] != lines[1][:2] or len(lines[0]) != len(lines[1]):
        return False
    columns = [list(zip(*(line.split(",") for line in text[2:]))) for text in lines]
    if len(columns[0]) != len(columns[1]):
        return False
    for g, w in zip(*columns):
        try:
            g, w = np.array(g, dtype=float), np.array(w, dtype=float)
        except ValueError:
            if g != w:
                return False
            continue
        if not np.allclose(g, w, rtol=GOLDEN_RTOL, equal_nan=True,
                           atol=GOLDEN_RTOL * np.max(np.abs(w), initial=0.0)):
            return False
    return True


def test_golden_record_lists_every_output(outputs):
    assert _files(outputs) == _files(GOLDEN)


def test_golden_data_files(outputs, same_environment):
    # the numbers are compared everywhere, so the comparison used elsewhere is tried here too
    names = [n for n in _files(GOLDEN) if not n.endswith(".svg")]
    changed = [n for n in names if not _same_numbers(outputs / n, GOLDEN / n)
               or same_environment and (outputs / n).read_bytes() != (GOLDEN / n).read_bytes()]
    assert not changed, f"outputs differ from tests/golden: {changed}"


def test_golden_svg_files(outputs, same_environment):
    if not same_environment:
        pytest.skip("SVG coordinates are printed to one decimal, so their bytes are only "
                    "compared in the environment of tests/golden/env.json")
    names = [n for n in _files(GOLDEN) if n.endswith(".svg")]
    changed = [n for n in names if (outputs / n).read_bytes() != (GOLDEN / n).read_bytes()]
    assert not changed, f"outputs differ from tests/golden: {changed}"


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    write_outputs(GOLDEN)
    (GOLDEN / "env.json").write_text(json.dumps(environment(), indent=2) + "\n",
                                     encoding="utf-8")
    print(f"{len(_files(GOLDEN))} files written to {GOLDEN}", file=sys.stderr)
