"""Each script under scripts/ runs to completion, and make_fixtures.py
reproduces the committed fixtures.

The scripts call the library only through public names, so a deleted or
renamed function or parameter shows up here.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
STUDIES = ["run_cpmg_revivals.py", "run_diffusion_fit.py", "run_feedforward_demo.py",
           "run_t2star_histograms.py"]
# the committed forward counts (sink solver) differ from a fresh run by up
# to 5.3e-12 relative, the rounding of a reordered sum since the fixtures
# were generated; every other value is reproduced byte for byte
FORWARD_RTOL = 1e-11


def run_script(script: str, out: Path) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--out", str(out)],
                          cwd=out, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("script", STUDIES)
def test_study_script_runs(tmp_path, script):
    run_script(script, tmp_path)
    assert any(tmp_path.iterdir())


def test_make_fixtures_reproduces_committed_files(tmp_path):
    run_script("make_fixtures.py", tmp_path)
    committed = sorted(p.name for p in FIXTURES.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == committed
    for name in committed:
        got, want = (tmp_path / name).read_bytes(), (FIXTURES / name).read_bytes()
        if not name.startswith("diffusion_") or not name.endswith("nW.csv"):
            assert got == want, name
            continue
        rows_got, rows_want = (list(csv.reader(b.decode().splitlines())) for b in (got, want))
        assert rows_got[0] == rows_want[0] == ["tau_d_s", "counts_forward",
                                               "counts_backward", "stderr"]
        assert len(rows_got) == len(rows_want), name
        for row_got, row_want in zip(rows_got[1:], rows_want[1:]):
            assert [row_got[0], *row_got[2:]] == [row_want[0], *row_want[2:]], name
            assert np.isclose(float(row_got[1]), float(row_want[1]), rtol=FORWARD_RTOL,
                              atol=0.0), name
