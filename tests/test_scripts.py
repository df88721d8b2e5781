"""Smoke test: each study script under scripts/ runs to completion.

The scripts call the library only through public names, so a deleted or
renamed function or parameter shows up here.  make_fixtures.py is left out:
it writes into tests/fixtures/.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
STUDIES = ["run_cpmg_revivals.py", "run_diffusion_fit.py", "run_feedforward_demo.py",
           "run_t2star_histograms.py"]


@pytest.mark.parametrize("script", STUDIES)
def test_study_script_runs(tmp_path, script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           "--out", str(tmp_path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert any(tmp_path.iterdir())
