"""Each script under scripts/ runs to completion without a RuntimeWarning,
make_fixtures.py reproduces the committed fixtures, and the studies
(scripts/run_*.py) reach the library through the command line.

The scripts call the library only through public names, so a deleted or
renamed function or parameter shows up here.
"""

import ast
import csv
import json
import os
import re
import runpy
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
#: the library names a study may import: it runs decolab command lines and
#: reads and writes their files, and the rest is what its summary adds
STUDY_IMPORTS = {"decolab.cli": {"main"},
                 "decolab.files": {"csv_rows", "write_csv", "write_json"},
                 "decolab.plotsvg": {"SvgPlot"}, "decolab.sequences": {"is_revival"},
                 "decolab.noise": {"table1_model"},
                 "decolab.diffusion": {"read_manifest", "tau_c"}}


def run_script(script: str, out: Path) -> str:
    """The stdout of a script run with ``--out out``; a RuntimeWarning is an error."""
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--out", str(out)],
                          cwd=out, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("script", STUDIES)
def test_study_script_runs(tmp_path, script):
    run_script(script, tmp_path)
    assert any(tmp_path.iterdir())


@pytest.mark.parametrize("script", STUDIES)
def test_study_imports_only_the_command_line_and_file_helpers(script):
    tree = ast.parse((ROOT / "scripts" / script).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.split(".")[0] == "decolab"]
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "decolab":
            names = {a.name for a in node.names}
            assert names <= STUDY_IMPORTS.get(node.module, set()), (node.module, names)


def test_cpmg_study_marks_a_revival_for_every_n(tmp_path):
    # its start:stop grids once put 6 of 880 taus on whole microseconds and
    # none of them on a revival, so is_revival_all was 0 on every row
    run_script("run_cpmg_revivals.py", tmp_path)
    with open(tmp_path / "cpmg_revivals.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(line for line in f if not line.startswith("#")))
    revivals = {n: [r for r in rows if r["n_pulses"] == n and r["is_revival_all"] == "1"]
                for n in ("4", "8", "16", "32")}
    assert {r["n_pulses"] for r in rows} == set(revivals)
    for n, marked in revivals.items():
        assert marked, f"N={n} has no revival"
        # every comb harmonic is refocused there, so <X> is back at 1
        assert all(float(r["expectation"]) > 0.999 for r in marked), n


def test_diffusion_study_prints_each_stderr_to_two_significant_digits(tmp_path):
    # "S = 60 +- 0 /s" once stood for a stderr of 0.24
    printed = re.findall(r"^  (\S+): .* S = (\S+) \+- (\S+) /s",
                         run_script("run_diffusion_fit.py", tmp_path), re.MULTILINE)
    per_power = json.loads((tmp_path / "diffusion_fit.json").read_text())["per_power"]
    assert [tag for tag, _, _ in printed] == list(per_power)
    for tag, s, err in printed:
        decimals = len(err.partition(".")[2])
        assert float(err) == float(f"{per_power[tag]['S_stderr']:.2g}")
        assert len(s.partition(".")[2]) == decimals
        assert float(s) == round(per_power[tag]["S_per_s"], decimals)


@pytest.mark.parametrize("script, fit_json", [
    ("run_feedforward_demo.py", "unsynchronized_fit/fit_decay.json"),
    ("run_diffusion_fit.py", "joint/fit_diffusion.json")],
    ids=["run_feedforward_demo.py", "run_diffusion_fit.py"])
def test_study_exits_4_when_a_fit_does_not_converge(tmp_path, monkeypatch, capsys, script,
                                                    fit_json):
    # with one iteration allowed, the study's first fit stops at the cap
    monkeypatch.setattr("decolab.fitting.MAX_ITER", 1)
    monkeypatch.setattr(sys, "argv", [script, "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
    assert done.value.code == 4
    assert capsys.readouterr().err == "decolab: fit did not converge: max iterations reached\n"
    fit = json.loads((tmp_path / fit_json).read_text(encoding="utf-8"))
    assert (fit["converged"], fit["n_iter"]) == (False, 1)


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
