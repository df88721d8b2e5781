"""Imports point one way: the file rules and the exit-code exceptions live in
decolab.files, so the field model and the SVG writer load without the fitting
engine, and no module reaches into another's private names.  The command line
loads a command's modules only when that command runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"
#: the caller's environment (PYTHONDONTWRITEBYTECODE included), with src first
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                               os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("module", ["decolab.noise", "decolab.plotsvg"])
def test_module_loads_without_the_fitting_engine(module):
    code = f"import sys, {module}; print('decolab.fitting' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_parser_loads_no_command_module():
    # each command imports the modules it runs in its handler, so building
    # the parser loads only what its defaults and the field model need
    code = ("import json, sys, decolab.cli; decolab.cli.build_parser(); "
            "print(json.dumps(sorted(n for n in sys.modules if n.split('.')[0] == 'decolab')))")
    done = subprocess.run([sys.executable, "-c", code], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["decolab", "decolab.cli", "decolab.constants",
                                       "decolab.files", "decolab.noise"]


def test_sequences_loads_without_fractions():
    # is_revival, the one user of exact rationals, imports them when called
    code = "import sys, decolab.sequences; print('fractions' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted((SRC / "decolab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("decolab"):
                continue
            found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not found
