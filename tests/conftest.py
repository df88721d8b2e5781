import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))
# the benchmark's closed-form references (perfbench.tracer) serve as oracles too
sys.path.insert(1, str(Path(__file__).parents[1]))

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a CI failure
# reproduces locally; without it hypothesis keeps its default random profile
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_rng(seed: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))


@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng(20260808)
