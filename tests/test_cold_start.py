"""Cold start: ``import repro`` loads nothing, and the runtime needs no scipy."""

import os
import subprocess
import sys

import pytest

import repro

_SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError

import repro

loaded = [name for name in ("scipy", "repro.distrib", "numpy") if sys.modules.get(name)]
assert not loaded, f"import repro loaded {loaded}"

import numpy as np
from repro.compress import SZCompressor
from repro.datasets import make_borghesi_flame, make_eurosat, make_h2_combustion
from repro.models import h2_reaction_net

h2 = make_h2_combustion(grid=32, rng=np.random.default_rng(0))
make_borghesi_flame(grid=32, rng=np.random.default_rng(0))
make_eurosat(n_per_class=1, image_size=16, rng=np.random.default_rng(0))
model = h2_reaction_net(rng=np.random.default_rng(1))
model.eval()
plan = repro.TolerancePlanner(repro.ErrorFlowAnalyzer(model, n_input=9)).plan(1e-2, norm="linf")
result = repro.InferencePipeline(model, SZCompressor(), plan).execute(h2.fields)
assert result.qoi_error("linf", relative=False) <= 1e-2
assert sys.modules["scipy"] is None
assert not [name for name in sys.modules if name.startswith("scipy.")]
assert "repro.distrib" not in sys.modules
print("runtime ok without scipy")
"""


def test_the_runtime_imports_lazily_and_runs_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    run = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    assert "runtime ok without scipy" in run.stdout


def test_every_top_level_name_resolves_on_first_access():
    listed = set(dir(repro))
    for name in repro.__all__:
        assert name in listed
        assert getattr(repro, name) is not None
    assert repro.distrib.__name__ == "repro.distrib"
    assert repro.InferencePipeline is repro.core.InferencePipeline
    with pytest.raises(AttributeError):
        repro.no_such_name
