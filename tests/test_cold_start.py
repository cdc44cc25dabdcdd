"""Cold start: ``import repro`` loads nothing, the runtime needs no scipy,
and ``python -m repro --help`` imports no more than argparse."""

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
plan = repro.TolerancePlanner(repro.ErrorFlowAnalyzer(model, (9,))).plan(1e-2, norm="linf")
result = repro.InferencePipeline(model, SZCompressor(), plan).execute(h2.fields)
assert result.qoi_error("linf") <= 1e-2
assert sys.modules["scipy"] is None
assert not [name for name in sys.modules if name.startswith("scipy.")]
assert "repro.distrib" not in sys.modules
print("runtime ok without scipy")
"""


def _run(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )


def test_the_runtime_imports_lazily_and_runs_without_scipy():
    run = _run(_SCRIPT)
    assert run.returncode == 0, run.stderr
    assert "runtime ok without scipy" in run.stdout


# ``python -m repro ARGS``, then the heavy modules the process loaded
_CLI_SCRIPT = """
import runpy, sys
sys.argv = ["repro", *{argv!r}]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
heavy = ("numpy", "repro.core", "repro.workloads", "repro.distrib", "repro.obs")
print("loaded:", [name for name in heavy if name in sys.modules])
"""


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["pipeline", "--help"]])
def test_cli_help_and_version_import_no_numpy(argv):
    run = _run(_CLI_SCRIPT.format(argv=argv))
    assert run.returncode == 0, run.stderr
    assert "loaded: []" in run.stdout, run.stdout[-300:]


def test_import_repro_obs_loads_no_numpy():
    run = _run("import sys, repro.obs; print('numpy' in sys.modules)")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_cli_parser_literals_equal_their_homes():
    """The parser carries these as literals so that ``--help`` imports no
    numpy; each must equal the value in the module that owns it."""
    from repro import cli
    from repro.compress import ErrorBoundMode
    from repro.obs.registry import DEFAULT_DRIFT_THRESHOLD
    from repro.quant import STANDARD_FORMATS
    from repro.workloads import WORKLOAD_NAMES

    assert cli._WORKLOADS == WORKLOAD_NAMES
    assert cli._FORMATS == tuple(STANDARD_FORMATS)
    assert cli._BOUND_MODES == tuple(mode.value for mode in ErrorBoundMode)
    assert cli._DRIFT_THRESHOLD == DEFAULT_DRIFT_THRESHOLD


def test_every_top_level_name_resolves_on_first_access():
    listed = set(dir(repro))
    for name in repro.__all__:
        assert name in listed
        assert getattr(repro, name) is not None
    assert repro.distrib.__name__ == "repro.distrib"
    assert repro.InferencePipeline is repro.core.InferencePipeline
    with pytest.raises(AttributeError):
        repro.no_such_name
