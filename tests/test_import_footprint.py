"""The serving and grid paths never load scipy.

Only the classic tuners (GP, copula, BO) and the CLT aggregate call
scipy, and they import it where they use it.  Every process that imports
``repro`` (a shard worker, a pooled grid worker, the CLI) would
otherwise carry scipy's ~20 MB of RSS and ~0.2 s of start-up for
nothing.  Each check runs in a fresh interpreter: this test process has
long since imported scipy through other tests.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: What each kind of process imports first: the library, a shard worker,
#: a pooled grid worker, the load generator and the CLI.
ENTRY_POINTS = (
    "repro",
    "repro.serve.shard",
    "repro.core.runner",
    "repro.loadgen",
    "repro.cli",
)

REPORT_SCIPY = """
import sys
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(loaded)
"""


def _scipy_modules(code: str) -> str:
    """Run ``code`` then print the scipy modules it loaded, in a fresh
    interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code + REPORT_SCIPY],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_entry_point_imports_no_scipy(module):
    assert _scipy_modules(f"import {module}\n") == "[]"


def test_serving_and_a_grid_cell_load_no_scipy():
    """One served request (in process, no shards) and one grid cell run
    end to end without importing scipy."""
    code = """
from repro import PredictionService, Request, generate_dataset, quick_grid
from repro.core.runner import run_spec

ds = generate_dataset("SM")
examples = [(ds.config(i), float(ds.runtimes[i])) for i in range(3)]
with PredictionService() as svc:
    resp = svc.submit(Request(examples=examples, query_config=ds.config(5),
                              seed=4))
assert resp.prediction.generated_text
spec = quick_grid(sizes=("SM",), icl_counts=(2,), n_sets=1, seeds=(1,),
                  selections=("random",), n_queries=2)[0]
assert len(run_spec(spec)) == 2
"""
    assert _scipy_modules(code) == "[]"
