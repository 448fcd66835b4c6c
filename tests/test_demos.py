"""The fast demos run to completion; 03 and 04 train models and stay manual."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import radnmt

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name", ["01_radical_features.py", "02_autodiff_and_gradcheck.py", "05_bleu_and_perplexity.py"]
)
def test_demo_runs(name):
    env = {**os.environ, "PYTHONPATH": str(Path(radnmt.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
