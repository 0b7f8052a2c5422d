import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    [
        "01_sampling_models.py",
        "02_exact_laws.py",
        "03_chains_and_duality.py",
        "04_subtree_mass_moments.py",
        "05_chain_vs_dual_monte_carlo.py",
    ],
)
def test_exact_demo_runs(demo):
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
