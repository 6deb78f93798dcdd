"""The demos' stdout, pinned byte for byte by its SHA-256 digest.

A change that alters what a demo prints must update its digest here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_SHA256 = {
    "01_field_towers": "c94726254989efb2f2259be123aa0917fd0e2a7d5e7bf8fda782da1b426354c1",
    "02_moebius_actions": "f2c5a96436872836a4defb249f2fa08ad1ef24c2097b3f285ded1e35cf9d620f",
    "03_enumeration_vs_census": "105b549084c890645e1c6fc3e565515f5baa455b93b86fe99d649890e6f31921",
    "04_scrim_srim": "7f40095d58b6d89ffcc7c1ac8e3d2b1a14940578ded7b9e0816fc2a358d3f5c5",
    "05_asymptotic_trend": "65f36e84c7cc4f2b26ea7fb83cdf2a1a075d6396c1bc870e60d4a7cad29a48c7",
}


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_stdout_is_pinned(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_SHA256[name]
