"""The demos run end to end and print exactly what they printed before.

Each demo runs in its own interpreter with `src/` on the path; its stdout is
compared by sha256 with a digest recorded from a known-good run, so a change
that moves any printed number or line fails here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "01_twisted_cohomology.py": "dfe0ecc265e974ddacdd14334c7155d6e51ad55eb1cb389b7dc3bb83853ee140",
    "02_spectral_pages.py": "960b725ade7d01727c95af2d2f8c8f3b0a9e4154c53ddfde1f4784e7d04d0fc2",
    "03_massey_products.py": "12f5f23a3fd0bcc783a9cc1705a04b8ff7dccb26a4f57a9d6e6813790db78864",
    "04_indeterminacy.py": "ce2875b09bb872136c7ea01ab42e78ef66d6263781a9485f661f4ae232850525",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_stdout_unchanged(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo]
