"""The README's library tour runs as written against the package in `src/`."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _library_tour():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "the library tour has no python block"
    return match.group(1)


def test_library_tour_runs():
    code = _library_tour()
    assert "bundled_model" in code
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
