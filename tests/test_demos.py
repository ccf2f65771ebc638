"""Every script under demos/ runs to exit 0 and leaves nothing behind, in
the checkout or in the temp dir."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def checkout_files():
    return {p for p in ROOT.rglob("*") if p.relative_to(ROOT).parts[0] != ".git"}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_clean(demo, tmp_path):
    before = checkout_files()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1", TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert checkout_files() - before == set()
    assert list(tmp_path.iterdir()) == []
