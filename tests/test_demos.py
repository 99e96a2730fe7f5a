"""Every demo runs and prints exactly its pinned output.

A pin is the sha256 of the demo's stdout.  A change that moves a demo's
output records the new pin and says in CHANGES.md which lines moved.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PINS = {
    "01_root_systems": "2d38f81f2a357ef4cfd4789e91116bec6cd41f0ccb2f0506cc6bfb19cf212ad4",
    "02_weyl_algebra_modules": "620f634d0245bf8c0eaf167b4d2e82a2bc754739aacf98db5906d66e3095b52a",
    "03_degree_one_modules": "385fcefc68a367f38461b62d6d8c4c45678ea0a793ba6086a75a415e058b3665",
    "04_induced_modules": "0aefbd11637d79ae4f7b5c04c2f6cc14488411df3534711421858420e336627a",
    "05_classification": "1f12932da9816561ea8d5c6a827927fa8e0b0df0bb3362a309d822d712c248af",
    "06_extensions": "c9e21ef581d7c67d5ebbe4a6326ebe0251bc6f77605512c8ed02d926f973d089",
}


@pytest.mark.parametrize("demo", sorted(p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo_output_is_pinned(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == PINS.get(demo), proc.stdout
