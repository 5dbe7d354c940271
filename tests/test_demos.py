"""The walkthroughs in demos/ print fixed text: pin the SHA-256 of each stdout.
The python examples in README.md must run as written."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMO_DIGESTS = {
    "exact_residuals.py": "6228470da7b8272f440202a7fa7e47930b972298e7aaa0b992a5250040f80b37",
    "numeric_tables.py": "8c53594e24f7a5dddc7f3b0e204e59ea1d3169f9dbcd0c983b4ebfc91f3e9fa7",
    "resolvent_inversion.py": "64af37bb73b189c2d3a5d3fd16350bbab96ad4606a93eec49ca29e4e46ede12c",
    "twisted_decomposition.py": "9a2dae9c806c530679c7569d070649c3d6aa00065a6fda68d30f68db79890a06",
}


README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.M | re.S)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_stdout_bytes(name):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=_env(),
                          capture_output=True, check=True, timeout=120)
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[name]


def test_readme_has_python_examples():
    assert README_BLOCKS


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_python_block_runs(index):
    # each block runs alone in a fresh interpreter, so it must import what it uses
    proc = subprocess.run([sys.executable, "-c", README_BLOCKS[index]], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
