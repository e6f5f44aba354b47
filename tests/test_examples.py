"""Every script in ``examples/`` and the README's Quickstart block run to
completion; they are what keeps the local RDD API they call honest."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def run_python(args):
    path = [str(ROOT / "src")] + [p for p in
                                  [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def readme_quickstart():
    section = (ROOT / "README.md").read_text().split("## Quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_examples_are_found():
    assert "quickstart.py" in [p.name for p in EXAMPLES]


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    out = run_python([str(script)])
    assert out.returncode == 0, out.stderr


def test_readme_quickstart_runs():
    out = run_python(["-c", readme_quickstart()])
    assert out.returncode == 0, out.stderr
