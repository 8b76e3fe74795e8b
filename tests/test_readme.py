"""The README's library quickstart runs against the current package API."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_quickstart_runs():
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"## Library quickstart\s+```python\n(.*?)```", readme, re.S).group(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    nmi, hubs = done.stdout.splitlines()
    assert float(nmi) > 0.95
    selected, planted = re.findall(r"\[([\d ]*)\]", hubs)
    assert selected.split() == planted.split()
