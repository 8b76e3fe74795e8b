"""The README's library quickstart runs against the current package API,
and its command-line section names only flags the parser has."""

import os
import re
import subprocess
import sys
from pathlib import Path

from mvgehd.cli import build_parser

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


def parser_flags(parser):
    """Every option string of `parser` and of its subcommands' parsers."""
    flags = set()
    for action in parser._actions:
        flags.update(action.option_strings)
        # The subcommands' action maps each command name to its parser.
        if isinstance(action.choices, dict):
            for sub in action.choices.values():
                flags |= parser_flags(sub)
    return flags


def test_cli_section_names_only_parser_flags():
    readme = (ROOT / "README.md").read_text()
    section = re.search(r"^## Command-line interface\n(.*?)(?=^## )", readme, re.S | re.M).group(1)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    assert len(named) >= 30
    assert sorted(named - parser_flags(build_parser())) == []
