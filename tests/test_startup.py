"""Start-up guard: each command runs only the layers it needs.

Every command line run is a fresh interpreter, so what it imports is paid
on every invocation.  Each command runs here in its own subprocess on a
one-polynomial system; the modules whose code ran by the time
``cli.main`` returned are compared with the layers the command needs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Prints the basisdetect modules whose code has run, and every module name,
# both taken before the probe loads json to print them.  A module registered
# with importlib.util.LazyLoader has its own type until its code runs, and
# plain ModuleType after.
PROBE = """
import sys, types
{run}
ran = sorted(
    name for name, module in sys.modules.items()
    if name.startswith("basisdetect") and type(module) is types.ModuleType
)
modules = sorted(sys.modules)
import json
print(json.dumps({{"ran": ran, "modules": modules}}))
"""

RUN_COMMAND = """
from basisdetect import cli
assert cli.main({argv!r}) in (0, 1)
"""

LAYERS = {"polyring", "lp", "orders", "groebner", "toric", "sagbi", "detect"}

# command -> layers that must not run
NOT_RUN = {
    "classes": {"groebner", "toric", "sagbi", "detect"},
    "detect-gb": {"toric", "sagbi"},
    "universal-gb": {"toric", "sagbi"},
    "detect-sagbi": {"groebner"},
    "universal-sagbi": {"groebner"},
    "rank": {"groebner", "toric", "detect"},
}


def _probe(tmp_path, run: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(run=run)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def bare_modules(tmp_path_factory):
    return set(_probe(tmp_path_factory.mktemp("bare"), "")["modules"])


@pytest.mark.parametrize("command", sorted(NOT_RUN))
def test_command_runs_only_its_layers(tmp_path, bare_modules, command):
    path = tmp_path / "system.txt"
    path.write_text("ring: x, y\npolys:\nx^2 + y\n")
    argv = [command, "--input", str(path)]
    seen = _probe(tmp_path, RUN_COMMAND.format(argv=argv))
    ran = {name.split(".", 1)[1] for name in seen["ran"] if "." in name}
    assert "cli" in ran and "orders" in ran
    # only the per-class criteria go through detect.verdicts
    assert ("detect" in ran) == (command not in ("classes", "rank"))
    assert not ran & NOT_RUN[command], ran
    added = set(seen["modules"]) - bare_modules
    # the command line is read without argparse (which loads gettext and
    # locale), and the report is text, so json is not needed either
    for heavy in ("argparse", "gettext", "locale", "dataclasses", "inspect", "json"):
        assert heavy not in added, heavy


def test_import_runs_no_layer_but_registers_every_one(tmp_path):
    # tools that scan sys.modules for the package's modules (the benchmark's
    # tracer) must still find every layer after a bare import
    seen = _probe(tmp_path, "import basisdetect")
    assert seen["ran"] == ["basisdetect"]
    registered = {name for name in seen["modules"] if name.startswith("basisdetect.")}
    assert registered == {"basisdetect." + layer for layer in LAYERS}


def test_monomials_need_no_lp(tmp_path):
    # every weight selects the only term of a monomial, so a system of
    # monomials (the benchmark's set-up input) never runs the lp layer
    path = tmp_path / "system.txt"
    path.write_text("ring: x, y\npolys:\nx\nx*y^2\n")
    seen = _probe(tmp_path, RUN_COMMAND.format(argv=["detect-gb", "--input", str(path)]))
    assert "basisdetect.orders" in seen["ran"]
    assert "basisdetect.lp" not in seen["ran"]
