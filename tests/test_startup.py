"""Start-up and exit guards for the process entry.

Every command line run is a fresh interpreter, so what it imports is paid
on every invocation.  Each command runs here in its own subprocess on a
one-polynomial system; the modules whose code ran by the time
``cli.main`` returned are compared with the layers the command needs.

The process entry (``cli.entry``, run by ``python -m basisdetect``) freezes
the heap before it exits; the tests at the end check that a process run
through it writes what ``cli.main`` writes in process, still returns to a
``runpy`` caller, and leaves no worker process behind.
"""

import contextlib
import gc
import json
import os
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from basisdetect import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
SYSTEMS_DIR = ROOT / "systems"

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

LAYERS = {
    "polyring", "lp", "orders", "groebner", "completion", "toric", "sagbi",
    "hilbert", "rank", "detect",
}

# command line -> the layers it must not run; it runs ``cli`` and every
# other layer
GB_NOT_RUN = {"completion", "rank", "hilbert", "sagbi", "toric"}
SUBDUCTION_NOT_RUN = {"rank", "hilbert", "completion", "groebner"}
NOT_RUN = {
    "classes": GB_NOT_RUN | {"detect", "groebner"},
    "detect-gb": GB_NOT_RUN,
    "universal-gb": GB_NOT_RUN,
    "detect-sagbi": SUBDUCTION_NOT_RUN,
    "universal-sagbi": SUBDUCTION_NOT_RUN,
    "detect-sagbi --method hilbert": {
        "sagbi", "toric", "groebner", "completion", "rank",
    },
    # the default criterion, nicer
    "rank": {"hilbert", "sagbi", "toric", "groebner", "completion", "detect"},
    "rank --criterion preferable": {
        "sagbi", "toric", "groebner", "completion", "detect",
    },
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
    # homogeneous, so the Hilbert criterion and the preferable ranking run
    path = tmp_path / "system.txt"
    path.write_text("ring: x, y\npolys:\nx^2 + y^2\n")
    for fmt in ("text", "json"):
        argv = [*command.split(), "--input", str(path), "--format", fmt]
        seen = _probe(tmp_path, RUN_COMMAND.format(argv=argv))
        ran = {name.split(".", 1)[1] for name in seen["ran"] if "." in name}
        assert ran == {"cli"} | (LAYERS - NOT_RUN[command]), (fmt, ran)
        added = set(seen["modules"]) - bare_modules
        # the command line is read without argparse (which loads gettext
        # and locale), and the report, text or JSON, without json
        heavy = {"argparse", "gettext", "locale", "dataclasses", "inspect", "json"}
        assert not heavy & added, (fmt, heavy & added)


def test_import_runs_no_layer_but_registers_every_one(tmp_path):
    # tools that scan sys.modules for the package's modules (the benchmark's
    # tracer) must still find every layer after a bare import
    seen = _probe(tmp_path, "import basisdetect")
    assert seen["ran"] == ["basisdetect"]
    registered = {name for name in seen["modules"] if name.startswith("basisdetect.")}
    assert registered == {"basisdetect." + layer for layer in LAYERS}


# Reads an unknown name and ``__path__`` (which ``from module import name``
# looks up) from each module that forwards moved names.
READ_UNKNOWN_NAMES = """
from basisdetect import groebner, orders, sagbi
for module in (orders, sagbi, groebner):
    for name in ("no_such_name", "__path__"):
        try:
            getattr(module, name)
        except AttributeError:
            continue
        raise SystemExit("%s.%s resolved" % (module.__name__, name))
"""


def test_old_modules_load_no_new_module_for_other_names(tmp_path):
    # they forward only the names the benchmark's tracer reads; a lookup
    # of any other name must not compile the modules the names moved to
    seen = _probe(tmp_path, READ_UNKNOWN_NAMES)
    ran = {name.split(".", 1)[1] for name in seen["ran"] if "." in name}
    assert {"orders", "sagbi", "groebner"} <= ran
    assert not ran & {"rank", "hilbert", "completion"}, ran


def test_monomials_need_no_lp(tmp_path):
    # every weight selects the only term of a monomial, so a system of
    # monomials (the benchmark's set-up input) never runs the lp layer
    path = tmp_path / "system.txt"
    path.write_text("ring: x, y\npolys:\nx\nx*y^2\n")
    seen = _probe(tmp_path, RUN_COMMAND.format(argv=["detect-gb", "--input", str(path)]))
    assert "basisdetect.orders" in seen["ran"]
    assert "basisdetect.lp" not in seen["ran"]


# ---------------------------------------------------------------------------
# the process entry


def _entry_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def test_entry_writes_the_in_process_report_to_a_pipe_and_a_file(
    tmp_path, capsys
):
    argv = ["classes", "--input", str(SYSTEMS_DIR / "minors_2x2_of_3x3.sys"),
            "--format", "json"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out.encode()
    assert len(expected) > 4096  # more than one pipe write of some systems
    command = [sys.executable, "-m", "basisdetect", *argv]
    piped = subprocess.run(command, capture_output=True, env=_entry_env())
    assert (piped.returncode, piped.stdout, piped.stderr) == (0, expected, b"")
    path = tmp_path / "report.json"
    with open(path, "wb") as handle:
        done = subprocess.run(
            command, stdout=handle, stderr=subprocess.PIPE, env=_entry_env()
        )
    assert (done.returncode, path.read_bytes(), done.stderr) == (0, expected, b"")


def test_entry_returns_to_a_runpy_caller():
    # cProfile runs the module through runpy, catches SystemExit and then
    # prints its table, after the report
    done = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "basisdetect", "classes",
         "--input", str(SYSTEMS_DIR / "twisted_cubic.sys")],
        capture_output=True,
        text=True,
        env=_entry_env(),
    )
    assert done.returncode == 0, done.stderr
    report, _, stats = done.stdout.partition("function calls")
    assert report.startswith("found 6 classes\n")
    assert "ncalls  tottime  percall  cumtime  percall" in stats
    assert "cli.py" in stats and "(entry)" in stats


def test_main_leaves_the_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    argv = ["classes", "--input", str(SYSTEMS_DIR / "twisted_cubic.sys")]
    assert cli.main(argv) == 0
    assert gc.get_freeze_count() == frozen
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["classes", "--input", "missing.sys"], ""),
        (["bogus", "--input", "-"], ""),
        (["classes", "--input", "-"], "ring: x\npolys:\nx +\n"),
    ],
    ids=["missing-file", "unknown-command", "parse-error"],
)
def test_closed_stderr_keeps_exit_code_2(tmp_path, argv, stdin):
    # the diagnostic is lost, the exit code is not
    command = " ".join(map(shlex.quote, [sys.executable, "-m", "basisdetect", *argv]))
    done = subprocess.run(
        ["sh", "-c", command + " 2>&-"],
        input=stdin.encode(),
        capture_output=True,
        cwd=tmp_path,
        env=_entry_env(),
    )
    assert (done.returncode, done.stdout, done.stderr) == (2, b"", b"")


# Runs the entry as ``python -m basisdetect`` does, with two CPUs whatever
# the machine has, so that ``--jobs 2`` always starts a pool; the workers
# are forked, so they inherit the subduction cap set here.
ENTRY_WITH_TWO_CPUS = """
import os, runpy, sys
os.cpu_count = lambda: 2
from basisdetect import sagbi
sagbi.SUBDUCTION_CAP = {cap}
sys.argv = ["basisdetect", *{argv!r}]
runpy.run_module("basisdetect", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize(
    "argv, cap, code, first_line",
    [
        (["detect-sagbi", "--input", "grassmannian_2_4.sys"], 10_000, 0,
         "found 24 classes"),
        (["universal-sagbi", "--input", "twisted_cubic.sys"], 10_000, 0,
         "universal: false"),
        # each class's subduction needs more than one step, so the cap is
        # hit in a worker
        (["detect-sagbi", "--input", "-"], 1, 2, ""),
    ],
    ids=["detect-sagbi", "universal-sagbi-counterexample", "limit-error-in-worker"],
)
def test_entry_with_jobs_leaves_no_process_running(
    tmp_path, argv, cap, code, first_line
):
    # files, not pipes: a worker left running would hold a pipe open
    streams = [tmp_path / name for name in ("in", "out", "err")]
    streams[0].write_text("ring: x, y\npolys:\nx\ny\nx^2 + y + 1\n")
    with contextlib.ExitStack() as stack:
        stdin, stdout, stderr = (
            stack.enter_context(open(path, mode))
            for path, mode in zip(streams, "rww")
        )
        child = subprocess.Popen(
            [sys.executable, "-c",
             ENTRY_WITH_TWO_CPUS.format(cap=cap, argv=[*argv, "--jobs", "2"])],
            cwd=SYSTEMS_DIR,
            env=_entry_env(),
            stdin=stdin,
            stdout=stdout,
            stderr=stderr,
            start_new_session=True,
        )
        try:
            child.wait(timeout=120)
            # the child led its own process group; every worker has gone
            # with it
            with pytest.raises(ProcessLookupError):
                os.killpg(child.pid, 0)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)
    out, err = (path.read_text() for path in streams[1:])
    assert child.returncode == code, err
    assert out.split("\n", 1)[0] == first_line
    if code == 2:
        assert err == "limit error: subduction did not finish within 1 steps\n"
    else:
        assert err == ""
