"""Compare the command-line reports of two source trees of basisdetect.

    python3 tools/compare_reports.py PARENT_SRC CHANGE_SRC [TIMEOUT]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
Every ``systems/*.sys`` file of this repository is run through 8 commands
(``classes``, ``detect-gb``, ``detect-sagbi``, ``detect-sagbi --method
hilbert``, ``universal-gb``, ``universal-sagbi``, ``rank --criterion
nicer`` and ``rank --criterion preferable``), each in text and JSON and
with and without ``--homogenize-t``: 320 runs on the 10 files.  Then 5
command lines that fail (an unknown command, no ``--input``, a missing
file, a parse error on stdin and ``--jobs 0``) check the diagnostics:
325 runs in all.  Each run is ``python -m basisdetect`` in a subprocess
whose ``PYTHONPATH`` is one of the trees; this script never imports the
package.  The two runs of a command line must agree on stdout, stderr
and the exit code.  Each run starts its own session, and a run that
leaves a process in its process group (a worker of ``--jobs``, say)
differs, whatever it printed; the process left is killed.

A run that takes longer than TIMEOUT seconds (default 40) on the parent
is skipped and counted; one that times out only on the change counts as
a difference.  Each differing command line is printed, then the counts.
The exit code is 1 when any run differs, 0 otherwise, and 2 on a usage
error.
"""

from __future__ import annotations

import itertools
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

USAGE = "usage: python3 tools/compare_reports.py PARENT_SRC CHANGE_SRC [TIMEOUT]"
SYSTEMS = Path(__file__).resolve().parent.parent / "systems"

COMMANDS = [
    ["classes"],
    ["detect-gb"],
    ["detect-sagbi"],
    ["detect-sagbi", "--method", "hilbert"],
    ["universal-gb"],
    ["universal-sagbi"],
    ["rank", "--criterion", "nicer"],
    ["rank", "--criterion", "preferable"],
]
VARIANTS = [
    [*fmt, *t]
    for fmt, t in itertools.product(
        ([], ["--format", "json"]), ([], ["--homogenize-t"])
    )
]
# (command line, stdin) of runs that end in a usage or input error
ERRORS = [
    (["bogus", "--input", "twisted_cubic.sys"], b""),
    (["classes"], b""),
    (["classes", "--input", "missing.sys"], b""),
    (["classes", "--input", "-"], b"ring: x\npolys:\nx +\n"),
    (["detect-gb", "--input", "twisted_cubic.sys", "--jobs", "0"], b""),
]


def _start(src: Path, argv: list[str], stdin: bytes = b"") -> subprocess.Popen:
    """Start one run with ``stdin`` as its whole input."""
    # the working directory is first on sys.path under -m, so it must hold
    # no package of its own; no bytecode is written into either tree
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    # a few bytes at most, which the pipe holds before the run reads them
    read_end, write_end = os.pipe()
    os.write(write_end, stdin)
    os.close(write_end)
    try:
        return subprocess.Popen(
            [sys.executable, "-m", "basisdetect", *argv],
            cwd=SYSTEMS,
            env=env,
            stdin=read_end,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
    finally:
        os.close(read_end)


def _kill_group(process: subprocess.Popen) -> bool:
    """Kill what is left in the process group that ``process`` leads;
    True when anything was."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


def _finish(process: subprocess.Popen, deadline: float):
    """(exit code, stdout, stderr, whether a process was left running), or
    None when the run was still going at ``deadline`` (on the
    ``time.monotonic`` clock).  Nothing of the run's group is left
    running after it."""
    try:
        out, err = process.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(process)
        process.communicate()
        return None
    return process.returncode, out, err, _kill_group(process)


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(USAGE, file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in argv[:2])
    timeout = float(argv[2]) if len(argv) == 3 else 40.0
    runs = differ = skipped = 0
    reports = [
        ([*command, "--input", path.name, *variant], b"")
        for path in sorted(SYSTEMS.glob("*.sys"))
        for command, variant in itertools.product(COMMANDS, VARIANTS)
    ]
    for args, stdin in reports + ERRORS:
        # the two trees run side by side, one process each
        processes = [_start(parent, args, stdin), _start(change, args, stdin)]
        deadline = time.monotonic() + timeout
        before, after = (_finish(p, deadline) for p in processes)
        runs += 1
        line = "basisdetect " + " ".join(args)
        if before is None:
            skipped += 1
            print("skipped (parent timed out): " + line, flush=True)
        elif before != after or before[3] or after[3]:
            differ += 1
            print("differs: " + line, flush=True)
    print(
        "%d runs: %d equal, %d differ, %d skipped (parent timed out after %g s)"
        % (runs, runs - differ - skipped, differ, skipped, timeout)
    )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
