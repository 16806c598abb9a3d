"""Compare the command-line reports of two source trees of basisdetect.

    python3 tools/compare_reports.py PARENT_SRC CHANGE_SRC [TIMEOUT]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
Every ``systems/*.sys`` file of this repository is run through 8 commands
(``classes``, ``detect-gb``, ``detect-sagbi``, ``detect-sagbi --method
hilbert``, ``universal-gb``, ``universal-sagbi``, ``rank --criterion
nicer`` and ``rank --criterion preferable``), each in text and JSON and
with and without ``--homogenize-t``: 320 runs on the 10 files.  Each run
is ``python -m basisdetect`` in a subprocess whose ``PYTHONPATH`` is one
of the trees; this script never imports the package.  The two runs of a
command line must agree on stdout, stderr and the exit code.

A run that takes longer than TIMEOUT seconds (default 40) on the parent
is skipped and counted; one that times out only on the change counts as
a difference.  Each differing command line is printed, then the counts.
The exit code is 1 when any run differs, 0 otherwise, and 2 on a usage
error.
"""

from __future__ import annotations

import itertools
import os
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


def _start(src: Path, argv: list[str]) -> subprocess.Popen:
    # the working directory is first on sys.path under -m, so it must hold
    # no package of its own; no bytecode is written into either tree
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen(
        [sys.executable, "-m", "basisdetect", *argv],
        cwd=SYSTEMS,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def _finish(process: subprocess.Popen, deadline: float):
    """(exit code, stdout, stderr), or None when the run was still going at
    ``deadline`` (on the ``time.monotonic`` clock)."""
    try:
        out, err = process.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        return None
    return process.returncode, out, err


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(USAGE, file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in argv[:2])
    timeout = float(argv[2]) if len(argv) == 3 else 40.0
    runs = differ = skipped = 0
    for path in sorted(SYSTEMS.glob("*.sys")):
        for command, variant in itertools.product(COMMANDS, VARIANTS):
            args = [*command, "--input", path.name, *variant]
            # the two trees run side by side, one process each
            processes = [_start(parent, args), _start(change, args)]
            deadline = time.monotonic() + timeout
            before, after = (_finish(p, deadline) for p in processes)
            runs += 1
            line = "basisdetect " + " ".join(args)
            if before is None:
                skipped += 1
                print("skipped (parent timed out): " + line, flush=True)
            elif before != after:
                differ += 1
                print("differs: " + line, flush=True)
    print(
        "%d runs: %d equal, %d differ, %d skipped (parent timed out after %g s)"
        % (runs, runs - differ - skipped, differ, skipped, timeout)
    )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
