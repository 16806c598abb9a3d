"""The maintenance tools in ``tools/``: the line counter and the report
comparison, loaded from their files (``tools`` is not a package)."""

import os
import time
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = spec_from_file_location(name, ROOT / "tools" / (name + ".py"))
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


count_lines = _load("count_lines")
compare_reports = _load("compare_reports")

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not make a line comment-only

# a comment-only line


def f(a):
    """Function docstring."""
    # another comment-only line
    return (
        a
        + 1
    )
'''


def test_counted_lines_leaves_out_docstrings_comments_and_blanks():
    # the import, the def, and the four lines of the return expression
    assert count_lines.counted_lines(SNIPPET) == 6


def test_count_lines_total_is_the_sum_of_the_modules(capsys):
    assert count_lines.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines]
    modules = sorted(p.name for p in (ROOT / "src" / "basisdetect").glob("*.py"))
    assert [row[0] for row in rows] == modules + ["total"]
    physical = [int(row[1]) for row in rows]
    counted = [int(row[3]) for row in rows]
    assert physical[-1] == sum(physical[:-1])
    assert counted[-1] == sum(counted[:-1])
    assert 0 < counted[-1] < physical[-1]


@pytest.mark.parametrize(
    "tool, argv",
    [(count_lines, ["a", "b"]), (compare_reports, ["a", "b", "1", "c"])],
    ids=["count_lines", "compare_reports"],
)
def test_too_many_arguments_print_the_usage_line(tool, argv, capsys):
    assert tool.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == tool.USAGE + "\n"


def test_the_comparison_covers_320_reports_and_5_errors():
    files = len(list(compare_reports.SYSTEMS.glob("*.sys")))
    reports = files * len(compare_reports.COMMANDS) * len(compare_reports.VARIANTS)
    assert (reports, len(compare_reports.ERRORS)) == (320, 5)


# a stand-in for a source tree whose ``python -m basisdetect`` prints the
# same report either way, and on request leaves a process running that
# holds none of its output pipes
FAKE_MAIN = """
import subprocess, sys
if {leave}:
    subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(60)"],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
print("found 0 classes")
"""


def _fake_tree(root: Path, leave: bool) -> Path:
    package = root / "basisdetect"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(FAKE_MAIN.format(leave=leave))
    return root


def test_a_process_left_running_is_a_difference_and_is_killed(
    tmp_path, monkeypatch, capsys
):
    parent = _fake_tree(tmp_path / "parent", leave=False)
    change = _fake_tree(tmp_path / "change", leave=True)
    (tmp_path / "systems").mkdir()
    (tmp_path / "systems" / "one.sys").write_text("ring: x\npolys:\nx\n")
    monkeypatch.setattr(compare_reports, "SYSTEMS", tmp_path / "systems")
    monkeypatch.setattr(compare_reports, "COMMANDS", [["classes"]])
    monkeypatch.setattr(compare_reports, "VARIANTS", [[]])
    monkeypatch.setattr(compare_reports, "ERRORS", [(["bogus", "--input", "-"], b"x")])
    assert compare_reports.main([str(parent), str(change), "30"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "differs: basisdetect classes --input one.sys",
        "differs: basisdetect bogus --input -",
        "2 runs: 0 equal, 2 differ, 0 skipped (parent timed out after 30 s)",
    ]
    # the same report, and the process left behind is reported and killed
    runs = {}
    for tree in (parent, change):
        process = compare_reports._start(tree, ["classes"])
        runs[tree] = compare_reports._finish(process, time.monotonic() + 30)
        deadline = time.monotonic() + 20  # the orphan waits for its reaper
        while True:
            try:
                os.killpg(process.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "process group still running"
            time.sleep(0.05)
    assert runs[parent] == (0, b"found 0 classes\n", b"", False)
    assert runs[change] == (0, b"found 0 classes\n", b"", True)
