"""The maintenance tools in ``tools/``: the line counter and the report
comparison, loaded from their files (``tools`` is not a package)."""

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
