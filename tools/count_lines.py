"""Count the physical and the counted lines of each basisdetect module.

    python3 tools/count_lines.py [SRC]

SRC is the ``src`` directory of a checkout (default: this repository's).
A counted line is a line of code: it is not blank, not a comment-only
line, and not inside the docstring of a module, class or function.
Docstring spans come from ``ast``, comments from ``tokenize``.  One line
per ``SRC/basisdetect/*.py`` module is printed, then the totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

USAGE = "usage: python3 tools/count_lines.py [SRC]"
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counted_lines(text: str) -> int:
    """The lines of ``text`` that carry a token other than a comment, that
    are not blank, and that lie outside every docstring."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    blank = {i for i, line in enumerate(text.splitlines(), 1) if not line.strip()}
    return len(code - blank - _docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(USAGE, file=sys.stderr)
        return 2
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    total_physical = total_counted = 0
    for path in sorted((src / "basisdetect").glob("*.py")):
        text = path.read_text()
        physical, counted = len(text.splitlines()), counted_lines(text)
        total_physical += physical
        total_counted += counted
        print("%-16s %6d physical %6d counted" % (path.name, physical, counted))
    print("%-16s %6d physical %6d counted" % ("total", total_physical, total_counted))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
