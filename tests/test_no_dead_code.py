"""Dead-code guard: every private helper of the package has a reader.

A ``_private`` function, class or method is not part of the public API,
so only the package itself can call it.  One that nothing in ``src/``
reads, other than its own body, is dead code; a change that removes the
last caller of a helper must remove the helper too.  Tests do not count
as readers.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "basisdetect"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _scan():
    """(private definitions, references): the first as (file, name, first
    line, last line), the second as (file, name, line) for every name read
    as a variable or an attribute."""
    definitions = []
    references = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, DEFINITIONS) and _is_private(node.name):
                definitions.append((path.name, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                references.append((path.name, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((path.name, node.attr, node.lineno))
    return definitions, references


def test_every_private_definition_is_read():
    definitions, references = _scan()
    assert definitions
    unread = [
        "%s: %s (line %d)" % (file, name, first)
        for file, name, first, last in definitions
        if not any(
            ref_name == name and not (ref_file == file and first <= line <= last)
            for ref_file, ref_name, line in references
        )
    ]
    assert not unread, unread
