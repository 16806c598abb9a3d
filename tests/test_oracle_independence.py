"""Independence guard: no test oracle reads a private name of the package.

An oracle checks the package against code of its own.  One that imports a
``_private`` helper of ``basisdetect`` checks that helper only against
itself, so an oracle may use the public names only, in which its input
checks and its comparisons are stated.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_reads(path: Path):
    """'file:line: name' for every private name imported from
    ``basisdetect``, or read as an attribute of a name bound by such an
    import."""
    tree = ast.parse(path.read_text(), str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "basisdetect":
                    bound.add(alias.asname or "basisdetect")
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] != "basisdetect":
                continue
            for alias in node.names:
                bound.add(alias.asname or alias.name)
                if _is_private(alias.name):
                    yield "%s:%d: %s" % (path.name, node.lineno, alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
            and _is_private(node.attr)
        ):
            yield "%s:%d: %s.%s" % (path.name, node.lineno, node.value.id, node.attr)


def test_oracles_read_no_private_names():
    oracles = [
        path for path in sorted(TESTS.glob("*_oracle.py"))
        if not path.name.startswith("test_")
    ]
    assert len(oracles) >= 7
    found = [hit for path in oracles for hit in _private_reads(path)]
    assert not found, found
