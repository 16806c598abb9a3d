"""Dead-code guard: every private helper of the package has a reader.

A ``_private`` function, class or method is not part of the public API,
so only the package itself can call it.  One that nothing in ``src/``
reads, other than its own body, is dead code; a change that removes the
last caller of a helper must remove the helper too.  Tests do not count
as readers.  In the same way, every name a module of the package, the
tests or the tools imports must be read in that module: an import left
behind by a deleted reader is dead too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "basisdetect"
TESTS = ROOT / "tests"
TOOLS = ROOT / "tools"

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


def _imported_names(tree):
    """(name, line) for every name an import statement binds, except the
    ``__future__`` feature flags."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_import_is_read():
    unread = []
    for path in sorted(p for d in (PACKAGE, TESTS, TOOLS) for p in d.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [
            "%s: %s (line %d)" % (path.relative_to(ROOT), name, line)
            for name, line in _imported_names(tree)
            if name not in read
        ]
    assert not unread, unread


def _normalized_body(function) -> str:
    """The function's body without its docstring, its parameters renamed
    to their positions, as an ``ast`` dump."""
    args = function.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    params += [a for a in (args.vararg, args.kwarg) if a is not None]
    names = {a.arg: "_%d" % i for i, a in enumerate(params)}
    body = function.body
    if (
        isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    module = ast.Module(body=body, type_ignores=[])
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and node.id in names:
            node.id = names[node.id]
    return ast.dump(module)


def test_no_two_module_functions_share_a_body():
    # a helper written twice should live once, where both callers import it
    seen = {}
    duplicates = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = _normalized_body(node)
                where = "%s: %s" % (path.name, node.name)
                if key in seen:
                    duplicates.append((seen[key], where))
                else:
                    seen[key] = where
    assert not duplicates, duplicates
