"""The library imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rfrskit"


def test_library_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # relative imports stay inside rfrskit
            for name in names:
                top = name.split(".")[0]
                assert top == "rfrskit" or top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_library_modules_use_every_name_they_import():
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue  # it imports names to re-export them
        tree = ast.parse(path.read_text(), filename=str(path))
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in imports
            if getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} imports {sorted(imported - used)} without using them"


def test_library_uses_every_private_helper():
    """Each private top-level function, class and constant, and each
    private method, is referenced somewhere in the library outside its
    own definition, so a helper its last caller dropped does not linger."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    definitions = []  # (file, name, defining node) of top-level names and methods
    for fname, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node, *members]:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    definitions.append((fname, item.name, item))
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                definitions += [(fname, t.id, node) for t in targets if isinstance(t, ast.Name)]
    references = [
        (node.id if isinstance(node, ast.Name) else node.attr, node)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    unused = []
    for fname, name, definition in definitions:
        if not name.startswith("_") or name.startswith("__"):
            continue
        inside = {id(node) for node in ast.walk(definition)}
        if not any(ref == name and id(node) not in inside for ref, node in references):
            unused.append(f"{fname}: {name}")
    assert not unused, f"private names referenced only by their own definitions: {unused}"
