import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# A package's __init__ imports names to re-export them, not to use them.
MODULES = sorted(
    path
    for tree in ("src", "tests")
    for path in (ROOT / tree).rglob("*.py")
    if path.name != "__init__.py"
)
PACKAGE = sorted((ROOT / "src" / "framevol").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_check_flags_only_unread_names():
    source = "from dataclasses import asdict, dataclass\nimport os.path\nasdict(os)\n"
    assert unused_imports(source) == ["dataclass (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private names (one leading ``_``, not dunder) no module reads.

    ``sources`` maps a module's label to its source; a name counts as read
    when any of the modules loads it, by name or as an attribute.
    """
    trees = {label: ast.parse(source) for label, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for label, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                leaves = [leaf for target in targets for leaf in ast.walk(target)]
                names = [leaf.id for leaf in leaves if isinstance(leaf, ast.Name)]
            else:
                continue
            unread += [
                f"{label}: {name}"
                for name in names
                if name.startswith("_") and not name.endswith("__") and name not in read
            ]
    return unread


def test_unread_private_name_check_flags_only_dead_names():
    sources = {
        "a": "_USED = 1\n_DEAD, _PAIR = 2, 3\n__all__ = []\ndef _helper():\n    return _USED\n",
        "b": "from . import a\nclass _Gone:\n    pass\na._helper(a._PAIR)\n",
    }
    assert unread_private_names(sources) == ["a: _DEAD", "b: _Gone"]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unread_private_names(sources) == []
