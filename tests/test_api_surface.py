"""The package ships no test-only API.

Every module-level function or class under src/ocp, and every public method,
must be referenced from the package itself, the scripts, the benchmark or the
acceptance gate.  A helper that only the module tests call belongs in
tests/support.py.  References are matched by bare identifier (a name, an
attribute or an imported name), so the check can miss an unused method whose
name another object shares, but it never flags a used one.  A re-export is
not a use: names imported by a package __init__.py do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ocp"
USERS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench",
         ROOT / "tests" / "test_acceptance.py")


def _trees(path):
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return [(f, ast.parse(f.read_text(encoding="utf-8"))) for f in files]


def definitions():
    """(file, qualified name, bare name) of each definition under check."""
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield path, f"{node.name}.{item.name}", item.name


def referenced_names():
    names = set()
    for root in USERS:
        for path, tree in _trees(root):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias) and path.name != "__init__.py":
                    names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_definition_has_a_non_test_user():
    defs = list(definitions())
    # a path mistake must not pass as an empty scan
    assert len({path for path, _, _ in defs}) >= 10
    used = referenced_names()
    unused = [f"{path.relative_to(ROOT)}: {qualified}"
              for path, qualified, bare in defs if bare not in used]
    assert not unused, "defined in src/ocp but used only by tests: " + ", ".join(unused)
