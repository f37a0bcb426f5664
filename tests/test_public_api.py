"""Every public function and method of the package has a caller outside the tests.

The package and the scripts are parsed with ast.  A module-level function
counts as called when its own module names it outside its definition, or
when any file reaches it through the imported module (`numtheory.factorize`).
A method or property counts as called when any attribute access outside its
definition uses its name.

The same parse checks that the random streams have one constructor:
`default_rng` is named in the package only inside `qsim.rep_streams`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "carmsim"
MODULES = ("numtheory", "qsim", "counting", "carmichael", "cli")

#: the dense statevector route, kept in the package as the oracle that the
#: two-plane production route is checked against
DENSE_ORACLES = {"controlled_grover_powers", "count_distribution_dense"}


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public function and public method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _module_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> package module, for each module imported whole."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module == "carmsim" or (node.level == 1 and node.module is None)):
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
    return aliases


def _references(path: Path, tree: ast.Module):
    """(kind, module or None, name, line) for every name read in one file."""
    aliases = _module_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield "name", path.stem, node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            yield "attribute", aliases.get(owner), node.attr, node.lineno


def test_every_public_function_has_a_caller():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    refs = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        refs += [(path, *ref) for ref in _references(path, tree)]

    uncalled = []
    for module in MODULES:
        path = PACKAGE / f"{module}.py"
        for qualname, node in _public_definitions(ast.parse(path.read_text(encoding="utf-8"))):
            name = qualname.rsplit(".", 1)[-1]
            is_method = "." in qualname

            def calls(ref) -> bool:
                where, kind, owner, used, line = ref
                if used != name or (where == path and node.lineno <= line <= node.end_lineno):
                    return False
                # a bare name is owned by the file that reads it
                return kind == "attribute" if is_method else owner == module

            if name not in DENSE_ORACLES and not any(calls(ref) for ref in refs):
                uncalled.append(f"{module}.{qualname}")
    assert uncalled == []


def _functions_naming(tree: ast.AST, name: str, owner: str = "") -> list[str]:
    """The innermost enclosing function ("" at module level) of each use of `name`."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = tree.name
    found = []
    if (isinstance(tree, ast.Attribute) and tree.attr == name) or (isinstance(tree, ast.Name) and tree.id == name):
        found.append(owner)
    for child in ast.iter_child_nodes(tree):
        found += _functions_naming(child, name, owner)
    return found


def test_rep_streams_is_the_only_stream_constructor():
    users = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        users += [f"{path.stem}.{owner}" for owner in _functions_naming(tree, "default_rng")]
    assert users == ["qsim.rep_streams"]
