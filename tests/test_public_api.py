"""Every public function and method of the package has a caller outside the tests.

The package and the scripts are parsed with ast.  A module-level function
counts as called when its own module names it outside its definition, or
when any file reaches it through the imported module (`numtheory.factorize`).
A method or property counts as called when any attribute access outside its
definition uses its name.

The same parse checks that the random streams have one constructor: every
call of `default_rng`, `SeedSequence`, `PCG64` or `Generator` in the
package sits inside `qsim.rep_streams`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "carmsim"
MODULES = ("numtheory", "qsim", "counting", "carmichael", "cli")

#: the dense statevector route, kept in the package as the oracle that the
#: two-plane production route is checked against
DENSE_ORACLES = {"controlled_grover_powers", "count_distribution_dense"}

#: methods whose caller is numpy: PCG64 reads its seed words through
#: ISeedSequence.generate_state, which no parsed file names
NUMPY_CALLBACKS = {"qsim._SeedWords.generate_state"}


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

            if name in DENSE_ORACLES or f"{module}.{qualname}" in NUMPY_CALLBACKS:
                continue
            if not any(calls(ref) for ref in refs):
                uncalled.append(f"{module}.{qualname}")
    assert uncalled == []


#: numpy's stream constructors; a name used as an annotation is no call
STREAM_CONSTRUCTORS = {"default_rng", "SeedSequence", "PCG64", "Generator"}


def _constructor_calls(tree: ast.AST, owner: str = "") -> list[str]:
    """The innermost enclosing function ("" at module level) of each call to a stream constructor."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = tree.name
    found = []
    if isinstance(tree, ast.Call):
        func = tree.func
        called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if called in STREAM_CONSTRUCTORS:
            found.append(owner)
    for child in ast.iter_child_nodes(tree):
        found += _constructor_calls(child, owner)
    return found


def test_rep_streams_is_the_only_stream_constructor():
    users = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        users |= {f"{path.stem}.{owner}" for owner in _constructor_calls(tree)}
    assert users == {"qsim.rep_streams"}
