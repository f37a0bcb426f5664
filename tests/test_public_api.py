"""Every public function and method of the package has a caller outside the tests.

The package and the scripts are parsed with ast.  A module-level function
counts as called when its own module names it outside its definition, or
when any file reaches it through the imported module (`numtheory.factorize`).
A method or property counts as called when any attribute access outside its
definition uses its name.

The same parse checks that no module of the package names numpy.random:
the rep streams are qsim's own PCG64, and numpy's is only the tests' oracle.
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

            if name in DENSE_ORACLES:
                continue
            if not any(calls(ref) for ref in refs):
                uncalled.append(f"{module}.{qualname}")
    assert uncalled == []


def _numpy_random_names(tree: ast.Module) -> list[int]:
    """Lines that import numpy.random or read the attribute `random` of an imported numpy."""
    numpy_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "numpy"
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named = any(alias.name.startswith("numpy.random") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            named = module.startswith("numpy.random") or (
                module == "numpy" and any(alias.name == "random" for alias in node.names)
            )
        else:
            named = (
                isinstance(node, ast.Attribute)
                and node.attr == "random"
                and isinstance(node.value, ast.Name)
                and node.value.id in numpy_names
            )
        if named:
            lines.append(node.lineno)
    return lines


def test_no_module_names_numpy_random():
    named = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = _numpy_random_names(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if lines:
            named[path.name] = lines
    assert named == {}


def test_the_guard_sees_each_way_of_naming_numpy_random():
    for source in (
        "import numpy as np\nnp.random.default_rng(0)",
        "import numpy\nx: numpy.random.Generator",
        "import numpy.random",
        "from numpy import random",
        "from numpy.random import PCG64",
    ):
        assert _numpy_random_names(ast.parse(source)) != [], source
    assert _numpy_random_names(ast.parse("import numpy as np\nrandom = 1\nnp.fft.ifft([1])")) == []
