"""Every public function and method of the package has a caller outside the tests.

The package, the scripts and the benchmark harness (perfbench/) are parsed
with ast.  A module-level function counts as called when its own module
names it outside its definition, or when any file reaches it through the
imported module (`numtheory.factorize`) or through the package
(`carmsim.numtheory.factorize`).  A method or property counts as called
when any attribute access outside its definition uses its name.

The package's __init__.py may bind a name, by import or by assignment, only
when some file reads it through the package (`carmsim.<name>` or
`from carmsim import <name>`).

The same parse checks that no module of the package names numpy.random:
the rep streams are qsim's own PCG64, and numpy's is only the tests' oracle.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "carmsim"
MODULES = ("numtheory", "qsim", "counting", "carmichael", "cli")


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public function and public method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _imports_from_package(node: ast.AST) -> bool:
    return isinstance(node, ast.ImportFrom) and (node.module == "carmsim" or (node.level == 1 and node.module is None))


def _module_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> package module, for each module imported whole."""
    aliases = {}
    for node in ast.walk(tree):
        if _imports_from_package(node):
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
            value = node.value
            if isinstance(value, ast.Attribute) and ast.unparse(value.value) == "carmsim":
                owner = value.attr  # carmsim.<module>.<name>
            else:
                owner = aliases.get(value.id) if isinstance(value, ast.Name) else None
            yield "attribute", owner, node.attr, node.lineno


def _source_files() -> list[Path]:
    folders = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")
    return [path for folder in folders for path in sorted(folder.glob("*.py"))]


def test_every_public_function_has_a_caller():
    refs = []
    for path in _source_files():
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

            if not any(calls(ref) for ref in refs):
                uncalled.append(f"{module}.{qualname}")
    assert uncalled == []


def test_the_guard_resolves_package_chains():
    source = "def law(carmsim):\n    return carmsim.carmichael.ancilla_distribution(15, 16, 2)\n"
    refs = list(_references(Path("checks.py"), ast.parse(source)))
    assert ("attribute", "carmichael", "ancilla_distribution", 2) in refs
    assert ("attribute", None, "carmichael", 2) in refs


def _bound_names(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level, by import or by assignment."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
    return bound


def _package_reads(tree: ast.Module) -> set[str]:
    """Names one file reads through the package: carmsim.<name> or from carmsim import <name>."""
    read = set()
    for node in ast.walk(tree):
        if _imports_from_package(node):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "carmsim":
            read.add(node.attr)
    return read


def test_every_name_the_package_init_binds_has_a_reader():
    init = PACKAGE / "__init__.py"
    read = set()
    for path in _source_files():
        if path != init:
            read |= _package_reads(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    bound = _bound_names(ast.parse(init.read_text(encoding="utf-8")))
    assert sorted(bound - read) == []


def test_the_guard_sees_each_binding_and_read_of_the_package():
    source = "from .numtheory import factorize as f, euler_phi\nimport os.path\n"
    source += "__version__ = '0'\nx: int = 1\na, (b, c) = 1, (2, 3)\n"
    assert sorted(_bound_names(ast.parse(source))) == ["__version__", "a", "b", "c", "euler_phi", "f", "os", "x"]
    source = "import carmsim\nfrom carmsim import cli\nfrom . import qsim\ncarmsim.f\nother.carmsim.h\n"
    assert _package_reads(ast.parse(source)) == {"cli", "qsim", "f"}


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
