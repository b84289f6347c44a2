"""The public import surface: what README documents and the benchmark imports."""

import ast
import importlib
import re
from pathlib import Path

import goodmat

ROOT = Path(__file__).resolve().parents[1]


def documented_names():
    """The backquoted names of README's "Public names" list, in the Library section."""
    library = ROOT.joinpath("README.md").read_text().split("\n## Library\n")[1].split("\n## ")[0]
    listing = library.split("Public names")[1].split(":\n\n", 1)[1].split("\n\n")[0]
    return re.findall(r"`(\w+)`", listing)


def benchmark_imports():
    """(module, name) of every `from goodmat… import name` in perfbench/*.py."""
    found = []
    for path in sorted(ROOT.joinpath("perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "goodmat":
                found += [(node.module, alias.name) for alias in node.names]
    return found


def test_every_benchmark_import_resolves():
    found = benchmark_imports()
    assert found  # the parse saw the benchmark's imports
    missing = [f"{module}.{name}" for module, name in found
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_the_public_names_are_the_documented_ones():
    names = documented_names()
    assert len(names) == len(set(names)) == 22
    assert sorted(goodmat.__all__) == sorted([*names, "__version__"])
    assert all(hasattr(goodmat, name) for name in goodmat.__all__)
    top_level = {name for module, name in benchmark_imports() if module == "goodmat"}
    assert top_level <= set(names)


def test_only_cdcl_imports_cdcl():
    """The CDCL solver is on no search path: no other module of the package imports it."""
    importers = []
    for path in sorted(ROOT.joinpath("src", "goodmat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if path.name != "cdcl.py" and any(name.split(".")[-1] == "cdcl" for name in names):
                importers.append(path.name)
    assert importers == []
