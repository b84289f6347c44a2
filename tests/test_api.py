"""The public import surface: what README documents and the benchmark imports."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import goodmat

ROOT = Path(__file__).resolve().parents[1]


def documented_names():
    """The backquoted names of README's "Public names" list, in the Library section."""
    library = ROOT.joinpath("README.md").read_text().split("\n## Library\n")[1].split("\n## ")[0]
    listing = library.split("Public names")[1].split(":\n\n", 1)[1].split("\n\n")[0]
    return re.findall(r"`(\w+)`", listing)


def module_map_names():
    """The backquoted names of README's paragraph that starts "Module map:"."""
    paragraph = ROOT.joinpath("README.md").read_text().split("\nModule map:", 1)[1].split("\n\n")[0]
    return re.findall(r"`(\w+)`", paragraph)


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


def test_no_cdcl_module_exists():
    """The CDCL solver is deleted: the package has no `goodmat.cdcl` module."""
    assert not ROOT.joinpath("src", "goodmat", "cdcl.py").exists()
    assert importlib.util.find_spec("goodmat.cdcl") is None


def test_module_map_names_every_module():
    """README's module map names every module, and every name in it is a module or one's attribute."""
    modules = {path.stem for path in ROOT.joinpath("src", "goodmat").glob("*.py")} - {"__init__", "__main__"}
    names = module_map_names()
    assert sorted(modules - set(names)) == []
    loaded = [importlib.import_module(f"goodmat.{module}") for module in sorted(modules)]
    unknown = [name for name in names
               if name not in modules and not any(hasattr(module, name) for module in loaded)]
    assert unknown == []
