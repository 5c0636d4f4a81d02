"""Every name a fedbft module exports must exist and have a caller."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fedbft

MODULES = ["fedbft"] + sorted(
    m.name for m in pkgutil.iter_modules(fedbft.__path__, "fedbft."))
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
CLI = Path(fedbft.__file__).with_name("cli.py")


def test_every_module_is_listed():
    assert {"fedbft.cli", "fedbft.domain", "fedbft.sim"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def references(paths):
    """Names read in the files, bare or as ``module.name``.

    A definition, an import and an ``__all__`` string are not reads.
    """
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(Path(path).read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)):
                found.add(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("name", MODULES)
def test_every_export_has_a_caller(name):
    # the package's own code calls it, or the acceptance checks do; dunder
    # metadata such as __version__ is for readers, not callers
    module = importlib.import_module(name)
    used = references(Path(fedbft.__file__).parent.glob("*.py"))
    used |= references([ACCEPTANCE])
    short = name.rpartition(".")[2]
    assert [n for n in module.__all__ if not n.startswith("__")
            and n not in used and f"{short}.{n}" not in used] == []


def test_cli_imports_no_numpy():
    # array work, and the grid and data decisions made with it, belong to
    # the engine modules; the CLI parses, checks flags and writes CSV
    imported = set()
    for node in ast.walk(ast.parse(CLI.read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    assert [m for m in imported if m.partition(".")[0] == "numpy"] == []
