"""Import layering of the package, read from the source with `ast`.

`nn_engine`, `dro_core` and `data` import nothing from the package, and
`attacks` imports only `data` and `nn_engine`.  Every other module's
imports are pinned too, so a new import edge shows up as an edit here.
"""

import ast
from pathlib import Path

import pytest

import codat

SRC = Path(codat.__file__).resolve().parent


def package_imports(path: Path) -> set[str]:
    """The package modules that the module at `path` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("codat")):
            module = node.module if node.level else node.module.partition(".")[2]
            # `from . import x` and `from codat import x` name the modules themselves
            found.update([module.split(".")[0]] if module else (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("codat."))
    return found


IMPORTS = {path.stem: package_imports(path) for path in sorted(SRC.glob("*.py"))}


@pytest.mark.parametrize("name", ["nn_engine", "dro_core", "data"])
def test_core_module_imports_nothing_from_the_package(name):
    assert IMPORTS[name] == set()


def test_attacks_imports_only_data_and_nn_engine():
    assert IMPORTS["attacks"] == {"data", "nn_engine"}


UPPER_IMPORTS = {
    "metrics": {"attacks", "data", "nn_engine"},
    "training": {"attacks", "data", "dro_core", "metrics", "nn_engine"},
    "cli": {"attacks", "data", "dro_core", "metrics", "nn_engine", "training"},
}


@pytest.mark.parametrize("name", sorted(UPPER_IMPORTS))
def test_upper_module_imports_are_pinned(name):
    assert IMPORTS[name] == UPPER_IMPORTS[name]


def test_every_module_is_pinned():
    pinned = {"__init__", "nn_engine", "dro_core", "data", "attacks", *UPPER_IMPORTS}
    assert set(IMPORTS) == pinned
    assert IMPORTS["__init__"] == set()
