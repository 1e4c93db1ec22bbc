"""The package's module layers, checked on the source as README's design notes state them.

Each module imports, from the package, only modules of the layers before
its own.  ``clock`` and the sample ``data`` import nothing of the package,
and any module may import them.  ``__init__`` and ``__main__`` are the
package's entry points, above every layer: no module imports them.
"""

import ast
from pathlib import Path

import pytest

import teleokin

PACKAGE = Path(teleokin.__file__).parent
LAYERS = [{"errors"}, {"geometry"}, {"model", "wire"}, {"retarget", "stream", "validate"}, {"runtime"}, {"cli"}]
FREE = {"clock", "data"}
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}
SOURCES = {path.stem: path for path in PACKAGE.glob("*.py") if path.stem not in ("__init__", "__main__")}
SOURCES["data"] = PACKAGE / "data" / "__init__.py"


def imports(path):
    """``(package modules, other top-level modules)`` that ``path`` imports, at any depth of its code."""
    package, other = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "teleokin":
                    package.add(rest.partition(".")[0] or "__init__")
                else:
                    other.add(top)
        elif isinstance(node, ast.ImportFrom):
            top, _, rest = (node.module or "").partition(".")
            if node.level == 0 and top != "teleokin":
                other.add(top)
            else:
                module = rest if node.level == 0 else top  # a relative import's ``top`` is a package module
                if module:
                    package.add(module.partition(".")[0])
                else:  # ``from teleokin import wire`` or ``from . import wire``
                    package.update(alias.name for alias in node.names)
    return package, other


def test_every_module_has_a_layer():
    assert set(SOURCES) == set(RANK) | FREE


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_a_module_imports_only_earlier_layers(name):
    package, _ = imports(SOURCES[name])
    if name in FREE:
        assert package == set()
    else:
        backward = {module for module in package - FREE if RANK.get(module, len(LAYERS)) >= RANK[name]}
        assert backward == set(), f"{name} imports a module of its own or a later layer"


def test_runtime_imports_no_numpy():
    assert "numpy" not in imports(SOURCES["runtime"])[1]


def test_the_import_reader_sees_each_form(tmp_path):
    source = tmp_path / "forms.py"
    source.write_text(
        "import numpy as np\n"
        "import teleokin.wire\n"
        "from . import clock\n"
        "from .model import RobotModel\n"
        "from teleokin.stream import schedule\n"
        "from teleokin import validate\n"
        "def later():\n"
        "    from .runtime import run_loop\n"
    )
    assert imports(source) == ({"wire", "clock", "model", "stream", "validate", "runtime"}, {"numpy"})
