"""The modules of ``src/warpquot`` import one another in one order.

A module may import only the modules before it in ``ORDER``: the chart
kernel knows nothing of products, the quotient layer holds no built-in
fixture and no product diagnostic, and only the runner reads what the
scenario layer builds.  ``__init__`` re-exports every layer and is exempt;
``from . import __version__`` reads it.  Imports are read with ``ast`` at
any depth, so a deferred import inside a function counts too, and a new
module must take its place in the order before the test passes.
"""

import ast

import pytest

from test_no_test_only_code import _src_trees

ORDER = ["errors", "expr", "chartkit", "productgeo", "transport", "quotient", "fixtures",
         "scenario", "cli"]
PACKAGE = "warpquot"


def _imports(tree) -> set:
    """The package modules that tree imports; a name of the package that is
    not a module (``__version__``) counts as ``__init__``."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith(f"{PACKAGE}.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != PACKAGE:
                continue  # outside the package
            inner = module.split(".")[1:] if node.level == 0 else module.split(".")
            named |= {inner[0]} if inner and inner[0] else {a.name for a in node.names}
    return {name if name in ORDER else "__init__" for name in named}


def test_every_module_has_its_place_in_the_order():
    assert sorted(path.stem for path in _src_trees() if path.stem != "__init__") == sorted(ORDER)


@pytest.mark.parametrize("module", ORDER)
def test_a_module_imports_only_the_modules_before_it(module):
    tree = next(tree for path, tree in _src_trees().items() if path.stem == module)
    later = set(ORDER[ORDER.index(module):])  # itself and every module after it
    assert not _imports(tree) & later, f"{module} imports {sorted(_imports(tree) & later)}"


def test_the_scan_reads_every_import_form():
    source = ("from . import cli, __version__\n"
              "from .scenario import resolve_scenario\n"
              "import warpquot.fixtures\n"
              "from warpquot import productgeo as pg\n"
              "from warpquot.chartkit import MetricField\n"
              "import numpy, os.path\n"
              "from typing import Optional\n"
              "def deferred():\n"
              "    from .transport import PiecewiseCurve\n")
    assert _imports(ast.parse(source)) == {"cli", "__init__", "scenario", "fixtures",
                                           "productgeo", "chartkit", "transport"}
