"""The benchmark's tracer (bench/tracer.py) times each entry of its ENTRIES
table by replacing the attribute its path names, and for a method only the
bindings in the class's own namespace.  An entry whose function moved, was
renamed or is now inherited would count zero calls without any error, so
each path must name an attribute of its owner's own namespace."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _entries() -> tuple:
    """ENTRIES of bench/tracer.py, read from its source without running it."""
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "ENTRIES":
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no ENTRIES table")


ENTRIES = _entries()


@pytest.mark.parametrize("metric,module,path", ENTRIES, ids=[e[0] for e in ENTRIES])
def test_entry_is_an_attribute_of_its_owner(metric, module, path):
    owner = importlib.import_module(f"heunfactor.{module}")
    *cls_path, attr = path.split(".")
    for name in cls_path:
        assert name in vars(owner), f"{metric}: {name} is not defined in {owner.__name__}"
        owner = vars(owner)[name]
    assert attr in vars(owner), f"{metric}: {attr} is not in {owner.__name__}'s own namespace"
    assert callable(vars(owner)[attr])
