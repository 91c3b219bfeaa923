"""Each public name is declared once, in the ``__all__`` of the module that
defines it, and ``qwchannel`` exports the union of those lists.

A star import of a module binds its list and nothing else, and the README's
module table names every entry of it.  The CLI imports from the package only
names without a leading underscore.
"""

import ast
import importlib
import inspect
import os

import pytest

import qwchannel
import qwchannel.cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ("channels", "kraus", "walk", "witnesses")


def _readme_row(name: str) -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        rows = [line for line in handle if line.startswith(f"| `qwchannel.{name}`")]
    assert len(rows) == 1, rows
    return rows[0]


@pytest.mark.parametrize("name", MODULES)
def test_each_public_name_is_declared_once(name):
    module = importlib.import_module(f"qwchannel.{name}")
    bound = {}
    exec(f"from qwchannel.{name} import *", bound)
    del bound["__builtins__"]
    assert sorted(bound) == sorted(module.__all__)
    for entry in module.__all__:
        value = vars(module)[entry]
        # defined here, not imported from another module
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == module.__name__, entry
        assert getattr(qwchannel, entry) is value, entry
    lists = [importlib.import_module(f"qwchannel.{other}").__all__ for other in MODULES]
    assert sorted(qwchannel.__all__) == sorted(entry for names in lists for entry in names)
    assert len(set(qwchannel.__all__)) == len(qwchannel.__all__)
    row = _readme_row(name)
    assert [entry for entry in module.__all__ if f"`{entry}`" not in row] == []


def test_the_cli_imports_no_private_name():
    with open(qwchannel.cli.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.level > 0 or (node.module or "").startswith("qwchannel"))
                for alias in node.names]
    assert imported, "the scan found no import from the package"
    assert [name for name in imported if name.startswith("_")] == []
