"""Every narrative script under ``demos/`` runs to completion and prints, and
the README's Python quick start runs as written."""

import ast
import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_imports_the_package_before_numpy(path):
    # imported first, the package loads OpenBLAS with one thread (test_threads.py)
    modules = [node.module if isinstance(node, ast.ImportFrom) else node.names[0].name
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    roots = [module.split(".")[0] for module in modules]
    assert "numpy" not in roots or roots.index("qwchannel") < roots.index("numpy")
