"""Every public name of the package resolves, and the README's Python API example runs.

A name left in ``__all__`` after its definition is deleted breaks only
``from module import *``, which nothing else in the suite runs; a stale
re-export in ``simcert/__init__`` breaks ``import simcert`` itself, and a
renamed one the README's example.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import simcert
from simcert.cli import main

MODULES = ["simcert"] + [f"simcert.{m.name}" for m in pkgutil.iter_modules(simcert.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})


def test_readme_python_api_example_runs(tmp_path, monkeypatch, capsys):
    # the example loads net.json from the working directory, as the quick start writes it
    assert main(["paper-example", "--trials", "30", "--emit-project", str(tmp_path / "net.json")]) == 0
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    api = readme[readme.index("\n## Python API\n") :]
    block = re.search(r"^```python\n(.*?)^```$", api, re.DOTALL | re.MULTILINE).group(1)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    exec(block, {})
    assert capsys.readouterr().out.startswith("0.0956")  # the example's bound, printed first
