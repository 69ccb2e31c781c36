"""Each library module's ``__all__`` names exactly its public definitions."""

import ast
import importlib
import inspect

import pytest

MODULES = ["combinat", "curves", "linalg", "models", "oracle", "tangent"]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_definition(name):
    module = importlib.import_module(f"arctic.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate names"
    assert [n for n in exported if not hasattr(module, n)] == []
    tree = ast.parse(inspect.getsource(module))
    public = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert sorted(public - set(exported)) == []
