"""Each library module's ``__all__`` names exactly its public definitions,
and the brute-force oracle reads only the lattice off a model record."""

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


def test_oracle_reads_only_the_lattice_of_a_record():
    """The oracle stays an independent check: no closed form reaches it."""
    tree = ast.parse(inspect.getsource(importlib.import_module("arctic.oracle")))
    uses = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "MODEL_OPS"]
    reads = [
        n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute)
        and isinstance(n.value, ast.Subscript)
        and isinstance(n.value.value, ast.Name)
        and n.value.value.id == "MODEL_OPS"
    ]
    assert reads == ["lattice"] * len(uses) and uses
