"""The public API: every exported name resolves, and the package re-exports
only names its modules export themselves."""

import ast
import importlib
import inspect

import matchorder

MODULES = ("cli", "engine", "matchings", "permgraphs", "permutations", "suites")


def test_exports_resolve_and_match_their_modules():
    for name in MODULES:
        module = importlib.import_module(f"matchorder.{name}")
        for attr in module.__all__:
            assert hasattr(module, attr), f"matchorder.{name}.{attr}"
    for attr in matchorder.__all__:
        assert hasattr(matchorder, attr), f"matchorder.{attr}"
    # where __init__ takes each name from
    source = {
        alias.asname or alias.name: node.module
        for node in ast.parse(inspect.getsource(matchorder)).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    for attr in matchorder.__all__:
        module = importlib.import_module(f"matchorder.{source[attr]}")
        assert attr in module.__all__, f"matchorder.{source[attr]} does not export {attr}"
