"""Every ``c4xai`` name the demos use exists.

No test runs ``demos/``, so a renamed or deleted function would break a
demo silently. This reads each demo's syntax tree instead of running it:
each ``from c4xai import m`` module must have every attribute the demo
reads as ``m.attr``, and each ``from c4xai[.m] import name`` must exist.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def missing_names(tree: ast.AST) -> list:
    """The dotted ``c4xai`` names ``tree`` uses that do not exist."""
    modules, used = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "c4xai":
            for alias in node.names:
                try:
                    modules[alias.asname or alias.name] = importlib.import_module(
                        f"{node.module}.{alias.name}"
                    )
                except ModuleNotFoundError:
                    used.append((node.module, alias.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            used.append((modules[node.value.id].__name__, node.attr))
    return sorted(
        {f"{mod}.{name}" for mod, name in used if not hasattr(importlib.import_module(mod), name)}
    )


def test_every_demo_is_checked():
    assert {demo.name for demo in DEMOS} >= {"explain_position.py", "train_small.py"}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_every_c4xai_name_a_demo_uses_exists(demo):
    assert missing_names(ast.parse(demo.read_text())) == []


def test_a_deleted_name_is_reported():
    source = (
        "from c4xai import charfn\n"
        "from c4xai.charfn import no_such_function\n"
        "charfn.partial_shapley(nu, 0.0, 5, rng)\n"
        "charfn.retired_sampler(nu, 5, rng)\n"
    )
    assert missing_names(ast.parse(source)) == [
        "c4xai.charfn.no_such_function",
        "c4xai.charfn.retired_sampler",
    ]
