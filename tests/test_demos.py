"""Every ``c4xai`` name and command line the demos and the README use exists.

No test runs ``demos/``, so a renamed or deleted function, option or
subcommand would break a demo silently. This reads each Python demo's
syntax tree instead of running it: each ``from c4xai import m`` module
must have every attribute the demo reads as ``m.attr``, and each
``from c4xai[.m] import name`` must exist. Every ``c4xai ...`` command
of the shell walkthrough must parse with ``cli.build_parser()``. Every
backticked ``module.name`` of the README must be an attribute of that
c4xai module, or a span name of the benchmark's tracer.
"""

import ast
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import c4xai
from c4xai import cli

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WALKTHROUGH = ROOT / "demos" / "cli_walkthrough.sh"


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


def c4xai_calls(script: str) -> list:
    """The argument lists of the script's ``c4xai`` commands.

    Continuation lines are joined first, and every ``$VAR`` or ``${VAR}``
    becomes ``0``, a placeholder that also parses as a number. A command
    ends at the first pipe, redirection or command separator.
    """
    script = re.sub(r"\$\{?\w+\}?", "0", script.replace("\\\n", " "))
    calls = []
    for line in script.splitlines():
        if not line.startswith("c4xai "):
            continue
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        lexer.commenters = "#"
        words = list(lexer)
        cut = next((k for k, w in enumerate(words) if w[0] in "|&;<>"), len(words))
        calls.append(words[1:cut])
    return calls


def rejected_calls(script: str) -> list:
    """The ``c4xai`` commands of ``script`` that the CLI parser rejects."""
    parser = cli.build_parser()
    rejected = []
    for argv in c4xai_calls(script):
        try:
            parser.parse_args(argv)
        except SystemExit:
            rejected.append(" ".join(argv))
    return rejected


def test_the_walkthrough_commands_parse(capsys):
    script = WALKTHROUGH.read_text()
    assert {argv[0] for argv in c4xai_calls(script)} >= {"train", "curves", "tournament"}
    assert rejected_calls(script) == [], capsys.readouterr().err


def test_a_removed_option_is_reported(capsys):
    script = (
        'OUT=demos/out\n'
        'c4xai curves --checkpoint "$OUT/a.ckpt" --fractions 0,1 \\\n'
        '    --no-such-option 2 --out "${OUT}/curve.csv" | tail -n 1\n'
        'c4xai fw --checkpoint $OUT/a.ckpt --moves 3 > /dev/null  # a comment\n'
        'echo c4xai curves --no-such-option\n'
    )
    assert c4xai_calls(script) == [
        ["curves", "--checkpoint", "0/a.ckpt", "--fractions", "0,1",
         "--no-such-option", "2", "--out", "0/curve.csv"],
        ["fw", "--checkpoint", "0/a.ckpt", "--moves", "3"],
    ]
    assert rejected_calls(script) == [
        "curves --checkpoint 0/a.ckpt --fractions 0,1 --no-such-option 2 --out 0/curve.csv"
    ]
    assert "unrecognized arguments: --no-such-option 2" in capsys.readouterr().err


MODULES = tuple(module.name for module in pkgutil.iter_modules(c4xai.__path__))
# a module name, not part of a longer name or a path, optionally after "c4xai."
DOTTED = re.compile(r"(?<![\w./])(?:c4xai\.)?((?:" + "|".join(MODULES) + r")\.[A-Za-z_]\w*)")
FENCE = re.compile(r"^```.*?^```", re.S | re.M)


def span_names() -> set:
    """The ``module.name`` strings that ``perfbench/spans.py`` spells out."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and DOTTED.fullmatch(node.value)
    }


def missing_readme_names(markdown: str, exempt=frozenset()) -> list:
    """The ``module.name`` references in the code of ``markdown`` (fenced
    blocks and backticked spans) that name no attribute of that c4xai
    module and are not in ``exempt``."""
    code = FENCE.findall(markdown) + re.findall(r"`([^`]+)`", FENCE.sub("", markdown))
    names = {match.group(1) for text in code for match in DOTTED.finditer(text)}
    return sorted(
        name
        for name in names - set(exempt)
        if not hasattr(importlib.import_module("c4xai." + name.split(".")[0]), name.split(".")[1])
    )


def test_every_c4xai_name_the_readme_uses_exists():
    assert {"charfn.eval_mask", "network.backward_params"} <= span_names()
    assert missing_readme_names((ROOT / "README.md").read_text(), span_names()) == []


def test_a_retired_readme_name_is_reported():
    markdown = (
        "`mcts.argmax_chooser` plays argmax; `c4xai.mcts.ExternalOracle` and\n"
        "`network.forward_boards(params, boards)` exist, as the `charfn.eval_mask`\n"
        "span does; `src/c4xai/engine.py` is a path.\n"
        "```python\nboard = engine.new_board()\nengine.no_such_rule(board)\n```\n"
    )
    assert missing_readme_names(markdown, span_names()) == [
        "engine.no_such_rule",
        "mcts.argmax_chooser",
    ]
