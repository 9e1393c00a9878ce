import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

MODULES = ("groupvar", "groupvar.cli", "groupvar.complexes", "groupvar.core",
           "groupvar.defaults", "groupvar.errors", "groupvar.harmonic",
           "groupvar.liegroup", "groupvar.reduction", "groupvar.sampling",
           "groupvar.serialization")


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def _loaded_names() -> set[str]:
    """Every name the package's code reads: ``Name`` and ``Attribute``
    loads in ``src/groupvar``; docstrings, imports and definitions count
    for nothing."""
    names = set()
    for path in (ROOT / "src" / "groupvar").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _span_targets() -> set[str]:
    """The module-level names that the ``SPANS`` table of the benchmark
    wraps (a method counts for its class), read from the source; a glob
    names no single function."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "SPANS" for t in node.targets))
    return {attr.split(".")[0] for _, _, attr in ast.literal_eval(table)
            if not re.search(r"[*?\[|]", attr)}


def test_every_public_name_has_a_caller_or_a_readme_line():
    """Each ``__all__`` name is read by code in ``src/``, named in a code
    span of README.md, or a benchmark span target; anything else is a name
    nothing uses."""
    loaded, spans = _loaded_names(), _span_targets()
    readme = (ROOT / "README.md").read_text()
    unused = []
    for name in MODULES:
        for attr in getattr(importlib.import_module(name), "__all__", ()):
            documented = re.search(rf"`[^`\n]*\b{re.escape(attr)}\b[^`\n]*`", readme)
            if attr not in loaded and attr not in spans and not documented:
                unused.append(f"{name}.{attr}")
    assert unused == []


# The verify suites share one runner signature, (cfg, rng); the elimination
# suite solves its window from cfg alone and draws nothing from rng.
UNREAD_PARAMETERS = {("cli.py", "_suite_elimination", "rng")}


def _only_raises(body) -> bool:
    """A body that is a raise, after an optional docstring."""
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return len(body) == 1 and isinstance(body[0], ast.Raise)


def test_every_parameter_is_read():
    """Every parameter of every function and lambda in ``src/groupvar``,
    except ``self`` and ``cls``, is loaded in its body; a body that only
    raises, such as an abstract method, reads none."""
    unread = []
    for path in sorted((ROOT / "src" / "groupvar").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            body = node.body if isinstance(node.body, list) else [node.body]
            if _only_raises(body):
                continue
            loaded = {sub.id for part in body for sub in ast.walk(part)
                      if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, (args.vararg, args.kwarg))]
            name = getattr(node, "name", "<lambda>")
            unread += [(path.name, name, p.arg) for p in params
                       if p.arg not in ("self", "cls") and p.arg not in loaded
                       and (path.name, name, p.arg) not in UNREAD_PARAMETERS]
    assert unread == []
