"""Every name a module imports is used in it or re-exported by it, and
every parameter of a function is read in its body.  A parameter that exists
only for a calling protocol takes a name that starts with an underscore.
No module uses ``numpy.random``: importing it costs every CLI child about
5 MiB of resident memory, and stdlib ``random`` is loaded anyway."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "hurzeta").glob("*.py"))


def _unused_imports(tree):
    """Names bound by the module's imports that nothing reads or exports."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _unread_parameters(tree):
    """(line, function, parameter) for each parameter, not named ``_*``,
    that nothing in its function's body reads."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        out += [(node.lineno, name, a.arg) for a in params
                if not a.arg.startswith("_") and a.arg not in read]
    return out


def _numpy_random_uses(tree):
    """Lines that import or name ``numpy.random`` (also as ``np.random``)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            names = ["numpy.random"]
        else:
            continue
        out += [node.lineno for name in names
                if name == "numpy.random" or name.startswith("numpy.random.")]
    return out


def test_sources_are_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unread_parameters(tree) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_numpy_random(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _numpy_random_uses(tree) == []


def test_numpy_random_uses_are_found():
    tree = ast.parse("import numpy.random\nfrom numpy import random\n"
                     "from numpy.random import default_rng\nimport numpy as np\n"
                     "np.random.default_rng(1)\nimport random\nrandom.Random(1)\n")
    assert _numpy_random_uses(tree) == [1, 2, 3, 5]
