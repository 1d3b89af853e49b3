"""Every name a module imports is used in it or re-exported by it, and
every parameter of a function is read in its body.  A parameter that exists
only for a calling protocol takes a name that starts with an underscore.
No module uses ``numpy.random``: importing it costs every CLI child about
5 MiB of resident memory, and stdlib ``random`` is loaded anyway.  No
function builds ``QuadratureSpec()`` with no arguments: a default spec is
``quadrature.DEFAULT_SPEC``, one instance, where a new one costs every
closed-form evaluation a dataclass build and validation.

``cli.py`` imports ``csv`` only inside ``render_csv``, so a JSON or human
report does not load it, and no module loads ``numpy.fft``.  ``cli.main``
freezes the garbage collector over the import-time heap; no library call
touches it.

Every public top-level definition of a module is in its ``__all__``, and the
package's ``__all__`` is ``__version__`` followed by those lists: each public
name is declared once.

Only ``errors.py`` imports ``numbers``: integer counts have one validator,
``errors.check_k``, which every layer uses.

``tests/_oracles.py`` imports nothing from ``hurzeta``: the references the
suite checks the package against share none of its code."""

import ast
import importlib
import json
import subprocess
import sys
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


def _bare_spec_calls(tree):
    """Lines inside a function that call ``QuadratureSpec()`` (also as
    ``<module>.QuadratureSpec()``) with no arguments."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and not node.args and not node.keywords):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "QuadratureSpec":
                out.append(node.lineno)
    return sorted(set(out))


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_default_spec_built_per_call(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _bare_spec_calls(tree) == []


def test_bare_spec_calls_are_found():
    tree = ast.parse("DEFAULT_SPEC = QuadratureSpec()\n"
                     "def f(spec=None):\n"
                     "    spec = spec or QuadratureSpec()\n"
                     "    tight = QuadratureSpec(rel_tol=1e-12)\n"
                     "    return quadrature.QuadratureSpec()\n"
                     "g = lambda: QuadratureSpec()\n"
                     "class C:\n"
                     "    def spec(self):\n"
                     "        return QuadratureSpec(**self.tolerances) or QuadratureSpec()\n")
    assert _bare_spec_calls(tree) == [3, 5, 6, 9]


def _imports_of(tree, package):
    """Lines that import ``package`` or a name or submodule of it, at any depth."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out += [node.lineno for name in names
                if name == package or name.startswith(package + ".")]
    return sorted(out)


def test_only_errors_imports_numbers():
    importers = [p.name for p in SOURCES
                 if _imports_of(ast.parse(p.read_text(), filename=str(p)), "numbers")]
    assert importers == ["errors.py"]


def test_numbers_imports_are_found():
    tree = ast.parse("import numbers\n"
                     "from numbers import Integral\n"
                     "from . import numbers as local\n"
                     "def f():\n"
                     "    import numbers as n\n"
                     "import numbersx\n"
                     "import os, numbers.abc\n")
    assert _imports_of(tree, "numbers") == [1, 2, 5, 7]


def test_oracles_import_nothing_from_the_package():
    path = Path(__file__).parent / "_oracles.py"
    assert _imports_of(ast.parse(path.read_text(), filename=str(path)), "hurzeta") == []


def test_package_imports_are_found():
    tree = ast.parse("import hurzeta\n"
                     "from hurzeta.genfun import genfun_closed\n"
                     "from . import hurzeta as local\n"
                     "def f():\n"
                     "    import mpmath, hurzeta.kernels as k\n"
                     "import hurzetax\n"
                     "from hurzeta import cli\n")
    assert _imports_of(tree, "hurzeta") == [1, 2, 5, 7]


def _module_level_csv_imports(tree):
    """Lines outside any function body that import ``csv`` or a submodule
    of it: imports that run when the module is imported."""
    out = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            names = []
        out.extend(node.lineno for name in names
                   if name == "csv" or name.startswith("csv."))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return out


def test_cli_imports_csv_lazily():
    path = SOURCES[0].parent / "cli.py"
    assert _module_level_csv_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_module_level_csv_imports_are_found():
    tree = ast.parse("import csv\n"
                     "from . import csv as local\n"
                     "try:\n"
                     "    from csv import DictWriter\n"
                     "except ImportError:\n"
                     "    pass\n"
                     "def f():\n"
                     "    import csv\n"
                     "class C:\n"
                     "    import csv.x\n"
                     "import csvkit\n")
    assert _module_level_csv_imports(tree) == [1, 4, 10]


def _child(code):
    """Run ``code`` in a fresh interpreter; its last stderr line as JSON."""
    p = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=120)
    assert p.stderr, p.stdout
    return json.loads(p.stderr.splitlines()[-1])


def test_json_report_does_not_load_csv():
    loaded = _child("import json, sys\n"
                    "from hurzeta import cli\n"
                    "cli.main(['eval', '--k', '3', '--b', '0.3'])\n"
                    "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n")
    assert "hurzeta.cli" in loaded and "csv" not in loaded
    # every hurzeta module is loaded here; the recovery's Taylor sums are a
    # twiddle product, since numpy.fft costs ~1.5 ms and 0.6 MiB to load
    assert "numpy.fft" not in loaded


def test_only_the_cli_freezes_the_collector():
    counts = _child(
        "import gc, json, sys\n"
        "from hurzeta import genfun, hurwitz, validation\n"
        "hurwitz.zeta_auto(3, 0.3 + 0.2j)\n"
        "genfun.zeta_from_genfun(3, 1.25, 0.3, 32)\n"
        "validation.theorem1_scan(1, (100, 1000))\n"
        "library = gc.get_freeze_count()\n"
        "from hurzeta import cli\n"
        "cli.main(['eval', '--k', '3', '--b', '0.3'])\n"
        "print(json.dumps([library, gc.get_freeze_count()]), file=sys.stderr)\n")
    assert counts[0] == 0
    assert counts[1] > 0


SURFACE_MODULES = ("errors", "quadrature", "special_functions", "hurwitz", "genfun",
                   "validation")


@pytest.mark.parametrize("module", SURFACE_MODULES)
def test_every_public_definition_is_exported(module):
    path = SOURCES[0].parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    public = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    exported = importlib.import_module(f"hurzeta.{module}").__all__
    assert [name for name in public if name not in exported] == []


def test_package_surface_is_the_modules_lists():
    import hurzeta

    modules = [importlib.import_module(f"hurzeta.{m}") for m in SURFACE_MODULES]
    assert hurzeta.__all__ == ["__version__"] + [n for m in modules for n in m.__all__]
    assert len(set(hurzeta.__all__)) == len(hurzeta.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(hurzeta, name) is getattr(module, name), name
