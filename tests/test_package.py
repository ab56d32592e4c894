"""The package's public surface: what it exports and what importing it loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import percmix

SRC = Path(percmix.__file__).resolve().parent
ROOT = SRC.parents[1]


def _exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return sorted(alias.asname or alias.name
                  for node in tree.body if isinstance(node, ast.ImportFrom)
                  for alias in node.names)


def _defined_names():
    """Every module-level function and class of the package, and every method but dunders."""
    names = set()
    for f in SRC.glob("*.py"):
        for node in ast.parse(f.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(m.name for m in node.body if isinstance(m, ast.FunctionDef)
                             and not m.name.startswith("__"))
    return sorted(names)


def _code_words(path):
    """The identifiers a file's code uses, and its string constants that name an attribute.

    A name or attribute counts, and so does a string constant that is exactly
    an identifier (``perfbench/tracer.py`` wraps functions by name); a word in
    a docstring, a comment or a longer string does not.
    """
    words = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            words.add(node.value)
    return words


def _uncalled(names):
    """The names that no code outside tests/ uses; a def or class is no use of its own name."""
    files = [f for f in SRC.glob("*.py") if f.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(_code_words(f) for f in files))
    return [name for name in names if name not in used]


def test_every_export_has_a_caller_outside_tests():
    # an export that only tests call belongs in the tests
    names = _exported_names()
    assert len(names) > 40  # the parse found the import lists
    assert _uncalled(names) == []


def test_every_function_class_and_method_has_a_caller_outside_tests():
    # so does a function, class or method, exported or not, that only tests
    # call; the BondConfig readers read the `generate` formats from outside
    names = _defined_names()
    assert len(names) > 150  # the parse found the modules and their classes
    assert _uncalled(names) == ["from_bytes", "from_text"]


def _loaded_by_import(module: str) -> bool:
    """Whether a fresh ``import percmix`` puts ``module`` in sys.modules."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, percmix; print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip() == "True"


def test_import_leaves_scipy_spatial_unloaded():
    # chain imports cdist lazily, inside the first pairwise probe
    assert not _loaded_by_import("scipy.spatial")


def test_import_loads_scipy_special():
    # chain imports it with the package; the first probe's cdist import would
    # otherwise load it inside a timed sweep
    assert _loaded_by_import("scipy.special")
