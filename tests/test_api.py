"""The public surface of the package: the names it exports, and no
function, class or method in src/ that only tests reach."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tentpitch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tentpitch"

# the names that the CLI, bench/ and the README's library example use
EXPORTS = [
    "Front",
    "FrontInvariantError",
    "GreedyLowest",
    "GroundMesh",
    "MISPhases",
    "MeshValidationError",
    "ParseError",
    "PitchConfig",
    "StallError",
    "load",
    "precompute",
    "run",
    "stats",
    "verify",
]

# synthetic holds the mesh generators that the tests and bench/ build
# their fixtures with; most of them only tests call, and that is its job
FIXTURE_MODULES = {"synthetic"}


def test_exports():
    assert sorted(tentpitch.__all__) == EXPORTS
    assert all(hasattr(tentpitch, name) for name in EXPORTS)


def _references() -> tuple[set, set]:
    """The names and the attribute names used in src/ and bench/, the
    package's __init__ aside.  A string constant counts as both:
    bench/traced.py wraps functions by name."""
    names, attrs = set(), set()
    files = [*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py")]
    for path in files:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
                attrs.add(node.value)
    return names, attrs


def test_no_public_name_that_only_tests_reach():
    names, attrs = _references()
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in FIXTURE_MODULES:
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") and node.name not in names | attrs:
                unused.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [f"{path.stem}.{node.name}.{sub.name}"
                           for sub in node.body
                           if isinstance(sub, ast.FunctionDef)
                           and not sub.name.startswith("_")
                           and sub.name not in attrs]
    assert unused == []


def test_no_private_name_that_only_tests_reach():
    # a private module-level function or class that nothing in src/ or
    # bench/ names is test-only code; its own def does not count
    names, attrs = _references()
    unused = [f"{path.stem}.{node.name}"
              for path in sorted(SRC.glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_")
              and node.name not in names | attrs]
    assert unused == []


def test_runtime_needs_numpy_alone():
    # scipy is for the synthetic fixtures only: the CLI never loads it
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tentpitch.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=60, env=env, check=True)
    assert proc.stdout == "[]\n"
