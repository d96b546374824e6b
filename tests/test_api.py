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
    # bench/ names is test-only code; its own def does not count.  A
    # dunder (the package's __getattr__ and __dir__) is not private:
    # Python itself calls it by name
    names, attrs = _references()
    unused = [f"{path.stem}.{node.name}"
              for path in sorted(SRC.glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_")
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in names | attrs]
    assert unused == []


def test_verifier_takes_its_matrix_kernels_from_geometry():
    # the verifier's one geometric source is geometry.gradient_operators: a
    # numpy.linalg call of its own, the hull feet or a private geometry
    # kernel would be a second derivation of what it reads from them
    source = (SRC / "verifier.py").read_text()
    tree = ast.parse(source)
    linalg = [ast.unparse(node) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "linalg"
              or isinstance(node, ast.alias) and "linalg" in node.name]
    assert linalg == []
    private = [ast.unparse(node) for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               and ast.unparse(node.value) == "geometry"
               and node.attr.startswith("_")]
    assert private == []
    assert "hull_feet" not in source


def _python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=60, env=env, cwd=cwd, check=True)


def test_runtime_needs_numpy_alone():
    # scipy is for the generators of test and benchmark meshes only: the
    # CLI never loads it
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
    proc = _python("-c", "import sys, tentpitch.cli; "
                   "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.stdout == "[]\n"


def test_exports_load_on_first_use():
    proc = _python("-c", "\n".join([
        "import sys, tentpitch",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'tentpitch'))",
        "print(sorted(set(tentpitch.__all__) - set(dir(tentpitch))))",
        "from tentpitch import *",
        "print(sorted(set(tentpitch.__all__) - set(globals())))",
    ]))
    assert proc.stdout == "['tentpitch']\n[]\n[]\n"
    assert not hasattr(tentpitch, "no_such_name")


# the package's modules that each command loads besides the package
# itself; python -m runs tentpitch.cli as __main__, not as tentpitch.cli
COMMAND_MODULES = {
    "info": ["errors", "geometry", "ground_mesh"],
    "pitch": ["errors", "front", "geometry", "ground_mesh", "io_formats",
              "pitcher", "spacetime"],
    "verify": ["errors", "geometry", "ground_mesh", "io_formats",
               "spacetime", "verifier"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_what_it_runs(command, tmp_path):
    ground = str(ROOT / "tests" / "data" / "single_triangle.node")
    argv = {
        "info": ["--input", ground],
        "pitch": ["--input", ground, "--target-time", "1", "--out", "st.json",
                  "--trace", "trace.json", "--stats", "stats.json",
                  "--vtk", "st.vtk"],
        "verify": ["--mesh", "st.json", "--ground", ground,
                   "--trace", "trace.json"],
    }
    if command == "verify":
        _python("-m", "tentpitch.cli", "pitch", *argv["pitch"], cwd=tmp_path)
    # -X importtime names every module on the first import of it
    proc = _python("-X", "importtime", "-m", "tentpitch.cli", command,
                   *argv[command], cwd=tmp_path)
    loaded = {line.rsplit("|", 1)[1].strip()
              for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert sorted(m for m in loaded if m.split(".")[0] == "tentpitch") == [
        "tentpitch", *(f"tentpitch.{m}" for m in COMMAND_MODULES[command])]
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
