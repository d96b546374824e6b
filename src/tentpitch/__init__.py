"""Advancing-front space-time mesh generator with causal patch ordering.

The exports are loaded on first use (PEP 562), so `import tentpitch`
alone loads no submodule and each command loads only the modules it
runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# each export and the submodule that defines it
_SOURCES = {
    "Front": "front",
    "FrontInvariantError": "errors",
    "GreedyLowest": "front",
    "GroundMesh": "ground_mesh",
    "MISPhases": "front",
    "MeshValidationError": "errors",
    "ParseError": "errors",
    "PitchConfig": "pitcher",
    "StallError": "errors",
    "load": "ground_mesh",
    "precompute": "ground_mesh",
    "run": "pitcher",
    "stats": "spacetime",
    "verify": "verifier",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
