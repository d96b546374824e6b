"""Advancing-front space-time mesh generator with causal patch ordering."""

from .errors import FrontInvariantError, MeshValidationError, ParseError, StallError
from .front import Front, GreedyLowest, MISPhases
from .ground_mesh import GroundMesh, load, precompute
from .pitcher import PitchConfig, run
from .spacetime import stats
from .verifier import verify

__version__ = "0.1.0"

__all__ = [
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
