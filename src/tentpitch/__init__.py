"""Advancing-front space-time mesh generator with causal patch ordering."""

from .errors import (
    DegeneracyError,
    FrontInvariantError,
    MeshValidationError,
    ParseError,
    PatchConsistencyError,
    StallError,
)
from .front import Front, GreedyLowest, MISPhases
from .ground_mesh import GroundMesh, MeshConstants, load, precompute
from .pitcher import LiftBound, PitchConfig, RunTrace, compute_lift, pitch_tent, run
from .spacetime import Facet, MeshStats, Patch, SpaceTimeMesh, stats
from .verifier import VerifyReport, verify

__version__ = "0.1.0"

__all__ = [
    "DegeneracyError",
    "Facet",
    "Front",
    "FrontInvariantError",
    "GreedyLowest",
    "GroundMesh",
    "LiftBound",
    "MISPhases",
    "MeshConstants",
    "MeshStats",
    "MeshValidationError",
    "ParseError",
    "Patch",
    "PatchConsistencyError",
    "PitchConfig",
    "RunTrace",
    "SpaceTimeMesh",
    "StallError",
    "VerifyReport",
    "compute_lift",
    "load",
    "pitch_tent",
    "precompute",
    "run",
    "stats",
    "verify",
]
