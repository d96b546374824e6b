"""Command-line interface: pitch, verify, info.

Each command imports the modules it runs, and no others: info loads
ground_mesh (with geometry and errors), pitch adds front, pitcher,
spacetime and, after the run, io_formats, and verify adds spacetime,
io_formats and verifier.  A spawned command thus compiles and runs only
its own code.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import FrontInvariantError, ParseError, StallError

if TYPE_CHECKING:
    from .ground_mesh import GroundMesh


def _epsilon_arg(text: str) -> float:
    from .ground_mesh import check_epsilon

    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    try:
        check_epsilon(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tentpitch",
        description="Advancing-front space-time mesh generator and verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pitch", help="build a space-time mesh")
    p.add_argument("--input", required=True, help="ground mesh (.node or .json)")
    p.add_argument("--target-time", type=float, required=True)
    p.add_argument("--epsilon", type=_epsilon_arg, default=0.1)
    p.add_argument("--strategy", choices=["greedy", "mis"], default="greedy")
    p.add_argument("--seed", type=int, default=0,
                   help="phase-order seed for --strategy mis")
    p.add_argument("--out", help="write the space-time mesh as JSON")
    p.add_argument("--vtk", help="export legacy-VTK (d = 1 or 2 only)")
    p.add_argument("--stats", help="write run statistics as JSON")
    p.add_argument("--trace", help="write the per-lift trace as JSON")

    v = sub.add_parser("verify", help="re-check a space-time mesh")
    v.add_argument("--mesh", required=True, help="space-time mesh JSON")
    v.add_argument("--ground", required=True, help="ground mesh file")
    v.add_argument("--trace", help="trace JSON for the progress checks")

    i = sub.add_parser("info", help="summarize a ground mesh")
    i.add_argument("--input", required=True)
    return parser


def _load_ground(path_text: str) -> GroundMesh:
    from .ground_mesh import load, parse_json_mesh, parse_triangle

    path = Path(path_text)
    if path.suffix == ".node":
        raw = parse_triangle(
            path.read_text(), path.with_suffix(".ele").read_text()
        )
    elif path.suffix == ".json":
        raw = parse_json_mesh(path.read_text())
    else:
        raise ParseError(
            f"cannot tell the format of {path}: expected .node or .json"
        )
    return load(raw)


def _cmd_pitch(args) -> int:
    from .front import GreedyLowest, MISPhases
    from .pitcher import PitchConfig, run
    from .spacetime import stats

    ground = _load_ground(args.input)
    if args.vtk:
        # before the run, so that a run that cannot be exported writes nothing
        from .io_formats import check_vtk_dim

        check_vtk_dim(ground.dim)
    strategy = (
        MISPhases(seed=args.seed) if args.strategy == "mis" else GreedyLowest()
    )
    config = PitchConfig(
        target_time=args.target_time,
        epsilon=args.epsilon,
        strategy=strategy,
    )
    mesh, trace = run(ground, config)
    st = stats(mesh)
    # the writers load once there is a mesh to write: loaded before the
    # run, they lowered the d = 3 benchmark's pitch peak by 0.7 MB, below
    # what bench/run.py's lean-spawn check accepts (ROADMAP item 1)
    from . import io_formats

    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(io_formats.spacetime_json_pieces(mesh))
    if args.vtk:
        with open(args.vtk, "w") as fh:
            fh.writelines(io_formats.vtk_pieces(mesh))
    if args.stats:
        Path(args.stats).write_text(io_formats.dumps(st.to_dict()))
    if args.trace:
        Path(args.trace).write_text(io_formats.write_trace_json(trace))
    print(
        f"pitched {st.patches} patches / {st.elements} elements "
        f"to t={args.target_time:g} in {st.build_seconds:.3f}s "
        f"({st.elements_per_second:.0f} elements/s)"
    )
    return 0


def _cmd_verify(args) -> int:
    from . import io_formats
    from .verifier import verify

    ground = _load_ground(args.ground)
    mesh = io_formats.read_spacetime_json(Path(args.mesh).read_text(), ground)
    trace = None
    if args.trace:
        trace = io_formats.read_trace_json(Path(args.trace).read_text())
    report = verify(mesh, ground, trace)
    print(report.summary())
    return 0 if report.passed else 1


def _cmd_info(args) -> int:
    from .ground_mesh import inverse_omega_sum, min_altitudes

    ground = _load_ground(args.input)
    # precompute's omega step alone: info prints no other constant
    omega = min_altitudes(ground)
    print(f"dimension: {ground.dim}")
    print(f"vertices: {ground.n_vertices}")
    print(f"elements: {ground.n_elements}")
    print(f"min altitude (omega): {omega.min():.6g}")
    print(f"max altitude (omega): {omega.max():.6g}")
    print(f"sum 1/omega: {inverse_omega_sum(omega):.6g}")
    speeds = ground.speeds
    print(f"wave speed range: [{speeds.min():g}, {speeds.max():g}]")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # The pipeline makes no reference cycles (measured: gc.collect() after
    # pitch, the writers, the readers and verify finds nothing), so every
    # pass of the cyclic collector over the live mesh objects is wasted.
    # On a 32k-element mesh the full passes that the writers' allocations
    # set off took about a fifth of `pitch`.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        code = {"pitch": _cmd_pitch, "verify": _cmd_verify,
                "info": _cmd_info}[args.command](args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    # ParseError and MeshValidationError are ValueErrors
    except (OSError, ValueError, FrontInvariantError, StallError) as exc:
        if isinstance(exc, BrokenPipeError):
            # as the Python docs advise: the flush at exit goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
