"""Command-line interface: pitch, verify, info."""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from . import io_formats
from .errors import FrontInvariantError, ParseError, StallError
from .front import GreedyLowest, MISPhases
from .ground_mesh import GroundMesh, load, precompute
from .pitcher import PitchConfig, run
from .spacetime import stats
from .verifier import verify


def _epsilon_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value <= 0.5:
        raise argparse.ArgumentTypeError(
            f"epsilon must be in (0, 1/2], got {value}"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tentpitch",
        description="Advancing-front space-time mesh generator and verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pitch", help="build a space-time mesh")
    p.add_argument("--input", required=True, help="ground mesh (.node or .json)")
    p.add_argument("--format", choices=["triangle", "json"],
                   help="input format (default: from extension)")
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
    i.add_argument("--format", choices=["triangle", "json"])
    return parser


def _load_ground(path_text: str, format_override: str | None) -> GroundMesh:
    path = Path(path_text)
    fmt = format_override
    if fmt is None:
        if path.suffix == ".node":
            fmt = "triangle"
        elif path.suffix == ".json":
            fmt = "json"
        else:
            raise ParseError(
                f"cannot infer format of {path} (use --format)"
            )
    if fmt == "triangle":
        node = path if path.suffix == ".node" else path.with_suffix(".node")
        ele = node.with_suffix(".ele")
        raw = io_formats.parse_triangle(
            node.read_text(), ele.read_text()
        )
    else:
        raw = io_formats.parse_json_mesh(path.read_text())
    return load(raw)


def _cmd_pitch(args) -> int:
    ground = _load_ground(args.input, args.format)
    if args.vtk:
        # before the run, so that a run that cannot be exported writes nothing
        io_formats.check_vtk_dim(ground.dim)
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
    ground = _load_ground(args.ground, None)
    mesh = io_formats.read_spacetime_json(Path(args.mesh).read_text(), ground)
    trace = None
    if args.trace:
        trace = io_formats.read_trace_json(Path(args.trace).read_text())
    report = verify(mesh, ground, trace)
    print(report.summary())
    return 0 if report.passed else 1


def _cmd_info(args) -> int:
    ground = _load_ground(args.input, args.format)
    cons = precompute(ground)
    print(f"dimension: {ground.dim}")
    print(f"vertices: {ground.n_vertices}")
    print(f"elements: {ground.n_elements}")
    print(f"min altitude (omega): {cons.omega.min():.6g}")
    print(f"max altitude (omega): {cons.omega.max():.6g}")
    print(f"sum 1/omega: {cons.inverse_omega_sum:.6g}")
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
        if args.command == "pitch":
            return _cmd_pitch(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_info(args)
    # ParseError and MeshValidationError are ValueErrors
    except (FileNotFoundError, ValueError, FrontInvariantError,
            StallError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
