"""In-process traced run of the tentpitch pipeline, timed from outside.

Usage: python3 bench/traced.py <ground file> <spans JSON out> <pitch args>

Calls the public functions of each module in pipeline order with the
arguments ``tentpitch pitch``/``tentpitch verify`` use, and records one
span (name, start, end, parent) around each call.  Inside the lift loop
it wraps the module globals ``pitcher.compute_lift``/``pitcher.pitch_tent``,
which ``run()`` looks up on every lift, and the methods
``Front.next_vertex``/``Front.apply_lift``.  Nothing in the program is
changed.  Untraced runs of the lift loop, alternated with traced ones,
give the tracing overhead.

Spans stay in memory and are written to the spans file at the end.  The
last stdout line is one JSON object: per-layer metrics, the SHA-256 of
the serialized mesh and trace, the patch and element counts, and whether
every verifier check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

from tentpitch import io_formats, pitcher, verifier
from tentpitch.front import Front, GreedyLowest, MISPhases
from tentpitch.ground_mesh import load, precompute
from tentpitch.spacetime import stats

from dag import dag_depth

# verify's defaults as the CLI applies them (it has no flags for the last
# three): tolerance, 1% oracle sample, sample seed, liftability replay on
TOL, SAMPLE_FRACTION, SAMPLE_SEED = 1e-9, 0.01, 0
# untraced/traced lift-loop pairs for the overhead: at least this many
# pairs, and more until this many seconds of lift loop have run
OVERHEAD_PAIRS, OVERHEAD_SECONDS = 2, 4.0

LIFT_LOOP_CALLS = [
    (pitcher, "compute_lift"),
    (pitcher, "pitch_tent"),
    (Front, "next_vertex"),
    (Front, "apply_lift"),
]


class Tracer:
    """Spans in memory: [name, start, end, parent index or -1]."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]

    @contextmanager
    def span(self, name):
        rec = [name, perf_counter(), 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = perf_counter()

    def leaf(self, fn, name):
        """fn timed as a leaf span of whatever span is open when it runs."""
        spans, stack = self.spans, self._stack

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append([name, start, perf_counter(), stack[-1]])

        return timed

    def totals(self) -> tuple[Counter, dict]:
        """Summed duration per span name, and self time (duration minus
        the time covered by direct children) per name."""
        total, child = Counter(), Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        return total, {n: total[n] - child[n] for n in total}


@contextmanager
def lift_loop_traced(tracer: Tracer, fronts: list):
    """Wrap the lift-loop calls; collect every Front that run() builds."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr in LIFT_LOOP_CALLS]
    init = Front.__init__

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        fronts.append(self)

    try:
        for owner, attr, fn in saved:
            prefix = "front" if owner is Front else "pitcher"
            setattr(owner, attr, tracer.leaf(fn, f"{prefix}.{attr}"))
        Front.__init__ = capture
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
        Front.__init__ = init


def parse_ground(path: Path) -> dict:
    if path.suffix == ".node":
        return io_formats.parse_triangle(
            path.read_text(), path.with_suffix(".ele").read_text())
    return io_formats.parse_json_mesh(path.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("ground", type=Path)
    ap.add_argument("spans_out", type=Path)
    ap.add_argument("--target-time", type=float, required=True)
    ap.add_argument("--strategy", choices=["greedy", "mis"], default="greedy")
    args = ap.parse_args(argv)
    strategy = MISPhases() if args.strategy == "mis" else GreedyLowest()
    config = pitcher.PitchConfig(target_time=args.target_time, strategy=strategy)

    tracer = Tracer()
    fronts: list = []
    span = tracer.span
    with span("io_formats.parse"):
        raw = parse_ground(args.ground)
    with span("ground_mesh.load"):
        ground = load(raw)
    with span("ground_mesh.precompute"):
        constants = precompute(ground, config.epsilon)
    with lift_loop_traced(tracer, fronts), span("pitcher.run"):
        mesh, trace = pitcher.run(ground, config, constants=constants)
    with span("spacetime.stats"):
        st = stats(mesh)
    # every file `tentpitch pitch` writes in the benchmark: the VTK export
    # exists for d = 2 only, so io_formats.write is the figure all
    # workloads share
    with span("io_formats.write"):
        with span("io_formats.write_stmesh"):
            stmesh_text = io_formats.write_spacetime_json(mesh)
        with span("io_formats.write_trace"):
            trace_text = io_formats.write_trace_json(trace)
        written_bytes = len(stmesh_text) + len(trace_text)
        if ground.dim == 2:
            with span("io_formats.write_vtk"):
                written_bytes += len(io_formats.write_vtk(mesh))
    lifts = len(trace.lifts)
    kinds = Counter(r.kind for r in trace.lifts)
    depth = dag_depth([f.producer for f in p.inflow] for p in mesh.patches)
    facet_records = len(mesh.initial_facets) + len(mesh.frontier) + sum(
        len(p.inflow) + len(p.outflow) for p in mesh.patches)
    digests = {"stmesh": sha256(stmesh_text), "trace": sha256(trace_text)}
    del mesh, trace

    # tracing overhead: the lift loop with and without the wrappers, on the
    # same inputs and constants, in adjacent pairs so both runs of a pair
    # see the same machine load; the median of the per-pair ratios, kept
    # as a ratio because overhead - 1 can read below 0 when noise swamps it
    run_times: dict = {False: [], True: []}
    while (len(run_times[True]) < OVERHEAD_PAIRS
           or sum(run_times[False]) + sum(run_times[True]) < OVERHEAD_SECONDS):
        for traced in (False, True):
            with lift_loop_traced(Tracer(), []) if traced else nullcontext():
                start = perf_counter()
                pitcher.run(ground, config, constants=constants)
                run_times[traced].append(perf_counter() - start)
    time_ratio = statistics.median(
        t / u for u, t in zip(run_times[False], run_times[True]))
    # verify starts from the files alone, as the CLI's own process does
    del constants

    with span("io_formats.read_stmesh"):
        mesh = io_formats.read_spacetime_json(stmesh_text, ground)
    with span("io_formats.read_trace"):
        trace = io_formats.read_trace_json(trace_text)
    stmesh_bytes = len(stmesh_text)
    del stmesh_text, trace_text
    checks = []
    with span("verifier.cone_facets"):
        checks.append(verifier.check_cone_facets(mesh, ground, TOL))
    with span("verifier.causality"):
        checks.append(verifier.check_causality(mesh))
    with span("verifier.progress_trace"):
        checks.append(verifier.check_progress_trace(trace, ground, TOL))
    with span("verifier.front_snapshots"):
        checks.append(verifier.check_front_snapshots(trace, ground, TOL))
    with span("verifier.lift_bounds_sampled"):
        sampled = verifier.check_lift_bounds_sampled(
            trace, ground, SAMPLE_FRACTION, SAMPLE_SEED)
        checks.append(sampled)

    total, self_time = tracer.totals()
    run_s = total["pitcher.run"]
    # MISPhases counts its phases; GreedyLowest picks one vertex at a
    # time, which is a phase of one lift
    phases = fronts[0].phase_counter or lifts
    metrics = {
        "io_formats.parse_s": total["io_formats.parse"],
        "io_formats.write_stmesh_s": total["io_formats.write_stmesh"],
        "io_formats.write_trace_s": total["io_formats.write_trace"],
        "io_formats.write_s": total["io_formats.write"],
        "io_formats.read_stmesh_s": total["io_formats.read_stmesh"],
        "io_formats.read_trace_s": total["io_formats.read_trace"],
        "io_formats.stmesh_bytes": stmesh_bytes,
        "io_formats.written_bytes": written_bytes,
        "ground_mesh.load_s": total["ground_mesh.load"],
        "ground_mesh.precompute_s": total["ground_mesh.precompute"],
        "pitcher.run_s": run_s,
        "pitcher.run_self_s": self_time["pitcher.run"],
        "pitcher.compute_lift_s": total["pitcher.compute_lift"],
        "pitcher.pitch_tent_s": total["pitcher.pitch_tent"],
        "pitcher.elements_per_s": st.elements / run_s,
        "pitcher.lifts": lifts,
        "pitcher.bound_cone": kinds["cone"],
        "pitcher.bound_progress": kinds["progress"],
        "pitcher.bound_target": kinds["target"],
        "front.next_vertex_s": total["front.next_vertex"],
        "front.apply_lift_s": total["front.apply_lift"],
        "front.phases": phases,
        "front.lifts_per_phase": lifts / phases,
        "spacetime.stats_s": total["spacetime.stats"],
        "spacetime.patches": st.patches,
        "spacetime.elements": st.elements,
        "spacetime.facet_records": facet_records,
        "spacetime.dag_depth": depth,
        "spacetime.dag_mean_width": st.patches / depth,
        "verifier.cone_facets_s": total["verifier.cone_facets"],
        "verifier.causality_s": total["verifier.causality"],
        "verifier.progress_trace_s": total["verifier.progress_trace"],
        "verifier.front_snapshots_s": total["verifier.front_snapshots"],
        "verifier.lift_bounds_sampled_s": total["verifier.lift_bounds_sampled"],
        "verifier.sampled_lifts": sampled.details["sampled"],
        "trace.time_ratio": time_ratio,
    }
    args.spans_out.write_text(json.dumps(
        {"spans": tracer.spans, "fields": ["name", "start", "end", "parent"]}))
    print(json.dumps({
        "metrics": metrics,
        "sha256": digests,
        "patches": st.patches,
        "elements": st.elements,
        "passed": all(c.passed for c in checks),
        "failed_checks": [c.line() for c in checks if not c.passed],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
