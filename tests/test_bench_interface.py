"""What the benchmark's scripts read of the program: bench/traced.py wraps
the lift-loop calls by name and reads the patch DAG and the facet count
from mesh.patches, bench/dag.py reads them from the written file.  A
refactor that breaks either breaks `bench/run.py --trace 1`.  The patch
records themselves must be those of the four rules applied one patch at
a time (conftest.patch_records)."""

import hashlib
import io
import json
import sys
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from tentpitch import GreedyLowest, PitchConfig, run
from tentpitch.cli import main
from tentpitch.io_formats import write_spacetime_json
from tentpitch.synthetic import jittered_grid_mesh

from conftest import frontier_facets, patch_records
from test_io_writers import RUNS, _run

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import dag  # noqa: E402
import gen  # noqa: E402
import traced  # noqa: E402

# the runs with a patch DAG deeper than one level, greedy and MIS
NAMES = ["d2", "d2_mis", "d3"]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_patch_records_equal_the_one_at_a_time_reference(name):
    _, mesh, _ = _run(name)
    patches = mesh.patches
    assert patches == patch_records(mesh)
    assert len(patches) == len(mesh.patch_vertex) > 0
    assert mesh.frontier == frontier_facets(mesh)


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_equal_the_files(name, tmp_path):
    _, mesh, _ = _run(name)
    path = tmp_path / "st.json"
    path.write_text(write_spacetime_json(mesh))
    doc = json.loads(path.read_text())
    # as bench/traced.py computes them
    depth = dag.dag_depth([f.producer for f in p.inflow] for p in mesh.patches)
    facet_records = len(mesh.initial_facets) + len(mesh.frontier) + sum(
        len(p.inflow) + len(p.outflow) for p in mesh.patches)
    out = io.StringIO()
    with redirect_stdout(out):
        assert dag.main([str(path)]) == 0
    assert json.loads(out.getvalue()) == {"patches": len(doc["patches"]),
                                          "dag_depth": depth}
    assert depth > 1
    assert facet_records == len(doc["initial_facets"]) + len(
        doc["frontier"]) + sum(len(p["inflow"]) + len(p["outflow"])
                               for p in doc["patches"])


@pytest.mark.parametrize("name", NAMES)
def test_traced_wrappers_see_every_lift(name):
    make, target, strategy = RUNS[name]
    config = PitchConfig(target_time=target,
                         strategy=strategy or GreedyLowest())
    tracer, fronts = traced.Tracer(), []
    with traced.lift_loop_traced(tracer, fronts):
        _, trace = run(make(), config)
    calls = Counter(span[0] for span in tracer.spans)
    lifts = len(trace.lifts)
    assert lifts > 0 and len(fronts) == 1
    assert calls == {"pitcher.compute_lift": lifts,
                     "pitcher.pitch_tent": lifts,
                     "front.apply_lift": lifts,
                     "front.next_vertex": lifts + 1}


@pytest.mark.parametrize("strategy", ["greedy", "mis"])
def test_traced_run_end_to_end(strategy, tmp_path, monkeypatch, capsys):
    # the whole of bench/traced.py on a small .node/.ele mesh: every check
    # passes, and it pitches the bytes that the CLI writes
    node = gen.write_ground(jittered_grid_mesh(4, 4, seed=1), tmp_path)
    args = ["--target-time", "1", "--strategy", strategy]
    monkeypatch.setattr(traced, "OVERHEAD_SECONDS", 0)
    assert traced.main([str(node), str(tmp_path / "spans.json"), *args]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["passed"] is True
    st, tr = tmp_path / "st.json", tmp_path / "trace.json"
    assert main(["pitch", "--input", str(node), *args,
                 "--out", str(st), "--trace", str(tr)]) == 0
    assert result["sha256"] == {
        "stmesh": hashlib.sha256(st.read_bytes()).hexdigest(),
        "trace": hashlib.sha256(tr.read_bytes()).hexdigest()}
