"""The row-formatting trace and VTK writers, the generic writer and the
piece-at-a-time space-time JSON writer against the writers they replaced,
a property over random runs that write, read back and verify, and the
no-cycles property that lets the CLI run with the cyclic garbage
collector off."""

import gc
import json
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentpitch import (FrontInvariantError, GreedyLowest, GroundMesh,
                       PitchConfig, io_formats, load, precompute, run, stats,
                       verify)
from tentpitch.cli import main
from tentpitch.front import Front, MISPhases
from tentpitch.io_formats import (
    dumps,
    read_spacetime_json,
    read_trace_json,
    spacetime_json_pieces,
    write_spacetime_json,
    write_trace_json,
    write_vtk,
)
from tentpitch.spacetime import Facet, mesh_arrays

from conftest import alternating_speed_grid, mesh_objects, with_initial_times
from reference_reader import assert_same_columns

DATA = Path(__file__).parent / "data"
WRITE_CHUNK = io_formats.WRITE_CHUNK  # the default, before any monkeypatch


# -- reference: the generic writers as they were ------------------------------

# the separators after "," and ":": the space-time JSON is written compact,
# the trace and stats files with a space after each
COMPACT, SPACED = (",", ":"), (", ", ": ")


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _dump(obj, out: list, sep=SPACED) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(sep[0])
            out.append(json.dumps(str(k)))
            out.append(sep[1])
            _dump(v, out, sep)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(sep[0])
            _dump(v, out, sep)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def reference_dumps(obj) -> str:
    out: list = []
    _dump(obj, out)
    return "".join(out) + "\n"


def _reference_facet(f):
    return [f.ground_element, list(f.vertices), f.producer]


def _reference_members(mesh) -> dict:
    """The members of the space-time JSON after format and ground_dim, from
    the one-at-a-time reference records of conftest."""
    mesh = mesh_objects(mesh)
    return {
        "vertices": [list(v) for v in mesh.vertices],
        "vertex_ground": mesh.vertex_ground,
        "elements": [list(e) for e in mesh.elements],
        "element_patch": mesh.element_patch,
        "initial_facets": [_reference_facet(f) for f in mesh.initial_facets],
        "frontier": [_reference_facet(f) for f in mesh.frontier],
        "patches": [
            {
                "id": p.id,
                "vertex": p.vertex,
                "base": p.base,
                "apex": p.apex,
                "elements": p.elements,
                "inflow": [_reference_facet(f) for f in p.inflow],
                "outflow": [_reference_facet(f) for f in p.outflow],
            }
            for p in mesh.patches
        ],
    }


def reference_spacetime_json(mesh, sep=COMPACT) -> str:
    """The space-time JSON; with sep=SPACED, in the layout written before
    the separators went compact."""
    out: list = []
    _dump({"format": "tentpitch-stmesh", "ground_dim": mesh.ground.dim,
           **_reference_members(mesh)}, out, sep)
    return "".join(out) + "\n"


def reference_pieces(mesh, piece: int) -> list[str]:
    """The space-time JSON in the pieces of the writer that dumped one row
    at a time, and yielded its tokens whenever they reached piece after a
    row."""
    out = ['{"format":"tentpitch-stmesh","ground_dim":', str(mesh.ground.dim)]
    pieces = []
    for name, rows in _reference_members(mesh).items():
        out.append(f',"{name}":[')
        for i, row in enumerate(rows):
            if i:
                out.append(",")
            _dump(row, out, COMPACT)
            if len(out) >= piece:
                pieces.append("".join(out))
                out.clear()
        out.append("]")
    out.append("}\n")
    return [*pieces, "".join(out)]


def reference_trace_json(trace) -> str:
    payload = {
        "epsilon": trace.epsilon,
        "target_time": trace.target_time,
        "tolerance": trace.tolerance,
        "strategy": trace.strategy,
        "seed": trace.seed,
        "initial_times": list(trace.initial_times),
        "lifts": [
            {
                "vertex": r.vertex,
                "old_time": r.old_time,
                "new_time": r.new_time,
                "kind": r.kind,
                "element": r.element,
                "face": list(r.face) if r.face is not None else None,
                "patch": r.patch,
            }
            for r in trace.lifts
        ],
    }
    out: list = []
    _dump(payload, out)
    return "".join(out) + "\n"


def reference_vtk(mesh) -> str:
    d, objects = mesh.ground.dim, mesh_objects(mesh)
    lines = [
        "# vtk DataFile Version 2.0",
        "space-time mesh",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(objects.vertices)} double",
    ]
    for v in objects.vertices:
        if d == 2:
            x, y, t = v
            lines.append(f"{_fmt(x)} {_fmt(y)} {_fmt(t)}")
        else:
            x, t = v
            lines.append(f"{_fmt(x)} {_fmt(t)} 0")
    n_el = len(objects.elements)
    per = d + 2
    lines.append(f"CELLS {n_el} {n_el * (per + 1)}")
    for e in objects.elements:
        lines.append(f"{per} " + " ".join(str(v) for v in e))
    lines.append(f"CELL_TYPES {n_el}")
    lines.extend(["10" if d == 2 else "5"] * n_el)
    lines.append(f"CELL_DATA {n_el}")
    lines.append("SCALARS patch_id int 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(str(p) for p in objects.element_patch)
    lines.append("SCALARS duration double 1")
    lines.append("LOOKUP_TABLE default")
    times = np.array([v[-1] for v in objects.vertices])
    for e in objects.elements:
        ts = times[list(e)]
        lines.append(_fmt(float(ts.max() - ts.min())))
    return "\n".join(lines) + "\n"


# -- inputs --------------------------------------------------------------------


def _line():
    return GroundMesh(1, [[0.0], [0.8], [2.1], [3.0], [3.4]],
                      [[0, 1], [1, 2], [2, 3], [3, 4]])


def _delaunay():
    from tentpitch.synthetic import delaunay_mesh

    return delaunay_mesh(14, np.random.default_rng(5))


def _tets():
    from tentpitch.synthetic import random_tet_mesh

    return random_tet_mesh(9, np.random.default_rng(3))


# name: (ground mesh, target time, strategy)
RUNS = {
    "d1": (_line, 2.0, None),
    "d2": (_delaunay, 1.0, None),
    "d2_mis": (_delaunay, 1.0, MISPhases(seed=4)),
    "d2_speed_schedule": (alternating_speed_grid, 1.0, None),
    "d3": (_tets, 0.6, None),
}


def _run(name):
    make, target, strategy = RUNS[name]
    g = make()
    config = PitchConfig(target_time=target)
    if strategy is not None:
        config = PitchConfig(target_time=target, strategy=strategy)
    return g, *run(g, config)


def _mesh(name):
    """The space-time mesh of a RUNS entry, or of an empty run (T = 0)."""
    if name == "empty":
        g = GroundMesh(2, [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]], [[0, 1, 2]])
        return run(g, PitchConfig(target_time=0.0))[0]
    return _run(name)[1]


class TestRowWriters:
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_trace_bytes_equal_generic_writer(self, name):
        _, _, trace = _run(name)
        assert write_trace_json(trace) == reference_trace_json(trace)

    @pytest.mark.parametrize("name", sorted(n for n in RUNS if n != "d3"))
    def test_vtk_bytes_equal_generic_writer(self, name, monkeypatch):
        _, mesh, _ = _run(name)
        want = reference_vtk(mesh)
        # the same bytes whatever the chunk of rows each section is made in
        for chunk in (1, 3, WRITE_CHUNK):
            monkeypatch.setattr(io_formats, "WRITE_CHUNK", chunk)
            assert write_vtk(mesh) == want, f"WRITE_CHUNK {chunk}"

    def test_runs_cover_every_lift_row_shape(self):
        # lifts with and without a binding element and a d = 3 face
        shapes = set()
        for name in RUNS:
            _, _, trace = _run(name)
            shapes |= {(r.element is None, r.face is None) for r in trace.lifts}
        assert shapes == {(True, True), (False, True), (False, False)}

    def test_empty_trace_and_mesh(self, right_triangle):
        mesh, trace = run(right_triangle, PitchConfig(target_time=0.0))
        assert not trace.lifts and not mesh.n_elements
        assert write_trace_json(trace) == reference_trace_json(trace)
        assert write_vtk(mesh) == reference_vtk(mesh)
        assert write_spacetime_json(mesh) == reference_spacetime_json(mesh)

    def test_read_back_trace_writes_the_same_bytes(self):
        _, _, trace = _run("d3")
        text = write_trace_json(trace)
        assert write_trace_json(read_trace_json(text)) == text


class TestGenericWriter:
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_spacetime_json_bytes_equal_reference(self, name):
        _, mesh, _ = _run(name)
        assert write_spacetime_json(mesh) == reference_spacetime_json(mesh)

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_stats_bytes_equal_reference(self, name):
        _, mesh, _ = _run(name)
        st = stats(mesh).to_dict()
        assert dumps(st) == reference_dumps(st)

    @pytest.mark.parametrize("make", [_line, _delaunay, _tets])
    def test_ground_mesh_with_ndarray_fields(self, make):
        g = make()
        g.initial_times = np.linspace(0.0, 0.25, g.n_vertices)
        payload = {"dim": g.dim, "vertices": g.vertices,
                   "elements": g.elements, "speeds": g.speeds,
                   "initial_times": g.initial_times}
        assert dumps(payload) == reference_dumps(payload)

    def test_mixed_value(self):
        value = {
            "flags": [True, False, None, (True, None)],
            "numpy": [np.int64(-7), np.float64(0.1), np.int32(3),
                      np.float32(1.5), np.arange(3), np.array([[0.5, -0.0]])],
            "reals": [-0.0, 0.0, 1e300, -1e-300, 5e-324, 0.1 + 0.2, 1.0, 2],
            "big": [10**30, -(10**20)],
            "tuple": (1, 2.5, "x", ()),
            "facet": Facet(3, (4, 5, 6), -1),
            "empty": [[], (), {}, np.zeros(0), ""],
            "strings": ["a\"b\\c\n", "caf\u00e9", "\u2603\U0001f600"],
            "n\u00e4me": {1: "int key", 2.5: "float key", None: "none key"},
            7: np.float64(-0.0),
            True: [np.bool_(True) is not None],
        }
        assert dumps(value) == reference_dumps(value)
        assert dumps([]) == "[]\n" and dumps({}) == "{}\n"

    @pytest.mark.parametrize("value", [{1, 2}, [1, {2}], {"k": [0.5, {3}]},
                                       np.bool_(True), [object()]])
    def test_unsupported_value_raises(self, value):
        with pytest.raises(TypeError):
            reference_dumps(value)
        with pytest.raises(TypeError):
            dumps(value)


class TestSpacetimePieces:
    @pytest.mark.parametrize("piece", [1, 7, io_formats.WRITE_PIECE])
    @pytest.mark.parametrize("name", [*sorted(RUNS), "empty"])
    def test_pieces_join_to_reference(self, name, piece, monkeypatch):
        mesh = _mesh(name)
        monkeypatch.setattr(io_formats, "WRITE_PIECE", piece)
        want = reference_pieces(mesh, piece)
        assert "".join(want) == reference_spacetime_json(mesh)
        # the same pieces whether the rows are rendered one at a time, a
        # few at a time or in the default chunks
        for chunk in (1, 2, 3, WRITE_CHUNK):
            monkeypatch.setattr(io_formats, "WRITE_CHUNK", chunk)
            pieces = list(spacetime_json_pieces(mesh))
            assert pieces == want, f"WRITE_CHUNK {chunk}"
        objects = mesh_objects(mesh)
        rows = sum(map(len, (objects.vertices, objects.vertex_ground,
                             objects.elements, objects.element_patch,
                             objects.initial_facets, objects.frontier,
                             objects.patches)))
        if piece == 1:
            # a piece after every row, and the last one after the file's end
            assert len(pieces) == rows + 1
        elif piece == 7:
            assert 1 < len(pieces) <= rows + 1
        else:
            # these meshes are far smaller than one piece
            assert len(pieces) == 1

    def test_peak_under_a_quarter_of_mesh_arrays(self, monkeypatch):
        # the writer holds one piece and one chunk of columns and tokens,
        # about a sixth of what mesh_arrays holds here; rendering from the
        # columns of the whole mesh would hold more than mesh_arrays does
        from tentpitch.synthetic import two_scale_mesh

        mesh, _ = run(two_scale_mesh(4.0, 0), PitchConfig(target_time=1.0))
        monkeypatch.setattr(io_formats, "WRITE_PIECE", 1024)

        def peak(call) -> int:
            call()  # first call: lazy imports
            gc.collect()
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        writer = peak(lambda: deque(spacetime_json_pieces(mesh), maxlen=0))
        assert mesh.n_elements > 5000
        assert writer < peak(lambda: mesh_arrays(mesh)) / 4

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_derived_rows_equal_the_files_members(self, name):
        _, mesh, _ = _run(name)
        data = json.loads(write_spacetime_json(mesh))

        def rows(facets):
            return [[e, list(vertices), producer]
                    for e, vertices, producer in facets]

        assert rows(mesh.initial_facets) == data["initial_facets"]
        assert rows(mesh.frontier) == data["frontier"]
        assert [{"id": p.id, "vertex": p.vertex, "base": p.base,
                 "apex": p.apex, "elements": p.elements,
                 "inflow": rows(p.inflow), "outflow": rows(p.outflow)}
                for p in mesh.patches] == data["patches"]
        assert len(mesh.patches) == len(data["patches"])

    def test_cli_out_file_equals_writer(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io_formats, "WRITE_PIECE", 7)
        node = DATA / "golden_grid.node"
        out = tmp_path / "st.json"
        assert main(["pitch", "--input", str(node), "--target-time", "1",
                     "--out", str(out)]) == 0
        ground = io_formats.parse_triangle(
            node.read_text(), node.with_suffix(".ele").read_text())
        mesh, _ = run(load(ground), PitchConfig(target_time=1.0))
        assert out.read_bytes() == write_spacetime_json(mesh).encode()


class TestSpacedLayout:
    """Files written before the separators went compact, with a space
    after each "," and ":", still read and verify as the compact ones."""

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_spaced_file_reads_and_verifies_as_compact(self, name):
        g, mesh, trace = _run(name)
        compact = write_spacetime_json(mesh)
        spaced = reference_spacetime_json(mesh, SPACED)
        # only the separators differ
        assert spaced != compact
        assert spaced.replace(", ", ",").replace(": ", ":") == compact
        got, want = (read_spacetime_json(text, g) for text in (spaced, compact))
        assert_same_columns(got, want)
        # the report's lines are what verify prints
        trace = read_trace_json(write_trace_json(trace))
        assert verify(got, g, trace).summary() == verify(want, g, trace).summary()


# -- random runs: write, read back, verify -------------------------------------


def _random_ground(dim: int, rng) -> GroundMesh:
    """A small random ground mesh of dimension dim with random speeds."""
    from tentpitch.synthetic import delaunay_mesh, random_tet_mesh

    if dim == 1:
        x = np.cumsum(rng.uniform(0.2, 1.5, size=int(rng.integers(3, 12))))
        g = GroundMesh(1, x[:, None], [[i, i + 1] for i in range(len(x) - 1)])
    elif dim == 2:
        g = delaunay_mesh(int(rng.integers(6, 14)), rng)
    else:
        g = random_tet_mesh(int(rng.integers(6, 9)), rng)
    return GroundMesh(dim, g.vertices, g.elements,
                      speeds=rng.uniform(0.5, 2.0, size=g.n_elements))


def _random_front(ground: GroundMesh, rng) -> GroundMesh:
    """The ground mesh with random initial times that make a valid front:
    uniform times in [0, 1), halved until every element meets the cone and
    progress constraints (a flat front always does)."""
    times = rng.uniform(0.0, 1.0, size=ground.n_vertices)
    constants = precompute(ground)
    for scale in 0.5 ** np.arange(40):
        g = with_initial_times(ground, times * scale)
        try:
            Front(g, constants, target_time=np.inf)
            return g
        except FrontInvariantError:
            pass
    return with_initial_times(ground, np.zeros(ground.n_vertices))


class TestRandomRuns:
    """Random valid ground meshes with random valid initial fronts, in
    d = 1, 2 and 3: each run writes the reference writer's text, reads back
    and passes all five verify checks."""

    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1),
           mis=st.booleans(), rise=st.floats(0.2, 0.8))
    def test_run_write_read_verify(self, dim, seed, mis, rise):
        rng = np.random.default_rng(seed)
        g = _random_front(_random_ground(dim, rng), rng)
        strategy = MISPhases(seed=seed % 1000) if mis else GreedyLowest()
        config = PitchConfig(target_time=float(g.initial_times.max()) + rise,
                             strategy=strategy)
        mesh, trace = run(g, config)
        text = write_spacetime_json(mesh)
        assert text == reference_spacetime_json(mesh)
        report = verify(read_spacetime_json(text, g), g,
                        read_trace_json(write_trace_json(trace)))
        assert len(report.checks) == 5 and report.passed, report.summary()


# -- no reference cycles -------------------------------------------------------


def _pipeline(name):
    """Everything `pitch` and `verify` do, from a ground mesh to a report."""
    g, mesh, trace = _run(name)
    st = stats(mesh)
    stmesh, trace_text = write_spacetime_json(mesh), write_trace_json(trace)
    if g.dim < 3:
        write_vtk(mesh)
    dumps(st.to_dict())
    report = verify(read_spacetime_json(stmesh, g), g,
                    read_trace_json(trace_text))
    assert report.passed


class TestNoCycles:
    @pytest.mark.parametrize("name", ["d1", "d2", "d2_speed_schedule", "d3"])
    def test_pipeline_leaves_nothing_for_the_cyclic_collector(self, name):
        _pipeline(name)  # first run: lazy imports and caches
        gc.collect()
        gc.disable()
        try:
            _pipeline(name)
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_gc_state_as_it_found_it(self, enabled, tmp_path):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["info", "--input",
                         str(DATA / "single_triangle.node")]) == 0
            assert gc.isenabled() is enabled
            # an error exit too
            assert main(["info", "--input", str(tmp_path / "none.node")]) == 1
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
