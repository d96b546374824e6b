import copy
import json
import os
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentpitch import (
    GroundMesh,
    MeshValidationError,
    ParseError,
    PitchConfig,
    io_formats,
    load,
    precompute,
    run,
    stats,
)
from tentpitch import pitcher
from tentpitch.cli import main
from tentpitch.front import TOLERANCE, _star_constraints
from tentpitch.io_formats import (
    parse_json_mesh,
    parse_triangle,
    read_spacetime_json,
    read_trace_json,
    write_spacetime_json,
    write_trace_json,
    write_vtk,
)
from tentpitch.pitcher import LiftBound, _slacked
from tentpitch.spacetime import mesh_arrays

import reference_reader

DATA = Path(__file__).parent / "data"


def ground_json(mesh: GroundMesh) -> str:
    """A ground mesh in the JSON input format."""
    return json.dumps({"dim": mesh.dim, "vertices": mesh.vertices.tolist(),
                       "elements": mesh.elements.tolist(),
                       "speeds": mesh.speeds.tolist()})


NODE_0BASED = """# comment line
3 2 0 0
0 0.0 1.0
1 0.0 0.0
2 1.0 0.0
"""

ELE_0BASED = """1 3 0
0 0 1 2
"""

NODE_1BASED = """3 2 0 0
1 0.0 1.0
2 0.0 0.0
3 1.0 0.0
"""

ELE_1BASED = """1 3 0
1 1 2 3
"""


class TestParseTriangle:
    def test_minimal_pair(self):
        raw = parse_triangle(NODE_0BASED, ELE_0BASED)
        mesh = load(raw)
        assert mesh.dim == 2
        assert mesh.n_vertices == 3
        assert mesh.n_elements == 1

    def test_one_based_equivalent_to_zero_based(self):
        a = parse_triangle(NODE_0BASED, ELE_0BASED)
        b = parse_triangle(NODE_1BASED, ELE_1BASED)
        assert a == b

    def test_truncated_node_file(self):
        truncated = "3 2 0 0\n0 0.0 1.0\n"
        with pytest.raises(ParseError, match="line"):
            parse_triangle(truncated, ELE_0BASED)

    def test_non_numeric_token(self):
        bad = NODE_0BASED.replace("1.0", "one", 1)
        with pytest.raises(ParseError, match="line 3"):
            parse_triangle(bad, ELE_0BASED)

    def test_index_out_of_range(self):
        bad_ele = "1 3 0\n0 0 1 7\n"
        with pytest.raises(ParseError, match="out of range"):
            parse_triangle(NODE_0BASED, bad_ele)

    def test_speed_attribute(self):
        ele = "1 3 1\n0 0 1 2 2.5\n"
        raw = parse_triangle(NODE_0BASED, ele)
        assert raw["speeds"] == [2.5]
        assert load(raw).speeds[0] == 2.5

    def test_vertices_out_of_order_is_exit_one(self, tmp_path, capsys):
        # read in file order, vertices listed 0, 1, 3, 2 would give the
        # elements the wrong coordinates
        node = tmp_path / "square.node"
        node.write_text("4 2 0 0\n0 0.0 0.0\n1 1.0 0.0\n3 0.0 1.0\n"
                        "2 1.0 1.0\n")
        node.with_suffix(".ele").write_text("2 3 0\n0 0 1 2\n1 0 2 3\n")
        assert main(["info", "--input", str(node)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: node line 4: vertex index 3, expected 2\n"


class TestParseJsonMesh:
    def test_1d_two_segments(self):
        raw = parse_json_mesh(json.dumps({
            "dim": 1, "vertices": [[0.0], [1.0], [2.0]],
            "elements": [[0, 1], [1, 2]],
        }))
        mesh = load(raw)
        assert mesh.dim == 1
        assert mesh.n_elements == 2

    def test_tets_with_speeds(self):
        raw = parse_json_mesh(json.dumps({
            "dim": 3,
            "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "elements": [[0, 1, 2, 3]],
            "speeds": [3.0],
        }))
        mesh = load(raw)
        assert mesh.dim == 3
        assert mesh.speeds[0] == 3.0

    def test_unsupported_dimension(self):
        with pytest.raises(ParseError, match=r"\$\.dim"):
            parse_json_mesh(json.dumps({
                "dim": 5, "vertices": [], "elements": [],
            }))

    def test_schema_error_names_path(self):
        with pytest.raises(ParseError, match=r"\$\.vertices\[1\]"):
            parse_json_mesh(json.dumps({
                "dim": 2, "vertices": [[0, 0], [1]], "elements": [],
            }))


class TestRoundTrip:
    def test_ground_mesh_roundtrip_identical(self, rng):
        from synthetic_meshes import delaunay_mesh

        mesh = delaunay_mesh(20, rng)
        text = ground_json(mesh)
        again = load(parse_json_mesh(text))
        assert np.array_equal(mesh.vertices, again.vertices)
        assert np.array_equal(mesh.elements, again.elements)
        assert np.array_equal(mesh.speeds, again.speeds)

    def test_spacetime_and_trace_roundtrip(self, right_triangle):
        mesh, trace = run(right_triangle, PitchConfig(target_time=2.0))
        text = write_spacetime_json(mesh)
        again = read_spacetime_json(text, right_triangle)
        want = mesh_arrays(mesh)
        for name, column in vars(want).items():
            if name != "ground":
                got = getattr(again, name)
                assert got.dtype == column.dtype and np.array_equal(got, column)
        assert again.ground is right_triangle
        ttext = write_trace_json(trace)
        tagain = read_trace_json(ttext)
        assert tagain.lifts == trace.lifts
        assert tagain.initial_times == trace.initial_times

    def test_17_digit_reals(self, right_triangle):
        x = 1.0 / 3.0
        _, trace = run(right_triangle, PitchConfig(target_time=x,
                                                   epsilon=0.1))
        text = write_trace_json(trace)
        assert '"epsilon": 0.10000000000000001, ' in text
        assert json.loads(text)["target_time"] == x


class TestWriteVtk:
    def test_single_tet_mesh_counts(self, right_triangle):
        mesh, _ = run(right_triangle, PitchConfig(target_time=0.4))
        text = write_vtk(mesh)
        lines = text.splitlines()
        assert lines[0] == "# vtk DataFile Version 2.0"
        n_pts = len(mesh.times)
        assert f"POINTS {n_pts} double" in lines
        n_cells = mesh.n_elements
        assert f"CELLS {n_cells} {n_cells * 5}" in lines
        assert lines[lines.index(f"CELL_TYPES {n_cells}") + 1] == "10"

    def test_duration_cell_data_matches_stats(self, right_triangle):
        mesh, _ = run(right_triangle, PitchConfig(target_time=1.0))
        st = stats(mesh)
        lines = write_vtk(mesh).splitlines()
        start = lines.index("SCALARS duration double 1") + 2
        durations = [float(x) for x in lines[start:start + mesh.n_elements]]
        assert min(durations) == pytest.approx(st.duration_min)
        assert max(durations) == pytest.approx(st.duration_max)

    def test_1d_exports_triangles(self):
        g = GroundMesh(1, [[0.0], [1.0]], [[0, 1]])
        mesh, _ = run(g, PitchConfig(target_time=1.0))
        lines = write_vtk(mesh).splitlines()
        n_cells = mesh.n_elements
        assert lines[lines.index(f"CELL_TYPES {n_cells}") + 1] == "5"

    def test_d3_rejected(self, regular_tet):
        mesh, _ = run(regular_tet, PitchConfig(target_time=0.3))
        with pytest.raises(ValueError, match="4-dimensional"):
            write_vtk(mesh)

    def test_deterministic_bytes(self, right_triangle):
        mesh1, _ = run(right_triangle, PitchConfig(target_time=1.0))
        mesh2, _ = run(right_triangle, PitchConfig(target_time=1.0))
        assert write_vtk(mesh1) == write_vtk(mesh2)


class TestCli:
    def test_pitch_verify_info(self, tmp_path, capsys):
        out = tmp_path / "st.json"
        vtk = tmp_path / "st.vtk"
        stats_file = tmp_path / "stats.json"
        trace = tmp_path / "trace.json"
        rc = main([
            "pitch",
            "--input", str(DATA / "single_triangle.node"),
            "--target-time", "10",
            "--out", str(out),
            "--vtk", str(vtk),
            "--stats", str(stats_file),
            "--trace", str(trace),
        ])
        assert rc == 0
        st = json.loads(stats_file.read_text())
        for key in ("elements", "patches", "seconds", "elements_per_second",
                    "duration_ratio"):
            assert key in st
        assert st["elements"] <= 341  # T*P/(2*A*eps) for this fixture
        rc = main([
            "verify",
            "--mesh", str(out),
            "--ground", str(DATA / "single_triangle.node"),
            "--trace", str(trace),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "PASS cone_facets" in captured.out
        rc = main(["info", "--input", str(DATA / "single_triangle.node")])
        assert rc == 0

    @pytest.mark.parametrize("name", sorted(
        p.name for p in DATA.iterdir() if p.suffix in (".node", ".json")))
    def test_info_omega_is_precomputes(self, name, capsys):
        # info runs precompute's altitude step alone; its three omega
        # lines must read as if it had run all of precompute
        path = DATA / name
        if path.suffix == ".node":
            raw = parse_triangle(path.read_text(),
                                 path.with_suffix(".ele").read_text())
        else:
            raw = parse_json_mesh(path.read_text())
        omega = precompute(load(raw)).omega
        assert main(["info", "--input", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3:6] == [
            f"min altitude (omega): {omega.min():.6g}",
            f"max altitude (omega): {omega.max():.6g}",
            f"sum 1/omega: {np.sum(1.0 / omega):.6g}",
        ]

    def test_epsilon_out_of_range_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "pitch",
                "--input", str(DATA / "single_triangle.node"),
                "--target-time", "1",
                "--epsilon", "0.7",
            ])
        assert excinfo.value.code == 2

    def test_verify_detects_tampered_mesh(self, tmp_path):
        out = tmp_path / "st.json"
        main([
            "pitch",
            "--input", str(DATA / "single_triangle.node"),
            "--target-time", "2",
            "--out", str(out),
        ])
        data = json.loads(out.read_text())
        data["vertices"][-1][-1] += 1.5
        out.write_text(json.dumps(data))
        rc = main([
            "verify",
            "--mesh", str(out),
            "--ground", str(DATA / "single_triangle.node"),
        ])
        assert rc == 1

    def test_invalid_mesh_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "dim": 2, "vertices": [[0, 0], [1, 0], [2, 0]],
            "elements": [[0, 1, 2]],
        }))
        rc = main(["pitch", "--input", str(bad), "--target-time", "1"])
        assert rc == 1

    @staticmethod
    def _child(*args, **kwargs) -> subprocess.CompletedProcess:
        """The CLI run in a child process with a timeout, its stdout
        buffered as in a shell."""
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "tentpitch.cli", *args],
                              text=True, timeout=60, env=env, **kwargs)

    def test_infinite_target_time_is_exit_one(self):
        # in a child with a timeout: an accepted inf target never finishes
        proc = self._child("pitch", "--input", str(DATA / "single_triangle.node"),
                           "--target-time", "inf", capture_output=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: target time must be finite")
        assert proc.stderr.count("\n") == 1

    def test_boolean_dim_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bool_dim.json"
        bad.write_text(json.dumps({
            "dim": True, "vertices": [[0.0], [1.0]], "elements": [[0, 1]],
        }))
        rc = main(["info", "--input", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: $.dim: unsupported dimension True")
        assert err.count("\n") == 1

    def test_out_to_a_directory_is_exit_one(self, tmp_path, capsys):
        rc = main(["pitch", "--input", str(DATA / "single_triangle.node"),
                   "--target-time", "1", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err
        assert err.count("\n") == 1

    def test_input_that_is_a_directory_is_exit_one(self, tmp_path, capsys):
        (tmp_path / "x.node").mkdir()
        rc = main(["info", "--input", str(tmp_path / "x.node")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "info"])
    def test_closed_stdout_is_exit_one(self, tmp_path, command):
        # as in `tentpitch verify ... | true`: the reader is gone before
        # the CLI prints
        out, trace = self._pitched(tmp_path)
        args = {"verify": ["verify", "--mesh", str(out), "--trace", str(trace),
                           "--ground", str(DATA / "single_triangle.node")],
                "info": ["info", "--input", str(DATA / "single_triangle.node")]}
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self._child(*args[command], stdout=write,
                               stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1

    def _pitched(self, tmp_path):
        out, trace = tmp_path / "st.json", tmp_path / "trace.json"
        rc = main(["pitch", "--input", str(DATA / "single_triangle.node"),
                   "--target-time", "2", "--out", str(out),
                   "--trace", str(trace)])
        assert rc == 0
        return out, trace

    def _verify_error(self, capsys, out, trace):
        rc = main(["verify", "--mesh", str(out), "--trace", str(trace),
                   "--ground", str(DATA / "single_triangle.node")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        return err

    def test_mesh_without_patch_inflow_is_exit_one(self, tmp_path, capsys):
        out, trace = self._pitched(tmp_path)
        data = json.loads(out.read_text())
        del data["patches"][0]["inflow"]
        out.write_text(json.dumps(data))
        err = self._verify_error(capsys, out, trace)
        assert err == "error: $.patches[0].inflow: missing\n"

    def test_trace_without_lift_vertex_is_exit_one(self, tmp_path, capsys):
        out, trace = self._pitched(tmp_path)
        data = json.loads(trace.read_text())
        del data["lifts"][0]["vertex"]
        trace.write_text(json.dumps(data))
        err = self._verify_error(capsys, out, trace)
        assert err == "error: $.lifts[0].vertex: missing\n"

    @pytest.mark.parametrize("epsilon", [0, -0.1, 0.7])
    def test_trace_epsilon_out_of_range_is_exit_one(self, tmp_path, capsys,
                                                    epsilon):
        out, trace = self._pitched(tmp_path)
        data = json.loads(trace.read_text())
        data["epsilon"] = epsilon
        trace.write_text(json.dumps(data))
        err = self._verify_error(capsys, out, trace)
        assert err == ("error: $.epsilon: epsilon must be in (0, 1/2], "
                       f"got {float(epsilon)}\n")

    @pytest.mark.parametrize("file, where, value, message", [
        # ids outside their ranges
        pytest.param("trace", ("lifts", 2, "vertex"), 7,
                     "$.lifts[2].vertex: 7 is out of range [0, 3)",
                     id="trace_vertex_past_end"),
        pytest.param("trace", ("lifts", 2, "vertex"), -1,
                     "$.lifts[2].vertex: -1 is out of range [0, 3)",
                     id="trace_vertex_negative"),
        pytest.param("mesh", ("patches", 0, "inflow", 0), [0, [99999, 1, 2], 0],
                     "$.patches[0].inflow[0][1][0]: 99999 is out of range "
                     "[0, 10)",
                     id="facet_vertex"),
        pytest.param("mesh", ("frontier", 0, 0), 5,
                     "$.frontier[0][0]: 5 is out of range [0, 1)",
                     id="facet_ground_element"),
        pytest.param("mesh", ("initial_facets", 0, 2), 7,
                     "$.initial_facets[0][2]: 7 is out of range [-1, 7)",
                     id="facet_producer"),
        pytest.param("mesh", ("elements", 3, 1), -2,
                     "$.elements[3][1]: -2 is out of range [0, 10)",
                     id="element_vertex"),
        pytest.param("mesh", ("patches", 1, "vertex"), 3,
                     "$.patches[1].vertex: 3 is out of range [0, 3)",
                     id="patch_vertex"),
        # values of the wrong type
        pytest.param("trace", ("lifts", 2, "vertex"), 2.7,
                     "$.lifts[2].vertex: 2.7 is not an integer",
                     id="trace_vertex_float"),
        pytest.param("trace", ("lifts", 2, "vertex"), "2",
                     "$.lifts[2].vertex: '2' is not an integer",
                     id="trace_vertex_string"),
        pytest.param("trace", ("lifts", 1, "patch"), True,
                     "$.lifts[1].patch: True is not an integer",
                     id="trace_patch_bool"),
        pytest.param("trace", ("lifts", 0, "new_time"), "1.5",
                     "$.lifts[0].new_time: '1.5' is not a finite number",
                     id="trace_time_string"),
        pytest.param("mesh", ("patches", 2, "outflow", 0, 1, 2), 3.5,
                     "$.patches[2].outflow[0][1][2]: 3.5 is not an integer",
                     id="facet_vertex_float"),
        pytest.param("mesh", ("ground_dim",), True,
                     "$.ground_dim: True is not an integer",
                     id="ground_dim_bool"),
        pytest.param("mesh", ("vertices", 5, 2), float("nan"),
                     "$.vertices[5][2]: nan is not a finite number",
                     id="vertex_time_nan"),
    ])
    def test_bad_value_is_exit_one(self, tmp_path, capsys, file, where,
                                   value, message):
        out, trace = self._pitched(tmp_path)
        path = out if file == "mesh" else trace
        data = json.loads(path.read_text())
        _put(data, where, value)
        path.write_text(json.dumps(data))
        assert self._verify_error(capsys, out, trace) == f"error: {message}\n"

    def test_infinite_speed_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "inf_speed.json"
        bad.write_text(
            '{"dim": 2, "vertices": [[0, 1], [0, 0], [1, 0], [1, 1]], '
            '"elements": [[0, 1, 2], [0, 2, 3]], "speeds": [1.0, Infinity]}'
        )
        rc = main(["pitch", "--input", str(bad), "--target-time", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: element 1 has non-finite wave speed\n"

    @pytest.mark.parametrize("command", ["info", "pitch"])
    def test_nan_initial_time_is_exit_one(self, tmp_path, capsys, command):
        bad = tmp_path / "nan_time.json"
        bad.write_text(
            '{"dim": 2, "vertices": [[0, 1], [0, 0], [1, 0]], '
            '"elements": [[0, 1, 2]], "initial_times": [0, NaN, 0]}'
        )
        argv = [command, "--input", str(bad)]
        if command == "pitch":
            argv += ["--target-time", "1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: vertex 1 has a non-finite initial time\n"

    @pytest.mark.parametrize("where, value, message", [
        # 10**400 is a valid JSON integer that no float can hold
        pytest.param(("vertices", 1, 0), 10**400,
                     "$.vertices[1][0]: integer too large for a float",
                     id="vertex_huge"),
        pytest.param(("speeds", 0), 10**400,
                     "$.speeds[0]: integer too large for a float",
                     id="speed_huge"),
        pytest.param(("initial_times", 2), 10**400,
                     "$.initial_times[2]: integer too large for a float",
                     id="initial_time_huge"),
        pytest.param(("vertices", 0, 1), True,
                     "$.vertices[0][1]: not a number", id="vertex_bool"),
        pytest.param(("elements", 0, 1), True,
                     "$.elements[0][1]: not an integer", id="element_bool"),
        pytest.param(("elements", 0, 1), 10**30,
                     f"$.elements[0][1]: {10**30} is out of range [0, 3)",
                     id="element_past_int64"),
    ])
    def test_bad_ground_value_is_exit_one(self, tmp_path, capsys, where,
                                          value, message):
        doc = {"dim": 2, "vertices": [[0, 1], [0, 0], [1, 0]],
               "elements": [[0, 1, 2]], "speeds": [1],
               "initial_times": [0, 0, 0]}
        _put(doc, where, value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["info", "--input", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_deterministic_output_files(self, tmp_path):
        files = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.json"
            vtk = tmp_path / f"{tag}.vtk"
            trace = tmp_path / f"{tag}_trace.json"
            main([
                "pitch",
                "--input", str(DATA / "single_triangle.node"),
                "--target-time", "3",
                "--strategy", "mis", "--seed", "4",
                "--out", str(out), "--vtk", str(vtk), "--trace", str(trace),
            ])
            files.append((out.read_bytes(), vtk.read_bytes(),
                          trace.read_bytes()))
        assert files[0] == files[1]

    def test_mis_strategy_flag(self, tmp_path):
        out = tmp_path / "st.json"
        rc = main([
            "pitch",
            "--input", str(DATA / "single_triangle.node"),
            "--target-time", "1",
            "--strategy", "mis", "--seed", "3",
            "--out", str(out),
        ])
        assert rc == 0

    def test_negative_seed_is_exit_one(self, capsys):
        rc = main([
            "pitch",
            "--input", str(DATA / "single_triangle.node"),
            "--target-time", "1",
            "--strategy", "mis", "--seed", "-5",
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: seed must be nonnegative, got -5\n")

    def test_vtk_of_a_d3_mesh_fails_before_the_run(self, tmp_path, capsys):
        out, vtk = tmp_path / "st.json", tmp_path / "st.vtk"
        with mock.patch("tentpitch.pitcher.run") as pitch:
            rc = main([
                "pitch",
                "--input", str(DATA / "golden_kuhn.json"),
                "--target-time", "1",
                "--out", str(out), "--vtk", str(vtk),
            ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: cannot export 4-dimensional space-time elements to VTK\n")
        pitch.assert_not_called()
        assert not out.exists() and not vtk.exists()


    @pytest.mark.parametrize("command", ["pitch", "info"])
    def test_unknown_ground_suffix_is_exit_one(self, tmp_path, capsys,
                                               command):
        ground = tmp_path / "mesh.txt"
        ground.write_text((DATA / "single_triangle.node").read_text())
        args = ["--target-time", "1"] if command == "pitch" else []
        assert main([command, "--input", str(ground), *args]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot tell the format of {ground}: expected .node "
            "or .json\n")
        # the suffix decides: there is no flag to name the format
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--input", str(ground), *args, "--format", "json"])
        assert excinfo.value.code == 2


class TestVerifyRejectsWrongElements:
    """Tamperings that leave every facet link intact: verify must still
    exit 1, with the same five report lines."""

    GRID = DATA / "golden_grid.node"

    def _pitch(self, tmp_path, target="1"):
        out = tmp_path / f"st{target}.json"
        trace = tmp_path / f"trace{target}.json"
        assert main(["pitch", "--input", str(self.GRID), "--target-time",
                     target, "--out", str(out), "--trace", str(trace)]) == 0
        return out, trace

    def _verify(self, capsys, out, trace):
        capsys.readouterr()
        rc = main(["verify", "--mesh", str(out), "--ground", str(self.GRID),
                   "--trace", str(trace)])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        return rc, [x for x in lines if not x.startswith("PASS ")]

    def _tampered(self, capsys, tmp_path, tamper):
        out, trace = self._pitch(tmp_path)
        assert self._verify(capsys, out, trace) == (0, [])
        data = json.loads(out.read_text())
        tamper(data)
        out.write_text(json.dumps(data))
        return self._verify(capsys, out, trace)

    def test_raised_apex_cannot_be_tolerated(self, tmp_path, capsys):
        # an apex raised in time breaks the cone constraint, and verify
        # has no tolerance flag that would let it pass; it also rises above
        # the apex of patch 28, the next tent on the same vertex, which
        # inverts that tent
        def tamper(data):
            apex = data["patches"][10]["apex"]
            data["vertices"][apex][-1] += 0.5

        rc, failed = self._tampered(capsys, tmp_path, tamper)
        assert rc == 1
        assert failed == [
            "FAIL cone_facets: 218 facets, worst slope/cap 1.638870571182",
            "FAIL causality: patch 28's apex time is not above its base time",
            "FAIL progress_trace: lift 10 did not make patch 10 of the mesh"]
        out, trace = tmp_path / "st1.json", tmp_path / "trace1.json"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--mesh", str(out), "--ground", str(self.GRID),
                  "--trace", str(trace), "--tol", "1e9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e9" in capsys.readouterr().err

    @staticmethod
    def _interior_patch(data):
        """Id of the first patch from the tenth on with several elements."""
        return next(i for i, p in enumerate(data["patches"])
                    if i >= 10 and len(p["elements"]) > 2)

    def test_repeated_vertex_id(self, tmp_path, capsys):
        where = []

        def tamper(data):
            pid = self._interior_patch(data)
            j = data["patches"][pid]["elements"][1]
            data["elements"][j][2] = data["elements"][j][1]
            where.extend([j, pid])

        rc, failed = self._tampered(capsys, tmp_path, tamper)
        j, pid = where
        assert rc == 1
        assert failed == [
            f"FAIL causality: element {j} is not patch {pid}'s element 1: "
            f"listed there, marked as in patch {pid}, and its apex over "
            f"inflow facet 1"]

    def test_apex_set_to_base(self, tmp_path, capsys):
        where = []

        def tamper(data):
            pid = self._interior_patch(data)
            p = data["patches"][pid]
            where.extend([pid, p["base"], p["apex"]])
            p["apex"] = p["base"]

        rc, failed = self._tampered(capsys, tmp_path, tamper)
        pid, base, apex = where
        assert rc == 1
        # the trace's lift no longer ends at the patch's apex either
        assert failed == [
            f"FAIL causality: patch {pid}'s apex is vertex {base}, not {apex}",
            f"FAIL progress_trace: lift {pid} did not make patch {pid} of "
            f"the mesh"]

    def test_five_elements_deleted_and_renumbered(self, tmp_path, capsys):
        def tamper(data):
            gone = {p["elements"][-1] for p in data["patches"][10:15]}
            keep = [i for i in range(len(data["elements"])) if i not in gone]
            new_id = {old: new for new, old in enumerate(keep)}
            data["elements"] = [data["elements"][i] for i in keep]
            data["element_patch"] = [data["element_patch"][i] for i in keep]
            for p in data["patches"]:
                p["elements"] = [new_id[i] for i in p["elements"]
                                 if i not in gone]

        rc, failed = self._tampered(capsys, tmp_path, tamper)
        assert rc == 1
        assert len(failed) == 1
        assert failed[0].startswith("FAIL causality: patch 10 has ")

    # stored facet lists that disagree with the elements

    def test_frontier_facet_replaced_by_initial_facet(self, tmp_path, capsys):
        def tamper(data):
            data["frontier"][5] = data["initial_facets"][5]

        rc, failed = self._tampered(capsys, tmp_path, tamper)
        assert rc == 1
        assert failed == ["FAIL causality: frontier facet 5 is not the last "
                          "facet made on ground element 5"]

    @staticmethod
    def _last_outflow_failure(data):
        pid = len(data["patches"]) - 1
        return [f"FAIL causality: patch {pid}'s outflow facet 0 is not its "
                f"inflow facet 0 with the base replaced by the apex, made by "
                f"patch {pid}"]

    def test_outflow_facet_with_vertices_reversed(self, tmp_path, capsys):
        want = []

        def tamper(data):
            data["patches"][-1]["outflow"][0][1].reverse()
            want.extend(self._last_outflow_failure(data))

        assert self._tampered(capsys, tmp_path, tamper) == (1, want)

    def test_outflow_facet_without_producer(self, tmp_path, capsys):
        want = []

        def tamper(data):
            data["patches"][-1]["outflow"][0][2] = -1
            want.extend(self._last_outflow_failure(data))

        assert self._tampered(capsys, tmp_path, tamper) == (1, want)

    def test_vertex_moved_off_its_ground_vertex(self, tmp_path, capsys):
        where = []

        def tamper(data):
            apex = data["patches"][10]["apex"]
            data["vertices"][apex][0] += 5.0
            where.extend([apex, data["vertex_ground"][apex]])

        rc, failed = self._tampered(capsys, tmp_path, tamper)
        apex, g = where
        assert rc == 1
        assert failed == [f"FAIL causality: vertex {apex} is not at the place "
                          f"of its ground vertex {g}"]

    def test_initial_front_not_the_traces(self, tmp_path, capsys):
        def tamper(data):
            data["vertices"][3][-1] += 0.01

        rc, failed = self._tampered(capsys, tmp_path, tamper)
        assert rc == 1
        assert failed == ["FAIL causality: initial vertex 3 is not at the "
                          "initial time of ground vertex 3"]

    def test_trace_of_another_run(self, tmp_path, capsys):
        out, _ = self._pitch(tmp_path, "2")
        _, trace = self._pitch(tmp_path, "1")
        n_lifts = len(json.loads(trace.read_text())["lifts"])
        n_patches = len(json.loads(out.read_text())["patches"])
        assert n_lifts < n_patches
        rc, failed = self._verify(capsys, out, trace)
        assert rc == 1
        assert failed == [f"FAIL progress_trace: trace has {n_lifts} lifts "
                          f"for a mesh of {n_patches} patches"]

    @pytest.mark.parametrize("drop", [0.0, 0.01])
    def test_flat_or_inverted_last_tent_without_trace(self, tmp_path, capsys,
                                                      drop):
        # the last tent lowered to its base time (zero height) or below it
        # (elements of negative volume): the cone check cannot see it, and
        # without a trace no check learns the target time
        out, _ = self._pitch(tmp_path)
        data = json.loads(out.read_text())
        last = data["patches"][-1]
        assert (last["id"], last["apex"], last["base"]) == (46, 71, 44)
        data["vertices"][71][-1] = data["vertices"][44][-1] - drop
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", "--mesh", str(out), "--ground",
                     str(self.GRID)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[0].startswith("PASS cone_facets: ")
        assert lines[1] == ("FAIL causality: patch 46's apex time is not "
                            "above its base time")

    def test_last_tent_cut_without_trace(self, tmp_path, capsys):
        # the last patch removed with its elements and its apex, and the
        # frontier given back its inflow facets: every stored link holds,
        # but the run stops short of the terminal front
        out, _ = self._pitch(tmp_path)
        data = json.loads(out.read_text())
        last = data["patches"].pop()
        assert (last["id"], last["apex"]) == (46, 71)
        assert last["elements"] == [183, 184, 185]
        del data["elements"][183:], data["element_patch"][183:]
        del data["vertices"][71:], data["vertex_ground"][71:]
        for made, consumed in zip(last["outflow"], last["inflow"]):
            data["frontier"][data["frontier"].index(made)] = consumed
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", "--mesh", str(out), "--ground",
                     str(self.GRID)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[0].startswith("PASS cone_facets: ")
        assert lines[1] == ("FAIL causality: frontier facet 22 is below the "
                            "last apex time")

    def test_initial_vertices_swapped_without_trace(self, tmp_path, capsys):
        # at target time 0 no patch lifts a vertex, so only the rule that
        # the first vertices lie over the ground vertices in order sees
        # vertices 0 and 1 exchange their ground vertices and places
        out, _ = self._pitch(tmp_path, target="0")
        data = json.loads(out.read_text())
        assert data["patches"] == []
        over, verts = data["vertex_ground"], data["vertices"]
        over[0], over[1] = over[1], over[0]
        verts[0][:-1], verts[1][:-1] = verts[1][:-1], verts[0][:-1]
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", "--mesh", str(out), "--ground",
                     str(self.GRID)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[0].startswith("PASS cone_facets: ")
        assert lines[1] == ("FAIL causality: initial vertex 0 is not over "
                            "ground vertex 0")

    def test_lift_that_misses_its_patch_apex(self, tmp_path, capsys):
        out, trace = self._pitch(tmp_path)
        data = json.loads(trace.read_text())
        r = data["lifts"][5]
        r["new_time"] = (r["old_time"] + r["new_time"]) / 2
        trace.write_text(json.dumps(data))
        rc, failed = self._verify(capsys, out, trace)
        assert rc == 1
        assert failed[0] == ("FAIL progress_trace: lift 5 did not make patch 5 "
                             "of the mesh")


class TestInitialFrontFailsFast:
    """pitch refuses initial times that break a constraint of the front,
    before the run: exit 1 and one error: line that names the vertex, the
    constraint and the element."""

    @pytest.mark.parametrize("dim, vertices, times, message", [
        # gradient 0.9 / 0.866 > 1, though no edge is that steep
        (2, [[0, 0], [1, 0], [0.5, 0.75 ** 0.5]], [0, 0, 0.9],
         "vertex 2: time 0.9 is above its cone ceiling 0.866025 on "
         "element 0"),
        # cone-legal (gradient 0.95), but vertex 2 is far above the others
        (2, [[-2.0, 0.1], [0.0, 0.0], [1.0, 0.0]], [-1.9, 0.0, 0.95],
         "vertex 2: time 0.95 is above its progress ceiling 0.0449439 on "
         "element 0"),
        # regular tet: the element's gradient is within its cap (0.8 is
        # below the altitude 0.816), face (3, 1, 2)'s is not within 0.9
        (3, [[0, 0, 0], [1, 0, 0], [0.5, 0.75 ** 0.5, 0],
             [0.5, 12 ** -0.5, (2 / 3) ** 0.5]], [0, 0, 0, 0.8],
         "vertex 3: time 0.8 is above its cone ceiling 0.779423 on "
         "element 0 face (3, 1, 2)"),
    ], ids=["cone", "progress", "d3_face_cap"])
    def test_pitch_is_exit_one(self, tmp_path, capsys, dim, vertices, times,
                               message):
        ground = tmp_path / "ground.json"
        ground.write_text(json.dumps({
            "dim": dim, "vertices": vertices,
            "elements": [list(range(dim + 1))], "initial_times": times}))
        out = tmp_path / "st.json"
        assert main(["pitch", "--input", str(ground), "--target-time", "2",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()


class TestInjectedPitcherBug:
    """A pitcher bug that lifts one vertex, mid-run, above one kind of its
    ceilings: the lift loop does not re-check the star, so pitch exits 0,
    and verify exits 1 with a message that names the lift.  Only the
    every-lift ceiling pass of progress_trace fails: the cone holds, and
    the sample of lift_bounds_sampled misses the lift."""

    @pytest.mark.parametrize("ground, target, start, kind, on_face, label", [
        ("golden_grid.node", "2", 26, "progress", False, "progress"),
        ("golden_kuhn.json", "1", 18, "cone", True, "face cap"),
        ("golden_kuhn.json", "1", 18, "progress", True, "face progress"),
    ], ids=["d2_progress", "d3_face_cap", "d3_face_progress"])
    def test_verify_names_the_lift(self, tmp_path, capsys, monkeypatch,
                                   ground, target, start, kind, on_face,
                                   label):
        real = pitcher.compute_lift
        verts, bugged = [], []

        def ignored(constraint):
            _, k, _, face = constraint
            return k == kind and (face is not None) == on_face

        def buggy(v, front):
            # the first lift from lift `start` on that this kind binds
            # ignores every ceiling of this kind
            bound = real(v, front)
            verts.append(v)
            if (bugged or len(verts) <= start or bound.kind != kind
                    or (bound.face is not None) != on_face):
                return bound
            bugged.append(len(verts) - 1)
            value, k, e, face = min(
                (c for c in _star_constraints(front, v, TOLERANCE)
                 if not ignored(c)), key=lambda c: c[0])
            value = _slacked(value)
            if value >= front.target_time:
                return LiftBound(front.target_time, "target")
            return LiftBound(value, k, e, face)

        monkeypatch.setattr(pitcher, "compute_lift", buggy)
        paths = [str(tmp_path / name) for name in ("st.json", "trace.json")]
        assert main(["pitch", "--input", str(DATA / ground), "--target-time",
                     target, "--out", paths[0], "--trace", paths[1]]) == 0
        assert len(bugged) == 1
        capsys.readouterr()
        assert main(["verify", "--mesh", paths[0], "--ground",
                     str(DATA / ground), "--trace", paths[1]]) == 1
        lines = capsys.readouterr().out.splitlines()
        fails = [line for line in lines if not line.startswith("PASS ")]
        lift = bugged[0]
        assert len(lines) == 5 and len(fails) == 1
        assert fails[0].startswith(
            f"FAIL progress_trace: lift {lift} (vertex {verts[lift]}) to ")
        assert f" is above its {label} ceiling on element " in fails[0]


class TestInitialTimes:
    """The ground mesh's initial times belong to the run: pitch starts
    from them, and verify holds the mesh and the trace to them."""

    TIMES = [0, 0.05, 0.1, 0.05, 0, 0.05, 0]

    @staticmethod
    def _ground(tmp_path, name, times):
        """golden_path.json with the given initial times, or none."""
        doc = json.loads((DATA / "golden_path.json").read_text())
        if times is not None:
            doc["initial_times"] = times
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def _pitched(self, tmp_path, capsys):
        ground = self._ground(tmp_path, "timed", self.TIMES)
        out, trace = str(tmp_path / "st.json"), str(tmp_path / "trace.json")
        assert main(["pitch", "--input", ground, "--target-time", "1",
                     "--out", out, "--trace", trace]) == 0
        assert main(["verify", "--mesh", out, "--ground", ground,
                     "--trace", trace]) == 0
        capsys.readouterr()
        return out, trace

    @pytest.mark.parametrize("times", [None, [0] * 7], ids=["absent", "zero"])
    def test_mesh_from_other_initial_times_fails(self, tmp_path, capsys,
                                                 times):
        out, _ = self._pitched(tmp_path, capsys)
        other = self._ground(tmp_path, "other", times)
        assert main(["verify", "--mesh", out, "--ground", other]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[0].startswith("PASS cone_facets: ")
        assert lines[1] == ("FAIL causality: initial vertex 1 is not at the "
                            "initial time of ground vertex 1")

    @pytest.mark.parametrize("times", [None, [0] * 7], ids=["absent", "zero"])
    def test_trace_from_other_initial_times_fails(self, tmp_path, capsys,
                                                  times):
        out, trace = self._pitched(tmp_path, capsys)
        other = self._ground(tmp_path, "other", times)
        assert main(["verify", "--mesh", out, "--ground", other,
                     "--trace", trace]) == 1
        lines = capsys.readouterr().out.splitlines()
        foreign = "trace starts vertex 1 at 0.05, the ground mesh at 0.0"
        assert lines[1:] == [
            "FAIL causality: initial vertex 1 is not at the initial time of "
            "ground vertex 1",
            f"FAIL progress_trace: {foreign}",
            f"FAIL front_snapshots: {foreign}",
            f"FAIL lift_bounds_sampled: {foreign}"]

    def test_target_time_below_an_initial_time_is_exit_one(self, tmp_path,
                                                            capsys):
        ground = self._ground(tmp_path, "timed", self.TIMES)
        out = tmp_path / "st.json"
        assert main(["pitch", "--input", ground, "--target-time", "0.04",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: target time 0.04 is below the initial "
                                "time 0.05 of vertex 1\n")
        assert not out.exists()


class TestPatchBudget:
    """Valid runs that verify rejected while its patch budget was
    (T/eps) * sum(1/omega): that left out each vertex's last lift, clamped
    at T, and counted from time 0 rather than from the initial times."""

    @staticmethod
    def _grid(tmp_path):
        from tentpitch.synthetic import jittered_grid_mesh

        path = tmp_path / "grid.json"
        path.write_text(ground_json(jittered_grid_mesh(20, 20, seed=1)))
        return path

    @staticmethod
    def _path(tmp_path):
        path = tmp_path / "path.json"
        path.write_text(json.dumps({
            "dim": 1, "vertices": [[float(x)] for x in range(11)],
            "elements": [[i, i + 1] for i in range(10)],
            "initial_times": [-20.0] * 11}))
        return path

    # name: (ground mesh, pitch arguments, start of the progress_trace message)
    CASES = {
        "single_triangle": (
            lambda tmp_path: DATA / "single_triangle.node",
            ["--target-time", "0.05"],
            "3 patches (budget 4.7), 3 elements (budget 28.2)"),
        "grid_mis": (
            _grid, ["--target-time", "0.01", "--strategy", "mis"],
            "441 patches (budget 510.7), 2400 elements (budget 3064.1)"),
        "path_from_minus_20": (
            _path, ["--target-time", "1"],
            "151 patches (budget 2321.0), 275 elements"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_valid_run_passes(self, tmp_path, capsys, name):
        make, args, budget = self.CASES[name]
        ground = str(make(tmp_path))
        out, trace = str(tmp_path / "st.json"), str(tmp_path / "trace.json")
        assert main(["pitch", "--input", ground, *args, "--out", out,
                     "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["verify", "--mesh", out, "--ground", ground,
                     "--trace", trace]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].startswith(f"PASS progress_trace: {budget}")


class TestForeignBindings:
    """A trace whose binding fields no run writes: a value that pitch never
    writes is one error line from the trace reader, and a binding that is
    not one of the ground mesh fails progress_trace alone."""

    # name: (ground, target time); path's lift 0 lifts vertex 0 on element
    # 0 = [0, 1], kuhn's on element 2 = [0, 3, 13, 12] with face [0, 3, 13],
    # and kuhn's lift 26 is the first one bound by the target
    RUNS = {"path": ("golden_path.json", "3"), "kuhn": ("golden_kuhn.json", "1")}

    @pytest.mark.parametrize("name, where, value, message", [
        # the trace reader
        ("path", ("lifts", 0, "kind"), 5,
         "error: $.lifts[0].kind: 5 is not one of 'cone', 'progress', 'target'"),
        ("path", ("lifts", 0, "kind"), "bogus",
         "error: $.lifts[0].kind: 'bogus' is not one of 'cone', 'progress', "
         "'target'"),
        ("path", ("lifts", 0, "face"), [0],
         "error: $.lifts[0].face: 1 entries, expected 3"),
        ("path", ("strategy",), [1],
         "error: $.strategy: [1] is not one of 'greedy', 'mis'"),
        ("path", ("seed",), -3, "error: $.seed: -3 is out of range [0, inf)"),
        # the verifier
        ("path", ("lifts", 0, "element"), 99999,
         "lift 0's element 99999 is not a ground element holding its vertex 0"),
        ("path", ("lifts", 0, "element"), 2,
         "lift 0's element 2 is not a ground element holding its vertex 0"),
        ("path", ("lifts", 0, "element"), None,
         "lift 0 is bound by cone on no element"),
        ("path", ("lifts", 0, "kind"), "target",
         "lift 0 is bound by the target on element 0"),
        ("path", ("lifts", 0, "face"), [0, 1, 2],
         "lift 0 records face [0, 1, 2], which only a cone or progress lift "
         "of a d = 3 run has"),
        ("kuhn", ("lifts", 26, "face"), [26, 0, 1],
         "lift 26 records face [26, 0, 1], which only a cone or progress "
         "lift of a d = 3 run has"),
        ("kuhn", ("lifts", 0, "face"), [3, 0, 13],
         "lift 0's face [3, 0, 13] is not its vertex 0 and two other "
         "vertices of element 2"),
        ("kuhn", ("lifts", 0, "face"), [0, 3, 3],
         "lift 0's face [0, 3, 3] is not its vertex 0 and two other "
         "vertices of element 2"),
        ("kuhn", ("lifts", 0, "face"), [0, 3, 26],
         "lift 0's face [0, 3, 26] is not its vertex 0 and two other "
         "vertices of element 2"),
        # the trace reader again (last, so that the cases above keep their
        # ids): pitch records seed 0 for a greedy run
        ("path", ("seed",), 3, "error: $.seed: a greedy run has seed 0, not 3"),
    ])
    def test_damaged_binding_is_exit_one(self, tmp_path, capsys, name, where,
                                         value, message):
        ground, target = self.RUNS[name]
        ground = str(DATA / ground)
        out, trace = tmp_path / "st.json", tmp_path / "trace.json"
        assert main(["pitch", "--input", ground, "--target-time", target,
                     "--out", str(out), "--trace", str(trace)]) == 0
        data = json.loads(trace.read_text())
        _put(data, where, value)
        trace.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", "--mesh", str(out), "--ground", ground,
                     "--trace", str(trace)]) == 1
        captured = capsys.readouterr()
        if message.startswith("error: "):
            assert (captured.out, captured.err) == ("", message + "\n")
        else:
            lines = captured.out.splitlines()
            assert len(lines) == 5
            assert [x for x in lines if not x.startswith("PASS ")] == [
                f"FAIL progress_trace: {message}"]


def _put(data, where, value):
    """Set the value at a JSON path given as a key/index sequence."""
    for key in where[:-1]:
        data = data[key]
    data[where[-1]] = value


# -- randomly damaged files --------------------------------------------------

GROUND = DATA / "single_triangle.node"


@lru_cache(maxsize=None)
def _valid_files() -> dict:
    """Parsed JSON ground mesh, space-time mesh and trace of a small valid
    run."""
    ground = load(parse_triangle(GROUND.read_text(),
                                 GROUND.with_suffix(".ele").read_text()))
    mesh, trace = run(ground, PitchConfig(target_time=2.0))
    return {"ground": json.loads(ground_json(ground)),
            "mesh": json.loads(write_spacetime_json(mesh)),
            "trace": json.loads(write_trace_json(trace))}


RETYPED = ["x", "2", True, False, None, 2.5, -0.5, [], [1], {}, {"a": 1}]
OUT_OF_RANGE = [-1, -2, 3, 7, 99999, 10**30, 10**400]


def _facet_records(mesh: dict) -> list:
    """Every [element, vertices, producer] record of a space-time mesh."""
    return [*mesh["initial_facets"], *mesh["frontier"],
            *(f for p in mesh["patches"] for f in p["inflow"] + p["outflow"])]


@st.composite
def damaged_files(draw):
    """A valid file with one damage at a random place: a dropped key or
    entry, a value of another type, or an id or value outside its range;
    or, in the space-time mesh, a facet's vertex list in another order or
    its producer moved to another valid patch.  Returns (which file, the
    damaged document, whether the damage must make verify fail)."""
    which = draw(st.sampled_from(["ground", "mesh", "trace"]))
    doc = copy.deepcopy(_valid_files()[which])
    if which == "mesh" and draw(st.booleans()):
        records = _facet_records(doc)
        f = records[draw(st.integers(0, len(records) - 1))]
        if draw(st.booleans()):
            f[1] = draw(st.permutations(f[1]).filter(lambda v: v != f[1]))
        else:
            f[2] = draw(st.sampled_from(
                [p for p in range(-1, len(doc["patches"])) if p != f[2]]))
        return which, doc, True
    node = doc
    while True:
        key = draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child
                and draw(st.booleans())):
            break
        node = child
    damage = draw(st.sampled_from(["drop", "retype", "out_of_range"]))
    if damage == "drop":
        del node[key]
    else:
        node[key] = draw(st.sampled_from(
            RETYPED if damage == "retype" else OUT_OF_RANGE))
    return which, doc, False


# a 1-based 3 x 3 vertex grid with a wave speed per triangle
GRID_NODE = """# x y
9 2 0 0
1 0.0 0.0
2 1.0 0.0
3 2.0 0.0
4 0.0 1.0
5 1.1 0.9
6 2.0 1.0
7 0.0 2.0
8 1.0 2.0
9 2.0 2.0
"""

GRID_ELE = """8 3 1
1 1 2 5 1.0
2 1 5 4 1.5
3 2 3 6 1.0
4 2 6 5 0.5
5 4 5 8 1.0
6 4 8 7 2.0
7 5 6 9 1.0
8 5 9 8 1.0  # last
"""

TOKEN_RETYPED = ["x", "1.5", "-0.5", "0", "nan", "inf", "-inf", "1e400",
                 "#", "0x1", "1_0", "2"]
TOKEN_OUT_OF_RANGE = ["-1", "0", "10", "99999", "-2", str(10**30)]


@st.composite
def damaged_triangle_pairs(draw):
    """A valid .node/.ele pair with one damage on a random line: the line
    dropped, one of its tokens dropped, or a token replaced by another
    value or by an index outside its range."""
    files = {"node": GRID_NODE.splitlines(), "ele": GRID_ELE.splitlines()}
    lines = files[draw(st.sampled_from(sorted(files)))]
    i = draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].split()
    damage = draw(st.sampled_from(["line", "token", "retype", "out_of_range"]))
    if damage == "line":
        del lines[i]
    else:
        j = draw(st.integers(0, len(tokens) - 1))
        if damage == "token":
            del tokens[j]
        else:
            tokens[j] = draw(st.sampled_from(
                TOKEN_RETYPED if damage == "retype" else TOKEN_OUT_OF_RANGE))
        lines[i] = " ".join(tokens)
    return "\n".join(files["node"]) + "\n", "\n".join(files["ele"]) + "\n"


class TestDamagedTrianglePairs:
    def test_valid_pair(self):
        mesh = load(parse_triangle(GRID_NODE, GRID_ELE))
        assert (mesh.n_vertices, mesh.n_elements) == (9, 8)
        assert mesh.speeds.tolist() == [1.0, 1.5, 1.0, 0.5, 1.0, 2.0, 1.0, 1.0]

    def test_exactly_collinear_triangle_rejected(self, tmp_path, capsys):
        # vertex 5 moved to x = 0 makes triangle 2, (0,0) (0,0.9) (0,1),
        # exactly collinear
        path = tmp_path / "grid.node"
        path.write_text(GRID_NODE.replace("5 1.1 0.9", "5 0.0 0.9"))
        path.with_suffix(".ele").write_text(GRID_ELE)
        capsys.readouterr()
        assert main(["info", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: element 1 is degenerate (zero measure)\n"

    @settings(max_examples=80, deadline=None)
    @given(pair=damaged_triangle_pairs())
    def test_parse_load_and_info_fail_cleanly(self, pair):
        node, ele = pair
        try:
            load(parse_triangle(node, ele))
        except (ParseError, MeshValidationError):
            pass
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "grid.node"
            path.write_text(node)
            path.with_suffix(".ele").write_text(ele)
            # any other exception escapes main() as a traceback
            assert main(["info", "--input", str(path)]) in (0, 1)


class TestDamagedFiles:
    @settings(max_examples=80, deadline=None)
    @given(damaged=damaged_files(), chunk=st.integers(1, 3))
    def test_readers_and_verify_fail_cleanly(self, damaged, chunk):
        """Also reads the mesh a few patches at a time: the space-time
        reader must then give what the whole-tree reader gave."""
        which, doc, must_fail = damaged
        files = dict(_valid_files())
        files[which] = doc
        texts = {k: json.dumps(v) for k, v in files.items()}
        with mock.patch.object(io_formats, "READ_CHUNK", chunk):
            try:
                ground = load(parse_json_mesh(texts["ground"]))
                if which == "mesh":
                    reference_reader.assert_same_outcome(
                        read_spacetime_json, texts["mesh"], ground)
                read_spacetime_json(texts["mesh"], ground)
                read_trace_json(texts["trace"])
            except (ParseError, MeshValidationError):
                pass
        with tempfile.TemporaryDirectory() as tmp:
            paths = {k: str(Path(tmp) / f"{k}.json") for k in texts}
            for k, text in texts.items():
                Path(paths[k]).write_text(text)
            # any other exception escapes main() as a traceback
            assert main(["info", "--input", paths["ground"]]) in (0, 1)
            with mock.patch.object(io_formats, "READ_CHUNK", chunk):
                rc = main(["verify", "--mesh", paths["mesh"],
                           "--trace", paths["trace"],
                           "--ground", paths["ground"]])
        assert rc == 1 if must_fail else rc in (0, 1)
