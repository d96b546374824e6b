"""The chunked space-time JSON reader: the same columns and messages as the
whole-tree reader it replaced (tests/reference_reader.py), in bounded
memory, whatever the layout and member order of the file."""

import json
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentpitch import (
    GroundMesh,
    MISPhases,
    ParseError,
    PitchConfig,
    io_formats,
    load,
    run,
)
from tentpitch.io_formats import (
    parse_triangle,
    read_spacetime_json,
    write_spacetime_json,
)
from tentpitch.spacetime import mesh_arrays

import reference_reader as reference

DATA = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    # three patches a chunk, so that every run below spans several chunks
    monkeypatch.setattr(io_formats, "READ_CHUNK", 3)


def _golden_grid():
    node = DATA / "golden_grid.node"
    return load(parse_triangle(node.read_text(),
                               node.with_suffix(".ele").read_text()))


def _grid():
    from tentpitch.synthetic import jittered_grid_mesh

    return jittered_grid_mesh(4, 3, seed=5)


def _tets():
    from tentpitch.synthetic import random_tet_mesh

    return random_tet_mesh(9, np.random.default_rng(3))


def _line():
    return GroundMesh(1, [[0.0], [0.8], [2.1], [3.0], [3.4]],
                      [[0, 1], [1, 2], [2, 3], [3, 4]])


# name: (ground mesh, target time, strategy)
RUNS = {
    "d1": (_line, 3.0, None),
    "d2": (_grid, 1.0, None),
    "d3": (_tets, 0.4, None),
    "mis": (_grid, 1.0, lambda: MISPhases(seed=3)),
    "golden_grid": (_golden_grid, 1.0, None),
}


@lru_cache(maxsize=None)
def _run(name):
    make, target, strategy = RUNS[name]
    g = make()
    config = PitchConfig(target_time=target)
    if strategy is not None:
        config = PitchConfig(target_time=target, strategy=strategy())
    mesh, _ = run(g, config)
    return g, mesh, write_spacetime_json(mesh)


def _assert_same_outcome(text, ground):
    reference.assert_same_outcome(read_spacetime_json, text, ground)


class TestColumns:
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_equal_mesh_arrays(self, name):
        g, mesh, text = _run(name)
        assert len(mesh.patches) > 3 * io_formats.READ_CHUNK
        reference.assert_same_columns(read_spacetime_json(text, g),
                                      mesh_arrays(mesh))

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_any_layout_and_member_order(self, name):
        g, mesh, text = _run(name)
        data = json.loads(text)
        want = mesh_arrays(mesh)
        for other in (json.dumps(data, indent=2),
                      json.dumps(dict(reversed(data.items()))),
                      json.dumps(dict(reversed(data.items())), indent="\t",
                                 separators=(" ,\n", " : "))):
            reference.assert_same_columns(read_spacetime_json(other, g), want)

    def test_chunk_borders(self):
        # chunks of one patch up to chunks longer than the whole file
        g, mesh, text = _run("golden_grid")
        want = mesh_arrays(mesh)
        for size in (1, 2, 5, len(mesh.patches) - 1, len(mesh.patches),
                     len(mesh.patches) + 1):
            io_formats.READ_CHUNK = size
            reference.assert_same_columns(read_spacetime_json(text, g), want)


class TestStructure:
    def test_repeated_member_fails(self):
        g, _, text = _run("d2")
        data = json.loads(text)
        patches = json.dumps(data["patches"])
        twice = text.rstrip()[:-1] + f', "patches": {patches}}}'
        with pytest.raises(ParseError, match=r"^\$\.patches: repeated member$"):
            read_spacetime_json(twice, g)
        # json.loads reads the last of the two, the whole-tree reader
        # did too
        assert reference.read_spacetime_json(twice, g) is not None

    @pytest.mark.parametrize("tail", ["x", "{}", "\n,", " 0"])
    def test_trailing_text_fails(self, tail):
        g, _, text = _run("d2")
        with pytest.raises(ParseError, match=r"^invalid JSON: Extra data"):
            read_spacetime_json(text + tail, g)
        _assert_same_outcome(text + tail, g)

    @pytest.mark.parametrize("text", ["", "   ", "[]", "[1, 2]", "3", '"x"',
                                      "null", "\ufeff{}", "{", "{}", '{"a"',
                                      '{"a" 1}', '{"a": }', '{"a": 1,}',
                                      '{"a": 1 "b": 2}', '{"patches": [1,]}',
                                      '{"patches": [1 2]}', '{"patches": ['])
    def test_small_documents_match_whole_tree_reader(self, text):
        _assert_same_outcome(text, _run("d2")[0])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_damaged_text_matches_whole_tree_reader(self, data):
        """A file cut short, or with one character dropped or put in:
        the same message as json.loads gives, or the same outcome."""
        g, _, text = _run("d1")
        if data.draw(st.booleans()):
            text = json.dumps(json.loads(text), indent=1)
        pos = data.draw(st.integers(0, len(text)))
        kind = data.draw(st.sampled_from(["cut", "drop", "insert"]))
        if kind == "cut":
            text = text[:pos]
        elif kind == "drop":
            text = text[:pos] + text[pos + 1:]
        else:
            char = data.draw(st.sampled_from(list('{}[],:" \n0-.eExnt\\')))
            text = text[:pos] + char + text[pos:]
        io_formats.READ_CHUNK = data.draw(st.integers(1, 4))
        _assert_same_outcome(text, g)


# a value of each kind the conversions treat apart, and ids past either
# end of any range, int64 or not
DAMAGES = ["x", True, None, 2.5, [], [1], {"a": 1}, -1, 99999, 10**30]


def _places(node, path=()):
    """JSON paths into node: every key of an object, and the first and
    last entries of an array, each followed down."""
    keys = (sorted(node) if isinstance(node, dict)
            else sorted({0, len(node) - 1} if node else ()))
    for key in keys:
        yield path + (key,)
        if isinstance(node[key], (dict, list)):
            yield from _places(node[key], path + (key,))


_DROP = object()


def _damaged(data, place, value):
    """A copy of data with the entry at place dropped or set to value."""
    doc = json.loads(json.dumps(data))
    node = doc
    for key in place[:-1]:
        node = node[key]
    if value is _DROP:
        del node[place[-1]]
    else:
        node[place[-1]] = value
    return doc


class TestOneFault:
    def test_every_place_matches_whole_tree_reader(self):
        """One fault, at each place of a file that spans several chunks:
        the same columns or the same message as the whole-tree reader."""
        g, mesh, text = _run("d1")
        data = json.loads(text)
        for place in _places(data):
            for value in [_DROP, *DAMAGES]:
                _assert_same_outcome(json.dumps(_damaged(data, place, value)),
                                     g)


class TestBoundedMemory:
    def test_peak_under_512_bytes_per_element(self):
        """A chunk of patches at a time peaked at 438 bytes per element of
        this mesh; the whole-tree reader it replaced took 7.8x the text
        length, written then with a space after each separator.  The bound
        is by the mesh, not the text, so a more compact file does not
        tighten it."""
        from tentpitch.synthetic import jittered_grid_mesh

        g = jittered_grid_mesh(8, 8, seed=0)
        mesh, _ = run(g, PitchConfig(target_time=2.0))
        text = write_spacetime_json(mesh)
        io_formats.READ_CHUNK = 24
        assert len(mesh.patches) >= 8 * io_formats.READ_CHUNK
        read_spacetime_json(text, g)  # first use: nothing left to import
        tracemalloc.start()
        try:
            read_spacetime_json(text, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * mesh.n_elements
