"""The whole-tree space-time JSON reader, kept as the reference for the
chunked reader in tentpitch.io_formats: it parses the whole file with
json.loads and converts the tree in one fixed order of checks.  The
chunked reader must return the same columns and, for a file with one
fault, raise the same message (assert_same_outcome).
"""

from functools import partial
from itertools import chain
from operator import itemgetter

import numpy as np

from tentpitch.errors import MeshValidationError, ParseError
from tentpitch.io_formats import (
    _PATCH_KEYS,
    _arrays,
    _bad_int,
    _columns,
    _convert,
    _entry_path,
    _flatten,
    _float_array,
    _ints,
    _load_object,
)
from tentpitch.spacetime import MeshArrays


def _int_array(values, path_of, lo: int, hi: int) -> np.ndarray:
    """values as an int64 array, checked as by _ints; numpy reads `true`
    as 1, so the type test runs on values, and the range test on the
    array."""
    if set(map(type, values)) <= {int}:
        try:
            ids = np.array(values, dtype=np.int64)
        except OverflowError:  # past int64, so past [lo, hi) too
            pass
        else:
            if not len(ids) or (ids.min() >= lo and ids.max() < hi):
                return ids
    _bad_int(values, path_of, lo, hi)


def _lengths(rows) -> np.ndarray:
    return np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))


def _facet_group_path(g: int) -> str:
    """Path of facet group g: the initial facets, the frontier, then each
    patch's inflow and outflow."""
    if g < 2:
        return ("$.initial_facets", "$.frontier")[g]
    return f"$.patches[{(g - 2) // 2}].{('inflow', 'outflow')[g % 2]}"


def _spacetime_from_dict(data, ground) -> MeshArrays:
    if data.get("format") != "tentpitch-stmesh":
        raise ParseError("$.format: not a tentpitch space-time mesh file")
    (ground_dim,) = _ints([data["ground_dim"]], lambda _: "$.ground_dim")
    if ground_dim != ground.dim:
        raise MeshValidationError(
            f"space-time mesh has ground dimension {ground_dim}, "
            f"ground mesh has {ground.dim}"
        )
    d = ground.dim
    vertices = _float_array(*_flatten(
        data["vertices"], "$.vertices[{}]".format, d + 1)).reshape(-1, d + 1)
    n_vertices = len(vertices)
    vertex_ground = _int_array(list(data["vertex_ground"]),
                               "$.vertex_ground[{}]".format,
                               0, ground.n_vertices)
    elements = _int_array(*_flatten(
        data["elements"], "$.elements[{}]".format, d + 2),
        0, n_vertices).reshape(-1, d + 2)
    patches = data["patches"]
    n_patches = len(patches)
    element_patch = _int_array(list(data["element_patch"]),
                               "$.element_patch[{}]".format, 0, n_patches)
    col = dict(zip(_PATCH_KEYS, _columns(patches, _PATCH_KEYS)))
    at = partial(_entry_path, "$.patches")
    patch_id = _int_array(col["id"], at("id"), 0, n_patches)
    patch_vertex = _int_array(col["vertex"], at("vertex"), 0, ground.n_vertices)
    patch_base = _int_array(col["base"], at("base"), 0, n_vertices)
    patch_apex = _int_array(col["apex"], at("apex"), 0, n_vertices)
    patch_elements = _int_array(*_flatten(col["elements"], at("elements")),
                                0, len(elements))

    groups = [data["initial_facets"], data["frontier"],
              *chain.from_iterable(zip(col["inflow"], col["outflow"]))]
    records, path = _flatten(groups, _facet_group_path)
    _arrays(records, path, 3)
    facet_element = _int_array(list(map(itemgetter(0), records)),
                               lambda k: f"{path(k)}[0]", 0, ground.n_elements)
    facet_vertices = _int_array(*_flatten(
        list(map(itemgetter(1), records)), lambda k: f"{path(k)}[1]", d + 1),
        0, n_vertices).reshape(-1, d + 1)
    facet_producer = _int_array(list(map(itemgetter(2), records)),
                                lambda k: f"{path(k)}[2]", -1, n_patches)
    return MeshArrays(
        ground, vertices, vertex_ground, elements, element_patch,
        patch_id, patch_vertex, patch_base, patch_apex, patch_elements,
        _lengths(col["elements"]), facet_element, facet_vertices,
        facet_producer, _lengths(groups))


def read_spacetime_json(text: str, ground) -> MeshArrays:
    return _convert(_spacetime_from_dict, _load_object(text), ground)


def assert_same_outcome(read, text: str, ground) -> None:
    """read gives for text what the whole-tree reader gives: the same
    columns, or the same error and message."""
    outcomes = []
    for reader in (read, read_spacetime_json):
        try:
            outcomes.append(reader(text, ground))
        except (ParseError, MeshValidationError) as exc:
            outcomes.append((type(exc), str(exc)))
    got, want = outcomes
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_columns(got, want)


def assert_same_columns(got: MeshArrays, want: MeshArrays) -> None:
    for name, column in vars(want).items():
        if name == "ground":
            assert got.ground is column
        else:
            other = getattr(got, name)
            assert other.dtype == column.dtype, name
            assert other.shape == column.shape, name
            assert np.array_equal(other, column), name
