"""Byte-identity of `tentpitch pitch` outputs and `tentpitch verify`
reports on small committed inputs.

The sha256 digests of the pitch outputs were recorded from the program
before the inline-leaf JSON writer and the plain-record lift loop, those
of the verify stdout from the object-based verifier, before it read the
mesh as arrays; neither may change.  The digests of the Kuhn run with
non-unit speeds were recorded before the slope cap became a constant
per element.  The st.json digests were recorded again when the
space-time JSON dropped the space after "," and ":" (the same members
and values in fewer bytes); the trace, VTK and verify digests did not
change.  The verify digests were recorded again when the patch budget
came to count each vertex's last lift, clamped at the target, and to
count from its initial time: only the budget figures of the
progress_trace line changed.  A change that is meant to alter these files or reports must
say so and record new digests; a speed-up must leave them as they are.
"""

import hashlib
from pathlib import Path

import pytest

from tentpitch.cli import main

DATA = Path(__file__).parent / "data"

# name: (input, pitch arguments, {output file: sha256})
GOLDEN = {
    "path_d1": ("golden_path.json", ["--target-time", "3"], {
        "st.json": "ea21acf8afcc072e6ef697799cf89caaaf92d46decbba9d54e404464d07386c3",
        "trace.json": "3a2aa34b6bd4eec0e4f0de0bd24b6af6a3e1979843dd99e1063c4797c63d51f8",
        "st.vtk": "0cb29679fe777402e97c22d08d819c9a4018bb2bb4c6a217eb1574d943a868b6",
    }),
    "grid_d2_greedy": ("golden_grid.node", ["--target-time", "2"], {
        "st.json": "3579c53e87e054d6054aadfcc6438b324e29a0308cdc63ab0bcc631034b3e194",
        "trace.json": "33e6f1b1fd831da4c49c021138978151143206e5e6b801feb8339c1f98db93a9",
        "st.vtk": "f555415de86f863304e52b45c353f7d756c9465921ef7457e01cd5e9c47aef57",
    }),
    "grid_d2_mis": ("golden_grid.node", ["--target-time", "2", "--strategy",
                                         "mis", "--seed", "3"], {
        "st.json": "457bd5109919d52b03735e3f766eaa4591031cc0e115e96e9061383d8b84ec91",
        "trace.json": "5b84512d456f2ae148c2e79cedec647930ed60c6f0ad4a2d10fe08517eb11b35",
        "st.vtk": "9733b63ccc8f3ae4fd697fdd6d6ee3c2c13ca74ff69bf7214848b716133ab15f",
    }),
    "kuhn_d3": ("golden_kuhn.json", ["--target-time", "1"], {
        "st.json": "89a85a5e8dfa7803d7330815bbee879eca26d7b91a3a1a69e36e3bc2b8faef67",
        "trace.json": "e740929e84b51e3ffa58afb8dc2eff950b77c6918f3219ee7c95194468d680b0",
    }),
    # the Kuhn grid again, with speeds 1.5 on odd and 1.2 on even elements
    "kuhn_d3_speeds": ("golden_kuhn_speeds.json", ["--target-time", "1"], {
        "st.json": "00968afff5e418db15fcb78d505bce671aaf20a18c9c3fd5a6acc2b9e404ebca",
        "trace.json": "6f60488589910a15427f18bface1ecb66f2922b4f48e7baf6a38b18014697293",
    }),
}

# name: sha256 of the stdout of `verify --mesh --ground --trace` on its outputs
VERIFY_STDOUT = {
    "path_d1": "0fc42c48ce291d699af234b0343c5f8b9320a983344c967f05177da2fd20123a",
    "grid_d2_greedy": "b16bf9ab4d098ed079eed3580c3ba1511129c5fa7c845cbb40a2d1d1f9222e41",
    "grid_d2_mis": "9f71dc32d3c5982007289e93bc70d4d1f010d9765a2cf843c5975346b7d3f431",
    "kuhn_d3": "1168d87836cfde7fe105c3d65dfaab8de261c5b4743e123f891d4bce86e22f00",
    "kuhn_d3_speeds": "054618cbb27523258469823fddccfeae44927d408a3e01c2ebcb159cc82e14ae",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pitch_outputs_are_byte_identical(name, tmp_path, capsys):
    ground, args, digests = GOLDEN[name]
    out = {f: tmp_path / f for f in ("st.json", "trace.json", "st.vtk")}
    argv = ["pitch", "--input", str(DATA / ground), *args,
            "--out", str(out["st.json"]), "--trace", str(out["trace.json"])]
    if "st.vtk" in digests:
        argv += ["--vtk", str(out["st.vtk"])]
    assert main(argv) == 0
    capsys.readouterr()
    got = {f: hashlib.sha256(out[f].read_bytes()).hexdigest() for f in digests}
    assert got == digests
    # and the outputs verify
    assert main(["verify", "--mesh", str(out["st.json"]), "--ground",
                 str(DATA / ground), "--trace", str(out["trace.json"])]) == 0
    report = capsys.readouterr().out
    lines = report.splitlines()
    assert len(lines) == 5 and all(x.startswith("PASS ") for x in lines)
    assert hashlib.sha256(report.encode()).hexdigest() == VERIFY_STDOUT[name]
