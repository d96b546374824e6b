"""tentpitch benchmark: one workload, one seed, end-to-end or traced.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: grid_mis, graded_greedy, kuhn_tet (see bench/NOTES.md for why
each was chosen).  The program is run from ``src/`` of the checkout;
there is nothing to build.

--trace 0 drives the real CLI as child processes, one at a time:
rounds of ``tentpitch info``, ``tentpitch pitch`` and ``tentpitch verify``,
at least MIN_ROUNDS of them and more while the next round should end
within S seconds, and reports medians.  --trace 1 runs one CLI pitch and verify plus the
in-process traced run (bench/traced.py) and reports per-layer numbers.
Either way it checks the outputs and prints, as the last stdout line,
{"correct", "attempted", "failed", "metrics"}.

This process imports nothing beyond the standard library: Linux carries a
parent's RSS high-water mark into a child across fork and exec, so a
parent holding numpy (or a parsed 16 MB JSON) would inflate every child's
peak RSS read from os.wait4.  Inputs are generated by a child process
(bench/gen.py) for the same reason.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("grid_mis", "graded_greedy", "kuhn_tet")
MIN_ROUNDS = 5
PASS_LINES = 5
# every child is killed at this many seconds after the run started, so
# a hung program still ends the run well inside the 180 s a run may take
DEADLINE_S = 170.0
# a spawned `python -c pass` must read below this share of the smallest
# peak RSS of the run, or the RSS numbers are the parent's, not the child's
LEAN_RSS_SHARE = 0.5


class Spawner:
    """Spawns children from the checkout root and keeps the op tally."""

    def __init__(self, root: Path):
        self.root = root
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.deadline = time.perf_counter() + DEADLINE_S

    def spawn(self, argv):
        """Run argv to completion; return (exit code, wall s, peak RSS MB,
        stdout+stderr text).  Wall time spans spawn to reap."""
        start = time.perf_counter()
        if start >= self.deadline:
            return -1, 0.0, 0.0, "not started: run deadline passed"
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        killer = threading.Timer(self.deadline - start, proc.kill)
        killer.start()
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, out.decode(errors="replace")

    def python(self, *args):
        return self.spawn([sys.executable, *args])

    def op(self, name, ok: bool, detail: str = ""):
        """Count one attempted operation; record why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED {name}: {detail.strip()[-400:]}")
        return ok


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Workload:
    """Generated inputs plus the CLI argument lists for one run."""

    def __init__(self, sp: Spawner, name: str, seed: int, work: Path):
        self.sp = sp
        self.work = work
        self.out = work / "out"
        shutil.rmtree(work, ignore_errors=True)
        self.out.mkdir(parents=True)
        code, _, _, text = sp.python(str(BENCH / "gen.py"), name, str(seed), str(work))
        if code != 0:
            raise RuntimeError(f"input generation failed:\n{text}")
        info = last_json(text)
        self.dim = info["dim"]
        self.n_vertices, self.n_elements = info["vertices"], info["elements"]
        self.ground = info["ground"]
        self.pitch_args = info["pitch_args"]
        self.stmesh, self.trace = self.out / "st.json", self.out / "trace.json"
        self.stats = self.out / "stats.json"
        cli = [sys.executable, "-m", "tentpitch.cli"]
        self.info_cmd = cli + ["info", "--input", self.ground]
        self.pitch_cmd = cli + [
            "pitch", "--input", self.ground, *self.pitch_args,
            "--out", str(self.stmesh), "--trace", str(self.trace),
            "--stats", str(self.stats),
        ] + (["--vtk", str(self.out / "st.vtk")] if self.dim == 2 else [])
        self.verify_cmd = cli + [
            "verify", "--mesh", str(self.stmesh), "--ground", self.ground,
            "--trace", str(self.trace),
        ]

    def info(self):
        code, wall, _, text = self.sp.spawn(self.info_cmd)
        ok = code == 0 and f"vertices: {self.n_vertices}\n" in text \
            and f"elements: {self.n_elements}\n" in text
        self.sp.op("info", ok, text)
        return wall

    def pitch(self):
        """Returns (wall, rss, digests, stats dict or None)."""
        code, wall, rss, text = self.sp.spawn(self.pitch_cmd)
        if not self.sp.op("pitch", code == 0, text):
            return wall, rss, None, None
        digests = (sha256_file(self.stmesh), sha256_file(self.trace))
        return wall, rss, digests, json.loads(self.stats.read_text())

    def verify(self):
        code, wall, rss, text = self.sp.spawn(self.verify_cmd)
        passes = sum(line.startswith("PASS ") for line in text.splitlines())
        self.sp.op("verify", code == 0 and passes == PASS_LINES, text)
        return wall, rss


def lean_check(sp: Spawner, smallest_peak_mb: float) -> None:
    """Peak RSS of a spawned `python -c pass`; fails the run if it is not
    far below the smallest workload peak measured."""
    code, _, rss, text = sp.python("-c", "pass")
    sp.op("lean spawn check", code == 0 and rss < LEAN_RSS_SHARE * smallest_peak_mb,
           f"python -c pass peaked at {rss:.1f} MB, run minimum {smallest_peak_mb:.1f} MB")


def end_to_end(sp: Spawner, wl: Workload, seconds: float) -> dict:
    setup, pitch, verify = [], [], []
    pitch_rss, verify_rss = [], []
    first_digests, first_stats = None, None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # stop when the next round, at the mean pace so far, would end past
        # the budget, so a run lasts about `seconds` however slow a round is
        if len(pitch) >= MIN_ROUNDS and elapsed * (1 + 1 / len(pitch)) > seconds:
            break
        setup.append(wl.info())
        wall, rss, digests, st = wl.pitch()
        pitch.append(wall)
        pitch_rss.append(rss)
        if digests is not None:
            if first_digests is None:
                first_digests, first_stats = digests, st
            sp.op("outputs identical across repeats", digests == first_digests,
                   f"round {len(pitch)} wrote different bytes")
        wall, rss = wl.verify()
        verify.append(wall)
        verify_rss.append(rss)

    patches = elements = depth = 0
    if first_stats is not None:
        patches, elements = first_stats["patches"], first_stats["elements"]
        code, _, _, text = sp.python(str(BENCH / "dag.py"), str(wl.stmesh))
        if sp.op("patch DAG", code == 0, text):
            dag = last_json(text)
            depth = dag["dag_depth"]
            sp.op("stats patch count", dag["patches"] == patches,
                   f"--stats says {patches}, mesh file has {dag['patches']}")
    lean_check(sp, min(pitch_rss + verify_rss))
    pitch_s = statistics.median(pitch)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "pitch_s": (pitch_s, "s"),
        "verify_s": (statistics.median(verify), "s"),
        "elements_per_s": (elements / pitch_s if pitch_s else 0.0, "1/s"),
        "pitch_peak_rss_mb": (statistics.median(pitch_rss), "MB"),
        "verify_peak_rss_mb": (statistics.median(verify_rss), "MB"),
        "stmesh_mb": (wl.stmesh.stat().st_size / 1e6 if first_stats else 0.0, "MB"),
        "patches": (patches, "count"),
        "dag_depth": (depth, "count"),
        "failed_ops": (sp.failed / sp.attempted, "share"),
        "rounds": (len(pitch), "count"),
    }


# per-layer metric units; counts are "count", sizes "bytes"
LAYER_UNITS = {
    "io_formats.stmesh_bytes": "bytes", "io_formats.written_bytes": "bytes",
    "pitcher.elements_per_s": "1/s", "trace.time_ratio": "ratio",
    "front.lifts_per_phase": "lifts/phase",
    "spacetime.dag_mean_width": "patches/level",
}
PITCH_LAYERS = ("io_formats.parse_s", "ground_mesh.load_s", "ground_mesh.precompute_s",
                "pitcher.run_s", "spacetime.stats_s", "io_formats.write_s")
VERIFY_LAYERS = ("io_formats.parse_s", "ground_mesh.load_s", "io_formats.read_stmesh_s",
                 "io_formats.read_trace_s", "verifier.cone_facets_s",
                 "verifier.causality_s", "verifier.progress_trace_s",
                 "verifier.front_snapshots_s", "verifier.lift_bounds_sampled_s")


def per_layer(sp: Spawner, wl: Workload) -> dict:
    imports = []
    for _ in range(MIN_ROUNDS):
        code, wall, _, text = sp.python("-c", "import tentpitch.cli")
        sp.op("import", code == 0, text)
        imports.append(wall)
    import_s = statistics.median(imports)
    pitch_wall, pitch_rss, digests, st = wl.pitch()
    verify_wall, verify_rss = wl.verify()
    lean_check(sp, min(pitch_rss, verify_rss))

    code, _, _, text = sp.python(str(BENCH / "traced.py"), wl.ground,
                                  str(wl.work / "spans.json"), *wl.pitch_args)
    if not sp.op("traced run", code == 0, text):
        return {}
    traced = last_json(text)
    sp.op("traced checks", traced["passed"], "; ".join(traced["failed_checks"]))
    if digests is not None:
        sp.op("CLI bytes equal traced bytes",
               digests == (traced["sha256"]["stmesh"], traced["sha256"]["trace"]),
               "space-time JSON or trace differs from the in-process run")
        sp.op("CLI counts equal traced counts",
               (st["patches"], st["elements"]) == (traced["patches"], traced["elements"]),
               f"--stats {st['patches']}/{st['elements']}, traced "
               f"{traced['patches']}/{traced['elements']}")
    m = traced["metrics"]
    m["cli.import_s"] = import_s
    m["trace.pitch_gap_s"] = pitch_wall - import_s - sum(m[k] for k in PITCH_LAYERS)
    m["trace.verify_gap_s"] = verify_wall - import_s - sum(m[k] for k in VERIFY_LAYERS)
    return {k: (v, LAYER_UNITS.get(k, "s" if k.endswith("_s") else "count"))
            for k, v in sorted(m.items())}


# printed with the metrics but kept out of the result: failed_ops is 0 on
# a good run (the result carries it as attempted/failed); rounds is a
# setting, not a measurement; each gap is one CLI run minus spans from
# another process, so it can come out negative
PRINTED_ONLY = ("failed_ops", "rounds", "trace.pitch_gap_s", "trace.verify_gap_s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tentpitch" / "cli.py").is_file():
        print(f"error: no tentpitch sources under {root / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sp = Spawner(root)
    wl = Workload(sp, args.workload, args.seed,
                  root / ".bench_work" / f"{args.workload}-{args.seed}")
    try:
        if args.trace:
            metrics = per_layer(sp, wl)
        else:
            metrics = end_to_end(sp, wl, args.seconds)
    finally:
        shutil.rmtree(wl.out, ignore_errors=True)

    for note in sp.notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:34s} {value:16.6g} {unit}")
    result_metrics = {name: {"value": value, "unit": unit}
                      for name, (value, unit) in metrics.items()
                      if name not in PRINTED_ONLY}
    print(json.dumps({
        "correct": sp.failed == 0 and bool(metrics),
        "attempted": sp.attempted,
        "failed": sp.failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
