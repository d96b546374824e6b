"""Run bench/run.py over several seeds and report each metric's spread.

Usage, from the root of a source checkout:

    python3 bench/sweep.py [--seeds 1-10]

Runs every workload in BENCHMARK.json at its run_seconds with --trace 0,
one child at a time.  For every workload and end-to-end metric it prints
the median over the seeds, the first and third quartiles
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median and the bound
from BENCHMARK.json with a verdict: "ok" below a third of the bound,
"near" below the bound, "OVER" beyond it.  Exits 1 if a run fails, is
not correct, or any spread is OVER.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", type=seed_list)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    verdict = 0
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True)
            wall = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            status = "no result" if result is None else (
                f"correct={result['correct']} failed={result['failed']}"
                f"/{result['attempted']}")
            print(f"# {workload} seed {seed}: {status}, {wall:.1f} s", flush=True)
            if result is None or not result["correct"]:
                verdict = 1
                print(proc.stdout[-2000:] + proc.stderr[-2000:], flush=True)
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            bound = bounds[name]
            mark = "ok" if spread < bound / 3 else "near" if spread <= bound else "OVER"
            if mark == "OVER":
                verdict = 1
            print(f"{workload:14s} {name:20s} median {med:<14.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:7.4f}  bound {bound:.2f} {mark}",
                  flush=True)
    return verdict


if __name__ == "__main__":
    raise SystemExit(main())
