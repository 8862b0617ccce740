"""Run-to-run spread of the end-to-end metrics, the way the bounds in
BENCHMARK.json are judged: one process per run, each with another seed, and
per metric the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.

    python3 shotbench/spread.py [--runs 10] [--seconds S] [--first-seed 1]
                                [--workloads shot-large,survey]

Prints one table row per (workload, metric) and writes every run's result
to ``.shotbench/spread-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    for wl in args.workloads.split(","):
        runs[wl] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            out["seed"], out["process_s"] = seed, time.perf_counter() - t0
            runs[wl].append(out)
            print(f"# {wl} seed {seed}: {out['process_s']:.1f} s", file=sys.stderr)
    print("| workload | metric | median | IQR/median | bound | runs |")
    print("|---|---|---|---|---|---|")
    for wl, outs in runs.items():
        for name in bounds:
            values = [o["metrics"][name]["value"] for o in outs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"| {wl} | {name} | {med:.4g} | {(q3 - q1) / med:.3f} | {bounds[name]} | {len(values)} |")
    out_dir = ROOT / ".shotbench"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"spread-{int(time.time())}.json").write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
