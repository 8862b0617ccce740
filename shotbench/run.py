"""End-to-end shot benchmark of the repository's program.

    python3 shotbench/run.py --workload {shot-large,shot-sources,survey} \\
        --seed N [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/``.
Prints one line per metric, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs half the time untraced and half
traced and reports the per-layer metrics, writing a Chrome trace and a
per-layer table under ``.shotbench/``.  Exit codes: 0 success, 1 a
correctness check failed, 2 the program is missing, 3 a process or
``/dev/shm`` segment of the run outlived it, 128+N stopped by signal N.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from hygiene import Hygiene, Stopped, install_stop_handlers  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".shotbench"
WORKLOADS = ("shot-large", "shot-sources", "survey")


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program() -> None:
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"the program is not in this checkout: no {package}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise ImportError(f"imported repro from {repro.__file__}, not from {package}")


def run_workload(args, tracer, hygiene, scratch: Path) -> dict:
    if args.workload == "survey":
        import survey

        return survey.run(args.seed, args.seconds, bool(args.trace), tracer, hygiene,
                          scratch, T_START)
    import shots

    return shots.run(args.workload, args.seed, args.seconds, bool(args.trace), tracer, T_START)


def main(argv=None) -> int:
    args = parse(argv)
    install_stop_handlers()
    hygiene = Hygiene()
    try:
        import_program()
    except ImportError as exc:
        print(f"shotbench: {exc}", file=sys.stderr)
        return 2
    import checks
    from common import END_TO_END, PER_LAYER, layer_metrics
    from tracing import Tracer

    tracer = Tracer(args.workload, enabled=bool(args.trace))
    scratch = OUT / f"run-{os.getpid()}"
    code, out = 0, None
    try:
        out = run_workload(args, tracer, hygiene, scratch)
    except Stopped as exc:
        print(f"shotbench: {exc}", file=sys.stderr)
        code = 128 + exc.signum
    except checks.CheckFailed as exc:
        print(f"shotbench: CHECK FAILED: {exc}", file=sys.stderr)
        code = 1
    finally:
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, signal.SIG_IGN)
        shutil.rmtree(scratch, ignore_errors=True)
        left = hygiene.leftovers()
        if left:
            print(f"shotbench: still alive after the run: {', '.join(left)}", file=sys.stderr)
            code = code or 3
    if code:
        return code
    if args.trace:
        values, units = layer_metrics(out["layers"]), PER_LAYER
        tracer.write(OUT, f"{args.workload}-seed{args.seed}", values)
    else:
        values, units = out["e2e"], END_TO_END
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    for k, m in metrics.items():
        print(f"{args.workload:13s} {k:40s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:13s} shots attempted {out['attempted']}, failed {out['failed']}")
    print(json.dumps({"correct": True, "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
