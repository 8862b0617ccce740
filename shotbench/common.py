"""Metric names, units and small measurement helpers shared by the workloads."""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np

SCHEDULES = ("naive", "spatial", "wtb")

#: end-to-end metrics (name -> unit); every workload reports every one
END_TO_END = {
    "setup_s": "s",
    "wtb_mpts_s": "MPts/s",
    "spatial_mpts_s": "MPts/s",
    "naive_mpts_s": "MPts/s",
    "shots_per_s": "1/s",
    "shot_latency_p50_s": "s",
    "peak_rss_mb": "MB",
}

_PER_SCHEDULE = {
    "stencil_s": "s",
    "injection_s": "s",
    "receivers_s": "s",
    "points_updated": "count",
    "stencil_gbs_computed": "GB/s",
}

#: per-layer metrics (name -> unit); a layer a workload does not exercise
#: reports 0
PER_LAYER = {
    "propagators.build_s": "s",
    "ir.operator_build_s": "s",
    "ir.cold_apply_extra_s": "s",
    "ir.kernel_cache_hits": "count",
    "ir.kernel_cache_misses": "count",
    "verify.prove_schedule_s": "s",
    "verify.prove_bounds_s": "s",
    "verify.prove_growth_s": "s",
    "verify.lint_s": "s",
    "core.precompute_s": "s",
    "core.affected_points": "count",
    "core.aux_mb": "MB",
    **{f"execution.{s}.{k}": u for s in SCHEDULES for k, u in _PER_SCHEDULE.items()},
    "host.copy_gbs": "GB/s",
    "runtime.checkpoint_s": "s",
    "runtime.checkpoint_saves": "count",
    "runtime.checkpoint_mb": "MB",
    "runtime.resumes": "count",
    "runtime.sdc_tiles_reexecuted": "count",
    "jobs.spawn_s": "s",
    "jobs.compile_s": "s",
    "jobs.compute_s": "s",
    "jobs.io_s": "s",
    **{f"jobs.supervisor.{b}_s": "s" for b in ("admission", "journal", "dispatch", "idle", "drain")},
    "jobs.journal_fsyncs": "count",
    "jobs.retries": "count",
    "jobs.attempts_per_shot": "count",
    "jobs.wall_coverage": "ratio",
    "telemetry.trace_overhead": "ratio",
}


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def host_copy_gbs(nbytes: int, repeats: int = 5) -> float:
    """Best NumPy copy bandwidth (read + write bytes per second) between two
    float32 arrays of *nbytes* each."""
    src = np.ones(max(1, nbytes // 4), dtype=np.float32)
    dst = np.empty_like(src)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return 2.0 * src.nbytes / best / 1e9


def compulsory_streams(op) -> int:
    """Arrays a point update of *op* moves at least once, summed over its
    equations: the written field plus each distinct (field, time level) read.
    For the acoustic kernel: u[t+1] written; u[t], u[t-1], m, damp read."""
    from repro.dsl import Indexed

    tdim = op.grid.stepping_dim.name
    return sum(
        1 + len({(a.function.name, a.offset_map().get(tdim)) for a in eq.rhs.atoms(Indexed)})
        for eq in op.eqs
    )


def execution_layers(sched: str, runs, points: int) -> dict:
    """``execution.<sched>.*`` from the ``(Telemetry, operator)`` pairs of
    *runs* shots of *points* grid points x timesteps each (medians per
    shot); checks ``points_updated`` = points x equations on every shot."""
    from checks import equal_count

    updated, streamed, stencil = [], 0.0, 0.0
    for tel, op in runs:
        want = points * len(op.eqs)
        equal_count(f"{sched} points_updated", tel.counters["points_updated"], want)
        updated.append(want)
        streamed += points * compulsory_streams(op) * np.dtype(op.grid.dtype).itemsize
        stencil += tel.phase_seconds.get("stencil", 0.0)

    def phase(k):
        return median([tel.phase_seconds.get(k, 0.0) for tel, _ in runs])

    return {
        f"execution.{sched}.stencil_s": phase("stencil"),
        f"execution.{sched}.injection_s": phase("injection"),
        f"execution.{sched}.receivers_s": phase("receivers"),
        f"execution.{sched}.points_updated": median(updated),
        f"execution.{sched}.stencil_gbs_computed": streamed / stencil / 1e9 if stencil > 0 else 0.0,
    }


def layer_metrics(values: dict) -> dict:
    """Every per-layer metric, 0 where the workload left it unset."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"unknown per-layer metrics {sorted(unknown)}")
    return {k: float(values.get(k, 0.0)) for k in PER_LAYER}
