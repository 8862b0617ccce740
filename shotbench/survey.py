"""The ``survey`` workload: a fixed batch of small shots through the job
service (``JobPool`` with one warm daemon), journal and checkpoints on, under
a light seeded chaos plan of recoverable faults.

One batch is 27 shots: three cycles of acoustic / TTI / elastic physics under
the wave-front (WTB), spatial and naive schedules, nt=16 on the job grid.
The chaos plan is drawn from the run's seed, but always holds exactly one
``raise`` and one ``nan`` fault (retried from checkpoint) and one finite
bit-flip (recovered in-run by ABFT) per batch.  Every round runs the same
batch in a fresh batch directory under ``.shotbench/`` in the checkout.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import numpy as np
from repro.core import TemporalBlockingPipeline
from repro.jobs import (
    EXAMPLES,
    ChaosConfig,
    ChaosPlan,
    JobPool,
    JobSpec,
    build_problem,
    execute_attempt,
    run_job_inline,
)
from repro.jobs.worker import make_schedule
from repro.runtime import FileCheckpointStore, capture_snapshot
from repro.telemetry import Telemetry
from repro.verify import lint_bound_sweeps, prove_bounds, prove_growth, prove_schedule

import checks
from common import SCHEDULES, execution_layers, host_copy_gbs, median, peak_rss_mb

NT = 16
JOB_SCHEDULE = {"wtb": "wavefront", "spatial": "spatial", "naive": "naive"}
CYCLE = [(p, s) for s in ("wtb", "spatial", "naive") for p in EXAMPLES]
BATCH = 3 * len(CYCLE)
CHAOS = ChaosConfig(fault_rate=0.12, kinds=("raise", "nan"), sdc_rate=0.08)
#: injected faults every batch holds, by kind
FAULTS = {"raise": 1, "nan": 1, "bitflip": 1}


def batch_specs(seed: int):
    return [
        JobSpec(f"shot-{i:02d}", example=p, schedule=JOB_SCHEDULE[s], nt=NT, seed=seed * 1000 + i)
        for i, (p, s) in enumerate(CYCLE * (BATCH // len(CYCLE)))
    ]


def chaos_seed(seed: int) -> int:
    """First batch seed derived from *seed* whose chaos plan injects exactly
    :data:`FAULTS`."""
    for k in range(100000):
        candidate = seed * 100003 + k
        plan = ChaosPlan(CHAOS, candidate)
        kinds = [plan.entry(i, NT).fault for i in range(BATCH)]
        counts = {kind: sum(f is not None and f["kind"] == kind for f in kinds) for kind in FAULTS}
        if counts == FAULTS:
            return candidate
    raise RuntimeError("no chaos seed with the wanted fault counts")


def schedule_of(spec) -> str:
    return {v: k for k, v in JOB_SCHEDULE.items()}[spec.schedule]


def grid_points(spec) -> int:
    prop, _ = build_problem(spec)
    return int(np.prod(prop.grid.shape))


class Survey:
    def __init__(self, seed: int, root: Path, tracer, hygiene):
        self.seed = seed
        self.root = root
        self.tracer = tracer
        self.hygiene = hygiene
        t0 = time.perf_counter()
        self.specs = batch_specs(seed)
        self.batch_seed = chaos_seed(seed)
        #: the benchmark's own input generation, kept out of setup_s
        self.inputs_s = time.perf_counter() - t0
        self.rounds = 0
        self.results = []  # every round's JobResults

    def batch(self, specs, trace=False, chaos=True):
        workdir = self.root / f"round-{self.rounds:03d}"
        self.rounds += 1
        with self.tracer.span("jobs.batch", shot=self.rounds):
            t0 = time.perf_counter()
            pool = JobPool(workers=1, chaos=CHAOS if chaos else None,
                           batch_seed=self.batch_seed, workdir=workdir, trace=trace)
            for spec in specs:
                pool.submit(spec)
            report = pool.run()
            wall = time.perf_counter() - t0
        self.hygiene.sample()
        self.hygiene.note_drain(report)
        shutil.rmtree(workdir, ignore_errors=True)
        if not report.ok:
            bad = [f"{r.spec.job_id}: {r.status}" for r in report.results if not r.ok]
            raise checks.CheckFailed(f"batch lost shots: {bad}")
        return report, wall

    def measure(self, seconds: float, trace: bool, min_rounds: int = 2):
        reports, walls = [], []
        t_end = time.perf_counter() + seconds
        while len(walls) < min_rounds or time.perf_counter() + walls[-1] <= t_end:
            report, wall = self.batch(self.specs, trace=trace)
            reports.append(report)
            walls.append(wall)
            self.results += report.results
        return reports, walls

    def check_receivers(self) -> None:
        """Every completed shot is bit-identical to an inline re-run."""
        want = {}
        for spec in self.specs:
            with self.tracer.span("jobs.run_job_inline"):
                want[spec.job_id] = run_job_inline(spec)
        for result in self.results:
            checks.bit_identical(result.spec.job_id, result.receivers, want[result.spec.job_id])


def run(seed: int, seconds: float, traced: bool, tracer, hygiene, root: Path, t_start: float):
    sv = Survey(seed, root / "survey", tracer, hygiene)
    # set-up: pool start-up and the first cold shot of each physics
    cold_specs = [JobSpec(f"cold-{p}", example=p, nt=NT, seed=seed * 1000 + 900 + i)
                  for i, p in enumerate(EXAMPLES)]
    sv.batch(cold_specs, chaos=False)
    setup = time.perf_counter() - t_start - sv.inputs_s
    untraced_s = seconds / 2 if traced else seconds
    reports, walls = sv.measure(untraced_s, trace=False)
    # latency p50 per (physics, schedule) class: the classes' latencies lie
    # apart, so a median over the mixed batch would jump between them
    p50 = {(p, s): median([r.elapsed for rep in reports for r in rep.results
                           if r.spec.example == p and schedule_of(r.spec) == s])
           for p, s in CYCLE}
    points = grid_points(sv.specs[0]) * NT
    e2e = {
        "setup_s": setup,
        **{f"{s}_mpts_s": points / (sum(p50[p, s] for p in EXAMPLES) / len(EXAMPLES)) / 1e6
           for s in SCHEDULES},
        "shots_per_s": median([rep.completed / w for rep, w in zip(reports, walls)]),
        "shot_latency_p50_s": sum(p50.values()) / len(p50),
        "peak_rss_mb": peak_rss_mb(),
    }
    layers = {}
    if traced:
        layers = trace_layers(sv, seconds / 2, walls, reports)
    sv.check_receivers()
    return {"attempted": len(sv.results), "failed": 0, "e2e": e2e, "layers": layers}


def trace_layers(sv: Survey, seconds, walls, reports) -> dict:
    treports, twalls = sv.measure(seconds, trace=True)
    L = {"telemetry.trace_overhead": median(twalls) / median(walls)}
    shots = sum(len(rep.results) for rep in treports)
    # jobs: attempt phases and supervisor buckets, per shot
    totals = {}
    for rep in treports:
        for k, v in rep.phase_totals().items():
            totals[k] = totals.get(k, 0.0) + v
    for k in ("spawn", "compile", "compute", "io"):
        L[f"jobs.{k}_s"] = totals.get(k, 0.0) / shots
    for b in ("admission", "journal", "dispatch", "idle", "drain"):
        L[f"jobs.supervisor.{b}_s"] = totals.get(f"supervisor.{b}", 0.0) / shots
    attributed = sum(v for k, v in totals.items()
                     if k in ("spawn", "compile", "compute", "io")
                     or (k.startswith("supervisor.") and k not in ("supervisor.idle", "supervisor.execute")))
    L["jobs.wall_coverage"] = attributed / sum(twalls)
    attempts = [a for rep in treports for r in rep.results for a in r.attempts]
    L["jobs.attempts_per_shot"] = len(attempts) / shots
    L["jobs.retries"] = sum(rep.retries for rep in treports) / len(treports)
    L["jobs.journal_fsyncs"] = sum(_journal_records(rep) for rep in treports) / shots
    L["runtime.resumes"] = sum(a.resumed_from is not None for a in attempts) / len(treports)
    L["runtime.sdc_tiles_reexecuted"] = sum(
        e.get("tiles_reexecuted", 0) for rep in treports for e in rep.events
        if e["kind"] == "sdc_recovered") / len(treports)
    done = [a for a in attempts if a.outcome == "completed"]
    L["ir.kernel_cache_hits"] = sum(a.caches.get("kernel_hits", 0) for a in done) / len(treports)
    L["ir.kernel_cache_misses"] = sum(a.caches.get("kernel_misses", 0) for a in done) / len(treports)
    # ir: a batch's daemon starts cold.  The first shot of each physics
    # (shot p, WTB) over the median of the fault-free WTB shots of that
    # physics in later cycles; a physics whose first shot faults is left out
    plan = ChaosPlan(CHAOS, sv.batch_seed)
    clean = [i for i in range(BATCH) if plan.entry(i, NT).fault is None]
    extra = 0.0
    for p in range(len(EXAMPLES)):
        later = [i for i in clean if i > p and i % len(CYCLE) == p]
        if p in clean and later:
            extra += median([rep.results[p].elapsed for rep in reports]) - median(
                [rep.results[i].elapsed for rep in reports for i in later])
    L["ir.cold_apply_extra_s"] = extra
    L.update(direct_calls(sv))
    return L


def _journal_records(report) -> int:
    metric = (report.metrics or {}).get("metrics", {}).get("repro_journal_records_total")
    return int(sum(s["value"] for s in metric["series"])) if metric else 0


def direct_calls(sv: Survey) -> dict:
    """Per-shot costs of what every job does inside the daemon, timed by
    direct calls into the same public functions on one cycle of the batch's
    own problems (build, proofs, precomputation, checkpoint save)."""
    acc, runs = {}, {s: [] for s in SCHEDULES}
    ckpt_dir = sv.root / "direct"

    def timed(key, fn, shot):
        out, seconds = sv.tracer.timed(key, fn, shot)
        acc[key] = acc.get(key, 0.0) + seconds
        return out

    saves, ckpt_bytes, affected, aux = 0, 0, 0, 0
    for i, spec in enumerate(sv.specs[: len(CYCLE)]):
        sched = make_schedule(spec.schedule)
        prop, dt = timed("propagators.build", lambda: build_problem(spec), i)
        op = timed("ir.operator_build", lambda: prop.op, i)
        if spec.schedule == "wavefront":
            pipe = timed("core.precompute", lambda: TemporalBlockingPipeline(op, dt).precompute(), i)
            report = pipe.report()
            affected += report.affected_points
            aux += report.aux_bytes
        tel = Telemetry()
        _, plan = timed(f"execution.{schedule_of(spec)}",
                        lambda: prop.forward(nt=NT, dt=dt, schedule=sched, telemetry=tel), i)
        runs[schedule_of(spec)].append((tel, op))
        timed("verify.prove_schedule", lambda: prove_schedule(op, sched), i)
        timed("verify.prove_bounds", lambda: prove_bounds(op, sched), i)
        timed("verify.prove_growth", lambda: prove_growth(plan.sweeps, operator=op.name, dt=dt), i)
        timed("verify.lint", lambda: lint_bound_sweeps(plan.sweeps, name=op.name), i)
        store = FileCheckpointStore(ckpt_dir / spec.job_id / "store", keep=1)
        timed("runtime.checkpoint", lambda: store.save(capture_snapshot(plan, NT)), i)
        ckpt_bytes += sum(p.stat().st_size for p in (ckpt_dir / spec.job_id / "store").glob("*"))
        _, meta = timed("jobs.execute_attempt", lambda: execute_attempt(spec, ckpt_dir / spec.job_id / "job"), i)
        saves += meta["checkpoint_saves"]
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    n = len(CYCLE)
    wtb_shots = sum(s == "wtb" for _, s in CYCLE)
    L = {f"{k}_s": v / n for k, v in acc.items() if not k.startswith(("execution.", "jobs."))}
    L["core.precompute_s"] = acc["core.precompute"] / wtb_shots
    L["core.affected_points"] = affected / wtb_shots
    L["core.aux_mb"] = aux / wtb_shots / 1e6
    # a shot saves `saves / n` snapshots, each costing the timed save
    L["runtime.checkpoint_saves"] = saves / n
    L["runtime.checkpoint_s"] = acc["runtime.checkpoint"] / n * (saves / n)
    L["runtime.checkpoint_mb"] = ckpt_bytes / n / 1e6
    for s in SCHEDULES:
        L.update(execution_layers(s, runs[s], int(np.prod(prop.grid.shape)) * NT))
    L["host.copy_gbs"] = host_copy_gbs(prop.fields[0].data_with_halo[0].nbytes)
    return L
