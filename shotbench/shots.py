"""The ``shot-large`` and ``shot-sources`` workloads: acoustic so=8 shots
under the naive, spatially blocked and wave-front temporally blocked (WTB)
schedules, timed warm, in rounds of one shot per schedule.

* ``shot-large`` — one off-grid Ricker source and a receiver line on a
  168^3 computational grid (160^3 model + 4 absorbing points per side).
  The propagator is built once; every round re-runs it.
* ``shot-sources`` — 8192 off-grid sources spread over the 64^3 volume
  (Fig. 10b geometry) and a 32x32 plane of receivers.  Every shot builds
  its own propagator for a fresh seeded source set, and the WTB shot runs
  the paper's precomputation through ``TemporalBlockingPipeline`` first.
"""

from __future__ import annotations

import time

import numpy as np
from repro.core import (
    NaiveSchedule,
    SpatialBlockSchedule,
    TemporalBlockingPipeline,
    WavefrontSchedule,
)
from repro.dsl import SparseTimeFunction
from repro.ir.pycodegen import kernel_cache_stats
from repro.propagators import (
    AcousticPropagator,
    SeismicModel,
    layered_velocity,
    point_source,
    volume_sources,
)
from repro.telemetry import Telemetry
from repro.verify import lint_bound_sweeps, prove_bounds, prove_growth, prove_schedule

import checks
import reference
from common import SCHEDULES, execution_layers, host_copy_gbs, median, peak_rss_mb

SPACE_ORDER, NBL, SPACING, F0 = 8, 4, 10.0, 0.015

CONFIGS = {
    "shot-large": dict(interior=160, nt=8, nsrc=1, block=(16, 16), tile=(16, 16)),
    "shot-sources": dict(interior=56, nt=16, nsrc=8192, block=(16, 16), tile=(16, 16)),
}


def schedules(cfg) -> dict:
    return {
        "naive": NaiveSchedule(),
        "spatial": SpatialBlockSchedule(block=cfg["block"]),
        "wtb": WavefrontSchedule(tile=cfg["tile"], height=4),
    }


def build_model(cfg, seed: int):
    rng = np.random.default_rng([seed, 0])
    shape = (cfg["interior"],) * 3
    vp = layered_velocity(shape, 1.5 + 0.3 * rng.random(), 3.0 + 0.5 * rng.random(), 4)
    model = SeismicModel(shape, (SPACING,) * 3, vp, nbl=NBL, space_order=SPACE_ORDER)
    return model, model.critical_dt("acoustic")


def source_coords(cfg, model, seed: int, rnd: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 1, rnd])
    if cfg["nsrc"] == 1:
        lo = np.asarray(model.origin)
        ext = SPACING * (np.asarray(model.shape) - 1)
        return (lo + ext * rng.uniform(0.4, 0.6, 3))[None, :]
    return volume_sources(model.grid, cfg["nsrc"], rng=rng)


def receiver_coords(cfg, model, seed: int) -> np.ndarray:
    """A 128-receiver line along x through the single source (the wave
    travels only a few cells in nt=8 steps), else a 32x32 plane at a seeded
    depth."""
    lo = np.asarray(model.origin)
    ext = SPACING * (np.asarray(model.shape) - 1)
    if cfg["nsrc"] == 1:
        src = source_coords(cfg, model, seed, 0)[0]
        line = np.repeat(src[None, :], 128, axis=0)
        line[:, 0] = np.linspace(lo[0] + 0.05 * ext[0], lo[0] + 0.95 * ext[0], 128)
        return line
    depth = lo[2] + ext[2] * np.random.default_rng([seed, 2]).uniform(0.3, 0.7)
    xs = np.linspace(lo[0] + 0.05 * ext[0], lo[0] + 0.95 * ext[0], 32)
    ys = np.linspace(lo[1] + 0.05 * ext[1], lo[1] + 0.95 * ext[1], 32)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, depth)], axis=1)


def build_propagator(model, dt, nt, src_coords, rec_coords) -> AcousticPropagator:
    src = point_source("src", model.grid, nt, src_coords, f0=F0, dt=dt)
    rec = SparseTimeFunction("rec", model.grid, npoint=len(rec_coords), nt=nt + 1,
                             coordinates=rec_coords)
    return AcousticPropagator(model, space_order=SPACE_ORDER, source=src, receivers=rec)


class ShotWorkload:
    """State and measurements of one shot workload run."""

    def __init__(self, name: str, seed: int, tracer):
        self.name = name
        self.cfg = CONFIGS[name]
        self.nt = self.cfg["nt"]
        self.seed = seed
        self.tracer = tracer
        self.scheds = schedules(self.cfg)
        self.per_shot = name == "shot-sources"
        self.kc0 = kernel_cache_stats()
        self.layers = {}
        self.shots = 0
        self.model, self.dt = build_model(self.cfg, seed)
        self.rec_coords = receiver_coords(self.cfg, self.model, seed)
        coords = source_coords(self.cfg, self.model, seed, 0)
        self.prop, self.layers["propagators.build_s"] = tracer.timed(
            "propagators.build",
            lambda: build_propagator(self.model, self.dt, self.nt, coords, self.rec_coords))
        _, self.layers["ir.operator_build_s"] = tracer.timed("ir.operator_build", lambda: self.prop.op)
        self.points = int(np.prod(self.model.grid.shape)) * self.nt
        self.first = {}  # schedule -> (receivers, info) of round 0
        self.round_recs = {}  # receivers of the current round, by schedule
        self.last_wtb = None  # info of the latest traced WTB shot

    # -- one shot ------------------------------------------------------------
    def shot(self, sched: str, rnd: int, telemetry=None, coords=None):
        """Run one shot; returns (receivers, wall seconds, info)."""
        info = {}
        tr = self.tracer
        if self.per_shot and coords is None:
            coords = source_coords(self.cfg, self.model, self.seed, rnd)
        t0 = time.perf_counter()
        prop = self.prop
        if self.per_shot:
            prop, info["build_s"] = tr.timed("propagators.build", lambda: build_propagator(
                self.model, self.dt, self.nt, coords, self.rec_coords), rnd)
            tr.timed("ir.operator_build", lambda: prop.op, rnd)
            if sched == "wtb":
                info["pipe"], info["precompute_s"] = tr.timed("core.precompute", lambda: (
                    TemporalBlockingPipeline(prop.op, self.dt).precompute()), rnd)
        with tr.span(f"execution.{sched}", shot=rnd):
            rec, plan = prop.forward(nt=self.nt, dt=self.dt, schedule=self.scheds[sched],
                                     telemetry=telemetry)
        wall = time.perf_counter() - t0
        self.shots += 1
        info["plan"] = plan
        info["coords"] = prop.source.coordinates
        info["src_data"] = prop.source.data
        return rec, wall, info

    def check_shot(self, sched: str, rnd: int, rec, info) -> None:
        """Checks whose inputs every shot provides (untimed)."""
        if self.per_shot:
            if sched == "wtb":
                g = self.model.grid
                npts = info["pipe"].masks["src"].npts
                want = reference.distinct_support_points(info["coords"], g.origin, g.spacing, g.shape)
                checks.equal_count("source-mask affected points", npts, want)
            if rnd not in self.round_recs:  # keep one round only
                self.round_recs = {rnd: {}}
            self.round_recs[rnd][sched] = rec
            got = self.round_recs[rnd]
            if "wtb" in got and "spatial" in got:
                checks.close("WTB vs spatial", got["wtb"], got["spatial"], checks.F32_RTOL)
            if "naive" in got and "spatial" in got:
                checks.bit_identical("spatial vs naive", got["spatial"], got["naive"])
        else:
            if "naive" not in self.first:
                raise checks.CheckFailed("naive shot must run first")
            checks.bit_identical(f"{sched} vs naive", rec, self.first["naive"][0])

    # -- rounds --------------------------------------------------------------
    def rounds(self, seconds: float, start_round: int, min_rounds: int, traced: bool):
        """Warm rounds for *seconds*; returns per-schedule walls, round walls
        and, when traced, per-schedule (Telemetry, build_s, precompute_s)
        of every shot."""
        walls = {s: [] for s in SCHEDULES}
        round_walls, tels = [], {s: [] for s in SCHEDULES}
        t_end = time.perf_counter() + seconds
        rnd = start_round
        while rnd - start_round < min_rounds or time.perf_counter() + round_walls[-1] <= t_end:
            k = rnd % len(SCHEDULES)
            order = SCHEDULES[k:] + SCHEDULES[:k]
            t0 = time.perf_counter()
            for s in order:
                tel = Telemetry() if traced else None
                rec, wall, info = self.shot(s, rnd, telemetry=tel)
                walls[s].append(wall)
                self.check_shot(s, rnd, rec, info)
                if traced:
                    tels[s].append((tel, info.get("build_s"), info.get("precompute_s")))
                    if s == "wtb":
                        self.last_wtb = info
            round_walls.append(time.perf_counter() - t0)
            rnd += 1
        return walls, round_walls, tels, rnd

    def cold_round(self):
        cold = {}
        for s in SCHEDULES:
            rec, cold[s], info = self.shot(s, 0)
            self.first[s] = (rec, info)
            self.check_shot(s, 0, rec, info)
        return cold

    # -- final checks --------------------------------------------------------
    def final_checks(self) -> None:
        if not self.per_shot:
            return
        g = self.model.grid
        rec, info = self.first["wtb"]
        coords = info["coords"]
        ref = reference.acoustic_shot(
            self.model.m.data, self.model.damp.data, g.spacing, g.origin, self.dt,
            coords, info["src_data"], self.rec_coords, self.nt,
        )
        checks.close("WTB vs NumPy reference", rec, ref, checks.REF_RTOL)
        half = len(coords) // 2
        rec_a, _, _ = self.shot("wtb", -1, coords=coords[:half])
        rec_b, _, _ = self.shot("wtb", -2, coords=coords[half:])
        checks.superposition(rec, rec_a, rec_b)


def run(name: str, seed: int, seconds: float, traced: bool, tracer, t_start: float):
    wl = ShotWorkload(name, seed, tracer)
    cold = wl.cold_round()
    # set-up: process start until one cold shot of every schedule is done
    setup = time.perf_counter() - t_start
    untraced_s = seconds / 2 if traced else seconds
    walls, round_walls, _, rnd = wl.rounds(untraced_s, 1, 2, traced=False)
    all_walls = [w for s in SCHEDULES for w in walls[s]]
    e2e = {
        "setup_s": setup,
        **{f"{s}_mpts_s": wl.points / median(walls[s]) / 1e6 for s in SCHEDULES},
        "shots_per_s": median([len(SCHEDULES) / w for w in round_walls]),
        "shot_latency_p50_s": median(all_walls),
        "peak_rss_mb": peak_rss_mb(),
    }
    layers = {}
    if traced:
        layers = trace_layers(wl, seconds / 2, rnd, cold, walls, round_walls)
    wl.final_checks()
    return {"attempted": wl.shots, "failed": 0, "e2e": e2e, "layers": layers}


def trace_layers(wl: ShotWorkload, seconds, rnd, cold, walls, round_walls) -> dict:
    tr = wl.tracer
    _, troundwalls, tels, _ = wl.rounds(seconds, rnd, 1, traced=True)
    L = dict(wl.layers)
    L["ir.cold_apply_extra_s"] = sum(max(0.0, cold[s] - median(walls[s])) for s in SCHEDULES)
    L["telemetry.trace_overhead"] = median(troundwalls) / median(round_walls)
    for s in SCHEDULES:
        # every shot's operator has the same equations as wl.prop's
        L.update(execution_layers(s, [(t, wl.prop.op) for t, _, _ in tels[s]], wl.points))
    if wl.per_shot:
        L["propagators.build_s"] = median([b for _, b, _ in tels["wtb"]])
        L["core.precompute_s"] = median([p for _, _, p in tels["wtb"]])
        pipe = wl.last_wtb["pipe"]
        op = pipe.operator
    else:
        op = wl.prop.op
        pipe, L["core.precompute_s"] = tr.timed(
            "core.precompute", lambda: TemporalBlockingPipeline(op, wl.dt).precompute())
    report = pipe.report()
    L["core.affected_points"] = report.affected_points
    L["core.aux_mb"] = report.aux_bytes / 1e6
    sched, plan = wl.scheds["wtb"], wl.last_wtb["plan"]
    for key, fn in (
        ("verify.prove_schedule_s", lambda: prove_schedule(op, sched)),
        ("verify.prove_bounds_s", lambda: prove_bounds(op, sched)),
        ("verify.prove_growth_s", lambda: prove_growth(plan.sweeps, operator=op.name, dt=wl.dt)),
        ("verify.lint_s", lambda: lint_bound_sweeps(plan.sweeps, name=op.name)),
    ):
        _, L[key] = tr.timed(key[:-2], fn)
    kc = kernel_cache_stats()
    for kind in ("hits", "misses"):
        L[f"ir.kernel_cache_{kind}"] = sum(
            kc[f"{cache}_{kind}"] - wl.kc0[f"{cache}_{kind}"] for cache in ("rhs", "sweep"))
    L["host.copy_gbs"] = host_copy_gbs(wl.prop.u.data_with_halo[0].nbytes)
    return L
