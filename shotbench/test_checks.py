"""Each correctness check of the benchmark passes on the program's output and
fails on a perturbed input.

    python3 -m pytest -q shotbench/test_checks.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import reference  # noqa: E402
from common import execution_layers  # noqa: E402
from repro.core import NaiveSchedule, TemporalBlockingPipeline, WavefrontSchedule  # noqa: E402
from repro.jobs import JobSpec, run_job_inline  # noqa: E402
from repro.propagators import SeismicModel, layered_velocity, volume_sources  # noqa: E402
from repro.telemetry import Telemetry  # noqa: E402
from shots import build_propagator  # noqa: E402

NT = 10


@pytest.fixture(scope="module")
def problem():
    vp = layered_velocity((20, 20, 20), 1.5, 3.0, 3)
    model = SeismicModel((20, 20, 20), (10.0,) * 3, vp, nbl=4, space_order=8)
    dt = model.critical_dt("acoustic")
    g = model.grid
    src = volume_sources(g, 40, rng=np.random.default_rng(5))
    rec = volume_sources(g, 30, rng=np.random.default_rng(6))
    return model, dt, src, rec


def shot(problem, coords, schedule, telemetry=None):
    model, dt, _, rec = problem
    prop = build_propagator(model, dt, NT, coords, rec)
    out, _ = prop.forward(nt=NT, dt=dt, schedule=schedule, telemetry=telemetry)
    return out, prop


def ref_shot(problem, coords, weights=reference.D2_ORDER8):
    model, dt, _, rec = problem
    g = model.grid
    wavelet = build_propagator(model, dt, NT, coords, rec).source.data
    return reference.acoustic_shot(model.m.data, model.damp.data, g.spacing, g.origin, dt,
                                   coords, wavelet, rec, NT, weights)


def test_reference_matches_program(problem):
    got, _ = shot(problem, problem[2], NaiveSchedule())
    checks.close("reference", got, ref_shot(problem, problem[2]), checks.REF_RTOL)


def test_reference_check_fails_on_shifted_sources(problem):
    got, _ = shot(problem, problem[2], NaiveSchedule())
    g = problem[0].grid
    centre = np.asarray(g.origin) + np.asarray(g.extent) / 2
    moved = problem[2] + 2.5 * np.sign(centre - problem[2])  # a quarter cell inwards
    with pytest.raises(checks.CheckFailed):
        checks.close("reference", got, ref_shot(problem, moved), checks.REF_RTOL)


def test_reference_check_fails_on_wrong_stencil(problem):
    got, _ = shot(problem, problem[2], NaiveSchedule())
    order4 = (-5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0, 0.0, 0.0)
    with pytest.raises(checks.CheckFailed):
        checks.close("reference", got, ref_shot(problem, problem[2], order4), checks.REF_RTOL)


def test_reference_check_fails_on_time_shift(problem):
    got, _ = shot(problem, problem[2], NaiveSchedule())
    ref = ref_shot(problem, problem[2])
    with pytest.raises(checks.CheckFailed):
        checks.close("reference", np.roll(got, 1, axis=0), ref, checks.REF_RTOL)


def test_bit_identity_check(problem):
    one = problem[2][:1]  # one source, as on shot-large
    naive, _ = shot(problem, one, NaiveSchedule())
    wtb, _ = shot(problem, one, WavefrontSchedule(tile=(8, 8), height=4))
    checks.bit_identical("wtb", wtb, naive)
    i = np.unravel_index(np.argmax(np.abs(wtb)), wtb.shape)
    wtb[i] = np.nextafter(wtb[i], np.float32(np.inf))
    with pytest.raises(checks.CheckFailed):
        checks.bit_identical("wtb", wtb, naive)


def test_close_check_fails_beyond_float32_tolerance(problem):
    naive, _ = shot(problem, problem[2], NaiveSchedule())
    checks.close("wtb vs spatial", naive, naive, checks.F32_RTOL)
    bad = naive.astype(np.float64)
    bad[NT // 2, 0] += 1e-3 * np.abs(naive).max()
    with pytest.raises(checks.CheckFailed):
        checks.close("wtb vs spatial", bad, naive, checks.F32_RTOL)


def test_zero_receivers_fail():
    with pytest.raises(checks.CheckFailed):
        checks.close("zero", np.zeros((3, 2)), np.zeros((3, 2)), checks.REF_RTOL)
    with pytest.raises(checks.CheckFailed):
        checks.bit_identical("zero", np.zeros((3, 2)), np.zeros((3, 2)))


def test_superposition_check(problem):
    coords = problem[2]
    wtb = WavefrontSchedule(tile=(8, 8), height=4)
    ab, _ = shot(problem, coords, wtb)
    a, _ = shot(problem, coords[:20], wtb)
    b, _ = shot(problem, coords[20:], wtb)
    checks.superposition(ab, a, b)
    b_moved, _ = shot(problem, coords[20:] * 0.98 + 2.0, wtb)
    with pytest.raises(checks.CheckFailed):
        checks.superposition(ab, a, b_moved)


def test_mask_count_check(problem):
    model, dt, coords, _ = problem
    g = model.grid
    _, prop = shot(problem, coords, NaiveSchedule())
    pipe = TemporalBlockingPipeline(prop.op, dt).precompute()
    want = reference.distinct_support_points(coords, g.origin, g.spacing, g.shape)
    checks.equal_count("masks", pipe.masks["src"].npts, want)
    moved = coords.copy()
    moved[0] = moved[1] + 1.0  # point 0 now shares point 1's support cell
    with pytest.raises(checks.CheckFailed):
        checks.equal_count("masks", pipe.masks["src"].npts,
                           reference.distinct_support_points(moved, g.origin, g.spacing, g.shape))


def test_points_updated_check(problem):
    tel = Telemetry()
    _, prop = shot(problem, problem[2], NaiveSchedule(), telemetry=tel)
    points = int(np.prod(prop.grid.shape)) * NT
    assert execution_layers("naive", [(tel, prop.op)], points)["execution.naive.points_updated"] == points
    tel.counters.add("points_updated", 1)
    with pytest.raises(checks.CheckFailed):
        execution_layers("naive", [(tel, prop.op)], points)


def test_survey_inline_check():
    spec = JobSpec("s", example="tti", nt=8, seed=3)
    want = run_job_inline(spec)
    checks.bit_identical("s", run_job_inline(spec), want)
    with pytest.raises(checks.CheckFailed):
        checks.bit_identical("s", run_job_inline(JobSpec("s", example="tti", nt=8, seed=4)), want)
