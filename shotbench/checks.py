"""Correctness checks of the benchmark.  Each raises :class:`CheckFailed`
with a one-line reason; ``test_checks.py`` shows each one failing on a
perturbed input.

Tolerances (see README.md for the derivation):

* ``REF_RTOL`` — program (float32) against the float64 NumPy reference.
* ``F32_RTOL`` — two float32 computations of the same shot that round
  differently (raw vs precomputed injection, superposition).
"""

from __future__ import annotations

import numpy as np

REF_RTOL = 1e-4
F32_RTOL = 1e-5


class CheckFailed(AssertionError):
    pass


def _peak(want) -> float:
    peak = float(np.max(np.abs(want))) if np.size(want) else 0.0
    if not np.isfinite(peak) or peak == 0.0:
        raise CheckFailed("reference receivers are all zero or not finite")
    return peak


def bit_identical(what: str, got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    if got.dtype != want.dtype or got.shape != want.shape or not np.array_equal(got, want):
        raise CheckFailed(f"{what}: receivers are not bit-identical")
    _peak(want)


def close(what: str, got, want, rtol: float) -> None:
    got, want = np.asarray(got, np.float64), np.asarray(want, np.float64)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != {want.shape}")
    peak = _peak(want)
    err = float(np.max(np.abs(got - want)))
    if not err <= rtol * peak:
        raise CheckFailed(f"{what}: max error {err:.3e} > {rtol:g} x peak {peak:.3e}")


def superposition(rec_ab, rec_a, rec_b) -> None:
    close("superposition A+B", np.asarray(rec_a, np.float64) + rec_b, rec_ab, F32_RTOL)


def equal_count(what: str, got: int, want: int) -> None:
    if int(got) != int(want):
        raise CheckFailed(f"{what}: {got} != {want}")
