"""Independent NumPy re-implementation of the acoustic shot.

Written from the equation of ``repro/propagators/acoustic.py``::

    m * u.dt2 + damp * u.dt - laplace(u) = 0,   u.forward = solve(...)

with centred time differences (``u.dt = (u[t+1] - u[t-1]) / 2dt``), the
standard order-8 centred second-derivative weights, zero values outside the
computational grid, trilinear source injection of ``src[t] * dt**2 / m`` into
``u[t+1]`` and trilinear receiver sampling of ``u[t+1]`` into row ``t+1``.
It uses NumPy alone: nothing from ``repro.dsl``, ``repro.ir`` or
``repro.execution``.  Arithmetic is float64, so its distance from the
program's float32 receivers measures the program's rounding, not its own.
"""

from __future__ import annotations

from itertools import product

import numpy as np

#: centred second-derivative weights of accuracy order 8, offsets 0..4
D2_ORDER8 = (-205.0 / 72.0, 8.0 / 5.0, -1.0 / 5.0, 8.0 / 315.0, -1.0 / 560.0)

CORNERS = np.array(list(product((0, 1), repeat=3)), dtype=np.int64)


def trilinear_support(coords, origin, spacing, shape):
    """``(indices, weights)`` of each point's 8 surrounding grid points:
    indices ``(n, 8, 3)`` into the grid, weights ``(n, 8)`` summing to one."""
    logical = (np.asarray(coords, float) - np.asarray(origin, float)) / np.asarray(spacing, float)
    upper = np.asarray(shape) - 1
    logical = np.clip(logical, 0.0, upper)
    base = np.minimum(np.floor(logical).astype(np.int64), upper - 1)
    frac = logical - base
    idx = base[:, None, :] + CORNERS[None, :, :]
    w = np.where(CORNERS[None, :, :] == 1, frac[:, None, :], 1.0 - frac[:, None, :]).prod(axis=2)
    return idx, w


def distinct_support_points(coords, origin, spacing, shape) -> int:
    """Number of distinct grid points in the union of the points' trilinear
    supports (what the masks of the paper's precomputation must mark)."""
    idx, _ = trilinear_support(coords, origin, spacing, shape)
    flat = np.ravel_multi_index(tuple(idx.reshape(-1, 3).T), shape)
    return int(np.unique(flat).size)


def laplacian(u, spacing, r=4, weights=D2_ORDER8):
    """Order-8 Laplacian of the interior of the zero-padded array *u*."""
    n = tuple(s - 2 * r for s in u.shape)
    inner = (slice(r, r + n[0]), slice(r, r + n[1]), slice(r, r + n[2]))
    out = np.zeros(n)
    for d, h in enumerate(spacing):
        acc = weights[0] * u[inner]
        for k in range(1, r + 1):
            lo, hi = list(inner), list(inner)
            lo[d] = slice(r - k, r - k + n[d])
            hi[d] = slice(r + k, r + k + n[d])
            acc = acc + weights[k] * (u[tuple(lo)] + u[tuple(hi)])
        out += acc / (h * h)
    return out


def acoustic_shot(m, damp, spacing, origin, dt, src_coords, src_data, rec_coords, nt,
                  weights=D2_ORDER8):
    """Receiver traces ``(nt + 1, nrec)`` of an acoustic shot from rest.

    *m* (square slowness) and *damp* are arrays over the computational
    grid; *src_data* is ``(>= nt, nsrc)``.  Row 0 is the initial condition."""
    m = np.asarray(m, np.float64)
    damp = np.asarray(damp, np.float64)
    shape = m.shape
    r = 4
    inner = tuple(slice(r, r + s) for s in shape)
    u_prev = np.zeros(tuple(s + 2 * r for s in shape))
    u_now = np.zeros_like(u_prev)
    s_idx, s_w = trilinear_support(src_coords, origin, spacing, shape)
    s_flat = tuple(s_idx.reshape(-1, 3).T)
    s_scale = s_w * (dt * dt / m[s_flat]).reshape(s_w.shape)
    r_idx, r_w = trilinear_support(rec_coords, origin, spacing, shape)
    r_flat = tuple(r_idx.reshape(-1, 3).T)
    denom = m / (dt * dt) + damp / (2.0 * dt)
    rec = np.zeros((nt + 1, len(rec_coords)))
    for t in range(nt):
        lap = laplacian(u_now, spacing, r, weights)
        u_next = np.zeros_like(u_now)
        u_next[inner] = (
            lap
            + m * (2.0 * u_now[inner] - u_prev[inner]) / (dt * dt)
            + damp * u_prev[inner] / (2.0 * dt)
        ) / denom
        grid = u_next[inner]
        np.add.at(grid, s_flat, (s_scale * np.asarray(src_data[t], np.float64)[:, None]).ravel())
        rec[t + 1] = (grid[r_flat].reshape(r_w.shape) * r_w).sum(axis=1)
        u_prev, u_now = u_now, u_next
    return rec
