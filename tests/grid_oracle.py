"""Exhaustive grid oracle for the two-constraint rate-distortion function.

The reference of acceptance criterion 2b: a search over every test channel
whose rows lie on a quantized simplex grid, for instances small enough to
enumerate. ``semsec.rdf.TwoConstraintSolver`` is checked against it.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.special import xlogy

from semsec.errors import DomainError, InfeasibleError
from semsec.info import LN2
from semsec.rdf import (
    _SLACK,
    _TINY,
    DiscreteSemanticSource,
    DistortionMatrix,
    RdfPoint,
    _case1_problem,
    _case2_problem,
)


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of length ``parts`` summing to ``total``."""
    out = []
    for dividers in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        row = []
        for d in dividers:
            row.append(d - prev - 1)
            prev = d
        row.append(total + parts - 2 - prev)
        out.append(row)
    return np.asarray(out, dtype=float)


def brute_force_rdf(
    src: DiscreteSemanticSource,
    d_s: DistortionMatrix,
    d_u: DistortionMatrix,
    target_s: float,
    target_u: float,
    case: int,
    grid: int = 11,
    chunk: int = 200_000,
) -> RdfPoint:
    """Exhaustive search over conditionals quantized to a simplex grid.

    Upper-bounds the true RDF by construction (the search is restricted to
    grid-valued channels). Guards keep instances small: joint alphabet at
    most 4, reconstruction alphabets at most 2 each, grid at most 21 points
    per simplex axis.
    """
    if case not in (1, 2):
        raise DomainError(f"case must be 1 or 2, got {case}")
    if grid < 2 or grid > 21:
        raise DomainError(f"grid must lie in [2, 21], got {grid} (instance too large)")
    if src.n_s * src.n_u > 4:
        raise DomainError("instance too large: joint alphabet exceeds 4")
    if case == 2:
        p, cost_a, cost_b = _case2_problem(src, d_s, d_u)
    else:
        p, cost_a, cost_b = _case1_problem(src, d_s, d_u)
    n = cost_a.shape[1]
    if n > 4:
        raise DomainError("instance too large: reconstruction alphabets exceed 2 each")

    rows = _compositions(grid - 1, n) / float(grid - 1)  # (N, n)
    big_n = rows.shape[0]
    active = np.flatnonzero(p > 0.0)
    k = len(active)
    if big_n**k > 2e8:
        raise DomainError(
            f"instance too large: {big_n}^{k} grid channels; reduce the grid"
        )
    # Per active row: precomputed weighted distortion contributions.
    con_a = [p[i] * rows @ cost_a[i] for i in active]
    con_b = [p[i] * rows @ cost_b[i] for i in active]

    total = big_n**k
    best_rate = np.inf
    best = None
    p_active = p[active]
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        flat = np.arange(start, stop, dtype=np.int64)
        idx = np.empty((k, stop - start), dtype=np.int64)
        rem = flat
        for j in range(k - 1, -1, -1):
            rem, idx[j] = np.divmod(rem, big_n)
        ea = np.zeros(stop - start)
        eb = np.zeros(stop - start)
        for j in range(k):
            ea += con_a[j][idx[j]]
            eb += con_b[j][idx[j]]
        mask = (ea <= target_s + _SLACK) & (eb <= target_u + _SLACK)
        if not np.any(mask):
            continue
        sel = idx[:, mask]
        w = rows[sel]  # (k, C, n)
        w = np.swapaxes(w, 0, 1)  # (C, k, n)
        q = np.einsum("i,cin->cn", p_active, w)
        ratio = np.maximum(w, _TINY) / np.maximum(q[:, None, :], _TINY)
        mi = (xlogy(p_active[None, :, None] * w, ratio)).sum(axis=(1, 2)) / LN2
        j_best = int(np.argmin(mi))
        if mi[j_best] < best_rate:
            best_rate = float(mi[j_best])
            cols = np.flatnonzero(mask)
            best = (ea[cols[j_best]], eb[cols[j_best]])
    if best is None:
        raise InfeasibleError(
            f"no grid channel meets ({target_s}, {target_u}) at resolution {grid}"
        )
    return RdfPoint(max(best_rate, 0.0), (float(best[0]), float(best[1])), (), True)
