"""The inner scan's acceptance rule as three hand-written secrecy blocks.

The reference for ``semsec.gaussian._accept_draws``, which states each
secrecy target's equivocation as one piecewise-linear form,
E(r) = base + r·g − (k − r·g_k)⁺, and loops over the enabled targets. This
copy writes the Δ_s, Δ_u and Δ_su constraints out one by one. The two are
checked against each other bit for bit: reason codes and ``r``, NaN
included.
"""

from __future__ import annotations

import numpy as np

from semsec.gaussian import SemanticSourceGaussian
from semsec.regions import DISABLED, EquivocationTargets

_TOL = 1e-9
_TINY = 1e-300


def _accept_draws(t: dict[str, np.ndarray], targets: EquivocationTargets,
                  src: SemanticSourceGaussian):
    """(r, accepted, reason_code) of each draw's inner-bound inequality system.

    Every constraint is piecewise linear in r (the positive-part brackets
    contribute at most one breakpoint), so the least feasible r is exact;
    strictness of the printed inequalities is absorbed into a 1e-9 slack,
    and disabled (-inf) targets are skipped. An enabled target above its
    source entropy, ``src.h_s``, ``src.h_u`` or ``src.h_su``, is met by no
    scheme, so it discards every finite draw under its secrecy code. A
    draw is accepted when it is feasible and in the sound regime: its
    source-coding rates stay within the entropy budget of every active
    secrecy constraint (and its joint leakage gap is nonnegative for the
    joint one), where the equivocation bounds are fully backed by the
    coding argument. r is NaN where a draw is discarded. Of several
    reasons the first in code order wins, checked as 10, 1-6, then the
    unsound-regime codes 7-9.
    """
    reason = np.zeros(len(t["a1"]), dtype=np.int8)

    def mark(mask, code):
        reason[mask & (reason == 0)] = code

    finite = np.ones(len(reason), dtype=bool)
    for val in t.values():
        finite &= np.isfinite(val)
    mark(~finite, 10)

    a1, a2, a3 = t["a1"], t["a2"], t["a3"]
    b1, b2, b3 = t["b1"], t["b2"], t["b3"]
    hs, hu, hsu = src.h_s, src.h_u, src.h_su
    with np.errstate(invalid="ignore"):
        # Public-layer constraint as printed: no r multiplier.
        mark(finite & (a1 > b1 + _TOL), 1)
        r = np.maximum(
            np.where(a2 > _TOL, a2 / np.maximum(b2, _TINY), 0.0),
            np.where(a3 > _TOL, a3 / np.maximum(b3, _TINY), 0.0),
        )
        mark(finite & (a2 > _TOL) & (b2 <= _TOL), 2)
        mark(finite & (a3 > _TOL) & (b3 <= _TOL), 3)

        g_s = np.maximum(t["g_s"], 0.0)
        g_u = np.maximum(t["g_u"], 0.0)
        leak_su = t["leak_su"]
        g_su = np.maximum(leak_su, 0.0)
        gqu_y = t["gqu_y"]

        if targets.delta_s != DISABLED:
            ds_t = targets.delta_s
            base = np.maximum(hs - a2, 0.0)
            r4 = np.where(gqu_y > _TINY, a3 / np.maximum(gqu_y, _TINY), np.inf)
            slope1 = g_s + gqu_y
            need = ds_t - (base - a3)
            c1 = need / np.maximum(slope1, _TINY)
            use1 = (need > 0.0) & (c1 <= r4) & (slope1 > 0.0)
            r_s = np.where(use1, c1, 0.0)
            m2 = (need > 0.0) & ~use1
            c2 = r4 + (ds_t - (base + r4 * g_s)) / np.maximum(g_s, _TINY)
            ok2 = m2 & (g_s > 0.0) & np.isfinite(r4)
            r_s = np.where(ok2, c2, r_s)
            mark(finite & m2 & ~ok2, 4)
            mark(finite & (ds_t > hs), 4)
            r = np.maximum(r, r_s)
        if targets.delta_u != DISABLED:
            need_u = targets.delta_u - np.maximum(hu - a3, 0.0)
            r = np.maximum(
                r, np.where(need_u > 0.0, need_u / np.maximum(g_u, _TINY), 0.0)
            )
            mark(finite & (need_u > 0.0) & (g_u <= 0.0), 5)
            mark(finite & (targets.delta_u > hu), 5)
        if targets.delta_su != DISABLED:
            need_su = targets.delta_su - np.maximum(hsu - a2 - a3, 0.0)
            r = np.maximum(
                r, np.where(need_su > 0.0, need_su / np.maximum(g_su, _TINY), 0.0)
            )
            mark(finite & (need_su > 0.0) & (g_su <= 0.0), 6)
            mark(finite & (targets.delta_su > hsu), 6)

    if targets.delta_s != DISABLED:
        mark(~(a2 <= hs + _TOL), 7)
    if targets.delta_u != DISABLED:
        mark(~((a1 <= _TOL) & (a3 <= hu + _TOL)), 8)
    if targets.delta_su != DISABLED:
        mark(~((a2 + a3 <= hsu + _TOL) & (leak_su >= -_TOL)), 9)
    accepted = reason == 0
    return np.where(accepted, np.maximum(r, 0.0), np.nan), accepted, reason
