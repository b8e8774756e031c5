"""Reference two-constraint solver: multiplier sweep plus Nelder-Mead.

This is the solver ``semsec.rdf.TwoConstraintSolver`` used before its
Newton ascent, kept as a test oracle together with the Blahut-Arimoto loop
it ran (uniform start, stop on a rate change below ``tol``). It sweeps a
log-spaced multiplier grid, keeps the feasible point of least rate, then
polishes with a Nelder-Mead ascent on Csiszar's dual value, a feasibility
bisection along the multiplier ray and a boundary bisection on each
zero-multiplier edge. Its ``dual_bound`` is Csiszar's value at the final
output distribution, which is a lower bound only at the exact optimum.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize
from scipy.special import xlogy

from semsec.info import LN2
from semsec.rdf import (
    _SLACK,
    _TINY,
    RdfPoint,
    _channel_feasibility,
    _channel_rate,
    _zero_rate_point,
)


def ba_rate_stop(p, tilt, tol=1e-9, max_iter=10_000):
    """Batched Blahut-Arimoto from a uniform output, stopped on rate change."""
    tilt = np.asarray(tilt, dtype=float)
    m, n = tilt.shape[-2], tilt.shape[-1]
    batch_shape = tilt.shape[:-2]
    k = int(np.prod(batch_shape)) if batch_shape else 1
    tilt_flat = tilt.reshape(k, m, n)
    shift = tilt_flat.min(axis=-1, keepdims=True)
    base = np.exp2(-(tilt_flat - shift))
    pw = np.asarray(p, dtype=float).reshape(1, m, 1)
    q = np.full((k, n), 1.0 / n)
    w = np.broadcast_to(q[:, None, :], (k, m, n)).copy()
    rate = np.full(k, np.inf)
    converged = np.zeros(k, dtype=bool)
    iters = 0
    active = np.arange(k)
    while iters < max_iter and active.size:
        iters += 1
        wa = q[active][:, None, :] * base[active]
        wa = wa / np.maximum(wa.sum(axis=-1, keepdims=True), _TINY)
        q_new = np.maximum((pw * wa).sum(axis=-2), 0.0)
        q_new /= np.maximum(q_new.sum(axis=-1, keepdims=True), _TINY)
        ratio = np.maximum(wa, _TINY) / np.maximum(q_new[:, None, :], _TINY)
        new_rate = np.maximum((xlogy(pw * wa, ratio)).sum(axis=(-1, -2)) / LN2, 0.0)
        done = np.abs(new_rate - rate[active]) < tol
        rate[active] = new_rate
        q[active] = q_new
        w[active] = wa
        converged[active] = done
        active = active[~done]
    return {
        "w": w.reshape(batch_shape + (m, n)),
        "q": q.reshape(batch_shape + (n,)),
        "rate": rate.reshape(batch_shape) if batch_shape else float(rate[0]),
        "converged": converged.reshape(batch_shape) if batch_shape else bool(converged[0]),
    }


def expected_distortions(p, w, *costs):
    """Per-cost E d under channel(s) ``w`` of shape (..., m, n)."""
    return tuple((p[:, None] * w * c).sum(axis=(-1, -2)) for c in costs)


def csiszar_value(p, q, tilt, lam_dot_d):
    """-lam.D - sum_x p log2 sum_xh q 2^-tilt: the dual value at ``q``."""
    shift = tilt.min(axis=-1, keepdims=True)
    inner = (q[..., None, :] * np.exp2(-(tilt - shift))).sum(axis=-1)
    log_inner = np.log2(np.maximum(inner, _TINY)) - shift[..., 0]
    pb = p.reshape((1,) * (tilt.ndim - 2) + (len(p),))
    return -lam_dot_d - (pb * log_inner).sum(axis=-1)


class NelderMeadSolver:
    """The sweep-and-polish solver; ``solve`` has the signature of the new one."""

    grid_size = 40
    lam_min = 1e-3
    lam_max = 1e3
    ba_tol = 1e-9
    ba_max_iter = 10_000
    refine_gap = 1e-4
    grid_max_iter = 2_000
    refine_eval_max_iter = 600
    nm_max_iter = 80

    def solve(self, p, cost_a, cost_b, d_a, d_b) -> RdfPoint:
        p = np.asarray(p, dtype=float)
        cost_a = np.asarray(cost_a, dtype=float)
        cost_b = np.asarray(cost_b, dtype=float)
        _, w_lp = _channel_feasibility(p, cost_a, cost_b, d_a, d_b)
        zero = _zero_rate_point(p, cost_a, cost_b, d_a, d_b)
        if zero is not None:
            return RdfPoint(0.0, zero, (0.0, 0.0), True, dual_bound=0.0)

        lam_axis = np.concatenate(
            [[0.0], np.logspace(math.log10(self.lam_min), math.log10(self.lam_max), self.grid_size)]
        )
        la, lb = np.meshgrid(lam_axis, lam_axis, indexing="ij")
        la = la.ravel()
        lb = lb.ravel()
        tilt = la[:, None, None] * cost_a[None] + lb[:, None, None] * cost_b[None]
        out = ba_rate_stop(p, tilt, tol=self.ba_tol, max_iter=self.grid_max_iter)
        ea, eb = expected_distortions(p, out["w"], cost_a, cost_b)
        best_dual = float(np.max(csiszar_value(p, out["q"], tilt, la * d_a + lb * d_b)))
        feas = (ea <= d_a + _SLACK) & (eb <= d_b + _SLACK)
        if np.any(feas):
            idx = int(np.flatnonzero(feas)[np.argmin(out["rate"][feas])])
            rate = float(out["rate"][idx])
            achieved = (float(ea[idx]), float(eb[idx]))
            mult = (float(la[idx]), float(lb[idx]))
            conv = bool(out["converged"][idx])
        else:
            rate = _channel_rate(p, w_lp)
            ea_lp, eb_lp = expected_distortions(p, w_lp, cost_a, cost_b)
            achieved = (float(ea_lp), float(eb_lp))
            mult = (float("nan"), float("nan"))
            conv = True
        if rate - best_dual > self.refine_gap:
            rate, achieved, mult, conv, best_dual = self._refine(
                p, cost_a, cost_b, d_a, d_b, rate, achieved, mult, conv, best_dual
            )
        return RdfPoint(max(rate, 0.0), achieved, mult, conv, dual_bound=best_dual)

    def _eval_pair(self, p, cost_a, cost_b, lam_a, lam_b, d_a, d_b, budget=None):
        tilt = lam_a * cost_a + lam_b * cost_b
        out = ba_rate_stop(
            p, tilt, tol=self.ba_tol,
            max_iter=self.ba_max_iter if budget is None else budget,
        )
        ea, eb = expected_distortions(p, out["w"], cost_a, cost_b)
        dual = float(csiszar_value(p, out["q"], tilt, lam_a * d_a + lam_b * d_b))
        return out, float(ea), float(eb), dual

    def _refine(self, p, cost_a, cost_b, d_a, d_b, rate, achieved, mult, conv, best_dual):
        start = [math.log(max(mult[0], self.lam_min / 10.0)) if math.isfinite(mult[0]) else 0.0,
                 math.log(max(mult[1], self.lam_min / 10.0)) if math.isfinite(mult[1]) else 0.0]

        def neg_dual(x):
            _, _, _, dual = self._eval_pair(
                p, cost_a, cost_b, math.exp(x[0]), math.exp(x[1]), d_a, d_b,
                budget=self.refine_eval_max_iter,
            )
            return -dual

        res = minimize(neg_dual, start, method="Nelder-Mead",
                       options={"maxiter": self.nm_max_iter, "xatol": 1e-4, "fatol": 1e-10})
        best_dual = max(best_dual, -float(res.fun))
        lam_a, lam_b = math.exp(res.x[0]), math.exp(res.x[1])
        out, ea, eb, _ = self._eval_pair(p, cost_a, cost_b, lam_a, lam_b, d_a, d_b)
        if ea <= d_a + _SLACK and eb <= d_b + _SLACK:
            if out["rate"] < rate:
                rate, achieved = float(out["rate"]), (ea, eb)
                mult, conv = (lam_a, lam_b), bool(out["converged"])
        else:
            scale_hi = 1.0
            feasible_hi = None
            for _ in range(24):
                scale_hi *= 2.0
                _, ea_h, eb_h, _ = self._eval_pair(
                    p, cost_a, cost_b, lam_a * scale_hi, lam_b * scale_hi, d_a, d_b,
                    budget=self.refine_eval_max_iter,
                )
                if ea_h <= d_a + _SLACK and eb_h <= d_b + _SLACK:
                    feasible_hi = scale_hi
                    break
            if feasible_hi is not None:
                lo, hi, best_scale = scale_hi / 2.0, scale_hi, scale_hi
                for _ in range(30):
                    mid = 0.5 * (lo + hi)
                    _, ea_m, eb_m, _ = self._eval_pair(
                        p, cost_a, cost_b, lam_a * mid, lam_b * mid, d_a, d_b,
                        budget=self.refine_eval_max_iter,
                    )
                    if ea_m <= d_a + _SLACK and eb_m <= d_b + _SLACK:
                        hi = best_scale = mid
                    else:
                        lo = mid
                out_b, ea_b, eb_b, _ = self._eval_pair(
                    p, cost_a, cost_b, lam_a * best_scale, lam_b * best_scale, d_a, d_b,
                )
                if ea_b <= d_a + _SLACK and eb_b <= d_b + _SLACK and out_b["rate"] < rate:
                    rate, achieved = float(out_b["rate"]), (ea_b, eb_b)
                    mult = (lam_a * best_scale, lam_b * best_scale)
                    conv = bool(out_b["converged"])
        for edge in ("a", "b"):
            cand = self._refine_edge(p, cost_a, cost_b, d_a, d_b, edge)
            if cand is None:
                continue
            c_rate, c_ach, c_mult, c_conv, c_dual = cand
            best_dual = max(best_dual, c_dual)
            if c_rate < rate:
                rate, achieved, mult, conv = c_rate, c_ach, c_mult, c_conv
        return rate, achieved, mult, conv, best_dual

    def _refine_edge(self, p, cost_a, cost_b, d_a, d_b, edge):
        def at(lam, budget):
            pair = (0.0, lam) if edge == "b" else (lam, 0.0)
            return pair, self._eval_pair(p, cost_a, cost_b, pair[0], pair[1], d_a, d_b, budget=budget)

        def on_target(ea, eb):
            return eb <= d_b + _SLACK if edge == "b" else ea <= d_a + _SLACK

        lo, hi = 1e-9, 1e9
        _, (_, ea, eb, _) = at(hi, self.refine_eval_max_iter)
        if not on_target(ea, eb):
            return None
        _, (_, ea, eb, _) = at(lo, self.refine_eval_max_iter)
        if not on_target(ea, eb):
            log_lo, log_hi = math.log(lo), math.log(hi)
            for _ in range(60):
                mid = 0.5 * (log_lo + log_hi)
                _, (_, ea, eb, _) = at(math.exp(mid), self.refine_eval_max_iter)
                if on_target(ea, eb):
                    log_hi = mid
                else:
                    log_lo = mid
            boundary = math.exp(log_hi)
        else:
            boundary = lo
        pair, (out, ea, eb, dual) = at(boundary, None)
        if ea <= d_a + _SLACK and eb <= d_b + _SLACK:
            return float(out["rate"]), (ea, eb), pair, bool(out["converged"]), dual
        return None
