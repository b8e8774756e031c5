"""Discrete-alphabet rate-distortion solvers for classic and semantic sources.

Three layers:

* closed forms for the binary symmetric semantic source
  (:func:`binary_rdf_obs`, :func:`binary_rdf_sem`, :func:`binary_rdf_joint`);
* a numeric two-constraint Blahut-Arimoto solver
  (:class:`TwoConstraintSolver`, :func:`rdf_semantic_case1`,
  :func:`rdf_semantic_case2`, :func:`rdf_classic`) that also reports a valid
  dual (Csiszar-type) lower bound, so the optimality gap is observable;
* an exhaustive grid oracle (:func:`brute_force_rdf`) for small instances.

Distortion targets are treated as ``<= D`` with a slack tolerance of 1e-9.
Rates are bits per source symbol; multipliers are in bits per unit distortion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.special import xlogy

from .errors import DomainError, InfeasibleError
from .info import LN2, Pmf, binary_entropy

__all__ = [
    "DiscreteSemanticSource",
    "DistortionMatrix",
    "RdfPoint",
    "TwoConstraintSolver",
    "hamming_distortion",
    "modified_distortion",
    "rdf_classic",
    "rdf_semantic_case1",
    "rdf_semantic_case2",
    "brute_force_rdf",
    "binary_rdf_obs",
    "binary_rdf_sem",
    "binary_rdf_joint",
]

_SLACK = 1e-9
_TINY = 1e-300


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteSemanticSource:
    """A discrete semantic source: a joint pmf over (S, U).

    Symbols with zero marginal probability are pruned at construction;
    ``s_support`` / ``u_support`` record the kept original indices so that
    distortion matrices defined on the original alphabets can be sliced.
    """

    joint: Pmf
    s_support: tuple[int, ...] = ()
    u_support: tuple[int, ...] = ()

    def __post_init__(self):
        if self.joint.n_axes != 2:
            raise DomainError("semantic source needs a 2-axis joint pmf over (S, U)")
        arr = self.joint.probs
        ps = arr.sum(axis=1)
        pu = arr.sum(axis=0)
        keep_s = tuple(int(i) for i in np.flatnonzero(ps > 0.0))
        keep_u = tuple(int(j) for j in np.flatnonzero(pu > 0.0))
        if len(keep_s) < arr.shape[0] or len(keep_u) < arr.shape[1]:
            pruned = arr[np.ix_(keep_s, keep_u)]
            object.__setattr__(self, "joint", Pmf(pruned))
            object.__setattr__(self, "s_support", keep_s)
            object.__setattr__(self, "u_support", keep_u)
        else:
            object.__setattr__(self, "s_support", keep_s)
            object.__setattr__(self, "u_support", keep_u)

    @classmethod
    def doubly_symmetric(cls, alpha: float) -> "DiscreteSemanticSource":
        """S ~ Bernoulli(0.5) observed through a BSC(alpha)."""
        if not 0.0 <= alpha <= 0.5:
            raise DomainError(f"crossover must lie in [0, 0.5], got {alpha}")
        joint = np.array(
            [[(1.0 - alpha) / 2.0, alpha / 2.0], [alpha / 2.0, (1.0 - alpha) / 2.0]]
        )
        return cls(Pmf(joint))

    @property
    def n_s(self) -> int:
        return self.joint.probs.shape[0]

    @property
    def n_u(self) -> int:
        return self.joint.probs.shape[1]

    @property
    def marginal_s(self) -> np.ndarray:
        return self.joint.probs.sum(axis=1)

    @property
    def marginal_u(self) -> np.ndarray:
        return self.joint.probs.sum(axis=0)

    def p_s_given_u(self) -> np.ndarray:
        """Conditional p(s | u) as an (n_s, n_u) array."""
        pu = self.marginal_u
        return self.joint.probs / pu[None, :]


@dataclass(frozen=True)
class DistortionMatrix:
    """Per-letter distortion d(x, x_hat), rows = source, cols = reconstruction."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2:
            raise DomainError(f"distortion matrix must be 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise DomainError("distortion entries must be finite and nonnegative")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def hamming_distortion(n: int, m: int | None = None) -> DistortionMatrix:
    """Hamming distortion: 0 on the diagonal, 1 elsewhere."""
    m = n if m is None else m
    return DistortionMatrix(1.0 - np.eye(n, m))


@dataclass(frozen=True)
class RdfPoint:
    """One evaluated point of a rate-distortion function.

    ``dual_bound`` is a valid lower bound on the true RDF at the requested
    distortions (None when the evaluation is closed-form or exhaustive).
    """

    rate: float
    distortions: tuple[float, ...]
    multipliers: tuple[float, ...]
    converged: bool
    dual_bound: float | None = None

    def __post_init__(self):
        if self.rate < -1e-12:
            raise DomainError(f"rate must be nonnegative, got {self.rate}")


# ---------------------------------------------------------------------------
# Blahut-Arimoto core
# ---------------------------------------------------------------------------


def _ba_tilted(
    p: np.ndarray,
    tilt: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 10_000,
    return_trace: bool = False,
):
    """Blahut-Arimoto for min_W I(p, W) + sum p W tilt, batched over tilts.

    ``tilt`` has shape (..., m, n) with the exponent already in bits (that is,
    the test channel is W proportional to q * 2**(-tilt)).  Returns a dict
    with the final channel ``w`` (paired with its exact output marginal
    ``q``), the achieved mutual information ``rate``, a convergence mask, the
    iteration count, and (optionally, unbatched only) the per-iteration
    Lagrangian trace, which the alternating minimization makes nonincreasing.
    """
    tilt = np.asarray(tilt, dtype=float)
    m, n = tilt.shape[-2], tilt.shape[-1]
    batch_shape = tilt.shape[:-2]
    k = int(np.prod(batch_shape)) if batch_shape else 1
    if return_trace and batch_shape:
        raise DomainError("Lagrangian trace is only supported for unbatched calls")
    tilt_flat = tilt.reshape(k, m, n)
    shift = tilt_flat.min(axis=-1, keepdims=True)
    base = np.exp2(-(tilt_flat - shift))  # row maxima equal 1: stable
    p = np.asarray(p, dtype=float)
    pw = p.reshape(1, m, 1)

    q = np.full((k, n), 1.0 / n)
    w = np.broadcast_to(q[:, None, :], (k, m, n)).copy()
    rate = np.full(k, np.inf)
    converged = np.zeros(k, dtype=bool)
    trace: list[float] = []
    iters = 0
    active = np.arange(k)
    while iters < max_iter and active.size:
        iters += 1
        wa = q[active][:, None, :] * base[active]
        rows = wa.sum(axis=-1, keepdims=True)
        wa = wa / np.maximum(rows, _TINY)
        q_new = (pw * wa).sum(axis=-2)
        q_new = np.maximum(q_new, 0.0)
        q_new /= np.maximum(q_new.sum(axis=-1, keepdims=True), _TINY)
        ratio = np.maximum(wa, _TINY) / np.maximum(q_new[:, None, :], _TINY)
        new_rate = (xlogy(pw * wa, ratio)).sum(axis=(-1, -2)) / LN2
        new_rate = np.maximum(new_rate, 0.0)
        if return_trace:
            lagr = new_rate + (pw * wa * tilt_flat[active]).sum(axis=(-1, -2))
            trace.append(float(lagr[0]))
        delta = np.abs(new_rate - rate[active])
        rate[active] = new_rate
        q[active] = q_new
        w[active] = wa
        done = delta < tol
        converged[active] = done
        active = active[~done]

    out = {
        "w": w.reshape(batch_shape + (m, n)),
        "q": q.reshape(batch_shape + (n,)),
        "rate": rate.reshape(batch_shape) if batch_shape else float(rate[0]),
        "converged": converged.reshape(batch_shape) if batch_shape else bool(converged[0]),
        "iterations": iters,
    }
    if return_trace:
        out["trace"] = np.asarray(trace)
    return out


def _expected_distortions(p, w, *costs):
    pw = p.reshape((1,) * (w.ndim - 2) + (len(p), 1))
    return tuple(float((pw * w * c).sum(axis=(-1, -2))) if w.ndim == 2 else (pw * w * c).sum(axis=(-1, -2)) for c in costs)


def _dual_bound(p, q, tilt, lam_dot_d):
    """Csiszar dual lower bound -lam.D - sum_x p log2 sum_xh q 2^{-tilt}."""
    shift = tilt.min(axis=-1, keepdims=True)
    inner = (q[..., None, :] * np.exp2(-(tilt - shift))).sum(axis=-1)
    log_inner = np.log2(np.maximum(inner, _TINY)) - shift[..., 0]
    pb = p.reshape((1,) * (tilt.ndim - 2) + (len(p),))
    return -lam_dot_d - (pb * log_inner).sum(axis=-1)


# ---------------------------------------------------------------------------
# feasibility helpers (linear programs over test channels)
# ---------------------------------------------------------------------------


def _channel_feasibility(p, cost_a, cost_b, d_a, d_b):
    """Minimum uniform slack s such that some channel meets (d_a+s, d_b+s).

    Returns (s_star, W) where W is a feasible channel at slack s_star.
    """
    m, n = cost_a.shape
    nv = m * n + 1
    c = np.zeros(nv)
    c[-1] = 1.0
    row_a = np.append((p[:, None] * cost_a).ravel(), -1.0)
    row_b = np.append((p[:, None] * cost_b).ravel(), -1.0)
    a_ub = np.vstack([row_a, row_b])
    b_ub = np.array([d_a, d_b])
    a_eq = np.zeros((m, nv))
    for i in range(m):
        a_eq[i, i * n : (i + 1) * n] = 1.0
    b_eq = np.ones(m)
    bounds = [(0.0, None)] * (m * n) + [(0.0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status != 0:
        raise InfeasibleError(f"feasibility LP failed with status {res.status}")
    w = res.x[:-1].reshape(m, n)
    return float(res.x[-1]), w


def _zero_rate_point(p, cost_a, cost_b, d_a, d_b):
    """A rate-0 (constant-output-mixture) point meeting both targets, or None."""
    ea = p @ cost_a
    eb = p @ cost_b
    n = len(ea)
    res = linprog(
        ea + eb,
        A_ub=np.vstack([ea, eb]),
        b_ub=np.array([d_a + _SLACK, d_b + _SLACK]),
        A_eq=np.ones((1, n)),
        b_eq=np.array([1.0]),
        bounds=[(0.0, None)] * n,
        method="highs",
    )
    if res.status != 0:
        return None
    mu = res.x
    return float(mu @ ea), float(mu @ eb)


# ---------------------------------------------------------------------------
# two-constraint solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoConstraintSolver:
    """Rate-distortion with two simultaneous average-distortion constraints.

    Strategy: sweep a log-spaced multiplier grid (default 40x40 over
    [1e-3, 1e3], plus zero edges), running a batched Blahut-Arimoto instance
    per pair; keep the feasible point of least rate and the best dual lower
    bound; when the primal-dual gap exceeds ``refine_gap``, polish with a
    Nelder-Mead ascent on the dual followed by a feasibility bisection along
    the multiplier ray.
    """

    grid_size: int = 40
    lam_min: float = 1e-3
    lam_max: float = 1e3
    ba_tol: float = 1e-9
    ba_max_iter: int = 10_000
    refine: bool = True
    refine_gap: float = 1e-4
    # Iteration caps for the exploratory stages. The multiplier-grid sweep
    # and the dual-ascent evaluations only steer the search: any partially
    # converged state still yields a valid dual bound and a genuine
    # (rate, distortion) point, so capping them trades nothing but
    # tightness; the final point is re-polished at full accuracy.
    grid_max_iter: int = 2_000
    refine_eval_max_iter: int = 600
    nm_max_iter: int = 80

    def solve(self, p, cost_a, cost_b, d_a, d_b) -> RdfPoint:
        p = np.asarray(p, dtype=float)
        cost_a = np.asarray(cost_a, dtype=float)
        cost_b = np.asarray(cost_b, dtype=float)
        if cost_a.shape != cost_b.shape or cost_a.shape[0] != len(p):
            raise DomainError(
                f"cost shapes {cost_a.shape}/{cost_b.shape} inconsistent with |X|={len(p)}"
            )
        floor_a = float(p @ cost_a.min(axis=1))
        floor_b = float(p @ cost_b.min(axis=1))
        if d_a < floor_a - _SLACK:
            raise InfeasibleError(
                f"first distortion target {d_a} below its floor {floor_a}"
            )
        if d_b < floor_b - _SLACK:
            raise InfeasibleError(
                f"second distortion target {d_b} below its floor {floor_b}"
            )
        slack, w_lp = _channel_feasibility(p, cost_a, cost_b, d_a, d_b)
        if slack > _SLACK:
            raise InfeasibleError(
                f"distortion pair ({d_a}, {d_b}) jointly infeasible "
                f"(minimum uniform slack {slack})"
            )
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
        out = _ba_tilted(p, tilt, tol=self.ba_tol, max_iter=self.grid_max_iter)
        ea, eb = _expected_distortions(p, out["w"], cost_a, cost_b)
        duals = _dual_bound(p, out["q"], tilt, la * d_a + lb * d_b)
        best_dual = float(np.max(duals))

        feas = (ea <= d_a + _SLACK) & (eb <= d_b + _SLACK)
        if np.any(feas):
            idx = int(np.flatnonzero(feas)[np.argmin(out["rate"][feas])])
            rate = float(out["rate"][idx])
            achieved = (float(ea[idx]), float(eb[idx]))
            mult = (float(la[idx]), float(lb[idx]))
            conv = bool(out["converged"][idx])
        else:
            # Fall back to the (feasible) LP channel.
            rate = _channel_rate(p, w_lp)
            ea_lp, eb_lp = _expected_distortions(p, w_lp, cost_a, cost_b)
            achieved = (float(ea_lp), float(eb_lp))
            mult = (float("nan"), float("nan"))
            conv = True

        if self.refine and rate - best_dual > self.refine_gap:
            rate, achieved, mult, conv, best_dual = self._refine(
                p, cost_a, cost_b, d_a, d_b, rate, achieved, mult, conv, best_dual
            )
        return RdfPoint(max(rate, 0.0), achieved, mult, conv, dual_bound=best_dual)

    # -- refinement ---------------------------------------------------------

    def _eval_pair(self, p, cost_a, cost_b, lam_a, lam_b, d_a, d_b, budget=None):
        tilt = lam_a * cost_a + lam_b * cost_b
        out = _ba_tilted(
            p, tilt, tol=self.ba_tol,
            max_iter=self.ba_max_iter if budget is None else budget,
        )
        ea, eb = _expected_distortions(p, out["w"], cost_a, cost_b)
        dual = float(_dual_bound(p, out["q"], tilt, lam_a * d_a + lam_b * d_b))
        return out, float(ea), float(eb), dual

    def _refine(self, p, cost_a, cost_b, d_a, d_b, rate, achieved, mult, conv, best_dual):
        start = [math.log(max(mult[0], self.lam_min / 10.0)) if math.isfinite(mult[0]) else 0.0,
                 math.log(max(mult[1], self.lam_min / 10.0)) if math.isfinite(mult[1]) else 0.0]

        def neg_dual(x):
            lam_a, lam_b = math.exp(x[0]), math.exp(x[1])
            _, _, _, dual = self._eval_pair(
                p, cost_a, cost_b, lam_a, lam_b, d_a, d_b,
                budget=self.refine_eval_max_iter,
            )
            return -dual

        res = minimize(neg_dual, start, method="Nelder-Mead",
                       options={"maxiter": self.nm_max_iter, "xatol": 1e-4,
                                "fatol": 1e-10})
        best_dual = max(best_dual, -float(res.fun))
        lam_a, lam_b = math.exp(res.x[0]), math.exp(res.x[1])
        out, ea, eb, _ = self._eval_pair(p, cost_a, cost_b, lam_a, lam_b, d_a, d_b)
        if ea <= d_a + _SLACK and eb <= d_b + _SLACK:
            if out["rate"] < rate:
                rate, achieved = float(out["rate"]), (ea, eb)
                mult, conv = (lam_a, lam_b), bool(out["converged"])
        else:
            # Scaling both multipliers up drives distortions down; bisect the
            # scale to the feasibility boundary.
            scale_hi = 1.0
            feasible_hi = None
            for _ in range(24):
                scale_hi *= 2.0
                out_hi, ea_h, eb_h, _ = self._eval_pair(
                    p, cost_a, cost_b, lam_a * scale_hi, lam_b * scale_hi, d_a, d_b,
                    budget=self.refine_eval_max_iter,
                )
                if ea_h <= d_a + _SLACK and eb_h <= d_b + _SLACK:
                    feasible_hi = (out_hi, ea_h, eb_h, scale_hi)
                    break
            if feasible_hi is not None:
                lo = scale_hi / 2.0
                hi = scale_hi
                best_scale = scale_hi
                for _ in range(30):
                    mid = 0.5 * (lo + hi)
                    _, ea_m, eb_m, _ = self._eval_pair(
                        p, cost_a, cost_b, lam_a * mid, lam_b * mid, d_a, d_b,
                        budget=self.refine_eval_max_iter,
                    )
                    if ea_m <= d_a + _SLACK and eb_m <= d_b + _SLACK:
                        hi = mid
                        best_scale = mid
                    else:
                        lo = mid
                out_b, ea_b, eb_b, _ = self._eval_pair(
                    p, cost_a, cost_b, lam_a * best_scale, lam_b * best_scale,
                    d_a, d_b,
                )
                if ea_b <= d_a + _SLACK and eb_b <= d_b + _SLACK and out_b["rate"] < rate:
                    rate, achieved = float(out_b["rate"]), (ea_b, eb_b)
                    mult = (lam_a * best_scale, lam_b * best_scale)
                    conv = bool(out_b["converged"])
        # When one constraint is slack the optimum sits on a zero-multiplier
        # edge, which the log-space simplex search cannot represent; cover
        # both edges with a direct one-dimensional boundary bisection.
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
        """Best feasible point with the other multiplier pinned to zero.

        The active-constraint distortion is nonincreasing in its multiplier,
        so the cheapest feasible point on the edge is at the boundary; a log
        bisection finds it. Returns None when the edge holds no feasible
        point (including the pinned constraint being violated there).
        """

        def at(lam, budget):
            pair = (0.0, lam) if edge == "b" else (lam, 0.0)
            return pair, self._eval_pair(
                p, cost_a, cost_b, pair[0], pair[1], d_a, d_b, budget=budget
            )

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


def _channel_rate(p, w):
    """Mutual information in bits of source p through channel w."""
    q = (p[:, None] * w).sum(axis=0)
    ratio = np.maximum(w, _TINY) / np.maximum(q[None, :], _TINY)
    return float((xlogy(p[:, None] * w, ratio)).sum() / LN2)


# ---------------------------------------------------------------------------
# public RDF operations
# ---------------------------------------------------------------------------


def _source_rows(d: DistortionMatrix, support: tuple[int, ...], n_kept: int, name: str) -> np.ndarray:
    """Rows of ``d`` for the kept source symbols.

    Accepts matrices indexed by either the pruned or the original alphabet.
    """
    if d.shape[0] == n_kept:
        return d.entries
    if support and d.shape[0] > max(support):
        return d.entries[list(support)]
    raise DomainError(
        f"{name} has {d.shape[0]} rows; need {n_kept} (pruned) or at least "
        f"{max(support) + 1 if support else 0} (original alphabet)"
    )


def modified_distortion(src: DiscreteSemanticSource, d_s: DistortionMatrix) -> DistortionMatrix:
    """Distortion on (U, S_hat) induced by averaging d_s over p(s | u)."""
    ds = _source_rows(d_s, src.s_support, src.n_s, "d_s")
    cond = src.p_s_given_u()  # (n_s, n_u)
    return DistortionMatrix(cond.T @ ds)


def rdf_classic(p_u, d_u: DistortionMatrix, target: float) -> RdfPoint:
    """Single-constraint rate-distortion function via Blahut-Arimoto.

    ``p_u`` may be a 1-axis :class:`Pmf` or a probability vector.
    """
    p = p_u.probs if isinstance(p_u, Pmf) else np.asarray(p_u, dtype=float)
    if p.ndim != 1:
        raise DomainError("rdf_classic expects a single-axis pmf")
    cost = d_u.entries
    if cost.shape[0] != len(p):
        raise DomainError(
            f"distortion rows {cost.shape[0]} != alphabet size {len(p)}"
        )
    floor = float(p @ cost.min(axis=1))
    if target < floor - _SLACK:
        raise InfeasibleError(f"distortion target {target} below floor {floor}")
    constants = p @ cost
    best_const = float(constants.min())
    if target >= best_const - _SLACK:
        return RdfPoint(0.0, (best_const,), (0.0,), True, dual_bound=0.0)

    lo, hi = 1e-6, 1e6

    def eval_lam(lam):
        out = _ba_tilted(p, lam * cost, tol=1e-12, max_iter=20_000)
        (ed,) = _expected_distortions(p, out["w"], cost)
        return out, float(ed)

    out_hi, ed_hi = eval_lam(hi)
    if ed_hi > target + _SLACK:
        # Target sits at (or numerically below) the floor; report the
        # sharpest available point.
        dual = float(_dual_bound(p, out_hi["q"], hi * cost, hi * target))
        return RdfPoint(float(out_hi["rate"]), (ed_hi,), (hi,), bool(out_hi["converged"]), dual_bound=dual)
    best = (out_hi, ed_hi, hi)
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        out_m, ed_m = eval_lam(mid)
        if ed_m <= target + _SLACK:
            best = (out_m, ed_m, mid)
            hi = mid
        else:
            lo = mid
    out_b, ed_b, lam_b = best
    dual = float(_dual_bound(p, out_b["q"], lam_b * cost, lam_b * target))
    return RdfPoint(
        float(out_b["rate"]), (ed_b,), (lam_b,), bool(out_b["converged"]), dual_bound=dual
    )


def _case2_problem(src, d_s, d_u):
    ds = _source_rows(d_s, src.s_support, src.n_s, "d_s")
    du = _source_rows(d_u, src.u_support, src.n_u, "d_u")
    n_sh, n_uh = ds.shape[1], du.shape[1]
    p = src.joint.probs.ravel()  # (s, u) row-major
    cost_a = np.zeros((src.n_s * src.n_u, n_sh * n_uh))
    cost_b = np.zeros_like(cost_a)
    for s in range(src.n_s):
        for u in range(src.n_u):
            row = s * src.n_u + u
            cost_a[row] = np.repeat(ds[s], n_uh)
            cost_b[row] = np.tile(du[u], n_sh)
    return p, cost_a, cost_b


def _case1_problem(src, d_s, d_u):
    dhat = modified_distortion(src, d_s).entries  # (n_u, n_sh)
    du = _source_rows(d_u, src.u_support, src.n_u, "d_u")
    n_sh, n_uh = dhat.shape[1], du.shape[1]
    p = src.marginal_u
    cost_a = np.zeros((src.n_u, n_sh * n_uh))
    cost_b = np.zeros_like(cost_a)
    for u in range(src.n_u):
        cost_a[u] = np.repeat(dhat[u], n_uh)
        cost_b[u] = np.tile(du[u], n_sh)
    return p, cost_a, cost_b


def rdf_semantic_case2(
    src: DiscreteSemanticSource,
    d_s: DistortionMatrix,
    d_u: DistortionMatrix,
    target_s: float,
    target_u: float,
    solver: TwoConstraintSolver | None = None,
) -> RdfPoint:
    """min I(S,U; S_hat,U_hat) s.t. E d_s <= target_s and E d_u <= target_u.

    Encoder sees both source components; the optimization runs over test
    channels from (S, U) to the product reconstruction alphabet.
    """
    solver = solver or TwoConstraintSolver()
    p, cost_a, cost_b = _case2_problem(src, d_s, d_u)
    return solver.solve(p, cost_a, cost_b, target_s, target_u)


def rdf_semantic_case1(
    src: DiscreteSemanticSource,
    d_s: DistortionMatrix,
    d_u: DistortionMatrix,
    target_s: float,
    target_u: float,
    solver: TwoConstraintSolver | None = None,
) -> RdfPoint:
    """min I(U; S_hat,U_hat) with the semantic constraint via modified distortion.

    Encoder sees only the observation U; the semantic fidelity constraint is
    enforced through the conditional-expectation distortion on (U, S_hat).
    """
    solver = solver or TwoConstraintSolver()
    p, cost_a, cost_b = _case1_problem(src, d_s, d_u)
    floor = float(p @ cost_a.min(axis=1))
    if target_s < floor - _SLACK:
        raise InfeasibleError(
            f"semantic target {target_s} below the restricted-encoder floor {floor}"
        )
    return solver.solve(p, cost_a, cost_b, target_s, target_u)


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# binary closed forms
# ---------------------------------------------------------------------------


def _check_alpha(alpha: float) -> float:
    if not 0.0 <= alpha <= 0.5:
        raise DomainError(f"crossover must lie in [0, 0.5], got {alpha}")
    return float(alpha)


def binary_rdf_obs(alpha: float, target_u: float) -> float:
    """Observation-part RDF H_b(alpha) - H_b(D_u) for D_u <= alpha, else 0."""
    alpha = _check_alpha(alpha)
    if target_u < 0.0:
        raise DomainError(f"distortion must be nonnegative, got {target_u}")
    if target_u <= alpha:
        return float(binary_entropy(alpha) - binary_entropy(target_u))
    return 0.0


def binary_rdf_sem(alpha: float, target_s: float, case: int) -> float:
    """Semantic-part RDF; returns +inf for the infeasible restricted-encoder range."""
    alpha = _check_alpha(alpha)
    if target_s < 0.0:
        raise DomainError(f"distortion must be nonnegative, got {target_s}")
    if case == 2:
        if target_s <= 0.5:
            return float(1.0 - binary_entropy(target_s))
        return 0.0
    if case == 1:
        if target_s >= 0.5:
            return 0.0
        if target_s < alpha:
            return float("inf")
        return float(1.0 - binary_entropy((target_s - alpha) / (1.0 - 2.0 * alpha)))
    raise DomainError(f"case must be 1 or 2, got {case}")


@lru_cache(maxsize=4096)
def _binary_joint_case2_cached(alpha: float, target_s: float, target_u: float) -> float:
    src = DiscreteSemanticSource.doubly_symmetric(alpha)
    ham = hamming_distortion(2)
    return rdf_semantic_case2(src, ham, ham, target_s, target_u).rate


def binary_rdf_joint(alpha: float, target_s: float, target_u: float, case: int) -> float:
    """Joint binary RDF.

    Case 1 is the closed-form maximum of the two marginal RDFs (infeasible
    for D_s below the crossover). Case 2 has no closed form here and is
    computed by the numeric two-constraint solver on the 2x2 joint; the
    solver output is authoritative.
    """
    alpha = _check_alpha(alpha)
    if case == 1:
        sem = binary_rdf_sem(alpha, target_s, 1)
        if math.isinf(sem):
            raise InfeasibleError(
                f"restricted encoder cannot reach semantic distortion {target_s} < {alpha}"
            )
        return float(max(binary_rdf_obs(alpha, target_u), sem))
    if case == 2:
        if target_s < 0.0 or target_u < 0.0:
            raise DomainError("distortions must be nonnegative")
        return float(_binary_joint_case2_cached(float(alpha), float(target_s), float(target_u)))
    raise DomainError(f"case must be 1 or 2, got {case}")
