"""Discrete-alphabet rate-distortion solvers for classic and semantic sources.

Three layers:

* closed forms for the binary symmetric semantic source
  (:func:`binary_rdf_obs`, :func:`binary_rdf_sem`, :func:`binary_rdf_joint`);
* a numeric two-constraint solver (:class:`TwoConstraintSolver`,
  :func:`rdf_semantic_case1`, :func:`rdf_semantic_case2`,
  :func:`rdf_classic`): warm-started Blahut-Arimoto inside a projected
  Newton ascent on the 2-D concave dual. Every point also carries Csiszar's
  certified dual lower bound, valid at any output distribution, so the
  optimality gap is observable and binary case-2 values can be lower
  bounds;
* an exhaustive grid oracle (:func:`brute_force_rdf`) for small instances.

Distortion targets are treated as ``<= D`` with a slack tolerance of 1e-9.
Rates are bits per source symbol; multipliers are in bits per unit distortion.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import linprog
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

# Newton ascent of the two-constraint dual (see TwoConstraintSolver).
_NEWTON_MAX_ITER = 50
_GRAD_TOL = 1e-10  # stationarity: well inside the distortion slack
_FD_STEP = 1e-6  # relative forward-difference step for the Hessian
_BACKTRACKS = 8
_BRACKET_STEPS = 30  # growth steps of a bisection bracket
_LINE_BISECTIONS = 10  # neither an ascent step nor the ray scale needs more
_POLISH_EVERY = 8  # Blahut-Arimoto iterations between Newton steps on q


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
    q0: np.ndarray | None = None,
):
    """Blahut-Arimoto for min_W I(p, W) + sum p W tilt.

    ``tilt`` has shape (m, n) with the exponent already in bits (that is,
    the test channel is W proportional to q * 2**(-tilt)). The iteration
    starts from the output distribution ``q0`` (uniform when None; a warm
    start is floored at 1e-12 so that no output letter is lost for good) and
    maps q to q * c with c(x_hat) = sum_x p(x) W(x_hat | x) / q(x_hat). Since
    sum q c = 1, max c >= 1, and log2 max c bounds the Lagrangian's distance
    from its minimum (Csiszar 1974); the iteration stops once it is <= ``tol``.
    Every ``_POLISH_EVERY`` iterations a Newton step on q
    (:func:`_newton_output`) replaces the multiplicative one if it lowers
    max c, which cures the slow convergence where an output letter's mass is
    small.

    Returns a dict with the final channel ``w`` (paired with its exact output
    marginal ``q``), the achieved mutual information ``rate``, a convergence
    flag, the iteration count, and (optionally) the per-iteration Lagrangian
    trace, which the alternating minimization makes nonincreasing.
    """
    tilt = np.asarray(tilt, dtype=float)
    p = np.asarray(p, dtype=float)
    b = np.exp2(-(tilt - tilt.min(axis=1, keepdims=True)))  # row maxima 1: stable
    n = tilt.shape[1]
    q = np.full(n, 1.0 / n) if q0 is None else np.maximum(np.asarray(q0, dtype=float), 1e-12)
    q = q / q.sum()  # from here on sum(q * c) = sum(p) = 1 keeps q normalized
    stop = 2.0**tol
    trace: list[float] = []
    iters = 0
    while True:
        iters += 1
        z = np.maximum(b @ q, _TINY)
        c = (p / z) @ b
        if iters % _POLISH_EVERY == 0:
            cand = _newton_output(p, b, q)
            z_cand = np.maximum(b @ cand, _TINY)
            c_cand = (p / z_cand) @ b
            if c_cand.max() < c.max():
                q, z, c = cand, z_cand, c_cand
        if return_trace:
            w = q * b / z[:, None]
            trace.append(_channel_rate(p, w) + float((p[:, None] * w * tilt).sum()))
        converged = bool(c.max() <= stop)
        if converged or iters >= max_iter:
            break
        q = q * c

    w = q * b / z[:, None]
    q_out = q * c
    out = {
        "w": w,
        "q": q_out / q_out.sum(),
        "rate": max(_channel_rate(p, w), 0.0),
        "converged": converged,
        "iterations": iters,
    }
    if return_trace:
        out["trace"] = np.asarray(trace)
    return out


def _newton_output(p, b, q):
    """One Newton step toward c(q) = 1 on the support of the output ``q``.

    ``b`` is the (m, n) kernel 2^-tilt and c = b^T (p / b q); the Jacobian of
    c is -b^T diag(p / (b q)^2) b, and a least-squares solve covers its
    singular cases. A letter the step would make nonpositive leaves the
    support, the one with the least c first: its mass is capped at 1e-12
    (so Blahut-Arimoto can still revive it) and the step is taken again
    from there.
    """
    q = q.copy()
    support = np.ones(len(q), dtype=bool)
    while True:
        z = np.maximum(b @ q, _TINY)
        c = (p / z) @ b
        bs = b[:, support]
        jac = (bs.T * (p / z**2)) @ bs
        step, _, rank, _ = np.linalg.lstsq(jac, c[support] - 1.0, rcond=None)
        cand = q.copy()
        cand[support] += step
        lost = support & (cand <= 0.0)
        if rank < support.sum():
            # c = 1 on more letters than the kernel has dimensions: the
            # letters on their way out (c < 1) leave first.
            lost |= support & (c < 1.0 - 1e-9)
        if not lost.any():
            return cand / cand.sum()
        j = np.flatnonzero(lost)[np.argmin(c[lost])]
        support[j] = False
        q[j] = min(q[j], 1e-12)
        if not support.any():
            return q / q.sum()


def _expected_distortions(p, w, *costs):
    return tuple(float((p[:, None] * w * c).sum()) for c in costs)


def _dual_bound(p, q, tilt, lam_dot_d):
    """Certified lower bound on the RDF from any positive output vector ``q``.

    With Z(x) = sum_xh q(xh) 2^-tilt(x, xh) and
    c(xh) = sum_x p(x) 2^-tilt(x, xh) / Z(x), Csiszar's (1974) bound is
    -lam.D - sum_x p log2 Z - log2 max_xh c. The last term makes it valid
    away from the optimal output distribution, where it vanishes.
    """
    shift = tilt.min(axis=1, keepdims=True)
    base = np.exp2(-(tilt - shift))
    z = np.maximum(base @ q, _TINY)
    c_max = float(((p / z) @ base).max())
    return -lam_dot_d - float(p @ (np.log2(z) - shift[:, 0])) - math.log2(c_max)


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
class _Eval:
    """One Blahut-Arimoto solve at a multiplier pair."""

    lam: np.ndarray
    ba: dict
    grad: np.ndarray  # (E d_a - D_a, E d_b - D_b): the dual's gradient
    dual: float  # certified lower bound on the RDF

    @property
    def feasible(self) -> bool:
        return bool(np.all(self.grad <= _SLACK))

    @property
    def proj_grad(self) -> np.ndarray:
        """Gradient with the components that would leave lam >= 0 zeroed."""
        return np.where((self.lam > 0.0) | (self.grad > 0.0), self.grad, 0.0)


@dataclass(frozen=True)
class TwoConstraintSolver:
    """Rate-distortion with two simultaneous average-distortion constraints.

    R(D_a, D_b) is the maximum over lam >= 0 of the concave dual
    g(lam) = min_W I(W) + lam.(E d - D), whose gradient is E d - D at the
    minimizing channel. Strategy: from lam = (1, 1), a projected Newton
    ascent climbs g, each step taking the gradient from one warm-started
    Blahut-Arimoto solve and the 2x2 Hessian from two more (forward
    differences), and accepting the step by backtracking. Where Newton
    fails (the Hessian estimate is not negative definite, or no backtracked
    step gains), a bisection on the directional derivative along the
    projected gradient takes the step; this covers the kinks of g where an
    output letter's mass reaches zero. A zero multiplier is reached through
    the projection. If the final channel misses a target by more than the
    slack, a warm-started bisection along the multiplier ray restores
    feasibility. A cell costs tens of Blahut-Arimoto solves, about 10 ms.

    Every solve yields a certified dual lower bound (:func:`_dual_bound`);
    ``dual_bound`` is the best of them and ``rate`` is the least rate among
    the feasible channels met. ``converged`` means the projected gradient
    fell below 1e-10 and the reported channel's Blahut-Arimoto solve met
    ``ba_tol``.
    """

    ba_tol: float = 1e-12
    ba_max_iter: int = 10_000

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
        return _NewtonAscent(self, p, np.stack([cost_a, cost_b]), np.array([d_a, d_b])).run(w_lp)


class _NewtonAscent:
    """State of one :meth:`TwoConstraintSolver.solve`: best bounds so far."""

    def __init__(self, solver, p, costs, targets):
        self.solver = solver
        self.p = p
        self.costs = costs
        self.targets = targets
        self.best_dual = -math.inf
        self.best = None  # feasible evaluation of least rate

    def evaluate(self, lam, q0=None) -> _Eval:
        tilt = np.tensordot(lam, self.costs, axes=1)
        out = _ba_tilted(self.p, tilt, tol=self.solver.ba_tol,
                         max_iter=self.solver.ba_max_iter, q0=q0)
        ed = np.array(_expected_distortions(self.p, out["w"], *self.costs))
        dual = _dual_bound(self.p, out["q"], tilt, float(lam @ self.targets))
        ev = _Eval(lam, out, ed - self.targets, dual)
        self.best_dual = max(self.best_dual, dual)
        if ev.feasible and (self.best is None or out["rate"] < self.best.ba["rate"]):
            self.best = ev
        return ev

    def run(self, w_lp) -> RdfPoint:
        cur = self.evaluate(np.ones(2))
        converged = False
        for _ in range(_NEWTON_MAX_ITER):
            if np.max(np.abs(cur.proj_grad)) <= _GRAD_TOL:
                converged = True
                break
            nxt = self._newton_step(cur) or self._bisection_step(cur)
            if nxt is None:
                break
            cur = nxt
        if not cur.feasible:
            self._restore_feasibility(cur)
        if self.best is None:
            # No multiplier pair met both targets: report the LP channel.
            ea, eb = _expected_distortions(self.p, w_lp, *self.costs)
            rate = _channel_rate(self.p, w_lp)
            return RdfPoint(max(rate, 0.0), (float(ea), float(eb)),
                            (math.nan, math.nan), False, dual_bound=self.best_dual)
        best = self.best
        ea, eb = best.grad + self.targets
        return RdfPoint(
            max(best.ba["rate"], 0.0), (float(ea), float(eb)),
            (float(best.lam[0]), float(best.lam[1])),
            converged and bool(best.ba["converged"]), dual_bound=self.best_dual,
        )

    def _newton_step(self, cur: _Eval) -> _Eval | None:
        free = np.flatnonzero(cur.proj_grad != 0.0)
        jac = np.zeros((2, 2))
        for i in free:
            h = _FD_STEP * max(1.0, cur.lam[i])
            ev = self.evaluate(cur.lam + h * np.eye(2)[i], cur.ba["q"])
            jac[:, i] = (ev.grad - cur.grad) / h
        hess = 0.5 * (jac + jac.T)[np.ix_(free, free)]
        eig = np.linalg.eigvalsh(hess)
        if not eig[-1] < 1e-8 * eig[0]:  # not safely negative definite
            return None
        step = np.zeros(2)
        step[free] = -np.linalg.solve(hess, cur.grad[free])
        norm = np.linalg.norm(cur.proj_grad)
        noise = 2.0 * self.solver.ba_tol + 1e-14
        t = 1.0
        for _ in range(_BACKTRACKS):
            ev = self.evaluate(np.maximum(cur.lam + t * step, 0.0), cur.ba["q"])
            # Far from the optimum the dual value decides; near it the gain
            # sinks below the Blahut-Arimoto tolerance and the projected
            # gradient, which stays accurate, decides instead.
            if ev.dual > cur.dual + noise or (
                ev.dual >= cur.dual - noise and np.linalg.norm(ev.proj_grad) < norm
            ):
                return ev
            t *= 0.5
        return None

    def _bisection_step(self, cur: _Eval) -> _Eval | None:
        """Maximize g along the projected gradient by bisecting its slope.

        Along lam + t d the slope d.grad is nonincreasing in t (g is
        concave), so the last point with a nonnegative slope never loses.
        The bracket doubles from t = 1 and stops where a multiplier
        reaches zero.
        """
        d = cur.proj_grad
        shrink = d < 0.0
        t_wall = float(np.min(-cur.lam[shrink] / d[shrink])) if shrink.any() else math.inf
        return self._last_before(
            cur, lambda t: np.maximum(cur.lam + t * d, 0.0),
            lambda ev: float(d @ ev.grad) >= 0.0, min(1.0, t_wall), 2.0, t_wall,
        )

    def _restore_feasibility(self, cur: _Eval) -> None:
        """Scale the multipliers by 1 + s until the channel meets both targets.

        s grows fourfold from 1e-9 and is then bisected; :meth:`evaluate`
        keeps the feasible channel of least rate.
        """
        self._last_before(cur, lambda s: cur.lam * (1.0 + s),
                          lambda ev: not ev.feasible, 1e-9, 4.0)

    def _last_before(self, cur, lam_at, before, t, grow, t_max=math.inf):
        """Last evaluation before the flip of a predicate monotone in t.

        ``lam_at(t)`` is the multiplier pair at t, and ``before`` holds up
        to some t* and fails beyond it. t grows by ``grow`` (up to
        ``t_max``) until ``before`` fails, then the bracket is bisected.
        Each solve is warm-started from the last one before the flip.
        """
        lo, hi, last, q = 0.0, None, None, cur.ba["q"]
        for _ in range(_BRACKET_STEPS):
            ev = self.evaluate(lam_at(t), q)
            if not before(ev):
                hi = t
                break
            lo, last, q = t, ev, ev.ba["q"]
            if t >= t_max:
                return last
            t = min(t * grow, t_max)
        if hi is None:
            return last
        for _ in range(_LINE_BISECTIONS):
            mid = 0.5 * (lo + hi)
            ev = self.evaluate(lam_at(mid), q)
            if before(ev):
                lo, last, q = mid, ev, ev.ba["q"]
            else:
                hi = mid
        return last


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


#: Solver behind :func:`binary_rdf_joint` for case 2.
_BINARY_SOLVER = TwoConstraintSolver()
#: Certified gap beyond which a binary case-2 value draws a warning.
_GAP_WARN = 1e-6


@lru_cache(maxsize=4096)
def _binary_joint_case2_cached(alpha: float, d_lo: float, d_hi: float) -> RdfPoint:
    # The doubly symmetric source is symmetric in (S, U), so R(D_s, D_u) =
    # R(D_u, D_s): callers pass the pair sorted and share one solve.
    src = DiscreteSemanticSource.doubly_symmetric(alpha)
    ham = hamming_distortion(2)
    return rdf_semantic_case2(src, ham, ham, d_lo, d_hi, _BINARY_SOLVER)


def binary_rdf_joint(alpha: float, target_s: float, target_u: float, case: int) -> float:
    """Joint binary RDF.

    Case 1 is the closed-form maximum of the two marginal RDFs (infeasible
    for D_s below the crossover). Case 2 has no closed form here and is
    computed by the numeric two-constraint solver on the 2x2 joint; the
    value returned is the solver's certified dual bound, a true lower bound
    on the RDF, so a converse built on it stays valid. A solve that did not
    converge, or whose primal-dual gap exceeds 1e-6, raises a
    :class:`RuntimeWarning` naming the cell.
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
        lo, hi = sorted((float(target_s), float(target_u)))
        point = _binary_joint_case2_cached(float(alpha), lo, hi)
        gap = point.rate - point.dual_bound
        if not point.converged or gap > _GAP_WARN:
            warnings.warn(
                f"binary case-2 RDF at alpha={alpha}, (D_s, D_u)=({target_s}, {target_u}): "
                f"converged={point.converged}, primal-dual gap {gap:.3g} bits",
                RuntimeWarning, stacklevel=2,
            )
        return max(float(point.dual_bound), 0.0)
    raise DomainError(f"case must be 1 or 2, got {case}")
