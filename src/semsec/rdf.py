"""Discrete-alphabet rate-distortion solvers for classic and semantic sources.

One numeric two-constraint solver (:class:`TwoConstraintSolver`, behind
:func:`rdf_semantic_case1`, :func:`rdf_semantic_case2` and
:func:`rdf_classic`, the single-constraint case with a zero second cost):
warm-started Blahut-Arimoto inside a projected Newton ascent on the 2-D
concave dual, from a caller's start or from lam = (1, 1). Every point also
carries Csiszar's certified dual lower bound, valid at any output
distribution, so the optimality gap is observable and binary case-2 values
can be lower bounds. A solve that did not converge, or whose primal-dual gap
exceeds 1e-6 bits, raises a :class:`RuntimeWarning` naming its two targets,
so no entry point returns an uncertified point silently. The two linear
programs that open a solve (joint feasibility of the targets, and the
best rate-0 point) have only two cost rows, and both are solved exactly
in numpy. The binary model's closed forms live in :mod:`semsec.binary`.

Distortion targets are treated as ``<= D`` with a slack tolerance of 1e-9.
Rates are bits per source symbol; multipliers are in bits per unit distortion.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleError
from .info import LN2, Pmf

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
]

_SLACK = 1e-9
_TINY = 1e-300

# Newton ascent of the two-constraint dual (see TwoConstraintSolver).
_NEWTON_MAX_ITER = 50
_GRAD_TOL = 1e-10  # stationarity: well inside the distortion slack
_FD_STEP = 1e-6  # relative forward-difference step for the Hessian
_BACKTRACKS = 8
_ARMIJO = 1e-4  # least share of the first-order gain an ascent step keeps
_BRACKET_STEPS = 30  # growth steps of a bisection bracket
_LINE_BISECTIONS = 10  # neither an ascent step nor the ray scale needs more
_POLISH_EVERY = 8  # Blahut-Arimoto iterations between Newton steps on q
_BA_TOL = 1e-12  # Blahut-Arimoto stop: log2 max c, in bits
_BA_MAX_ITER = 10_000
_GAP_WARN = 1e-6  # certified gap beyond which a solve draws a warning


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteSemanticSource:
    """A discrete semantic source: a joint pmf over (S, U).

    The alphabets are the joint's axes, zero-mass symbols included; a
    distortion matrix has one row per symbol of its component.
    """

    joint: Pmf

    def __post_init__(self):
        if self.joint.n_axes != 2:
            raise DomainError("semantic source needs a 2-axis joint pmf over (S, U)")

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
    def marginal_u(self) -> np.ndarray:
        return self.joint.probs.sum(axis=0)

    def p_s_given_u(self) -> np.ndarray:
        """Conditional p(s | u) as an (n_s, n_u) array, 0 where p(u) = 0."""
        probs, pu = self.joint.probs, self.marginal_u
        return np.divide(probs, pu, out=np.zeros(probs.shape), where=pu > 0.0)


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


def hamming_distortion(n: int) -> DistortionMatrix:
    """Hamming distortion on n letters: 0 on the diagonal, 1 elsewhere."""
    return DistortionMatrix(1.0 - np.eye(n))


@dataclass(frozen=True)
class RdfPoint:
    """One evaluated point of a rate-distortion function.

    ``dual_bound`` is a valid lower bound on the true RDF at the requested
    distortions (None when the evaluation carries no certificate).
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


def _ba_tilted(p: np.ndarray, tilt: np.ndarray, q0: np.ndarray | None = None):
    """Blahut-Arimoto for min_W I(p, W) + sum p W tilt.

    ``tilt`` has shape (m, n) with the exponent already in bits (that is,
    the test channel is W proportional to q * 2**(-tilt)). The iteration
    starts from the output distribution ``q0`` (uniform when None; a warm
    start is floored at 1e-12 so that no output letter is lost for good) and
    maps q to q * c with c(x_hat) = sum_x p(x) W(x_hat | x) / q(x_hat). Since
    sum q c = 1, max c >= 1, and log2 max c bounds the Lagrangian's distance
    from its minimum (Csiszar 1974); the iteration stops once it is at most
    ``_BA_TOL``, or after ``_BA_MAX_ITER`` iterations, both read at call time.
    Every ``_POLISH_EVERY`` iterations a Newton step on q
    (:func:`_newton_output`) replaces the multiplicative one if it lowers
    max c, which cures the slow convergence where an output letter's mass is
    small.

    Returns a dict with the final channel ``w`` (paired with its exact output
    marginal ``q``), the achieved mutual information ``rate``, a convergence
    flag and the iteration count.
    """
    tilt = np.asarray(tilt, dtype=float)
    p = np.asarray(p, dtype=float)
    b = np.exp2(-(tilt - tilt.min(axis=1, keepdims=True)))  # row maxima 1: stable
    n = tilt.shape[1]
    q = np.full(n, 1.0 / n) if q0 is None else np.maximum(np.asarray(q0, dtype=float), 1e-12)
    q = q / q.sum()  # from here on sum(q * c) = sum(p) = 1 keeps q normalized
    stop = 2.0**_BA_TOL
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
        converged = bool(c.max() <= stop)
        if converged or iters >= _BA_MAX_ITER:
            break
        q = q * c

    w = q * b / z[:, None]
    q_out = q * c
    return {
        "w": w,
        "q": q_out / q_out.sum(),
        "rate": max(_channel_rate(p, w), 0.0),
        "converged": converged,
        "iterations": iters,
    }


def _split_ties(p, out, tilt, cost):
    """The minimizer in ``out`` moved to the least expected ``cost`` among the
    minimizers of the Lagrangian with the same tilt.

    Output letters with equal tilt columns tie: every split of their output
    mass that does not depend on the source letter has the same rate and
    dual bound, but not the same expected cost of a constraint whose
    multiplier is zero, which the tilt leaves out. Each group of tied
    letters whose costs differ gets all its mass on its letter of least
    expected cost, so the gradient in that multiplier is the dual's
    one-sided derivative as the multiplier rises from zero (Danskin).
    Without that, Blahut-Arimoto keeps whatever split it starts from, and
    the ascent sees a constraint as violated that a tied minimizer meets.
    """
    groups = {}
    for j, col in enumerate(tilt.T):
        groups.setdefault(col.tobytes(), []).append(j)
    w, q, moved = out["w"].copy(), out["q"].copy(), False
    for tied in groups.values():
        spent = (p * w[:, tied].sum(axis=1)) @ cost[:, tied]
        if spent.min() == spent.max():
            continue
        k = tied[int(np.argmin(spent))]
        w[:, k], q[k] = w[:, tied].sum(axis=1), q[tied].sum()
        rest = [j for j in tied if j != k]
        w[:, rest], q[rest] = 0.0, 0.0
        moved = True
    if not moved:
        return out
    return {**out, "w": w, "q": q, "rate": max(_channel_rate(p, w), 0.0)}


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
# feasibility helpers (two linear programs over test channels, solved exactly)
# ---------------------------------------------------------------------------

#: Relative tolerance under which two letters of a row tie at the peak.
_TIE_RTOL = 1e-12


def _channel_feasibility(p, cost_a, cost_b, d_a, d_b):
    """Minimum uniform slack s such that some channel meets (d_a+s, d_b+s).

    Returns (s_star, W) where W is a feasible channel at slack s_star.
    With a = p cost_a and b = p cost_b, LP duality gives s_star =
    max(0, max over t in [0, 1] of f(t)), where f(t) = sum_x min_xh
    [t a + (1-t) b](x, xh) - t d_a - (1-t) d_b. f is concave and piecewise
    linear, with its breakpoints where two letters of one row cross. At a
    point t, the letters of each row that tie for the minimum (within a
    relative 1e-12) span f's one-sided slopes: the tied letter with the
    largest slope a - b gives the slope left of t, the one with the least
    slope the slope right of it. A bisection over the sorted breakpoints
    (and 0 and 1) finds the first one right of which f no longer rises: the
    peak t*. W mixes the two channels that pick those letters so that
    E d_a - d_a = E d_b - d_b, which both equal f(t*) when t* is interior.
    """
    a = p[:, None] * cost_a
    b = p[:, None] * cost_b
    slope = a - b
    tol = _TIE_RTOL * np.maximum(a, b).max(axis=1, keepdims=True)
    rows = np.arange(len(p))

    def sides(t):
        """f(t) and, per row, the tied letters of largest and least slope."""
        v = t * a + (1.0 - t) * b
        low = v.min(axis=1, keepdims=True)
        tied = v <= low + tol
        left = np.where(tied, slope, -np.inf).argmax(axis=1)
        right = np.where(tied, slope, np.inf).argmin(axis=1)
        return float(low.sum()) - t * d_a - (1.0 - t) * d_b, left, right

    def rise(letters):
        """f's slope where each row's minimum is the given letter."""
        return float(slope[rows, letters].sum()) - d_a + d_b

    with np.errstate(divide="ignore", invalid="ignore"):
        # Letters j and k of a row cross where b_j + t s_j = b_k + t s_k.
        cross = (b[:, None, :] - b[:, :, None]) / (slope[:, :, None] - slope[:, None, :])
    # Duplicates are harmless, so a sort does (np.unique would import numpy.ma).
    t = np.sort(np.concatenate(([0.0, 1.0], cross[(cross > 0.0) & (cross < 1.0)])))
    lo, hi = 0, len(t) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if rise(sides(t[mid])[2]) > 0.0:
            lo = mid + 1
        else:
            hi = mid
    f_peak, left, right = sides(float(t[lo]))
    g_left, g_right = rise(left), rise(right)
    theta = 1.0 if g_left <= g_right else min(max(-g_right / (g_left - g_right), 0.0), 1.0)
    w = np.zeros_like(a)
    w[rows, left] += theta
    w[rows, right] += 1.0 - theta
    return max(f_peak, 0.0), w


def _zero_rate_point(p, cost_a, cost_b, d_a, d_b):
    """A rate-0 (constant-output-mixture) point meeting both targets, or None.

    Output letter k, used for every source symbol, gives the point
    (p cost_a[:, k], p cost_b[:, k]), and mixtures fill their hull. The point
    returned has the least sum in the hull within the box x <= d_a + 1e-9,
    y <= d_b + 1e-9: a letter inside the box, or a point where the segment
    between two letters crosses an edge of the box.
    """
    xs, ys = p @ cost_a, p @ cost_b
    x_max, y_max = d_a + _SLACK, d_b + _SLACK
    on_x = _crossings(xs, ys, x_max)
    on_y = _crossings(ys, xs, y_max)
    px = np.concatenate([xs, np.full(on_x.size, x_max), on_y])
    py = np.concatenate([ys, on_x, np.full(on_y.size, y_max)])
    inside = (px <= x_max) & (py <= y_max)
    if not inside.any():
        return None
    best = int(np.argmin(np.where(inside, px + py, np.inf)))
    return float(px[best]), float(py[best])


def _crossings(u, v, level):
    """v where the segments between the points (u, v) cross u = level."""
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (level - u[:, None]) / (u[None, :] - u[:, None])
        hit = (frac >= 0.0) & (frac <= 1.0)
        return (v[:, None] + frac * (v[None, :] - v[:, None]))[hit]


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


class TwoConstraintSolver:
    """Rate-distortion with two simultaneous average-distortion constraints.

    R(D_a, D_b) is the maximum over lam >= 0 of the concave dual
    g(lam) = min_W I(W) + lam.(E d - D), whose gradient is E d - D at the
    minimizing channel. Strategy: from a start, a projected Newton
    ascent climbs g, each step taking the gradient from one warm-started
    Blahut-Arimoto solve and the 2x2 Hessian from two more (forward
    differences), and accepting the step by backtracking with a
    sufficient-gain (Armijo) test. Where Newton fails (the Hessian estimate
    is not negative definite, or no backtracked step gains enough), a
    bisection on the directional derivative along the projected gradient
    takes the step; this covers the kinks of g where an output letter's
    mass reaches zero. A zero multiplier is reached through
    the projection. If the final channel misses a target by more than the
    slack, a warm-started bisection along the multiplier ray restores
    feasibility.

    ``start = (multipliers, output distribution)`` sets where the ascent
    begins; the output distribution warm-starts the first Blahut-Arimoto
    solve (floored at 1e-12 per letter). The default, None, is lam = (1, 1)
    and a uniform output. From the cold start a cell costs tens of
    Blahut-Arimoto solves: on the doubly symmetric source about 2 ms at the
    median and 5 ms at the 90th percentile (2-CPU Xeon VM). From the exact
    dual optimum, which ``semsec.binary`` passes for that source, the
    projected gradient is already below 1e-10, so a cell costs one solve:
    about 0.25 ms at the median, of which the two exact LPs take 0.2 ms.

    Every solve yields a certified dual lower bound (:func:`_dual_bound`);
    ``dual_bound`` is the best of them and ``rate`` is the least rate among
    the feasible channels met. ``converged`` means the projected gradient
    fell below 1e-10 and the reported channel's Blahut-Arimoto solve met
    its 1e-12 certificate within 10k iterations. A point that did not
    converge, or whose gap ``rate - dual_bound`` exceeds 1e-6 bits, raises a
    :class:`RuntimeWarning` naming both targets and the gap.
    """

    def solve(self, p, cost_a, cost_b, d_a, d_b, start=None) -> RdfPoint:
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
        ascent = _NewtonAscent(p, np.stack([cost_a, cost_b]), np.array([d_a, d_b]))
        point = ascent.run(w_lp, start)
        gap = point.rate - point.dual_bound
        if not point.converged or gap > _GAP_WARN:
            warnings.warn(
                f"RDF solve at targets ({d_a}, {d_b}): converged={point.converged}, "
                f"primal-dual gap {gap:.3g} bits", RuntimeWarning, stacklevel=2,
            )
        return point


class _NewtonAscent:
    """State of one :meth:`TwoConstraintSolver.solve`: best bounds so far."""

    def __init__(self, p, costs, targets):
        self.p = p
        self.costs = costs
        self.targets = targets
        self.best_dual = -math.inf
        self.best = None  # feasible evaluation of least rate

    def evaluate(self, lam, q0=None) -> _Eval:
        tilt = np.tensordot(lam, self.costs, axes=1)
        out = _ba_tilted(self.p, tilt, q0)
        zero = np.flatnonzero(lam == 0.0)
        if zero.size == 1:
            out = _split_ties(self.p, out, tilt, self.costs[zero[0]])
        ed = np.array(_expected_distortions(self.p, out["w"], *self.costs))
        dual = _dual_bound(self.p, out["q"], tilt, float(lam @ self.targets))
        ev = _Eval(lam, out, ed - self.targets, dual)
        self.best_dual = max(self.best_dual, dual)
        if ev.feasible and (self.best is None or out["rate"] < self.best.ba["rate"]):
            self.best = ev
        return ev

    def run(self, w_lp, start=None) -> RdfPoint:
        lam, q0 = (np.ones(2), None) if start is None else start
        cur = self.evaluate(np.asarray(lam, dtype=float), q0)
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
        noise = 2.0 * _BA_TOL + 1e-14
        t = 1.0
        for _ in range(_BACKTRACKS):
            ev = self.evaluate(np.maximum(cur.lam + t * step, 0.0), cur.ba["q"])
            # Far from the optimum the dual value decides, and the gain must
            # be a share of the first-order gain (Armijo): at a kink of g the
            # Hessian estimate is near zero, and the huge step it gives would
            # otherwise pass on any gain. Near the optimum the gain sinks
            # below the Blahut-Arimoto tolerance and the projected gradient,
            # which stays accurate, decides instead.
            gain = ev.dual - cur.dual
            armijo = _ARMIJO * float(cur.grad @ (ev.lam - cur.lam))
            if gain > max(noise, armijo) or (
                abs(gain) <= noise and np.linalg.norm(ev.proj_grad) < norm
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
    pw = p[:, None] * w
    ratio = np.maximum(w, _TINY) / np.maximum(pw.sum(axis=0), _TINY)  # finite, positive
    return float((pw * np.log(ratio)).sum() / LN2)


# ---------------------------------------------------------------------------
# public RDF operations
# ---------------------------------------------------------------------------


def _source_rows(d: DistortionMatrix, n: int, name: str) -> np.ndarray:
    """The entries of ``d``, which must have one row per source symbol."""
    if d.shape[0] != n:
        raise DomainError(f"{name} has {d.shape[0]} rows; the alphabet has {n} symbols")
    return d.entries


def modified_distortion(src: DiscreteSemanticSource, d_s: DistortionMatrix) -> DistortionMatrix:
    """Distortion on (U, S_hat) induced by averaging d_s over p(s | u)."""
    ds = _source_rows(d_s, src.n_s, "d_s")
    cond = src.p_s_given_u()  # (n_s, n_u)
    return DistortionMatrix(cond.T @ ds)


def rdf_classic(p, d_u: DistortionMatrix, target: float) -> RdfPoint:
    """Single-constraint rate-distortion function of the probability vector
    ``p``, checked as a single-axis :class:`Pmf`.

    This is :class:`TwoConstraintSolver` with a zero second cost and target.
    """
    p = Pmf(p).probs
    if p.ndim != 1:
        raise DomainError("rdf_classic expects a probability vector")
    cost = d_u.entries
    point = TwoConstraintSolver().solve(p, cost, np.zeros_like(cost), target, 0.0)
    return RdfPoint(point.rate, point.distortions[:1], point.multipliers[:1],
                    point.converged, dual_bound=point.dual_bound)


def _product_costs(da, db):
    """The two costs over the product reconstruction alphabet: in row x,
    letter (i, j) costs da[x, i] and db[x, j]."""
    return np.repeat(da, db.shape[1], axis=1), np.tile(db, (1, da.shape[1]))


def _case2_problem(src, d_s, d_u):
    ds = _source_rows(d_s, src.n_s, "d_s")
    du = _source_rows(d_u, src.n_u, "d_u")
    # Rows are the (s, u) pairs in row-major order.
    cost_a, cost_b = _product_costs(np.repeat(ds, src.n_u, axis=0), np.tile(du, (src.n_s, 1)))
    return src.joint.probs.ravel(), cost_a, cost_b


def _case1_problem(src, d_s, d_u):
    dhat = modified_distortion(src, d_s).entries  # (n_u, n_sh)
    du = _source_rows(d_u, src.n_u, "d_u")
    return (src.marginal_u, *_product_costs(dhat, du))


def rdf_semantic_case2(
    src: DiscreteSemanticSource,
    d_s: DistortionMatrix,
    d_u: DistortionMatrix,
    target_s: float,
    target_u: float,
    start=None,
) -> RdfPoint:
    """min I(S,U; S_hat,U_hat) s.t. E d_s <= target_s and E d_u <= target_u.

    Encoder sees both source components; the optimization runs over test
    channels from (S, U) to the product reconstruction alphabet, whose
    letters (s_hat, u_hat) are in row-major order. ``start`` is passed to
    :meth:`TwoConstraintSolver.solve`.
    """
    return TwoConstraintSolver().solve(*_case2_problem(src, d_s, d_u), target_s, target_u,
                                       start=start)


def rdf_semantic_case1(
    src: DiscreteSemanticSource,
    d_s: DistortionMatrix,
    d_u: DistortionMatrix,
    target_s: float,
    target_u: float,
) -> RdfPoint:
    """min I(U; S_hat,U_hat) with the semantic constraint via modified distortion.

    Encoder sees only the observation U; the semantic fidelity constraint is
    enforced through the conditional-expectation distortion on (U, S_hat).
    """
    return TwoConstraintSolver().solve(*_case1_problem(src, d_s, d_u), target_s, target_u)
