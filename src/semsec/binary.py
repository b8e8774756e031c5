"""Binary system model: doubly symmetric source over a cascaded BSC wiretap
channel, with its rate-distortion functions and the semantic tradeoff
curve.

Model summary. The observation U is uniform Bernoulli and the semantic
component S is U passed through a bit-flip channel with crossover alpha, so
(S, U) is doubly symmetric. The legitimate link is a BSC with crossover
eps1 and the eavesdropper sees a further cascade with crossover eps2
(overall crossover eps1 * eps2 in the star-convolution sense). Hamming
distortion on both components. The converse's secrecy slope is the
channel's secrecy capacity H_b(eps1 * eps2) - H_b(eps1).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .info import binary_entropy, star
from .rdf import DiscreteSemanticSource, hamming_distortion, rdf_semantic_case2
from .regions import (EquivocationTargets, MinRateResult, TradeoffCurve, _distortions,
                      _finite_nonnegative, min_ratio)

__all__ = [
    "SemanticSourceBinary",
    "WiretapChannelBinary",
    "binary_min_r",
    "delta_s_curve",
]


@dataclass(frozen=True)
class SemanticSourceBinary:
    """Doubly symmetric binary source: S = U xor Bernoulli(alpha)."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 0.5:
            raise DomainError(f"alpha must lie in [0, 1/2], got {self.alpha}")

    @property
    def distortion_range(self) -> tuple[float, float]:
        """The (D_s, D_u) upper ends of the ranges that count grids split:
        Hamming distortions beyond 1/2 are never needed."""
        return 0.5, 0.5

    @property
    def h_s(self) -> float:
        return 1.0

    @property
    def h_u(self) -> float:
        return 1.0

    @property
    def h_su(self) -> float:
        return 1.0 + binary_entropy(self.alpha)

    def rdf_components(self, d_s, d_u, case: int):
        """The joint RDF, its (name, entropy, RDF) converse components and the
        mask of cells below the case-1 floor, at the distortions ``d_s`` and
        ``d_u``: any two broadcastable arrays, or floats.

        The joint RDF and the mask have the broadcast shape; each component's
        RDF broadcasts to it. :func:`semsec.regions.min_ratio` and
        :func:`semsec.regions.equivocation_caps` read the model through this
        method. The observation component uses the conditional entropy
        H_b(alpha).
        """
        alpha = float(self.alpha)
        h_alpha = binary_entropy(alpha)
        r_s = _binary_sem(alpha, d_s, case)
        r_u = _binary_obs(alpha, h_alpha, d_u)
        r_j = _binary_joint(alpha, d_s, d_u, case, r_s, r_u)
        return r_j, (
            ("delta_s", 1.0, r_s),
            ("delta_u", h_alpha, r_u),
            ("delta_su", h_alpha + 1.0, r_j),
        ), np.isinf(r_s)


@dataclass(frozen=True)
class WiretapChannelBinary:
    """Cascade of two BSCs: legitimate crossover eps1, extra leg eps2."""

    eps1: float
    eps2: float

    def __post_init__(self):
        for name, val in (("eps1", self.eps1), ("eps2", self.eps2)):
            if not 0.0 <= val <= 0.5:
                raise DomainError(f"{name} must lie in [0, 1/2], got {val}")

    @property
    def eps_z(self) -> float:
        """Effective eavesdropper crossover (star convolution of the legs)."""
        return star(self.eps1, self.eps2)

    @property
    def capacity_main(self) -> float:
        return 1.0 - binary_entropy(self.eps1)

    @property
    def secrecy_capacity(self) -> float:
        """H_b(eps_z) - H_b(eps1); zero when the extra leg is noiseless (eps2 = 0)."""
        return binary_entropy(self.eps_z) - binary_entropy(self.eps1)


# ---------------------------------------------------------------------------
# closed-form rate-distortion functions
# ---------------------------------------------------------------------------


def _binary_obs(alpha: float, h_alpha: float, d_u) -> np.ndarray:
    """Observation-part RDF at every distortion in ``d_u``: H_b(alpha), given
    as ``h_alpha``, minus H_b(D_u) for D_u <= alpha, else 0."""
    d_u = _distortions(d_u, positive=False)
    out = np.zeros(d_u.shape)
    near = d_u <= alpha
    out[near] = h_alpha - binary_entropy(d_u[near])
    return out


def _binary_sem(alpha: float, d_s, case: int) -> np.ndarray:
    """Semantic-part RDF at every distortion in ``d_s``; +inf below case 1's
    floor alpha."""
    d_s = _distortions(d_s, positive=False)
    out = np.zeros(d_s.shape)
    near = d_s <= 0.5 if case == 2 else d_s < 0.5
    if case == 2:
        out[near] = 1.0 - binary_entropy(d_s[near])
    elif case == 1:
        out[d_s < alpha] = np.inf
        near &= d_s >= alpha
        out[near] = 1.0 - binary_entropy((d_s[near] - alpha) / (1.0 - 2.0 * alpha))
    else:
        raise DomainError(f"case must be 1 or 2, got {case}")
    return out


def _binary_joint(alpha: float, d_s, d_u, case: int, r_s, r_u) -> np.ndarray:
    """Joint RDF at the broadcastable distortions, given the marginals.

    Case 1 is their maximum. Case 2 is one solve of the 2x2 joint per
    distinct sorted pair of the call (the source is symmetric in S and U),
    started at that pair's closed-form dual optimum (:func:`_dual_start`),
    where a solve takes one Blahut-Arimoto evaluation. The value is the
    solve's certified dual bound, a true lower bound on the RDF; the solver
    warns on a point it could not certify.
    """
    if case == 1:
        return np.maximum(r_s, r_u)
    src = DiscreteSemanticSource.doubly_symmetric(alpha)
    ham = hamming_distortion(2)
    a, b = np.broadcast_arrays(d_s, d_u)
    out = np.empty(a.shape)
    solved = {}
    for k, (t_s, t_u) in enumerate(zip(a.ravel().tolist(), b.ravel().tolist())):
        pair = (min(t_s, t_u), max(t_s, t_u))
        if pair not in solved:
            point = rdf_semantic_case2(src, ham, ham, *pair, start=_dual_start(alpha, *pair))
            solved[pair] = max(float(point.dual_bound), 0.0)
        out.flat[k] = solved[pair]
    return out


def _slope(x: float) -> float:
    """h'(x) = log2((1 - x) / x), the slope of the binary entropy in bits:
    +inf at 0, and wherever (1 - x) / x overflows."""
    return math.log2((1.0 - x) / x) if x > 0.0 else math.inf


def _dual_start(alpha: float, d_s: float, d_u: float):
    """The optimal (multipliers, output distribution) of the doubly symmetric
    source's two-constraint dual at 0 <= D_s <= D_u, both clipped to
    [tiny, 1/2] with tiny the smallest normal float, or None (the solver's
    cold start) should a multiplier still be infinite.

    At D = 0 the optimal multiplier is infinite. The start is then the dual
    optimum at D = tiny instead, whose multiplier h'(tiny) is about 1022; the
    solver still meets the caller's targets, so only the start moves.

    Output letters are (s_hat, u_hat) = 00, 01, 10, 11. With x = D_s * D_u:

    - implied, D_u >= alpha * D_s (R = 1 - h(D_s)): lam = (h'(D_s), 0) and
      S_hat = U_hat uniform;
    - Shannon lower bound, x <= alpha: lam = (h'(D_s), h'(D_u)), and the
      backward channels S = S_hat xor Z_s, U = U_hat xor Z_u make S_hat
      uniform and S_hat xor U_hat ~ Bernoulli(beta), beta = (alpha - x) / (1 - 2x);
    - mid, otherwise: lam = ((h'(e) + h'(t)) / 2, (h'(e) - h'(t)) / 2) with
      e = (D_s + D_u - alpha) / (2(1 - alpha)) and t = (alpha + D_s - D_u) /
      (2 alpha), and S_hat = U_hat uniform.

    Implied comes first, so that t is never 0/0: at alpha = 0 every pair is
    implied.
    """
    d_s, d_u = (min(max(d, sys.float_info.min), 0.5) for d in (d_s, d_u))
    x = star(d_s, d_u)
    if d_u >= star(alpha, d_s):
        lam, q = (_slope(d_s), 0.0), (0.5, 0.0, 0.0, 0.5)
    elif x <= alpha:
        # x rounds to 1/2 only at alpha = 1/2, where beta is 1/2 at every x.
        beta = (alpha - x) / (1.0 - 2.0 * x) if x < 0.5 else 0.5
        lam = (_slope(d_s), _slope(d_u))
        q = ((1.0 - beta) / 2.0, beta / 2.0, beta / 2.0, (1.0 - beta) / 2.0)
    else:
        h_e = _slope((d_s + d_u - alpha) / (2.0 * (1.0 - alpha)))
        h_t = _slope((alpha + d_s - d_u) / (2.0 * alpha))
        # Cancellation in t where alpha is small can put h'(t) above h'(e).
        lam, q = (0.5 * (h_e + h_t), max(0.5 * (h_e - h_t), 0.0)), (0.5, 0.0, 0.0, 0.5)
    return (lam, q) if math.isfinite(lam[0] + lam[1]) else None


# ---------------------------------------------------------------------------
# converse bound and tradeoff curve
# ---------------------------------------------------------------------------


def binary_min_r(
    src: SemanticSourceBinary,
    ch: WiretapChannelBinary,
    target_s: float,
    target_u: float,
    targets: EquivocationTargets,
    case: int = 2,
) -> MinRateResult:
    """:func:`semsec.regions.min_ratio` at one cell."""
    return min_ratio(src, ch, targets, target_s, target_u, case).cell()


def delta_s_curve(
    src: SemanticSourceBinary,
    ch: WiretapChannelBinary,
    r: float,
    R_k: float = 0.0,
    case: int = 1,
    d_s_grid: int | Sequence[float] = 200,
) -> TradeoffCurve:
    """Semantic equivocation cap as a function of the distortion budget.

    Sweeps D_s at fixed (r, R_k); the raw cap rises with D_s until it hits
    the one-bit entropy ceiling at the saturation distortion, beyond which
    the clamped curve is exactly flat. An integer ``d_s_grid`` is a point
    count spanning the feasible range for the requested case (starting just
    above alpha for the restricted encoder) up to 1/2.
    """
    _finite_nonnegative("channel-use ratio", r)
    _finite_nonnegative("key rate", R_k)
    if case not in (1, 2):
        raise DomainError(f"case must be 1 or 2, got {case}")
    if isinstance(d_s_grid, int):
        lo = src.alpha + 1e-4 if case == 1 else 1e-4
        d_s_grid = np.linspace(lo, 0.5, d_s_grid)
    grid = np.asarray(d_s_grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 1 or np.any(np.diff(grid) <= 0):
        raise DomainError("D_s grid must be one-dimensional and strictly increasing")
    if grid[0] <= 0.0:
        raise DomainError("distortions must be positive")
    if case == 1 and grid[0] <= src.alpha:
        raise DomainError(
            f"case-1 grid must start above the distortion floor alpha = {src.alpha}"
        )
    raw = R_k + r * ch.secrecy_capacity + 1.0 - _binary_sem(float(src.alpha), grid, case)
    clamped = np.minimum(raw, 1.0)
    capped = raw > 1.0
    star_idx = np.flatnonzero(capped)
    d_s_star = float(grid[star_idx[0]]) if star_idx.size else None
    return TradeoffCurve(
        d_s=grid,
        delta_s_max=clamped,
        raw=raw,
        capped=capped,
        d_s_star=d_s_star,
    )
