"""Binary system model: doubly symmetric source over a cascaded BSC wiretap
channel, with its rate-distortion functions, closed-form converse caps and
the semantic tradeoff curve.

Model summary. The observation U is uniform Bernoulli and the semantic
component S is U passed through a bit-flip channel with crossover alpha, so
(S, U) is doubly symmetric. The legitimate link is a BSC with crossover
eps1 and the eavesdropper sees a further cascade with crossover eps2
(overall crossover eps1 * eps2 in the star-convolution sense). Hamming
distortion on both components. The converse's secrecy slope is the
channel's secrecy capacity H_b(eps1 * eps2) - H_b(eps1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError, InfeasibleError
from .info import binary_entropy, star
from .rdf import (DiscreteSemanticSource, RdfPoint, _warn_if_uncertified, hamming_distortion,
                  rdf_semantic_case2)
from .regions import (EquivocationCaps, EquivocationTargets, MinRateResult, TradeoffCurve,
                      _distortions, _finite_nonnegative, equivocation_caps, min_ratio)

__all__ = [
    "SemanticSourceBinary",
    "WiretapChannelBinary",
    "binary_rdf_obs",
    "binary_rdf_sem",
    "binary_rdf_joint",
    "binary_converse_caps",
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

    @property
    def h_alpha(self) -> float:
        return binary_entropy(self.alpha)

    def rdf_components(self, d_s, d_u, case: int):
        """The joint RDF, its (name, entropy, RDF) converse components and the
        mask of cells below the case-1 floor, at the distortions ``d_s`` and
        ``d_u``: any two broadcastable arrays, or floats.

        The joint RDF and the mask have the broadcast shape; each component's
        RDF broadcasts to it. This is the input
        :func:`semsec.regions.min_ratio` and
        :func:`semsec.regions.equivocation_caps` take. The observation
        component uses the conditional entropy H_b(alpha).
        """
        alpha = float(self.alpha)
        r_s = _binary_sem(alpha, d_s, case)
        r_u = _binary_obs(alpha, d_u)
        r_j = _binary_joint(alpha, d_s, d_u, case, r_s, r_u)
        return r_j, (
            ("delta_s", 1.0, r_s),
            ("delta_u", self.h_alpha, r_u),
            ("delta_su", self.h_alpha + 1.0, r_j),
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


def _binary_obs(alpha: float, d_u) -> np.ndarray:
    """Observation-part RDF at every distortion in ``d_u``: H_b(alpha) - H_b(D_u)
    for D_u <= alpha, else 0."""
    d_u = _distortions(d_u, positive=False)
    out = np.zeros(d_u.shape)
    near = d_u <= alpha
    out[near] = binary_entropy(alpha) - binary_entropy(d_u[near])
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

    Case 1 is their maximum. Case 2 is one cached solve of the 2x2 joint
    per point, and its value the solver's certified dual bound, a true lower
    bound on the RDF. A solve that did not converge, or whose primal-dual
    gap exceeds 1e-6, raises a :class:`RuntimeWarning` naming the point.
    """
    if case == 1:
        return np.maximum(r_s, r_u)
    a, b = np.broadcast_arrays(d_s, d_u)
    out = np.empty(a.shape)
    for k, (t_s, t_u) in enumerate(zip(a.ravel().tolist(), b.ravel().tolist())):
        # The doubly symmetric source is symmetric in (S, U), so R(D_s, D_u) =
        # R(D_u, D_s): the sorted pair shares one solve.
        point = _binary_joint_case2_cached(float(alpha), *sorted((t_s, t_u)))
        _warn_if_uncertified(
            point, f"binary case-2 RDF at alpha={alpha}, (D_s, D_u)=({t_s}, {t_u})"
        )
        out.flat[k] = max(float(point.dual_bound), 0.0)
    return out


@lru_cache(maxsize=4096)
def _binary_joint_case2_cached(alpha: float, d_lo: float, d_hi: float) -> RdfPoint:
    src = DiscreteSemanticSource.doubly_symmetric(alpha)
    ham = hamming_distortion(2)
    return rdf_semantic_case2(src, ham, ham, d_lo, d_hi)


def binary_rdf_obs(alpha: float, target_u: float) -> float:
    """Observation-part RDF H_b(alpha) - H_b(D_u) for D_u <= alpha, else 0."""
    return float(_binary_obs(SemanticSourceBinary(alpha).alpha, target_u))


def binary_rdf_sem(alpha: float, target_s: float, case: int) -> float:
    """Semantic-part RDF; returns +inf for the infeasible restricted-encoder range."""
    return float(_binary_sem(SemanticSourceBinary(alpha).alpha, target_s, case))


def binary_rdf_joint(alpha: float, target_s: float, target_u: float, case: int) -> float:
    """Joint binary RDF (see :func:`_binary_joint`); infeasible for case 1
    below the crossover."""
    r_j, _, blocked = SemanticSourceBinary(alpha).rdf_components(target_s, target_u, case)
    if blocked:
        raise InfeasibleError(
            f"restricted encoder cannot reach semantic distortion {target_s} < {alpha}"
        )
    return float(r_j)


# ---------------------------------------------------------------------------
# converse bound and tradeoff curve
# ---------------------------------------------------------------------------


def binary_converse_caps(
    src: SemanticSourceBinary,
    ch: WiretapChannelBinary,
    target_s: float,
    target_u: float,
    r: float,
    R_k: float = 0.0,
    case: int = 2,
) -> EquivocationCaps:
    """Equivocation upper bounds for the binary model.

    Raw bounds follow the closed-form expressions (the observation bound
    uses the conditional entropy H_b(alpha) as its entropy term); each is
    additionally clamped at the unconditional entropy of its component —
    1 bit for S, 1 bit for U, 1 + H_b(alpha) bits jointly.
    """
    _, comps, blocked = src.rdf_components(target_s, target_u, case)
    return equivocation_caps(src, ch, r, R_k, comps, blocked)


def binary_min_r(
    src: SemanticSourceBinary,
    ch: WiretapChannelBinary,
    target_s: float,
    target_u: float,
    targets: EquivocationTargets,
    case: int = 2,
) -> MinRateResult:
    """Minimal channel-use ratio compatible with the binary converse bound.

    Maximum of the joint-RDF-over-capacity bound and the secrecy-driven
    bound of every enabled equivocation target not already met at r = 0.
    This is :func:`semsec.regions.min_ratio` at one cell.
    """
    return min_ratio(ch, targets, *src.rdf_components(target_s, target_u, case)).cell()


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
