"""Binary system model: doubly symmetric source over a cascaded BSC wiretap
channel, with closed-form converse caps and the semantic tradeoff curve.

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
from typing import Sequence

import numpy as np

from .errors import DomainError
from .info import binary_entropy, star
from .rdf import _binary_joint, _binary_obs, _binary_sem
from .regions import (EquivocationCaps, EquivocationTargets, MinRateResult, TradeoffCurve,
                      _finite_nonnegative, equivocation_caps, min_ratio, rdf_components)

__all__ = [
    "SemanticSourceBinary",
    "WiretapChannelBinary",
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


def _components(src, d_s, d_u, case):
    """Joint RDF, the (name, entropy, RDF) converse components and the
    case-1 floor mask at the broadcastable distortions ``d_s`` and ``d_u``
    (see :func:`semsec.regions.rdf_components`). The observation component
    uses the conditional entropy H_b(alpha)."""
    alpha = float(src.alpha)
    r_s = _binary_sem(alpha, d_s, case)
    r_u = _binary_obs(alpha, d_u)
    r_j = _binary_joint(alpha, d_s, d_u, case, r_s, r_u)
    return r_j, (
        ("delta_s", 1.0, r_s),
        ("delta_u", src.h_alpha, r_u),
        ("delta_su", src.h_alpha + 1.0, r_j),
    ), np.isinf(r_s)


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
    _, comps, blocked = rdf_components(src, target_s, target_u, case)
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
    return min_ratio(ch, targets, *rdf_components(src, target_s, target_u, case)).cell()


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
