"""Equivocation targets, the converse routines, the semantic tradeoff curve
and the result containers shared by the Gaussian and binary models.

Both converses read ``r >= max(R(D_s, D_u) / C, (Delta - (R_k + h - R)) / C_s)``
over the enabled targets, with C the main-channel capacity and C_s the
secrecy capacity of the channel; a model supplies only its RDFs and entropy
terms, through the ``rdf_components(d_s, d_u, case)`` method of its source
type, which each routine calls itself with the source it is given. The
minimal ratio takes any two broadcastable distortion arrays: a grid is
(n, 1) x (1, m), scattered points are (k,) x (k,), and two floats give one
cell; the equivocation caps take the same shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .errors import DomainError, InfeasibleError

__all__ = [
    "DISABLED",
    "EquivocationTargets",
    "EquivocationCaps",
    "MinRateResult",
    "RatioGrid",
    "RegionSurface",
    "TradeoffCurve",
    "min_ratio",
    "equivocation_caps",
    "converse_surface",
    "delta_s_curve",
]

#: Sentinel for a disabled equivocation target.
DISABLED = float("-inf")


def _finite_nonnegative(name: str, value: float) -> None:
    """Reject NaN, infinite and negative rates with :class:`DomainError`."""
    if not 0.0 <= value < math.inf:
        raise DomainError(f"{name} must be finite and nonnegative, got {value}")


def _distortions(d, positive: bool) -> np.ndarray:
    """``d`` as a float array; :class:`DomainError` unless every entry is
    finite and positive (or, if not ``positive``, nonnegative)."""
    d = np.asarray(d, dtype=float)
    ok = np.isfinite(d) & ((d > 0.0) if positive else (d >= 0.0))
    if not ok.all():
        sign = "positive" if positive else "nonnegative"
        raise DomainError(f"distortions must be finite and {sign}, got {d[~ok].flat[0]}")
    return d


def _first_cell(mask, d_s, d_u) -> str:
    """"(D_s, D_u) = (x, y)" at the first cell where ``mask`` holds, all three
    broadcast together."""
    mask, d_s, d_u = np.broadcast_arrays(mask, d_s, d_u)
    at = tuple(np.argwhere(mask)[0])
    return f"(D_s, D_u) = ({d_s[at]}, {d_u[at]})"


@dataclass(frozen=True)
class EquivocationTargets:
    """Secrecy thresholds (bits) plus the shared-key rate.

    A target of ``-inf`` (the :data:`DISABLED` sentinel) disables that
    constraint entirely; finite targets may be negative (differential
    equivocations can be). ``+inf`` and NaN are rejected.
    """

    delta_s: float
    delta_u: float
    delta_su: float
    R_k: float = 0.0

    def __post_init__(self):
        for name, val in (("delta_s", self.delta_s), ("delta_u", self.delta_u),
                          ("delta_su", self.delta_su)):
            if math.isnan(val) or val == float("inf"):
                raise DomainError(f"{name} must be finite or -inf, got {val}")
        _finite_nonnegative("R_k", self.R_k)

    @classmethod
    def no_secrecy(cls, R_k: float = 0.0) -> "EquivocationTargets":
        return cls(DISABLED, DISABLED, DISABLED, R_k)


@dataclass(frozen=True)
class EquivocationCaps:
    """Equivocation upper bounds at fixed operating points, each of the
    distortions' broadcast shape (numpy scalars at one cell).

    ``delta_s`` / ``delta_u`` / ``delta_su`` are the operative caps, clamped
    at the unconditional entropy of the corresponding source component.
    ``raw_*`` carry the unclamped formula values (which may exceed the
    entropy, e.g. for large channel-use ratios or key rates); ``capped_*``
    flag where the clamp fired.
    """

    delta_s: np.ndarray | float
    delta_u: np.ndarray | float
    delta_su: np.ndarray | float
    raw_delta_s: np.ndarray | float
    raw_delta_u: np.ndarray | float
    raw_delta_su: np.ndarray | float

    @property
    def capped_s(self):
        return self.raw_delta_s > self.delta_s

    @property
    def capped_u(self):
        return self.raw_delta_u > self.delta_u

    @property
    def capped_su(self):
        return self.raw_delta_su > self.delta_su


@dataclass(frozen=True)
class MinRateResult:
    """Minimal channel-use ratio, or an infeasibility verdict with a reason.

    ``r_min`` is None exactly when infeasible. ``binding`` names the
    constraint that determined the minimum (one of "rate", "delta_s",
    "delta_u", "delta_su") when feasible.
    """

    r_min: float | None
    reason: str | None = None
    binding: str | None = None

    def __post_init__(self):
        if self.r_min is not None:
            _finite_nonnegative("a feasible r_min", self.r_min)

    @property
    def feasible(self) -> bool:
        return self.r_min is not None


#: What ``RatioGrid.binding`` codes name: the constraint that set the minimum.
BINDINGS = ("rate", "delta_s", "delta_u", "delta_su")
#: What ``RatioGrid.reason`` codes name; 0 is a feasible cell.
REASONS = (None, "distortion_infeasible", "rate_infeasible", "secrecy_infeasible_delta_s",
           "secrecy_infeasible_delta_u", "secrecy_infeasible_delta_su")
_DISTORTION, _RATE = 1, 2
#: The source entropy that caps each target's equivocation.
_CEILINGS = {"delta_s": "h_s", "delta_u": "h_u", "delta_su": "h_su"}


@dataclass(frozen=True)
class RatioGrid:
    """Minimal channel-use ratios at (D_s, D_u) cells, with their verdicts.

    The arrays share one shape: (n, m) for a grid, (k,) for scattered
    points, () for one cell. ``r_min`` is NaN where a cell is infeasible;
    ``binding`` indexes :data:`BINDINGS` (meaningful where feasible);
    ``reason`` indexes :data:`REASONS`, 0 where feasible.
    """

    r_min: np.ndarray
    binding: np.ndarray
    reason: np.ndarray

    @property
    def feasible(self) -> np.ndarray:
        return self.reason == 0

    def cell(self, *index: int) -> MinRateResult:
        code = int(self.reason[index])
        if code == 0:
            return MinRateResult(float(self.r_min[index]), binding=BINDINGS[self.binding[index]])
        return MinRateResult(None, reason=REASONS[code])


def min_ratio(src, ch, targets: EquivocationTargets, d_s, d_u, case: int) -> RatioGrid:
    """Per cell, the maximum of the rate bound ``R(D_s, D_u) / ch.capacity_main``
    and, for each enabled target not met at r = 0, its need over
    ``ch.secrecy_capacity``.

    The RDFs come from ``src.rdf_components(d_s, d_u, case)``, so the cells
    have the broadcast shape of ``d_s`` and ``d_u``; a cell below the case-1
    floor is out of the encoder's reach. An enabled target above its
    ceiling, ``src.h_s``, ``src.h_u`` or ``src.h_su``, makes every cell
    infeasible. The secrecy capacity is read only for a target that some
    cell has not met. A cell where a target's need over it is not a finite
    number (zero secrecy capacity, or an overflowing ratio) is infeasible.
    Of several such targets, the first names the reason.
    """
    r_joint, components, blocked = src.rdf_components(d_s, d_u, case)
    capacity = ch.capacity_main
    reason = np.where(np.broadcast_to(blocked, r_joint.shape), np.int8(_DISTORTION), np.int8(0))
    positive = r_joint > 0.0
    if capacity <= 0.0:
        reason[positive & (reason == 0)] = _RATE
    binding = np.zeros(r_joint.shape, dtype=np.int8)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r_min = np.where(positive, r_joint / capacity, 0.0)
        for name, h_term, rdf in components:
            target = getattr(targets, name)
            if target == DISABLED:
                continue
            if target > getattr(src, _CEILINGS[name]):
                reason[reason == 0] = REASONS.index(f"secrecy_infeasible_{name}")
                continue
            need = target - (targets.R_k + h_term - rdf)
            # Cells already infeasible are done; a NaN need counts as unmet.
            unmet = (reason == 0) & ~(need <= 0.0)
            if not unmet.any():
                continue
            gain = ch.secrecy_capacity
            cand = need / gain if gain > 0.0 else np.full(need.shape, np.inf)
            reason[unmet & ~np.isfinite(cand)] = REASONS.index(f"secrecy_infeasible_{name}")
            higher = unmet & (cand > r_min)
            r_min = np.where(higher, cand, r_min)
            binding[higher] = BINDINGS.index(name)
    return RatioGrid(np.where(reason == 0, r_min, np.nan), binding, reason)


def equivocation_caps(src, ch, d_s, d_u, r: float, R_k: float = 0.0,
                      case: int = 2) -> EquivocationCaps:
    """Equivocation upper bounds at channel-use ratio ``r`` and key rate
    ``R_k``, at the cells of any two broadcastable distortions, as in
    :func:`min_ratio`.

    Each raw cap is ``R_k + r * ch.secrecy_capacity + h - R`` per component
    of ``src.rdf_components``, clamped at the unconditional entropies
    ``src.h_s``, ``src.h_u`` and ``src.h_su`` (see :class:`EquivocationCaps`
    for both values and the clamp flags). A cell out of the encoder's reach
    raises :class:`InfeasibleError` naming the first such cell.
    """
    _finite_nonnegative("channel-use ratio", r)
    _finite_nonnegative("key rate", R_k)
    r_joint, components, blocked = src.rdf_components(d_s, d_u, case)
    if np.any(blocked):
        raise InfeasibleError("the restricted encoder cannot reach the semantic distortion at "
                              + _first_cell(blocked, d_s, d_u))
    bought = R_k + r * ch.secrecy_capacity
    caps = {}
    for name, h_term, rdf in components:
        raw = bought + h_term - np.broadcast_to(rdf, r_joint.shape)
        caps[name] = np.minimum(raw, getattr(src, _CEILINGS[name]))
        caps[f"raw_{name}"] = raw
    return EquivocationCaps(**caps)


@dataclass(frozen=True)
class RegionSurface:
    """A (D_s, D_u) grid of minimal channel-use ratios.

    ``axes`` maps axis names to bucket-center coordinate arrays. ``values``
    holds the per-cell value, finite where the cell is feasible and NaN
    elsewhere. ``samples`` counts contributing Monte-Carlo samples (0 for
    closed-form surfaces). ``metadata`` carries the inner-bound scan's
    acceptance statistics.
    """

    axes: dict[str, np.ndarray]
    values: np.ndarray
    samples: np.ndarray
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        samples = np.asarray(self.samples, dtype=int)
        if values.shape != samples.shape:
            raise DomainError("surface component shapes disagree")
        if np.isinf(values).any():
            raise DomainError("surface values must be finite, or NaN where infeasible")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "samples", samples)

    @property
    def feasible(self) -> np.ndarray:
        return ~np.isnan(self.values)


def converse_surface(
    src,
    ch,
    targets: EquivocationTargets,
    case: int,
    d_s_grid: Sequence[float],
    d_u_grid: Sequence[float],
) -> RegionSurface:
    """The model's converse minimal ratio over a (D_s, D_u) grid, evaluated
    for the whole grid at once."""
    d_s_grid = np.asarray(d_s_grid, dtype=float)
    d_u_grid = np.asarray(d_u_grid, dtype=float)
    grid = min_ratio(src, ch, targets, d_s_grid[:, None], d_u_grid[None, :], case)
    return RegionSurface(
        axes={"D_s": d_s_grid, "D_u": d_u_grid},
        values=grid.r_min,
        samples=np.zeros(grid.r_min.shape, dtype=int),
    )


@dataclass(frozen=True)
class TradeoffCurve:
    """A fidelity-secrecy trade-off curve Delta_s(D_s) at fixed (r, R_k).

    ``delta_s_max`` is entropy-clamped; ``raw`` is the unclamped bound;
    ``capped`` flags the clamp; ``d_s_star`` is the smallest grid distortion
    at which the cap fires (None if it never does).
    """

    d_s: np.ndarray
    delta_s_max: np.ndarray
    raw: np.ndarray

    def __post_init__(self):
        if not (np.shape(self.d_s) == np.shape(self.delta_s_max) == np.shape(self.raw)):
            raise DomainError("curve component shapes disagree")

    @property
    def capped(self) -> np.ndarray:
        return self.raw > self.delta_s_max

    @property
    def d_s_star(self) -> float | None:
        star = np.flatnonzero(self.capped)
        return float(self.d_s[star[0]]) if star.size else None


def delta_s_curve(src, ch, r: float, R_k: float = 0.0, case: int = 1,
                  d_s_grid: int | Sequence[float] = 200) -> TradeoffCurve:
    """The Delta_s cap of :func:`equivocation_caps` along a D_s line at fixed
    (r, R_k), read from the semantic component ``src.rdf_sem(d_s, case)``
    alone, which also rejects a case other than 1 or 2. The raw cap rises
    with D_s until it hits the entropy ``src.h_s``, beyond which the clamped
    curve is exactly flat. An integer ``d_s_grid`` is a point count from just
    above ``src.semantic_floor(case)`` to the top of ``src.distortion_range``.
    A grid not above the floor, or an overflowing RDF, raises DomainError."""
    _finite_nonnegative("channel-use ratio", r)
    _finite_nonnegative("key rate", R_k)
    floor = src.semantic_floor(case)
    if isinstance(d_s_grid, int):
        lo, hi = floor + 2e-4 * src.distortion_range[0], src.distortion_range[0]
        if lo >= hi:
            raise DomainError(f"the case-{case} floor {floor} leaves no D_s range below {hi}")
        d_s_grid = np.linspace(lo, hi, d_s_grid)
    grid = np.asarray(d_s_grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 1 or np.any(np.diff(grid) <= 0):
        raise DomainError("D_s grid must be one-dimensional and strictly increasing")
    if grid[0] <= floor:
        raise DomainError(f"the case-{case} D_s grid must start above the distortion floor "
                          f"{floor}, got {grid[0]}")
    r_s, _ = src.rdf_sem(grid, case)
    if not np.isfinite(r_s).all():
        raise DomainError(f"the semantic RDF is not finite at D_s = {grid[~np.isfinite(r_s)][0]}: "
                          "the distortion is too small to evaluate")
    raw = R_k + r * ch.secrecy_capacity + src.h_s - r_s
    return TradeoffCurve(d_s=grid, delta_s_max=np.minimum(raw, src.h_s), raw=raw)
