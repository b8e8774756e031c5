"""Equivocation targets, the converse routines and the result containers
shared by the Gaussian and binary models.

Both converses read ``r >= max(R(D_s, D_u) / C, (Delta - (R_k + h - R)) / C_s)``
over the enabled targets, with C the main-channel capacity and C_s the
secrecy capacity of the channel; a model supplies only its RDFs and entropy
terms, through the ``rdf_components(d_s, d_u, case)`` method of its source
type. Every routine takes any two broadcastable distortion arrays: a grid is
(n, 1) x (1, m), scattered points are (k,) x (k,), and two floats give one
cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

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
]

#: Sentinel for a disabled equivocation target.
DISABLED = float("-inf")

#: ``(target name, entropy term, RDF values)``, in the order delta_s,
#: delta_u, delta_su; the RDF array broadcasts to the joint RDF's shape.
Component = tuple[str, float, np.ndarray]


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

    def active(self) -> tuple[str, ...]:
        return tuple(
            name
            for name, val in (("delta_s", self.delta_s), ("delta_u", self.delta_u),
                              ("delta_su", self.delta_su))
            if val != DISABLED
        )


@dataclass(frozen=True)
class EquivocationCaps:
    """Equivocation upper bounds at a fixed operating point.

    ``delta_s`` / ``delta_u`` / ``delta_su`` are the operative caps, clamped
    at the unconditional entropy of the corresponding source component.
    ``raw_*`` carry the unclamped formula values (which may exceed the
    entropy, e.g. for large channel-use ratios or key rates); ``capped_*``
    flag where the clamp fired. Iterating yields the three clamped caps.
    """

    delta_s: float
    delta_u: float
    delta_su: float
    raw_delta_s: float
    raw_delta_u: float
    raw_delta_su: float
    capped_s: bool
    capped_u: bool
    capped_su: bool

    def __iter__(self) -> Iterator[float]:
        return iter((self.delta_s, self.delta_u, self.delta_su))

    @classmethod
    def from_raw(cls, raw_s: float, raw_u: float, raw_su: float,
                 cap_s: float, cap_u: float, cap_su: float) -> "EquivocationCaps":
        return cls(
            delta_s=min(raw_s, cap_s),
            delta_u=min(raw_u, cap_u),
            delta_su=min(raw_su, cap_su),
            raw_delta_s=raw_s,
            raw_delta_u=raw_u,
            raw_delta_su=raw_su,
            capped_s=raw_s > cap_s,
            capped_u=raw_u > cap_u,
            capped_su=raw_su > cap_su,
        )


@dataclass(frozen=True)
class MinRateResult:
    """Minimal channel-use ratio, or an infeasibility verdict with a reason.

    ``binding`` names the constraint that determined the minimum (one of
    "rate", "delta_s", "delta_u", "delta_su") when feasible.
    """

    r_min: float | None
    feasible: bool
    reason: str | None = None
    binding: str | None = None

    def __post_init__(self):
        if self.feasible:
            if self.r_min is None or not math.isfinite(self.r_min) or self.r_min < 0:
                raise DomainError(
                    f"feasible result requires a finite nonnegative r_min, got {self.r_min}"
                )
        elif self.r_min is not None:
            raise DomainError("infeasible result must not carry an r_min value")


#: What ``RatioGrid.binding`` codes name: the constraint that set the minimum.
BINDINGS = ("rate", "delta_s", "delta_u", "delta_su")
#: What ``RatioGrid.reason`` codes name; 0 is a feasible cell.
REASONS = (None, "distortion_infeasible", "rate_infeasible", "secrecy_infeasible_delta_s",
           "secrecy_infeasible_delta_u", "secrecy_infeasible_delta_su")
_DISTORTION, _RATE = 1, 2


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
            return MinRateResult(float(self.r_min[index]), True,
                                 binding=BINDINGS[self.binding[index]])
        return MinRateResult(None, False, reason=REASONS[code])


def min_ratio(ch, targets: EquivocationTargets, r_joint: np.ndarray,
              components: Sequence[Component], blocked: np.ndarray) -> RatioGrid:
    """Per cell, the maximum of the rate bound ``r_joint / ch.capacity_main``
    and, for each enabled target not met at r = 0, its need over
    ``ch.secrecy_capacity``.

    Each component's RDF and the ``blocked`` mask broadcast to ``r_joint``
    (see a source type's ``rdf_components``); a blocked cell is out of the
    encoder's reach. The secrecy capacity is read only for a target that
    some cell has not met. A cell where a target's need over it is not a
    finite number (zero secrecy capacity, or an overflowing ratio) is
    infeasible, named after the first such target.
    """
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


def equivocation_caps(src, ch, r: float, R_k: float, components: Sequence[Component],
                      blocked: np.ndarray) -> EquivocationCaps:
    """Raw caps ``R_k + r * ch.secrecy_capacity + h - R`` per component of one
    cell, clamped at the unconditional entropies ``src.h_s``, ``src.h_u``
    and ``src.h_su``. A distortion out of the encoder's reach raises
    :class:`InfeasibleError`."""
    _finite_nonnegative("channel-use ratio", r)
    _finite_nonnegative("key rate", R_k)
    if blocked:
        raise InfeasibleError("the restricted encoder cannot reach this semantic distortion")
    raw = [(R_k + r * ch.secrecy_capacity + h_term - rdf).item()
           for _, h_term, rdf in components]
    return EquivocationCaps.from_raw(*raw, src.h_s, src.h_u, src.h_su)


@dataclass(frozen=True)
class RegionSurface:
    """A (D_s, D_u) grid of minimal channel-use ratios.

    ``axes`` maps axis names to bucket-center coordinate arrays. ``values``
    holds the per-cell value where ``feasible`` is True and NaN elsewhere
    (value present exactly when the cell is feasible). ``samples`` counts
    contributing Monte-Carlo samples (0 for closed-form surfaces).
    ``metadata`` carries the inner-bound scan's acceptance statistics.
    """

    axes: dict[str, np.ndarray]
    values: np.ndarray
    feasible: np.ndarray
    samples: np.ndarray
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        feasible = np.asarray(self.feasible, dtype=bool)
        samples = np.asarray(self.samples, dtype=int)
        if not (values.shape == feasible.shape == samples.shape):
            raise DomainError("surface component shapes disagree")
        if np.any(~np.isfinite(values[feasible])):
            raise DomainError("feasible cells must carry finite values")
        if np.any(np.isfinite(values[~feasible])):
            raise DomainError("infeasible cells must not carry values")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "feasible", feasible)
        object.__setattr__(self, "samples", samples)


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
    grid = min_ratio(ch, targets, *src.rdf_components(d_s_grid[:, None], d_u_grid[None, :], case))
    return RegionSurface(
        axes={"D_s": d_s_grid, "D_u": d_u_grid},
        values=grid.r_min,
        feasible=grid.feasible,
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
    capped: np.ndarray
    d_s_star: float | None

    def __post_init__(self):
        d_s = np.asarray(self.d_s, dtype=float)
        if not (d_s.shape == np.shape(self.delta_s_max) == np.shape(self.raw) == np.shape(self.capped)):
            raise DomainError("curve component shapes disagree")
