"""Equivocation targets, the converse routines and the result containers
shared by the Gaussian and binary models.

Both converses read ``r >= max(R(D_s, D_u) / C, (Delta - (R_k + h - R)) / slope)``
over the enabled targets; a model supplies only its RDFs, entropy terms,
capacity and secrecy slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "DISABLED",
    "EquivocationTargets",
    "EquivocationCaps",
    "MinRateResult",
    "RegionSurface",
    "TradeoffCurve",
    "min_ratio",
    "equivocation_caps",
    "converse_surface",
]

#: Sentinel for a disabled equivocation target.
DISABLED = float("-inf")

#: ``(target name, entropy term, RDF value, secrecy split)``, in the order
#: delta_s, delta_u, delta_su.
Component = tuple[str, float, float, float]


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
        if math.isnan(self.R_k) or not (0.0 <= self.R_k < float("inf")):
            raise DomainError(f"R_k must be finite and nonnegative, got {self.R_k}")

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


def min_ratio(r_joint: float, capacity: float, components: Sequence[Component],
              targets: EquivocationTargets, slope: Callable[[float], float]) -> MinRateResult:
    """Maximum of the rate bound ``r_joint / capacity`` and, for each enabled
    target not met at r = 0, its need over ``slope(split)``; the slope is
    evaluated for unmet targets only. A target whose need over its slope is
    not a finite number (zero slope, or an overflowing ratio) is infeasible."""
    if r_joint > 0.0 and capacity <= 0.0:
        return MinRateResult(None, False, reason="rate_infeasible")
    r_min = r_joint / capacity if r_joint > 0.0 else 0.0
    binding = "rate"
    for name, h_term, rdf, split in components:
        target = getattr(targets, name)
        if target == DISABLED:
            continue
        need = target - (targets.R_k + h_term - rdf)
        if need <= 0.0:
            continue  # already met at r = 0
        gain = slope(split)
        cand = need / gain if gain > 0.0 else math.inf
        if not math.isfinite(cand):
            return MinRateResult(None, False, reason=f"secrecy_infeasible_{name}")
        if cand > r_min:
            r_min = cand
            binding = name
    return MinRateResult(r_min, True, binding=binding)


def equivocation_caps(components: Sequence[Component], r: float, R_k: float,
                      slope: Callable[[float], float], clamps: tuple) -> EquivocationCaps:
    """Raw caps ``R_k + r * slope(split) + h - R`` per component, clamped at
    ``clamps`` (the unconditional component entropies)."""
    if r < 0.0:
        raise DomainError(f"channel-use ratio must be nonnegative, got {r}")
    if R_k < 0.0:
        raise DomainError(f"key rate must be nonnegative, got {R_k}")
    raw = [R_k + r * slope(split) + h_term - rdf for _, h_term, rdf, split in components]
    return EquivocationCaps.from_raw(*raw, *clamps)


@dataclass(frozen=True)
class RegionSurface:
    """A (D_s, D_u) grid of minimal channel-use ratios (or maximal equivocations).

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

    def rows(self):
        """Yield per-cell dicts in deterministic row-major order."""
        names = list(self.axes)
        grids = np.meshgrid(*(np.asarray(self.axes[n], dtype=float) for n in names),
                            indexing="ij")
        keys = (*names, "value", "feasible", "samples")
        columns = [g.ravel().tolist() for g in grids] + [
            np.where(self.feasible, self.values, None).ravel().tolist(),
            self.feasible.ravel().tolist(),
            self.samples.ravel().tolist(),
        ]
        for cell in zip(*columns):
            yield dict(zip(keys, cell))


def converse_surface(
    src,
    ch,
    targets: EquivocationTargets,
    case: int,
    d_s_grid: Sequence[float],
    d_u_grid: Sequence[float],
) -> RegionSurface:
    """Evaluate the model's converse minimal ratio (``binary_min_r`` or
    ``converse_min_r``, by source type) over a (D_s, D_u) grid."""
    # Imported here because both model modules import this one.
    from .binary import SemanticSourceBinary, binary_min_r
    from .gaussian import converse_min_r

    min_r = binary_min_r if isinstance(src, SemanticSourceBinary) else converse_min_r
    d_s_grid = np.asarray(d_s_grid, dtype=float)
    d_u_grid = np.asarray(d_u_grid, dtype=float)
    values = np.full((len(d_s_grid), len(d_u_grid)), np.nan)
    for i, d_s in enumerate(d_s_grid.tolist()):
        for j, d_u in enumerate(d_u_grid.tolist()):
            res = min_r(src, ch, d_s, d_u, targets, case=case)
            if res.feasible:
                values[i, j] = res.r_min
    return RegionSurface(
        axes={"D_s": d_s_grid, "D_u": d_u_grid},
        values=values,
        feasible=~np.isnan(values),
        samples=np.zeros(values.shape, dtype=int),
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

    def rows(self):
        for i in range(len(self.d_s)):
            yield {
                "D_s": float(self.d_s[i]),
                "delta_s_max": float(self.delta_s_max[i]),
                "capped": bool(self.capped[i]),
            }
