"""Per-cell converse oracle: the scalar closed forms and minimal-ratio loop.

This is how ``semsec`` evaluated a converse surface before it evaluated the
whole grid at once: the Gaussian case-2 joint RDF as a scalar four-regime
closed form, one ``min_ratio`` call per cell and a Python loop over the
cells. ``semsec.regions.converse_surface``, the point sets of
the sources' ``rdf_components`` and the scalar entry points
``converse_min_r`` and ``binary_min_r`` are checked against it bit for bit.
The marginal RDFs are the scalar closed forms the package had before it
evaluated them as arrays, so they do not share its code. The binary case-2
joint RDF is the certified bound of the package's general discrete solver on
the doubly symmetric source, solved here per cell from the model's
closed-form dual start, and the entropies,
capacities and secrecy capacities are the package's own.

The oracle's minimal ratio also takes any secrecy slope, and
:func:`gaussian_slope` and :func:`binary_slope` give the slope at a Gaussian
power share beta or a binary time-sharing gamma. The package fixes the slope
at the secrecy capacity, their value at beta = 1 and gamma = 0; the tests
check that no other share gives a larger slope, and so no smaller ratio.
"""

from __future__ import annotations

import math

import numpy as np

from semsec.binary import SemanticSourceBinary, _dual_start
from semsec.errors import DomainError, InfeasibleError
from semsec.info import binary_entropy, star
from semsec.rdf import DiscreteSemanticSource, hamming_distortion, rdf_semantic_case2
from semsec.regions import DISABLED, MinRateResult


def _log2_plus(x):
    """max(0, log2 x); nonpositive arguments mean a slack constraint (0)."""
    if x <= 1.0:
        return 0.0
    return math.log2(x)


def gaussian_rdf_obs(src, target_u):
    if target_u <= 0.0:
        raise DomainError(f"distortion must be positive, got {target_u}")
    return 0.5 * _log2_plus(src.P_u / target_u)


def gaussian_rdf_sem(src, target_s, case):
    """Semantic-part RDF; case 1 is feasible only above (1 - rho^2) P_s."""
    if target_s <= 0.0:
        raise DomainError(f"distortion must be positive, got {target_s}")
    if case == 2:
        return 0.5 * _log2_plus(src.P_s / target_s)
    if case == 1:
        if target_s >= src.P_s:
            return 0.0
        floor = (1.0 - src.rho2) * src.P_s
        if target_s <= floor:
            raise InfeasibleError(f"semantic distortion {target_s} <= floor {floor}")
        return 0.5 * _log2_plus(src.rho2 * src.P_s / (target_s - floor))
    raise DomainError(f"case must be 1 or 2, got {case}")


def binary_rdf_obs(alpha, target_u):
    if target_u < 0.0:
        raise DomainError(f"distortion must be nonnegative, got {target_u}")
    if target_u <= alpha:
        return float(binary_entropy(alpha) - binary_entropy(target_u))
    return 0.0


def binary_rdf_sem(alpha, target_s, case):
    """Semantic-part RDF; +inf below case 1's floor alpha."""
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


def binary_rdf_joint(alpha, target_s, target_u, case):
    """Case 1: the larger marginal. Case 2: the dual bound of one solve of the
    2x2 joint, at the sorted pair, since the source is symmetric in (S, U),
    started where the model starts it."""
    if case == 1:
        return max(binary_rdf_obs(alpha, target_u), binary_rdf_sem(alpha, target_s, 1))
    ham = hamming_distortion(2)
    pair = sorted((float(target_s), float(target_u)))
    point = rdf_semantic_case2(DiscreteSemanticSource.doubly_symmetric(float(alpha)), ham, ham,
                               *pair, start=_dual_start(float(alpha), *pair))
    return max(float(point.dual_bound), 0.0)


def gaussian_rdf_joint(src, target_s, target_u, case):
    """Joint Gaussian RDF; case 2 selects among four regimes per cell."""
    if target_s <= 0.0 or target_u <= 0.0:
        raise DomainError("distortions must be positive")
    if case == 1:
        return max(
            gaussian_rdf_obs(src, target_u), gaussian_rdf_sem(src, target_s, 1)
        )
    if case != 2:
        raise DomainError(f"case must be 1 or 2, got {case}")
    ps, pu, rho2 = src.P_s, src.P_u, src.rho2
    det_k = max(src.det_k, 0.0)
    dhs = max(ps - target_s, 0.0)
    dhu = max(pu - target_u, 0.0)
    if dhs > 0.0 and rho2 * dhs * pu > dhu * ps:
        return 0.5 * _log2_plus(ps / target_s)
    if dhu > 0.0 and rho2 * dhu * ps >= dhs * pu:
        return 0.5 * _log2_plus(pu / target_u)
    if rho2 * ps * pu < dhs * dhu:
        return 0.5 * _log2_plus(det_k / (target_s * target_u))
    if dhs == 0.0 and dhu == 0.0:  # the trivial scheme, exactly
        return 0.0
    corr = (math.sqrt(rho2 * ps * pu) - math.sqrt(dhs * dhu)) ** 2
    denom = target_s * target_u - corr
    if denom <= 0.0:
        raise DomainError(
            f"joint-RDF regime selection degenerate at ({target_s}, {target_u})"
        )
    return 0.5 * _log2_plus(det_k / denom)


def gaussian_regime(src, target_s, target_u):
    """Which of the four case-2 branches of :func:`gaussian_rdf_joint` a cell takes (1-4)."""
    ps, pu, rho2 = src.P_s, src.P_u, src.rho2
    dhs = max(ps - target_s, 0.0)
    dhu = max(pu - target_u, 0.0)
    if dhs > 0.0 and rho2 * dhs * pu > dhu * ps:
        return 1
    if dhu > 0.0 and rho2 * dhu * ps >= dhs * pu:
        return 2
    return 3 if rho2 * ps * pu < dhs * dhu else 4


def gaussian_slope(ch, beta):
    """Half the log-ratio gap between the legitimate and eavesdropper SNRs
    when a share ``beta`` of the power carries the secret; the secrecy
    capacity at beta = 1."""
    p_eff = beta * ch.P
    return 0.5 * (
        math.log2(1.0 + p_eff / ch.P_N1) - math.log2(1.0 + p_eff / ch.P_N)
    )


def binary_slope(ch, gamma):
    """H_b(gamma * eps_z) - H_b(gamma * eps1) in star-convolution notation;
    the secrecy capacity at gamma = 0."""
    p_z, p_y = star(gamma, ch.eps_z), star(gamma, ch.eps1)
    return float(binary_entropy(p_z) - binary_entropy(p_y))


def _gaussian_components(src, target_s, target_u, case):
    r_s = gaussian_rdf_sem(src, target_s, case)
    r_u = gaussian_rdf_obs(src, target_u)
    r_j = gaussian_rdf_joint(src, target_s, target_u, case)
    return r_j, (
        ("delta_s", src.h_s, r_s),
        ("delta_u", src.h_u, r_u),
        ("delta_su", src.h_su, r_j),
    )


def _binary_components(src, target_s, target_u, case):
    r_s = binary_rdf_sem(src.alpha, target_s, case)
    if math.isinf(r_s):
        raise InfeasibleError(f"semantic distortion {target_s} < alpha {src.alpha}")
    r_u = binary_rdf_obs(src.alpha, target_u)
    r_j = binary_rdf_joint(src.alpha, target_s, target_u, case)
    return r_j, (
        ("delta_s", 1.0, r_s),
        ("delta_u", binary_entropy(src.alpha), r_u),
        ("delta_su", binary_entropy(src.alpha) + 1.0, r_j),
    )


def min_ratio(r_joint, capacity, components, targets, slope, ceilings):
    """One cell: the rate bound and each unmet target's need over ``slope``.
    A target above its entropy in ``ceilings`` (a name-to-bits mapping) is
    never met."""
    if r_joint > 0.0 and capacity <= 0.0:
        return MinRateResult(None, False, reason="rate_infeasible")
    r_min = r_joint / capacity if r_joint > 0.0 else 0.0
    binding = "rate"
    for name, h_term, rdf in components:
        target = getattr(targets, name)
        if target == DISABLED:
            continue
        if target > ceilings[name]:
            return MinRateResult(None, False, reason=f"secrecy_infeasible_{name}")
        need = target - (targets.R_k + h_term - rdf)
        if need <= 0.0:
            continue  # already met at r = 0
        cand = need / slope if slope > 0.0 else math.inf
        if not math.isfinite(cand):
            return MinRateResult(None, False, reason=f"secrecy_infeasible_{name}")
        if cand > r_min:
            r_min = cand
            binding = name
    return MinRateResult(r_min, True, binding=binding)


def _min_r(components, src, ch, target_s, target_u, targets, case, slope):
    try:
        r_j, comps = components(src, target_s, target_u, case)
    except InfeasibleError:
        return MinRateResult(None, False, reason="distortion_infeasible")
    slope = ch.secrecy_capacity if slope is None else slope
    ceilings = {"delta_s": src.h_s, "delta_u": src.h_u, "delta_su": src.h_su}
    return min_ratio(r_j, ch.capacity_main, comps, targets, slope, ceilings)


def converse_min_r(src, ch, target_s, target_u, targets, case=2, slope=None):
    """The Gaussian minimal ratio at ``slope`` (the secrecy capacity if None)."""
    return _min_r(_gaussian_components, src, ch, target_s, target_u, targets, case, slope)


def binary_min_r(src, ch, target_s, target_u, targets, case=2, slope=None):
    """The binary minimal ratio at ``slope`` (the secrecy capacity if None)."""
    return _min_r(_binary_components, src, ch, target_s, target_u, targets, case, slope)


def converse_surface(src, ch, targets, case, d_s_grid, d_u_grid):
    """(values, feasible) of the surface, one ``min_r`` call per cell."""
    min_r = binary_min_r if isinstance(src, SemanticSourceBinary) else converse_min_r
    d_s_grid = np.asarray(d_s_grid, dtype=float)
    d_u_grid = np.asarray(d_u_grid, dtype=float)
    values = np.full((len(d_s_grid), len(d_u_grid)), np.nan)
    for i, d_s in enumerate(d_s_grid.tolist()):
        for j, d_u in enumerate(d_u_grid.tolist()):
            res = min_r(src, ch, d_s, d_u, targets, case=case)
            if res.feasible:
                values[i, j] = res.r_min
    return values, ~np.isnan(values)
