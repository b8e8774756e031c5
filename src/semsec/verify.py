"""Fast self-checks: a machine-readable smoke report over every module.

Each check recomputes a quantity with known value or a structural property
(sandwich ordering, determinism, nonnegativity) and reports pass/fail with
a one-line detail. The whole battery is designed to run in a few seconds;
it is exposed as the ``verify`` CLI subcommand.
"""

from __future__ import annotations

import math

import numpy as np

from .binary import (
    SemanticSourceBinary,
    WiretapChannelBinary,
    binary_min_r,
    delta_s_curve,
)
from .errors import InfeasibleError
from .gaussian import (
    SemanticSourceGaussian,
    WiretapChannelGaussian,
    converse_min_r,
    draw_inner_samples,
    gaussian_rdf_joint,
    gaussian_rdf_sem,
)
from .info import Pmf, appendix_inequality_slack, binary_entropy, star
from .rdf import DiscreteSemanticSource, hamming_distortion
from .regions import DISABLED, EquivocationTargets, min_ratio

__all__ = ["run_verification"]


def _check(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


def _spot_values():
    checks = []
    hb = binary_entropy(0.25)
    checks.append(_check(
        "binary-entropy-quarter", abs(hb - 0.8112781244591328) < 1e-12,
        f"H_b(0.25) = {hb:.12f}",
    ))
    s = star(0.1, 0.3)
    checks.append(_check(
        "star-convolution", abs(s - 0.34) < 1e-15, f"0.1 * 0.3 (star) = {s}",
    ))
    ch = WiretapChannelGaussian(1.0, 0.1, 0.4)
    checks.append(_check(
        "gaussian-main-capacity", abs(ch.capacity_main - 1.7297158093186) < 1e-10,
        f"C_main = {ch.capacity_main:.10f}",
    ))
    cs1 = ch.secrecy_capacity
    checks.append(_check(
        "gaussian-secrecy-term", abs(cs1 - 0.9372345589580706) < 1e-10,
        f"secrecy capacity: {cs1:.10f}",
    ))
    src = SemanticSourceGaussian(0.7, 1.0, 0.6)
    floor = (1.0 - src.rho2) * src.P_s
    checks.append(_check(
        "case1-distortion-floor", abs(floor - 0.34) < 1e-12,
        f"(1 - rho^2) P_s = {floor:.12f}",
    ))
    rj = gaussian_rdf_joint(src, 0.5, 0.6, 2)
    checks.append(_check(
        "gaussian-joint-rdf", abs(rj - 0.3848939535930074) < 1e-10,
        f"joint RDF at (0.5, 0.6) = {rj:.10f}",
    ))
    return checks


def _converse_checks():
    checks = []
    src = SemanticSourceGaussian(0.7, 1.0, 0.6)
    ch = WiretapChannelGaussian(1.0, 0.1, 0.4)
    tg = EquivocationTargets(src.h_s, float("-inf"), src.h_s)
    res = converse_min_r(src, ch, 0.5, 0.6, tg, case=2)
    ok = res.feasible and abs(res.r_min - 0.2589676311711626) < 1e-10
    checks.append(_check(
        "gaussian-converse-min-r", ok,
        f"semantic-secrecy minimal ratio at (0.5, 0.6): "
        f"{res.r_min if res.feasible else res.reason}",
    ))
    try:
        infeasible = converse_min_r(src, ch, 0.2, 0.6, tg, case=1)
        ok = not infeasible.feasible
    except Exception:  # pragma: no cover - a raise would be a bug
        ok = False
    checks.append(_check(
        "case1-floor-infeasible", ok,
        "distortion below the restricted-encoder floor reports infeasible",
    ))
    try:
        gaussian_rdf_sem(src, 0.2, 1)
        raised = False
    except InfeasibleError:
        raised = True
    checks.append(_check(
        "case1-floor-raises", raised,
        "semantic RDF below the floor raises",
    ))
    return checks


def _discrete_checks():
    checks = []
    src = DiscreteSemanticSource.doubly_symmetric(0.25)
    d = hamming_distortion(2)
    from .rdf import rdf_semantic_case2

    point = rdf_semantic_case2(src, d, d, 0.3, 0.25)
    ok = abs(point.rate - 0.215816) < 5e-3
    checks.append(_check(
        "two-constraint-solver", ok,
        f"doubly symmetric joint rate at (0.3, 0.25): {point.rate:.6f}",
    ))
    return checks


def _inner_checks():
    checks = []
    src = SemanticSourceGaussian(0.7, 1.0, 0.6)
    ch = WiretapChannelGaussian(1.0, 0.1, 0.4)
    tg = EquivocationTargets.no_secrecy()
    out = draw_inner_samples(src, ch, tg, 2, 2000, 77)
    acc = out["accepted"]
    checks.append(_check(
        "inner-scan-acceptance", acc.any(),
        f"{int(acc.sum())} of {len(acc)} draws accepted",
    ))
    lower = min_ratio(ch, tg, *src.rdf_components(out["d_s"][acc], out["d_u"][acc], 2))
    gap = lower.r_min - out["r"][acc]
    worst = float(np.max(gap, initial=0.0))
    ok = bool(lower.feasible.all()) and worst <= 1e-6
    checks.append(_check(
        "inner-sandwich", ok,
        f"worst converse-minus-inner gap {worst:.3e} (must stay below 1e-6)",
    ))
    again = draw_inner_samples(src, ch, tg, 2, 2000, 77)
    same = (
        np.array_equal(out["d_s"], again["d_s"])
        and np.array_equal(out["r"], again["r"], equal_nan=True)
    )
    checks.append(_check(
        "inner-scan-deterministic", same,
        "same seed reproduces identical draws",
    ))
    return checks


def _binary_checks():
    checks = []
    src = SemanticSourceBinary(0.25)
    ch = WiretapChannelBinary(0.1, 0.3)
    slope = ch.secrecy_capacity
    checks.append(_check(
        "binary-secrecy-term", abs(slope - 0.4558231113837489) < 1e-12,
        f"secrecy capacity: {slope:.10f}",
    ))
    res = binary_min_r(
        src, ch, 0.3, 0.25, EquivocationTargets(1.0, DISABLED, DISABLED), case=1
    )
    ok = (res.feasible and res.binding == "delta_s"
          and abs(res.r_min - 1.1649352416527126) < 1e-10)
    checks.append(_check(
        "binary-converse-min-r", ok,
        f"semantic-secrecy minimal ratio at (0.3, 0.25), case 1: "
        f"{res.r_min if res.feasible else res.reason} (binding {res.binding})",
    ))
    grid = np.linspace(0.26, 0.5, 60)
    low = delta_s_curve(src, ch, r=1.0, R_k=0.0, case=1, d_s_grid=grid)
    high = delta_s_curve(src, ch, r=1.0, R_k=0.1, case=1, d_s_grid=grid)
    shift = np.max(np.abs((high.raw - low.raw) - 0.1))
    mono = np.all(np.diff(low.raw) >= -1e-12)
    flat = True
    if low.d_s_star is not None:
        sel = low.d_s >= low.d_s_star
        flat = np.all(low.delta_s_max[sel] == 1.0)
    checks.append(_check(
        "binary-curve-structure", bool(mono and flat and shift < 1e-12),
        f"monotone={bool(mono)}, saturated-flat={bool(flat)}, "
        f"key-rate shift error={shift:.2e}",
    ))
    return checks


def _appendix_checks():
    rng = np.random.default_rng(11)
    worst = math.inf
    for _ in range(50):
        p = Pmf(rng.dirichlet(np.ones(32)), shape=(2, 2, 2, 2, 2))
        worst = min(worst, appendix_inequality_slack(p))
    return [_check(
        "appendix-inequality", worst >= -1e-9,
        f"minimal slack over 50 random joints: {worst:.3e}",
    )]


def run_verification() -> dict:
    """Run the full smoke battery; returns a machine-readable report."""
    checks = []
    for battery in (
        _spot_values,
        _converse_checks,
        _discrete_checks,
        _binary_checks,
        _appendix_checks,
        _inner_checks,
    ):
        checks.extend(battery())
    return {
        "passed": all(c["passed"] for c in checks),
        "n_checks": len(checks),
        "n_failed": sum(not c["passed"] for c in checks),
        "checks": checks,
    }
