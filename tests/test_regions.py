"""The shared converse routine over the parameter space of both models.

Gaussian points run in both encoder cases; binary points run in case 1
only, where every rate-distortion value is closed-form (case 2 would call
the numeric solver per example).
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semsec import (
    DISABLED,
    EquivocationTargets,
    SemanticSourceBinary,
    SemanticSourceGaussian,
    WiretapChannelBinary,
    WiretapChannelGaussian,
    binary_min_r,
    binary_rdf_joint,
    binary_rdf_obs,
    binary_rdf_sem,
    binary_secrecy_term,
    converse_min_r,
    gaussian_rdf_joint,
    gaussian_rdf_obs,
    gaussian_rdf_sem,
    secrecy_term,
)
from semsec.regions import min_ratio

NAMES = ("delta_s", "delta_u", "delta_su")
PROPERTY = settings(max_examples=150, deadline=None)

unit = st.floats(0.05, 0.95)
target = st.one_of(st.just(DISABLED), st.floats(-1.0, 4.0))
targets = st.builds(EquivocationTargets, target, target, target, st.floats(0.0, 1.0))


@st.composite
def gaussian_points(draw):
    p_s, p_u = draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0))
    rho = draw(st.floats(-0.95, 0.95))
    src = SemanticSourceGaussian(p_s, p_u, rho * math.sqrt(p_s * p_u))
    ch = WiretapChannelGaussian(
        draw(st.floats(0.2, 3.0)), draw(st.floats(0.05, 1.0)), draw(st.floats(0.0, 1.0))
    )
    floor = (1.0 - src.rho2) * p_s
    d_s = floor + (1.2 * p_s - floor) * draw(unit)
    d_u = 1.2 * p_u * draw(unit)
    return src, ch, d_s, d_u


@st.composite
def binary_points(draw):
    alpha = draw(st.floats(0.02, 0.45))
    src = SemanticSourceBinary(alpha)
    ch = WiretapChannelBinary(draw(st.floats(0.0, 0.45)), draw(st.floats(0.0, 0.5)))
    d_s = alpha + (0.55 - alpha) * draw(unit)
    d_u = 0.55 * draw(unit)
    return src, ch, d_s, d_u


def _gaussian_terms(src, ch, d_s, d_u, case):
    """(joint RDF, capacity, slope, {name: (entropy term, RDF)}) at default betas."""
    r_j = gaussian_rdf_joint(src, d_s, d_u, case)
    comps = {
        "delta_s": (src.h_s, gaussian_rdf_sem(src, d_s, case)),
        "delta_u": (src.h_u, gaussian_rdf_obs(src, d_u)),
        "delta_su": (src.h_su, r_j),
    }
    return r_j, ch.capacity_main, secrecy_term(ch, 1.0), comps


def _binary_terms(src, ch, d_s, d_u, case):
    """(joint RDF, capacity, slope, {name: (entropy term, RDF)}) at default gammas."""
    r_j = binary_rdf_joint(src.alpha, d_s, d_u, case)
    comps = {
        "delta_s": (1.0, binary_rdf_sem(src.alpha, d_s, case)),
        "delta_u": (src.h_alpha, binary_rdf_obs(src.alpha, d_u)),
        "delta_su": (src.h_alpha + 1.0, r_j),
    }
    return r_j, ch.capacity_main, binary_secrecy_term(ch, 0.0), comps


MODELS = {
    "gaussian": (converse_min_r, gaussian_points(), (1, 2), _gaussian_terms),
    "binary": (binary_min_r, binary_points(), (1,), _binary_terms),
}


def _draw(data, model):
    min_r, points, cases, _ = MODELS[model]
    src, ch, d_s, d_u = data.draw(points)
    return min_r, src, ch, d_s, d_u, data.draw(targets), data.draw(st.sampled_from(cases))


@PROPERTY
@given(point=gaussian_points(), tg=targets)
def test_case2_never_needs_more_than_case1(point, tg):
    src, ch, d_s, d_u = point
    r1 = converse_min_r(src, ch, d_s, d_u, tg, case=1)
    r2 = converse_min_r(src, ch, d_s, d_u, tg, case=2)
    if r1.feasible:
        assert r2.feasible
        assert r2.r_min <= r1.r_min + 1e-9


@pytest.mark.parametrize("model", sorted(MODELS))
@PROPERTY
@given(data=st.data())
def test_disabling_a_target_never_raises_r_min(model, data):
    min_r, src, ch, d_s, d_u, tg, case = _draw(data, model)
    full = min_r(src, ch, d_s, d_u, tg, case=case)
    for name in NAMES:
        fewer = min_r(src, ch, d_s, d_u, replace(tg, **{name: DISABLED}), case=case)
        if full.feasible:
            assert fewer.feasible
            assert fewer.r_min <= full.r_min


@pytest.mark.parametrize("model", sorted(MODELS))
@PROPERTY
@given(data=st.data())
def test_adding_key_rate_never_raises_r_min(model, data):
    min_r, src, ch, d_s, d_u, tg, case = _draw(data, model)
    extra = data.draw(st.floats(0.0, 2.0))
    base = min_r(src, ch, d_s, d_u, tg, case=case)
    keyed = min_r(src, ch, d_s, d_u, replace(tg, R_k=tg.R_k + extra), case=case)
    if base.feasible:
        assert keyed.feasible
        assert keyed.r_min <= base.r_min


@pytest.mark.parametrize("model", sorted(MODELS))
@PROPERTY
@given(data=st.data())
def test_binding_names_the_maximal_term(model, data):
    min_r, src, ch, d_s, d_u, tg, case = _draw(data, model)
    res = min_r(src, ch, d_s, d_u, tg, case=case)
    r_j, cap, slope, comps = MODELS[model][3](src, ch, d_s, d_u, case)
    cands = {"rate": r_j / cap if r_j > 0.0 else 0.0}
    unmet = []
    for name, (h_term, rdf) in comps.items():
        need = getattr(tg, name) - (tg.R_k + h_term - rdf)
        if getattr(tg, name) != DISABLED and need > 0.0:
            unmet.append(name)
            cands[name] = need / slope if slope > 0.0 else math.inf
    unbounded = [name for name in unmet if not math.isfinite(cands[name])]
    if unbounded:
        assert not res.feasible
        assert res.reason == f"secrecy_infeasible_{unbounded[0]}"
        return
    assert res.feasible
    assert res.r_min == max(cands.values())
    assert cands[res.binding] == res.r_min


def test_slope_is_evaluated_only_for_unmet_targets():
    def no_slope(split):
        raise AssertionError(f"slope evaluated at {split}")

    comps = (("delta_s", 1.0, 0.5, 0.0), ("delta_u", 1.0, 0.5, 0.0),
             ("delta_su", 2.0, 0.5, 0.0))
    met = EquivocationTargets(0.5, DISABLED, 1.0)
    res = min_ratio(0.5, 2.0, comps, met, no_slope)
    assert res.feasible and res.r_min == 0.25 and res.binding == "rate"


def test_overflowing_secrecy_ratio_is_infeasible():
    # A subnormal secrecy slope makes need / slope overflow to +inf.
    res = binary_min_r(
        SemanticSourceBinary(0.25), WiretapChannelBinary(0.0, 5e-324), 0.4, 0.275,
        EquivocationTargets(DISABLED, DISABLED, 2.0), case=1,
    )
    assert not res.feasible
    assert res.reason == "secrecy_infeasible_delta_su"
