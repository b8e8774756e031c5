"""The shared converse routine over the parameter space of both models.

Both models run in both encoder cases. Binary case 2 runs the numeric
two-constraint solver once per distinct cell of a call, and a solve that
did not converge to a 1e-6 gap fails the test. Surfaces,
scattered point sets, scalar-by-array rows and the scalar minimal ratios,
all one evaluator at different shapes, are checked bit for bit against the
per-cell oracle in ``converse_oracle``.
"""

import math
from dataclasses import replace

import converse_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semsec import (
    DISABLED,
    DomainError,
    EquivocationTargets,
    MinRateResult,
    SemanticSourceBinary,
    SemanticSourceGaussian,
    WiretapChannelBinary,
    WiretapChannelGaussian,
    binary_min_r,
    converse_min_r,
    converse_surface,
    delta_s_curve,
    equivocation_caps,
    min_ratio,
)
from semsec.cli import main
from semsec.regions import REASONS

NAMES = ("delta_s", "delta_u", "delta_su")
PROPERTY = settings(max_examples=150, deadline=None)
pytestmark = pytest.mark.filterwarnings("error:RDF solve at targets:RuntimeWarning")

unit = st.floats(0.05, 0.95)
target = st.one_of(st.just(DISABLED), st.floats(-1.0, 4.0))
targets = st.builds(EquivocationTargets, target, target, target, st.floats(0.0, 1.0))


@st.composite
def gaussian_points(draw):
    p_s, p_u = draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0))
    rho = draw(st.floats(-0.95, 0.95))
    src = SemanticSourceGaussian(p_s, p_u, rho * math.sqrt(p_s * p_u))
    ch = WiretapChannelGaussian(
        draw(st.floats(0.2, 3.0)), draw(st.floats(0.05, 1.0)), draw(sometimes(0.0, 1.0))
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


MODELS = {
    "gaussian": (converse_min_r, gaussian_points(), (1, 2)),
    "binary": (binary_min_r, binary_points(), (1, 2)),
}


def _draw(data, model):
    min_r, points, cases = MODELS[model]
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
    r_j, comps, _ = src.rdf_components(d_s, d_u, case)
    slope = ch.secrecy_capacity
    ceilings = {"delta_s": src.h_s, "delta_u": src.h_u, "delta_su": src.h_su}
    cands = {"rate": float(r_j) / ch.capacity_main if r_j > 0.0 else 0.0}
    unreachable = []  # above its entropy, or needing an unbounded ratio
    for name, h_term, rdf in comps:
        target = getattr(tg, name)
        if target == DISABLED:
            continue
        need = target - (tg.R_k + h_term - float(rdf))
        if target > ceilings[name]:
            unreachable.append(name)
        elif need > 0.0:
            cands[name] = need / slope if slope > 0.0 else math.inf
            if not math.isfinite(cands[name]):
                unreachable.append(name)
    if unreachable:
        assert not res.feasible
        assert res.reason == f"secrecy_infeasible_{unreachable[0]}"
        return
    assert res.feasible
    assert res.r_min == max(cands.values())
    assert cands[res.binding] == res.r_min


@pytest.mark.parametrize("model", sorted(MODELS))
@PROPERTY
@given(data=st.data())
def test_caps_at_the_minimal_ratio_meet_the_targets(model, data):
    # The two converse routines agree: at a feasible minimal ratio the
    # clamped caps meet every enabled target, and just below it the binding
    # target is missed.
    min_r, src, ch, d_s, d_u, tg, case = _draw(data, model)
    res = min_r(src, ch, d_s, d_u, tg, case=case)
    if not res.feasible:
        return
    caps = equivocation_caps(src, ch, d_s, d_u, r=res.r_min, R_k=tg.R_k, case=case)
    for name in NAMES:
        if getattr(tg, name) != DISABLED:
            assert getattr(caps, name) >= getattr(tg, name) - 1e-9
    if res.binding != "rate":
        below = equivocation_caps(src, ch, d_s, d_u, r=res.r_min * (1.0 - 1e-6), R_k=tg.R_k,
                                  case=case)
        assert getattr(below, res.binding) < getattr(tg, res.binding)


#: model: (oracle slope at a split, the split where it is the secrecy
#: capacity, the oracle's minimal ratio at a given slope)
SPLITS = {
    "gaussian": (oracle.gaussian_slope, 1.0, oracle.converse_min_r),
    "binary": (oracle.binary_slope, 0.0, oracle.binary_min_r),
}


@pytest.mark.parametrize("model", sorted(SPLITS))
@PROPERTY
@given(data=st.data())
def test_no_split_beats_the_secrecy_capacity(model, data):
    # Why the converse takes no power share or time-sharing parameter: no
    # split has a larger secrecy slope than the channel's secrecy capacity,
    # so none gives a smaller minimal ratio; any other is no lower bound.
    min_r, src, ch, d_s, d_u, tg, case = _draw(data, model)
    slope_at, extreme, oracle_min_r = SPLITS[model]
    bits = np.array([slope_at(ch, extreme), ch.secrecy_capacity]).view(np.int64)
    assert bits[0] == bits[1]
    slope = slope_at(ch, data.draw(st.floats(0.0, 1.0)))
    # Each slope carries a few ulps of rounding from its log terms, so next to
    # the extreme split (beta = 1 - 2**-53, or gamma = 1, where H_b(1 - x)
    # meets H_b(x)) the oracle can exceed the capacity by that much.
    assert slope <= ch.secrecy_capacity + 16 * math.ulp(max(ch.capacity_main, 1.0))
    slope = min(slope, ch.secrecy_capacity)
    ours = min_r(src, ch, d_s, d_u, tg, case=case)
    split = oracle_min_r(src, ch, d_s, d_u, tg, case=case, slope=slope)
    if not ours.feasible:
        assert not split.feasible
    if split.feasible:
        assert split.r_min >= ours.r_min


def test_slope_is_evaluated_only_for_unmet_targets():
    class Channel:
        capacity_main = 2.0

        @property
        def secrecy_capacity(self):
            raise AssertionError("secrecy capacity read")

    class Source:
        h_s = h_u = 1.0
        h_su = 2.0

        def rdf_components(self, d_s, d_u, case):
            # One RDF value, d_s, for every component; blocked where infinite.
            rdf = np.array([[d_s]])
            comps = (("delta_s", 1.0, rdf), ("delta_u", 1.0, rdf), ("delta_su", 2.0, rdf))
            return rdf, comps, np.isinf(rdf)

    met = EquivocationTargets(0.5, DISABLED, 1.0)
    res = min_ratio(Source(), Channel(), met, 0.5, 0.6, 2).cell(0, 0)
    assert res.feasible and res.r_min == 0.25 and res.binding == "rate"
    # An unmet target on a cell out of the encoder's reach is never priced.
    unmet = EquivocationTargets(3.0, DISABLED, DISABLED)
    res = min_ratio(Source(), Channel(), unmet, np.inf, 0.6, 1).cell(0, 0)
    assert res.reason == "distortion_infeasible"


def _gaussian_caps(**rates):
    return equivocation_caps(SemanticSourceGaussian(0.7, 1.0, 0.6),
                             WiretapChannelGaussian(1.0, 0.1, 0.4), 0.5, 0.6, **rates)


def _gaussian_caps_no_leak(**rates):
    # P_N2 = 0: a zero secrecy capacity, so an infinite r would give inf * 0.
    return equivocation_caps(SemanticSourceGaussian(0.7, 1.0, 0.6),
                             WiretapChannelGaussian(1.0, 0.1, 0.0), 0.5, 0.6, **rates)


def _binary_caps(**rates):
    return equivocation_caps(SemanticSourceBinary(0.25), WiretapChannelBinary(0.1, 0.3),
                             0.3, 0.25, case=1, **rates)


def _binary_curve(**rates):
    return delta_s_curve(SemanticSourceBinary(0.25), WiretapChannelBinary(0.1, 0.3), case=1,
                         **rates)


@pytest.mark.parametrize("entry", [_gaussian_caps, _gaussian_caps_no_leak, _binary_caps,
                                   _binary_curve], ids=lambda f: f.__name__.lstrip("_"))
@pytest.mark.parametrize("name", ("r", "R_k"))
@pytest.mark.parametrize("bad", (math.nan, math.inf, -1.0), ids=("nan", "inf", "negative"))
def test_rates_must_be_finite_and_nonnegative(entry, name, bad):
    rates = {"r": 1.0, "R_k": 0.0, name: bad}
    with pytest.raises(DomainError, match="must be finite and nonnegative"):
        entry(**rates)


def test_overflowing_secrecy_ratio_is_infeasible():
    # A subnormal secrecy slope makes need / slope overflow to +inf.
    res = binary_min_r(
        SemanticSourceBinary(0.25), WiretapChannelBinary(0.0, 5e-324), 0.4, 0.275,
        EquivocationTargets(DISABLED, DISABLED, 2.0), case=1,
    )
    assert not res.feasible
    assert res.reason == "secrecy_infeasible_delta_su"


# ---------------------------------------------------------------------------
# grid-at-once surfaces against the per-cell oracle
# ---------------------------------------------------------------------------

scale = st.lists(st.floats(0.005, 1.3), max_size=4)


def sometimes(edge, other):
    """``edge`` in one draw of five (a zero secrecy slope or capacity),
    otherwise a float between ``edge`` and ``other``."""
    return st.one_of(st.just(edge), *[st.floats(min(edge, other), max(edge, other))] * 4)


@st.composite
def gaussian_grids(draw):
    """A source, a channel and a grid whose anchors hit every case-2 regime,
    straddle the case-1 floor and reach past P_s and P_u."""
    p_s, p_u = draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0))
    src = SemanticSourceGaussian(p_s, p_u, draw(st.floats(-0.95, 0.95)) * math.sqrt(p_s * p_u))
    ch = WiretapChannelGaussian(
        draw(st.floats(0.2, 3.0)), draw(st.floats(0.05, 1.0)), draw(sometimes(0.0, 1.0))
    )
    floor = (1.0 - src.rho2) * p_s
    mid = 1.0 - 0.9 * math.sqrt(src.rho2)  # both deficits at 0.9 rho: the fourth regime
    d_s = [0.01 * p_s, mid * p_s, 1.1 * p_s, floor, math.nextafter(floor, 0.0),
           math.nextafter(floor, 2.0 * floor)] + [p_s * x for x in draw(scale)]
    d_u = [0.01 * p_u, mid * p_u, 1.1 * p_u] + [p_u * x for x in draw(scale)]
    return src, ch, draw(st.permutations(d_s)), draw(st.permutations(d_u))


@st.composite
def binary_grids(draw):
    """A source, a channel and a grid that straddles the case-1 floor alpha
    and reaches past 1/2."""
    alpha = draw(st.floats(0.02, 0.45))
    src = SemanticSourceBinary(alpha)
    ch = WiretapChannelBinary(draw(sometimes(0.5, 0.0)), draw(sometimes(0.0, 0.5)))
    d_s = [alpha, math.nextafter(alpha, 0.0), 0.5, 0.55] + [0.5 * x for x in draw(scale)[:2]]
    d_u = [0.55] + [0.5 * x for x in draw(scale)[:2]]
    return src, ch, draw(st.permutations(d_s)), draw(st.permutations(d_u))


#: model: (grids, scalar minimal ratio, its oracle)
GRIDS = {
    "gaussian": (gaussian_grids(), converse_min_r, oracle.converse_min_r),
    "binary": (binary_grids(), binary_min_r, oracle.binary_min_r),
}


def _check_cells(src, ch, tg, case, d_s, d_u, cells):
    """The evaluator at broadcastable ``d_s`` and ``d_u`` against the oracle's
    ``cells``: r_min bit for bit, equal reason codes and equal verdicts."""
    got = min_ratio(src, ch, tg, d_s, d_u, case)
    a, b = np.broadcast_arrays(d_s, d_u)
    want = [cells[t_s, t_u] for t_s, t_u in zip(a.ravel().tolist(), b.ravel().tolist())]
    r_want = np.reshape([np.nan if w.r_min is None else w.r_min for w in want], a.shape)
    np.testing.assert_array_equal(got.r_min.view(np.int64), r_want.view(np.int64))
    np.testing.assert_array_equal(got.reason, np.reshape([REASONS.index(w.reason) for w in want],
                                                         a.shape))
    assert [got.cell(*index) for index in np.ndindex(a.shape)] == want


def _check_against_oracle(model, data):
    points, min_r, oracle_min_r = GRIDS[model]
    src, ch, d_s, d_u = data.draw(points)
    tg, case = data.draw(targets), data.draw(st.sampled_from((1, 2)))
    got = converse_surface(src, ch, tg, case, d_s, d_u)
    want, feasible = oracle.converse_surface(src, ch, tg, case, d_s, d_u)
    np.testing.assert_array_equal(got.feasible, feasible)
    np.testing.assert_array_equal(got.values.view(np.int64), want.view(np.int64))
    cells = {}
    for t_s in d_s:
        for t_u in d_u:
            res = min_r(src, ch, t_s, t_u, tg, case=case)
            cells[t_s, t_u] = oracle_min_r(src, ch, t_s, t_u, tg, case=case)
            assert res == cells[t_s, t_u]
    # The grid straddles the case-1 floor.
    blocked = {res.reason == "distortion_infeasible" for res in cells.values()}
    assert blocked == ({False, True} if case == 1 else {False})
    # Scattered points (k,) x (k,), and one scalar against a whole axis.
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(d_s), st.sampled_from(d_u)),
                               min_size=1, max_size=16))
    _check_cells(src, ch, tg, case, *np.array(pairs).T, cells)
    _check_cells(src, ch, tg, case, data.draw(st.sampled_from(d_s)), np.array(d_u), cells)
    _check_cells(src, ch, tg, case, np.array(d_s), data.draw(st.sampled_from(d_u)), cells)
    return src, case, d_s, d_u


@PROPERTY
@given(data=st.data())
def test_gaussian_surface_matches_the_per_cell_oracle(data):
    src, case, d_s, d_u = _check_against_oracle("gaussian", data)
    if case == 2 and src.rho2 >= 1e-3:
        regimes = {oracle.gaussian_regime(src, t_s, t_u) for t_s in d_s for t_u in d_u}
        assert regimes == {1, 2, 3, 4}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_binary_surface_matches_the_per_cell_oracle(data):
    _check_against_oracle("binary", data)


@pytest.mark.parametrize("model, case", [("gaussian", 1), ("gaussian", 2), ("binary", 1)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_r_min_never_rises_with_distortion(model, case, data):
    # Binary case 2 is left out: its cells are numerical solves. The grid's
    # anchors include neighbouring floats, where the Gaussian case-2 ratio
    # can rise by an ulp (2.1330055343418070 -> ...075 as D_s steps by one
    # ulp past 0.3398), hence the 1e-12 relative slack. The extra points
    # stay above 1e-150 of the range: below about 1e-154 a Gaussian cell's
    # D_s D_u underflows and the closed forms overflow, which raises.
    src, ch, d_s, d_u = data.draw(GRIDS[model][0])
    extra = [st.lists(st.floats(1e-150 * hi, 1.2 * hi), max_size=20)
             for hi in src.distortion_range]
    d_s, d_u = (np.sort(axis + data.draw(more)) for axis, more in zip((d_s, d_u), extra))
    r = min_ratio(src, ch, data.draw(targets), d_s[:, None], d_u[None, :], case).r_min
    r = np.where(np.isnan(r), np.inf, r)  # an infeasible cell needs more than any ratio
    assert (r[1:] <= r[:-1] * (1 + 1e-12) + 1e-12).all()
    assert (r[:, 1:] <= r[:, :-1] * (1 + 1e-12) + 1e-12).all()


@pytest.mark.parametrize("case", (1, 2))
@PROPERTY
@given(data=st.data())
def test_gaussian_trivial_scheme_meets_every_target_at_r_0(case, data):
    # At D >= (P_s, P_u) nothing need be sent, so every RDF is exactly 0 and
    # every target at or below its ceiling is met at r = 0. (P_s, P_u) itself
    # is drawn on purpose: there the fourth regime's form rounds to 1 + ulp.
    src, ch, _, _ = data.draw(gaussian_points())
    past = st.one_of(st.just(1.0), st.floats(1.0, 4.0))
    d_s, d_u = src.P_s * data.draw(past), src.P_u * data.draw(past)
    tg = EquivocationTargets(*(data.draw(st.one_of(st.just(DISABLED), st.just(ceiling),
                                                   st.floats(-5.0, ceiling)))
                               for ceiling in (src.h_s, src.h_u, src.h_su)),
                             data.draw(st.floats(0.0, 1.0)))
    assert src.rdf_components(d_s, d_u, case)[0] == 0.0
    assert min_ratio(src, ch, tg, d_s, d_u, case).cell() == MinRateResult(0.0, True,
                                                                           binding="rate")


def test_gaussian_joint_rdf_at_the_variances_is_exactly_0():
    # Both deficits are 0 here, and on this source the fourth regime's form
    # rounds to 1 + ulp, whose half log2 is 1.6e-16.
    src = SemanticSourceGaussian(0.7, 1.0, 0.6)
    assert [src.rdf_components(0.7, 1.0, case)[0] for case in (1, 2)] == [0.0, 0.0]


def test_gaussian_joint_rdf_keeps_libm_bits():
    # On this grid numpy's log2 and x * x differ from libm's log2 and pow in
    # the last bit on some regime-3 and regime-4 cells; the grid must not.
    src = SemanticSourceGaussian(1.3, 0.9, 0.7)
    d = np.linspace(0.01, 1.4, 300)
    got = src.rdf_components(d[:, None], d[None, :], 2)[0]
    want = [[oracle.gaussian_rdf_joint(src, t_s, t_u, 2) for t_u in d.tolist()]
            for t_s in d.tolist()]
    np.testing.assert_array_equal(got.view(np.int64), np.array(want).view(np.int64))


BAD_DISTORTIONS = pytest.mark.parametrize("bad", (math.nan, math.inf, -1.0),
                                          ids=("nan", "inf", "negative"))
#: model: (source, channel, a valid distortion pair, scalar minimal ratio)
VALID = {
    "gaussian": (SemanticSourceGaussian(0.7, 1.0, 0.6), WiretapChannelGaussian(1.0, 0.1, 0.4),
                 (0.5, 0.6), converse_min_r),
    "binary": (SemanticSourceBinary(0.25), WiretapChannelBinary(0.1, 0.3), (0.3, 0.25),
               binary_min_r),
}


@pytest.mark.parametrize("model", sorted(VALID))
@pytest.mark.parametrize("case", (1, 2))
@pytest.mark.parametrize("axis", (0, 1), ids=("d_s", "d_u"))
@BAD_DISTORTIONS
def test_distortions_must_be_finite(model, case, axis, bad):
    # NaN once gave a feasible ratio of 0 and +inf a LAPACK failure in the
    # binary case-2 solve; a negative distortion is out of the domain too.
    src, ch, pair, min_r = VALID[model]
    tg = EquivocationTargets.no_secrecy()
    point = list(pair)
    point[axis] = bad
    with pytest.raises(DomainError, match="distortions must be finite"):
        min_r(src, ch, *point, tg, case=case)
    arrays = [np.full(3, d) for d in pair]
    arrays[axis][1] = bad
    with pytest.raises(DomainError, match="distortions must be finite"):
        src.rdf_components(*arrays, case)


@pytest.mark.parametrize("model", sorted(VALID))
@pytest.mark.parametrize("case", (1, 2))
@BAD_DISTORTIONS
def test_rdf_command_rejects_a_bad_distortion(model, case, bad, capsys):
    argv = ["rdf", "--model", model, "--case", str(case), f"--d-s={VALID[model][2][0]}",
            f"--d-u={bad}"]
    assert main(argv) == 2
    assert "distortions must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("model, target", [("binary", 1.5), ("gaussian", 3.0)])
def test_target_above_the_entropy_is_infeasible(model, target):
    # H(S) is 1 bit for the binary source and 1.79 bits for the Gaussian
    # one; no channel-use ratio gives more equivocation than that.
    src, ch, (d_s, d_u), min_r = VALID[model]
    res = min_r(src, ch, d_s, d_u, EquivocationTargets(target, DISABLED, DISABLED), case=1)
    assert not res.feasible
    assert res.reason == "secrecy_infeasible_delta_s"
    assert equivocation_caps(src, ch, d_s, d_u, r=100.0, case=1).delta_s == src.h_s


@pytest.mark.parametrize("model", sorted(VALID))
def test_caps_take_one_cell(model):
    src, ch, (d_s, d_u), _ = VALID[model]
    for pair in ((np.array([d_s, d_s]), d_u), (d_s, np.array([d_u]))):
        with pytest.raises(DomainError, match="one cell"):
            equivocation_caps(src, ch, *pair, r=1.0)
