"""Discrete rate-distortion machinery: solver oracles and properties."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from grid_oracle import brute_force_rdf
from nm_oracle import NelderMeadSolver, lp_channel_feasibility, lp_zero_rate_point

from semsec import binary, rdf
from semsec import (
    DiscreteSemanticSource,
    DistortionMatrix,
    DomainError,
    InfeasibleError,
    Pmf,
    RdfPoint,
    SemanticSourceBinary,
    TwoConstraintSolver,
    WiretapChannelBinary,
    binary_entropy,
    equivocation_caps,
    hamming_distortion,
    modified_distortion,
    rdf_classic,
    rdf_semantic_case1,
    rdf_semantic_case2,
)
from semsec.info import star
from semsec.rdf import (_SLACK, _ba_tilted, _case1_problem, _case2_problem, _channel_feasibility,
                        _dual_bound, _zero_rate_point)

# Frozen from the exhaustive grid search (resolution 6) on the doubly
# symmetric quarter-crossover source at Hamming targets (0.3, 0.25).
JOINT_CASE2_03_025 = 0.215816



def dsbs(alpha=0.25):
    return DiscreteSemanticSource.doubly_symmetric(alpha)


def binary_rdfs(alpha, d_s, d_u, case):
    """(R_s, R_u, R_joint, below the case-1 floor) of the binary source at one cell."""
    src = SemanticSourceBinary(alpha)
    r_j, ((_, _, r_s), (_, _, r_u), _), blocked = src.rdf_components(d_s, d_u, case)
    return float(r_s), float(r_u), float(r_j), bool(blocked)


class TestSourceAndDistortion:
    def test_doubly_symmetric_structure(self):
        src = dsbs(0.25)
        np.testing.assert_allclose(src.joint.marginal((0,)), [0.5, 0.5])
        np.testing.assert_allclose(src.marginal_u, [0.5, 0.5])
        np.testing.assert_allclose(
            src.joint.probs, [[0.375, 0.125], [0.125, 0.375]]
        )
        cond = src.p_s_given_u()
        np.testing.assert_allclose(cond.sum(axis=0), [1.0, 1.0])

    def test_zero_mass_symbols_change_no_rdf(self):
        # A source keeps its alphabet: a symbol of zero mass, with any
        # distortion row, leaves the rate and the dual bound of either case
        # as they are. 40 seeded joints of at most 3x3 with 2-letter
        # reconstructions, each padded with one zero-mass S row and U column.
        rng = np.random.default_rng(5)
        for _ in range(40):
            n_s, n_u = rng.integers(2, 4, size=2)
            joint = rng.dirichlet(np.ones(n_s * n_u)).reshape(n_s, n_u)
            d_s = rng.uniform(0.0, 1.0, size=(n_s + 1, 2))
            d_u = rng.uniform(0.0, 1.0, size=(n_u + 1, 2))
            targets = rng.uniform(0.0, 0.5, size=2)
            i, j = rng.integers(0, n_s + 1), rng.integers(0, n_u + 1)
            padded = np.insert(np.insert(joint, i, 0.0, axis=0), j, 0.0, axis=1)
            problems = ((joint, np.delete(d_s, i, axis=0), np.delete(d_u, j, axis=0)),
                        (padded, d_s, d_u))
            for solve in (rdf_semantic_case1, rdf_semantic_case2):
                points = []
                for probs, ds, du in problems:
                    src = DiscreteSemanticSource(Pmf(probs))
                    try:
                        points.append(solve(src, DistortionMatrix(ds), DistortionMatrix(du), *targets))
                    except InfeasibleError:
                        points.append(None)
                plain, pad = points
                if plain is None:
                    assert pad is None
                    continue
                assert abs(plain.rate - pad.rate) <= 1e-12
                assert abs(plain.dual_bound - pad.dual_bound) <= 1e-12
        # The padded source takes no matrix on the unpadded alphabet.
        short_s, short_u = DistortionMatrix(d_s[:-1]), DistortionMatrix(d_u[:-1])
        with pytest.raises(DomainError, match="d_s has"):
            rdf_semantic_case1(src, short_s, DistortionMatrix(d_u), *targets)
        with pytest.raises(DomainError, match="d_u has"):
            rdf_semantic_case2(src, DistortionMatrix(d_s), short_u, *targets)

    def test_supports_are_not_arguments(self):
        # A source is its joint pmf alone: no field names a kept alphabet.
        joint = Pmf(np.array([[0.5, 0.0], [0.0, 0.5]]))
        with pytest.raises(TypeError):
            DiscreteSemanticSource(joint, ("a", "b"), ("x", "y"))
        with pytest.raises(TypeError):
            DiscreteSemanticSource(joint, u_support=(0, 1))

    def test_hamming(self):
        d = hamming_distortion(2)
        np.testing.assert_allclose(d.entries, [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DomainError):
            DistortionMatrix(np.array([[-1.0, 0.0], [0.0, 1.0]]))

    def test_modified_distortion_is_affine_for_dsbs(self):
        src = dsbs(0.25)
        dhat = modified_distortion(src, hamming_distortion(2))
        np.testing.assert_allclose(
            dhat.entries, [[0.25, 0.75], [0.75, 0.25]], atol=1e-12
        )


class TestClassicRdf:
    @settings(max_examples=150, deadline=None)
    @given(a=st.floats(0.005, 0.5), frac=st.floats(0.0, 1.0))
    @example(a=0.25, frac=0.0)
    @example(a=0.25, frac=1.0)
    @example(a=0.125, frac=1.192092896e-07)
    def test_binary_closed_form(self, a, frac):
        # Bernoulli(a) under Hamming distortion: R(D) = h(a) - h(D) on [0, a].
        # At D = 1.49e-8 the ascent starts on the zero-rate kink, where the
        # Hessian estimate is near zero and the Newton step it gives lands
        # at a multiplier near 4e8, far past the optimum of 26.
        d = frac * a
        point = rdf_classic(np.array([1.0 - a, a]), hamming_distortion(2), d)
        expected = binary_entropy(a) - binary_entropy(d)
        assert point.converged
        assert point.dual_bound <= expected + 1e-12
        assert abs(point.rate - expected) <= 1e-6
        assert point.distortions[0] <= d + 1e-6
        assert point.dual_bound <= point.rate + 1e-6

    def test_zero_rate_region(self):
        p = np.array([0.75, 0.25])
        point = rdf_classic(p, hamming_distortion(2), 0.3)
        assert point.rate == 0.0

    def test_below_floor_raises(self):
        p = np.array([0.75, 0.25])
        with pytest.raises(InfeasibleError):
            rdf_classic(p, hamming_distortion(2), -0.01)

    @pytest.mark.parametrize("p", [[0.5, 0.6], [0.3, 0.3], [1.5, -0.5], [np.nan, 1.0],
                                   [[0.5, 0.0], [0.0, 0.5]]],
                             ids=("sum-above-1", "sum-below-1", "negative", "nan", "2-d"))
    def test_refuses_what_is_not_a_probability_vector(self, p):
        # Each of the first three used to return a rate without a warning.
        with pytest.raises(DomainError):
            rdf_classic(np.array(p), hamming_distortion(2), 0.1)

    def test_distortion_rows_must_match_the_alphabet(self):
        with pytest.raises(DomainError, match="inconsistent"):
            rdf_classic(np.array([0.25, 0.25, 0.5]), hamming_distortion(2), 0.1)

    def test_warns_when_the_solver_does_not_converge(self, monkeypatch):
        monkeypatch.setattr(rdf, "_BA_MAX_ITER", 2)
        with pytest.warns(RuntimeWarning, match=r"at targets \(0\.1, 0\.0\):.*gap"):
            point = rdf_classic(np.array([0.75, 0.25]), hamming_distortion(2), 0.1)
        assert not point.converged
        # Starved or not, the value is a certified lower bound.
        assert point.dual_bound <= binary_entropy(0.25) - binary_entropy(0.1) + 1e-12


class TestBaCore:
    def test_lagrangian_trace_nonincreasing(self, monkeypatch):
        # The per-iteration rate need not be monotone, but the alternating
        # minimization drives the Lagrangian down at every step. The iteration
        # is deterministic, so the run capped at k iterations ends on the
        # k-th iterate.
        p = np.array([0.3, 0.3, 0.4])
        rng = np.random.default_rng(5)
        tilt = 2.0 * rng.uniform(size=(3, 3))
        trace = []
        for k in range(1, 40):
            monkeypatch.setattr(rdf, "_BA_MAX_ITER", k)
            out = _ba_tilted(p, tilt)
            trace.append(out["rate"] + float((p[:, None] * out["w"] * tilt).sum()))
        assert out["iterations"] > 3
        assert np.all(np.diff(trace) <= 1e-10)

    def test_warm_start_at_the_fixed_point_stops_at_once(self):
        p = np.array([0.3, 0.3, 0.4])
        tilt = 2.0 * np.random.default_rng(5).uniform(size=(3, 3))
        cold = _ba_tilted(p, tilt)
        warm = _ba_tilted(p, tilt, q0=cold["q"])
        assert cold["converged"] and warm["converged"]
        assert warm["iterations"] == 1
        assert warm["rate"] == pytest.approx(cold["rate"], abs=1e-10)



class TestTwoConstraintSolver:
    def test_matches_classic_when_one_constraint_slack(self):
        src = dsbs(0.25)
        ham = hamming_distortion(2)
        point = rdf_semantic_case2(src, ham, ham, 0.15, 1.0)
        expected = 1.0 - binary_entropy(0.15)
        assert point.rate == pytest.approx(expected, abs=5e-3)

    def test_frozen_joint_oracle(self):
        point = rdf_semantic_case2(
            dsbs(0.25), hamming_distortion(2), hamming_distortion(2), 0.3, 0.25
        )
        assert point.rate == pytest.approx(JOINT_CASE2_03_025, abs=1e-3)
        assert point.dual_bound <= point.rate + 1e-6

    def test_monotone_in_targets(self):
        src = dsbs(0.25)
        ham = hamming_distortion(2)
        rates = [
            rdf_semantic_case2(src, ham, ham, d, d).rate
            for d in (0.1, 0.2, 0.35)
        ]
        assert rates[0] >= rates[1] - 1e-6
        assert rates[1] >= rates[2] - 1e-6

    def test_zero_rate_detected(self):
        src = dsbs(0.25)
        ham = hamming_distortion(2)
        point = rdf_semantic_case2(src, ham, ham, 0.5, 0.5)
        assert point.rate == 0.0
        assert point.multipliers == (0.0, 0.0)

    def test_infeasible_raises(self):
        src = dsbs(0.25)
        ham = hamming_distortion(2)
        with pytest.raises(InfeasibleError):
            rdf_semantic_case2(src, ham, ham, -0.05, 0.2)

    def test_case1_matches_modified_closed_form(self):
        src = dsbs(0.25)
        ham = hamming_distortion(2)
        point = rdf_semantic_case1(src, ham, ham, 0.35, 1.0)
        expected = 1.0 - binary_entropy((0.35 - 0.25) / 0.5)
        assert point.rate == pytest.approx(expected, abs=5e-3)

    def test_fallbacks_gain_dual_and_restore_feasibility(self):
        ham = hamming_distortion(2)
        p, cost_a, cost_b = _case2_problem(dsbs(0.25), ham, ham)
        ascent = rdf._NewtonAscent(p, np.stack([cost_a, cost_b]), np.array([0.3, 0.25]))
        start = ascent.evaluate(np.array([0.2, 0.2]))
        assert not start.feasible and ascent.best is None
        step = ascent._bisection_step(start)
        assert step.dual > start.dual
        ascent._restore_feasibility(start)
        assert ascent.best is not None and ascent.best.feasible
        assert ascent.best.lam[0] / 0.2 == pytest.approx(ascent.best.lam[1] / 0.2)
        assert ascent.best_dual <= JOINT_CASE2_03_025 + 1e-6

    def test_case1_floor(self):
        src = dsbs(0.25)
        ham = hamming_distortion(2)
        with pytest.raises(InfeasibleError):
            rdf_semantic_case1(src, ham, ham, 0.1, 0.5)


# A 2x3 joint on which case 1 stalls: with the full iteration cap it took
# close to a minute and ended unconverged.
STALL_JOINT = np.array([[0.1109, 0.011, 0.208], [0.2131, 0.3344, 0.1225]])


class TestUncertifiedWarning:
    """Every solve that returns an uncertified point warns, whatever the
    entry point: the solver itself raises the warning."""

    @pytest.mark.parametrize("entry", ["case1", "case2", "solver"])
    def test_a_starved_solve_warns_once(self, monkeypatch, entry):
        monkeypatch.setattr(rdf, "_BA_MAX_ITER", 2)
        ham2, ham3 = hamming_distortion(2), hamming_distortion(3)
        stall = DiscreteSemanticSource(Pmf(STALL_JOINT / STALL_JOINT.sum()))
        calls = {
            "case1": (lambda: rdf_semantic_case1(stall, ham2, ham3, 0.3268, 0.4138),
                      "(0.3268, 0.4138)"),
            "case2": (lambda: rdf_semantic_case2(dsbs(0.25), ham2, ham2, 0.3, 0.25),
                      "(0.3, 0.25)"),
            "solver": (lambda: TwoConstraintSolver().solve(
                *_case2_problem(dsbs(0.25), ham2, ham2), 0.3, 0.25), "(0.3, 0.25)"),
        }
        call, targets = calls[entry]
        with pytest.warns(RuntimeWarning) as record:
            point = call()
        assert len(record) == 1
        assert re.fullmatch(rf"RDF solve at targets {re.escape(targets)}: converged=False, "
                            r"primal-dual gap \S+ bits", str(record[0].message))
        assert not point.converged

    def test_a_certified_solve_is_silent(self):
        ham = hamming_distortion(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point = rdf_semantic_case2(dsbs(0.25), ham, ham, 0.3, 0.25)
        assert point.converged and point.rate - point.dual_bound <= 1e-6


class TestCertifiedDual:
    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(0.05, 0.5), d=st.floats(0.01, 0.5), lam=st.floats(0.0, 12.0),
        q=st.lists(st.floats(1e-9, 1.0), min_size=2, max_size=2),
    )
    def test_bound_holds_at_any_output_distribution(self, a, d, lam, q):
        # Bernoulli(a) under Hamming distortion: R(D) = h(a) - h(D) below a.
        p = np.array([1.0 - a, a])
        ham = hamming_distortion(2).entries
        exact = max(binary_entropy(a) - binary_entropy(min(d, a)), 0.0)
        assert _dual_bound(p, np.array(q), lam * ham, lam * d) <= exact + 1e-12

    def test_case1_bound_below_exhaustive_search(self):
        # Csiszar's value without the max-c term read 0.278350 here, above
        # the grid search's 0.278072, which upper-bounds the RDF.
        src, ham = dsbs(0.25), hamming_distortion(2)
        point = rdf_semantic_case1(src, ham, ham, 0.35, 0.3)
        brute = brute_force_rdf(src, ham, ham, 0.35, 0.3, case=1, grid=11)
        assert point.dual_bound <= brute.rate

    def test_dsbs_case2_bound_below_exact_value(self):
        # The uncorrected value read 0.663183 against 1 - h(1/16) = 0.662710.
        ham = hamming_distortion(2)
        point = rdf_semantic_case2(dsbs(0.25), ham, ham, 0.0625, 0.3125)
        exact = 1.0 - binary_entropy(0.0625)
        assert point.dual_bound <= exact + 1e-12
        assert point.rate - point.dual_bound <= 1e-6


#: HiGHS's primal feasibility tolerance, the oracle LPs' resolution.
HIGHS_TOL = 1e-7


@st.composite
def lp_problems(draw):
    """(p, cost_a, cost_b, d_a, d_b) for the solver's two LPs.

    Costs are uniform on a 1/32 grid or small integers (which make letters
    tie), and each target lies on its floor, on a per-letter value or on a
    grid around them. On these coarse grids a slack is either exactly zero
    or far above HiGHS's tolerance, which could otherwise round it to zero.
    """
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    p = np.array(draw(st.lists(st.integers(1, 20), min_size=m, max_size=m)), dtype=float)
    p /= p.sum()
    entry = draw(st.sampled_from([st.integers(0, 32).map(lambda k: k / 32.0),
                                  st.integers(0, 3).map(float)]))
    problem = [p]
    targets = []
    for _ in range(2):
        cost = np.array(draw(st.lists(entry, min_size=m * n, max_size=m * n))).reshape(m, n)
        floor, letters = float(p @ cost.min(axis=1)), p @ cost
        span = float(letters.max()) - floor
        problem.append(cost)
        targets.append(draw(st.one_of(
            st.sampled_from([floor, *letters.tolist()]),
            st.integers(-8, 36).map(lambda k: floor + k / 32.0 * span),
        )))
    return (*problem, *targets)


@settings(max_examples=250, deadline=None)
@given(lp_problems())
def test_channel_feasibility_matches_the_lp_oracle(problem):
    p, cost_a, cost_b, d_a, d_b = problem
    slack, w = _channel_feasibility(*problem)
    assert slack == pytest.approx(lp_channel_feasibility(*problem)[0], abs=1e-12)
    assert np.all(w >= 0.0)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
    e_a, e_b = ((p[:, None] * w * cost).sum() for cost in (cost_a, cost_b))
    assert e_a <= d_a + slack + 1e-12
    assert e_b <= d_b + slack + 1e-12


@settings(max_examples=250, deadline=None)
@given(lp_problems())
def test_zero_rate_point_matches_the_lp_oracle(problem):
    p, cost_a, cost_b, d_a, d_b = problem
    point, lp = _zero_rate_point(*problem), lp_zero_rate_point(*problem)
    shrunk = lp_zero_rate_point(p, cost_a, cost_b, d_a - HIGHS_TOL, d_b - HIGHS_TOL)
    grown = lp_zero_rate_point(p, cost_a, cost_b, d_a + HIGHS_TOL, d_b + HIGHS_TOL)
    if (shrunk is None) != (grown is None):
        return  # a box edge within HiGHS's tolerance of the hull decides the verdict
    assert (point is None) == (lp is None)
    if point is None:
        return
    assert point[0] <= d_a + _SLACK and point[1] <= d_b + _SLACK
    # HiGHS may trade feasibility within its tolerance for a smaller sum, so
    # the sums must agree to 1e-12 plus what moving the box by that
    # tolerance changes in the oracle's own sum.
    give = abs(sum(shrunk) - sum(grown))
    assert abs(sum(point) - sum(lp)) <= 1e-12 + give


def test_zero_rate_point_with_every_letter_on_the_box_edge():
    # For the DSBS under Hamming distortion every output letter gives
    # (E d_s, E d_u) = (0.5, 0.5): at D = 0.5 all of them sit on the box edge.
    ham = hamming_distortion(2)
    problem = _case2_problem(dsbs(0.25), ham, ham)
    assert _zero_rate_point(*problem, 0.5, 0.5) == (0.5, 0.5)
    assert lp_zero_rate_point(*problem, 0.5, 0.5) == pytest.approx((0.5, 0.5), abs=1e-12)
    for d_s, d_u in ((0.5 - 1e-8, 0.5), (0.5, 0.5 - 1e-8)):
        assert _zero_rate_point(*problem, d_s, d_u) is None  # beyond the 1e-9 slack
    assert lp_zero_rate_point(*problem, 0.5 - 1e-6, 0.5) is None  # beyond HiGHS's tolerance
    slack, w = _channel_feasibility(*problem, 0.5, 0.5)
    assert slack == 0.0
    p, cost_a, cost_b = problem
    assert (p[:, None] * w * cost_a).sum() <= 0.5
    assert (p[:, None] * w * cost_b).sum() <= 0.5


def slack_rate(point, targets):
    """How far a channel inside the 1e-9 distortion slack may undercut R(D).

    R is convex with supergradient -lam at the targets, so a channel at
    distortions e has rate >= R(e) >= R(D) - lam.(e - D)+.
    """
    excess = sum(lam * max(e - d, 0.0)
                 for lam, e, d in zip(point.multipliers, point.distortions, targets))
    return excess + 1e-10


def dsbs_case2_closed_form(alpha, d_s, d_u):
    """Exact R(D_s, D_u) of the DSBS, with the distortions clipped at 1/2."""
    d_s, d_u = sorted((min(d_s, 0.5), min(d_u, 0.5)))
    if d_u >= star(alpha, d_s):  # reconstructing U as S_hat meets D_u
        return 1.0 - binary_entropy(d_s)
    if star(d_s, d_u) <= alpha:  # Shannon lower bound is tight
        return 1.0 + binary_entropy(alpha) - binary_entropy(d_s) - binary_entropy(d_u)
    # Mid: one reconstruction bit W. Where S = U it flips them with
    # probability e; where S != U it equals U with probability t.
    e = (d_s + d_u - alpha) / (2.0 * (1.0 - alpha))
    t = (alpha + d_s - d_u) / (2.0 * alpha)
    return 1.0 - (1.0 - alpha) * binary_entropy(e) - alpha * binary_entropy(t)


@settings(max_examples=80, deadline=None)
@given(alpha=st.floats(0.01, 0.49), d_s=st.floats(0.005, 0.495), d_u=st.floats(0.005, 0.495))
def test_dsbs_case2_over_the_parameter_space(alpha, d_s, d_u):
    ham = hamming_distortion(2)
    point = rdf_semantic_case2(dsbs(alpha), ham, ham, d_s, d_u)
    assert point.converged
    assert point.dual_bound <= point.rate + slack_rate(point, (d_s, d_u))
    assert point.rate <= point.dual_bound + 1e-6
    exact = dsbs_case2_closed_form(alpha, d_s, d_u)
    assert point.dual_bound <= exact + 1e-12
    assert point.rate == pytest.approx(exact, abs=1e-6)


@st.composite
def dsbs_cells(draw, alpha_max):
    """(alpha, D_s, D_u) with D_u free or on a regime boundary of D_s (the
    float at it or a neighbour), distortions from 0.01 to beyond 1/2."""
    alpha = draw(st.floats(0.0, alpha_max) | st.sampled_from([0.0, alpha_max]))
    d_s = draw(st.floats(0.01, 0.6) | st.sampled_from([alpha, 0.5]))
    anchor = draw(st.sampled_from(["free", "implied", "slb", "alpha", "equal", "half"]))
    d_u = {
        "free": lambda: draw(st.floats(0.01, 0.6)),
        "implied": lambda: star(alpha, min(d_s, 0.5)),
        "slb": lambda: (alpha - d_s) / (1.0 - 2.0 * d_s) if d_s < alpha else d_s,
        "alpha": lambda: alpha,
        "equal": lambda: d_s,
        "half": lambda: 0.5,
    }[anchor]()
    d_u = float(np.nextafter(d_u, draw(st.sampled_from([-np.inf, d_u, np.inf]))))
    assume(0.01 <= d_s and 0.01 <= d_u)
    return alpha, d_s, d_u


@settings(max_examples=150, deadline=None)
@given(cell=dsbs_cells(0.5))
def test_dsbs_case2_model_is_the_closed_form(cell):
    # The model's value, each solve started at its closed-form dual optimum,
    # is the closed form, and no solve warns, over the whole range of alpha.
    alpha, d_s, d_u = cell
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = binary_rdfs(alpha, d_s, d_u, 2)[2]
    assert value == pytest.approx(dsbs_case2_closed_form(alpha, d_s, d_u), abs=1e-9)


@pytest.mark.parametrize("alpha", [0.0, 1e-10, 0.25, 0.4999, 0.5])
@pytest.mark.parametrize("d_s, d_u", [(0.0, 0.0), (0.0, 5e-324), (0.0, 1e-300), (0.0, 0.01),
                                      (0.0, 0.1), (0.0, 0.5), (5e-324, 0.2), (0.0, 0.7)])
def test_dsbs_case2_at_zero_distortion_is_the_closed_form(alpha, d_s, d_u):
    # A zero or subnormal distortion has an infinite (or overflowing) optimal
    # multiplier; the solve starts at the smallest normal distortion instead.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = binary_rdfs(alpha, d_s, d_u, 2)[2]
    assert value == pytest.approx(dsbs_case2_closed_form(alpha, d_s, d_u), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(cell=dsbs_cells(0.45))
def test_dual_start_matches_the_cold_solve_for_less_work(cell):
    # Up to alpha = 0.45: nearer 1/2 the cold solve stalls (over 20 s a cell at 0.499).
    alpha, *pair = cell
    pair = sorted(pair)
    calls = []
    evaluate = rdf._NewtonAscent.evaluate

    def counted(self, *args):
        calls.append(1)
        return evaluate(self, *args)

    ham = hamming_distortion(2)
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        patch.setattr(rdf._NewtonAscent, "evaluate", counted)
        warm = rdf_semantic_case2(dsbs(alpha), ham, ham, *pair,
                                  start=binary._dual_start(alpha, *pair))
        n_warm = len(calls)
        cold = rdf_semantic_case2(dsbs(alpha), ham, ham, *pair)
    assert warm.dual_bound == pytest.approx(cold.dual_bound, abs=1e-9)
    assert n_warm <= len(calls) - n_warm


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 6: the cold case-2 solve stalls at alpha = 0 near "
                          "D_s = D_u and ends unconverged, 1.29e-7 below the warm one")
def test_dual_start_matches_the_cold_solve_at_the_alpha_0_stall():
    # The cell on which the property above fails when hypothesis draws it.
    d_s, d_u = 0.01, 0.010000040725574517
    ham = hamming_distortion(2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        warm = rdf_semantic_case2(dsbs(0.0), ham, ham, d_s, d_u,
                                  start=binary._dual_start(0.0, d_s, d_u))
        cold = rdf_semantic_case2(dsbs(0.0), ham, ham, d_s, d_u)
    assert warm.dual_bound == pytest.approx(cold.dual_bound, abs=1e-9)


ASYM = DiscreteSemanticSource(Pmf(np.array([[0.4, 0.1], [0.2, 0.3]])))
# Criterion 2b's corpus and the benchmark's four binary case-2 cells.
ORACLE_CELLS = [
    ("dsbs", 0.3, 0.25, 2), ("dsbs", 0.2, 0.2, 2), ("asym", 0.3, 0.25, 2),
    ("asym", 0.4, 0.2, 2), ("dsbs", 0.35, 0.3, 1), ("dsbs", 0.45, 0.4, 1),
    ("dsbs", 0.0625, 0.0625, 2), ("dsbs", 0.0625, 0.3125, 2),
    ("dsbs", 0.3125, 0.0625, 2), ("dsbs", 0.3125, 0.3125, 2),
]


@pytest.mark.parametrize("name,d_s,d_u,case", ORACLE_CELLS)
def test_rate_no_worse_than_the_nelder_mead_oracle(name, d_s, d_u, case):
    src = ASYM if name == "asym" else dsbs(0.25)
    ham = hamming_distortion(2)
    problem = (_case2_problem if case == 2 else _case1_problem)(src, ham, ham)
    new = TwoConstraintSolver().solve(*problem, d_s, d_u)
    old = NelderMeadSolver().solve(*problem, d_s, d_u)
    assert new.converged
    assert new.rate <= old.rate + 1e-6
    assert new.rate - new.dual_bound <= 1e-6


class TestBruteForce:
    def test_guards(self):
        src = dsbs(0.25)
        ham = hamming_distortion(2)
        with pytest.raises(DomainError):
            brute_force_rdf(src, ham, ham, 0.3, 0.3, case=2, grid=30)
        with pytest.raises(DomainError):
            brute_force_rdf(src, ham, ham, 0.3, 0.3, case=3)

    def test_agrees_with_solver_case2(self):
        src = dsbs(0.25)
        ham = hamming_distortion(2)
        brute = brute_force_rdf(src, ham, ham, 0.3, 0.25, case=2, grid=6)
        point = rdf_semantic_case2(src, ham, ham, 0.3, 0.25)
        # The grid search is an upper bound with a discretization excess.
        assert point.rate <= brute.rate + 5e-3
        assert brute.rate <= point.rate + 5e-3 + 0.02

    def test_agrees_with_solver_case1(self):
        src = dsbs(0.25)
        ham = hamming_distortion(2)
        brute = brute_force_rdf(src, ham, ham, 0.35, 0.3, case=1, grid=11)
        point = rdf_semantic_case1(src, ham, ham, 0.35, 0.3)
        assert point.rate <= brute.rate + 5e-3
        assert brute.rate <= point.rate + 5e-3 + 0.05


class TestBinaryClosedForms:
    def test_obs(self):
        assert binary_rdfs(0.25, 0.3, 0.1, 1)[1] == pytest.approx(
            binary_entropy(0.25) - binary_entropy(0.1), abs=1e-15
        )
        assert binary_rdfs(0.25, 0.3, 0.25, 1)[1] == 0.0
        assert binary_rdfs(0.25, 0.3, 0.4, 1)[1] == 0.0

    def test_sem_case2(self):
        assert binary_rdfs(0.25, 0.11, 0.5, 2)[0] == pytest.approx(
            1.0 - binary_entropy(0.11), abs=1e-15
        )
        assert binary_rdfs(0.25, 0.6, 0.5, 2)[0] == 0.0

    def test_sem_case1(self):
        assert binary_rdfs(0.25, 0.35, 0.3, 1)[0] == pytest.approx(
            1.0 - binary_entropy(0.2), abs=1e-15
        )
        assert binary_rdfs(0.25, 0.1, 0.3, 1)[0] == float("inf")
        assert binary_rdfs(0.25, 0.5, 0.3, 1)[0] == 0.0
        # Degenerate crossover: formula guarded, only the saturated branch.
        assert binary_rdfs(0.5, 0.5, 0.3, 1)[0] == 0.0

    def test_joint_case1_is_max(self):
        for ds, du in [(0.3, 0.1), (0.4, 0.2), (0.26, 0.24)]:
            r_s, r_u, joint, _ = binary_rdfs(0.25, ds, du, 1)
            assert joint == pytest.approx(max(r_s, r_u), abs=1e-15)

    def test_joint_case1_infeasible(self):
        # Below the floor alpha the RDF is +inf and the cell out of reach.
        r_s, _, joint, blocked = binary_rdfs(0.25, 0.1, 0.3, 1)
        assert r_s == joint == float("inf") and blocked
        with pytest.raises(InfeasibleError):
            equivocation_caps(SemanticSourceBinary(0.25), WiretapChannelBinary(0.1, 0.3),
                              0.1, 0.3, r=1.0, case=1)

    def test_joint_case2_observation_only_reduction(self):
        # With the semantic constraint inactive the joint solver must land
        # on the classic rate for the (uniform) observable component.
        val = binary_rdfs(0.25, 0.5, 0.25, 2)[2]
        assert val == pytest.approx(1.0 - binary_entropy(0.25), abs=5e-3)

    def test_joint_case2_dominates_marginals(self):
        # Sandwich against the exact marginal rates of the underlying
        # doubly symmetric source (both components are uniform bits).
        for ds, du in [(0.3, 0.25), (0.2, 0.2), (0.45, 0.1)]:
            r_s, _, joint, _ = binary_rdfs(0.25, ds, du, 2)
            r_u = max(0.0, 1.0 - binary_entropy(min(du, 0.5)))
            assert joint >= max(r_s, r_u) - 5e-3
            assert joint <= r_s + r_u + 5e-3

    def test_joint_case2_is_the_certified_bound(self):
        # The value is the dual bound of the same warm-started solve, not its
        # rate: here 0.21581628022081126 against 0.2158162802207046.
        ham = hamming_distortion(2)
        point = rdf_semantic_case2(dsbs(0.25), ham, ham, 0.25, 0.3,
                                   start=binary._dual_start(0.25, 0.25, 0.3))
        assert point.dual_bound != point.rate
        assert binary_rdfs(0.25, 0.25, 0.3, 2)[2] == point.dual_bound

    def test_joint_case2_swapped_cells_share_one_solve(self, monkeypatch):
        pairs = []

        def fake_solve(src, d_s, d_u, target_s, target_u, start):
            pairs.append((target_s, target_u))
            return RdfPoint(0.0, (target_s, target_u), (0.0, 0.0), True,
                            dual_bound=target_s + 2.0 * target_u)

        monkeypatch.setattr(binary, "rdf_semantic_case2", fake_solve)
        src = SemanticSourceBinary(0.2)
        d = np.linspace(0.005, 0.5, 100)
        r_j = src.rdf_components(d[:, None], d[None, :], 2)[0]
        # One solve per distinct sorted pair of the grid, at every size.
        assert len(pairs) == len(set(pairs)) == 100 * 101 // 2
        lo, hi = np.minimum(d[:, None], d[None, :]), np.maximum(d[:, None], d[None, :])
        np.testing.assert_array_equal(r_j, lo + 2.0 * hi)
        pairs.clear()
        src.rdf_components(np.array([0.1, 0.35]), np.array([0.35, 0.1]), 2)
        assert pairs == [(0.1, 0.35)]

    def test_joint_case2_cell_is_one_solver_call(self, monkeypatch):
        calls = []
        solve = TwoConstraintSolver.solve

        def counted(self, *args, **kwargs):
            calls.append(args[-2:])
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(TwoConstraintSolver, "solve", counted)
        first = binary_rdfs(0.2, 0.35, 0.1, 2)[2]
        assert calls == [(0.1, 0.35)]
        assert binary_rdfs(0.2, 0.1, 0.35, 2)[2] == first

    def test_joint_case2_warns_when_the_solver_does_not_converge(self, monkeypatch):
        # The exact start meets the 1e-12 certificate in one iteration, so an
        # iteration cap alone no longer starves the solve: the certificate
        # must be out of reach as well (max c >= 1 > 2^-1).
        monkeypatch.setattr(rdf, "_BA_MAX_ITER", 2)
        monkeypatch.setattr(rdf, "_BA_TOL", -1.0)
        with pytest.warns(RuntimeWarning, match=r"at targets \(0\.25, 0\.3\):.*gap"):
            value = binary_rdfs(0.25, 0.3, 0.25, 2)[2]
        # Starved or not, the value is a certified lower bound.
        assert 0.0 <= value <= JOINT_CASE2_03_025 + 1e-3

    def test_joint_case2_near_alpha_half_converges(self):
        # From the cold start this cell took over 20 s and ended uncertified.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = binary_rdfs(0.499, 0.48125, 0.48125, 2)[2]
        assert value == pytest.approx(dsbs_case2_closed_form(0.499, 0.48125, 0.48125),
                                      abs=1e-9)
