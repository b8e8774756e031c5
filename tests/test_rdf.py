"""Discrete rate-distortion machinery: solver oracles and properties."""

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    TwoConstraintSolver,
    binary_entropy,
    binary_rdf_joint,
    binary_rdf_obs,
    binary_rdf_sem,
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


class TestSourceAndDistortion:
    def test_doubly_symmetric_structure(self):
        src = dsbs(0.25)
        np.testing.assert_allclose(src.marginal_s, [0.5, 0.5])
        np.testing.assert_allclose(src.marginal_u, [0.5, 0.5])
        np.testing.assert_allclose(
            src.joint.probs, [[0.375, 0.125], [0.125, 0.375]]
        )
        cond = src.p_s_given_u()
        np.testing.assert_allclose(cond.sum(axis=0), [1.0, 1.0])

    def test_zero_mass_symbols_pruned(self):
        joint = np.array([[0.25, 0.25, 0.0], [0.25, 0.25, 0.0]])
        src = DiscreteSemanticSource(Pmf(joint))
        assert src.n_u == 2
        assert src.u_support == (0, 1)

    def test_supports_are_not_arguments(self):
        # The kept indices always come from the pmf; labels passed for them
        # would be dropped without a word.
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

    def test_warns_when_the_solver_does_not_converge(self, monkeypatch):
        monkeypatch.setattr(rdf, "_BA_MAX_ITER", 2)
        with pytest.warns(RuntimeWarning, match=r"rdf_classic at target 0\.1:.*gap"):
            point = rdf_classic(np.array([0.75, 0.25]), hamming_distortion(2), 0.1)
        assert not point.converged
        # Starved or not, the value is a certified lower bound.
        assert point.dual_bound <= binary_entropy(0.25) - binary_entropy(0.1) + 1e-12


class TestBaCore:
    def test_lagrangian_trace_nonincreasing(self):
        # The per-iteration rate need not be monotone, but the alternating
        # minimization drives the Lagrangian down at every step. The iteration
        # is deterministic, so the run capped at k iterations ends on the
        # k-th iterate.
        p = np.array([0.3, 0.3, 0.4])
        rng = np.random.default_rng(5)
        tilt = 2.0 * rng.uniform(size=(3, 3))
        trace = []
        for k in range(1, 40):
            out = _ba_tilted(p, tilt, tol=1e-12, max_iter=k)
            trace.append(out["rate"] + float((p[:, None] * out["w"] * tilt).sum()))
        assert out["iterations"] > 3
        assert np.all(np.diff(trace) <= 1e-10)

    def test_warm_start_at_the_fixed_point_stops_at_once(self):
        p = np.array([0.3, 0.3, 0.4])
        tilt = 2.0 * np.random.default_rng(5).uniform(size=(3, 3))
        cold = _ba_tilted(p, tilt, tol=1e-12)
        warm = _ba_tilted(p, tilt, tol=1e-12, q0=cold["q"])
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
    """Exact R(D_s, D_u) of the DSBS where it is known, else None."""
    if star(d_s, d_u) <= alpha:  # Shannon lower bound is tight
        return 1.0 + binary_entropy(alpha) - binary_entropy(d_s) - binary_entropy(d_u)
    if d_u >= star(alpha, d_s):  # reconstructing U as S_hat meets D_u
        return 1.0 - binary_entropy(d_s)
    if d_s >= star(alpha, d_u):
        return 1.0 - binary_entropy(d_u)
    return None


@settings(max_examples=80, deadline=None)
@given(alpha=st.floats(0.01, 0.49), d_s=st.floats(0.005, 0.495), d_u=st.floats(0.005, 0.495))
def test_dsbs_case2_over_the_parameter_space(alpha, d_s, d_u):
    ham = hamming_distortion(2)
    point = rdf_semantic_case2(dsbs(alpha), ham, ham, d_s, d_u)
    assert point.converged
    assert point.dual_bound <= point.rate + slack_rate(point, (d_s, d_u))
    assert point.rate <= point.dual_bound + 1e-6
    exact = dsbs_case2_closed_form(alpha, d_s, d_u)
    if exact is not None:
        assert point.dual_bound <= exact + 1e-12
        assert point.rate == pytest.approx(exact, abs=1e-6)


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
        assert binary_rdf_obs(0.25, 0.1) == pytest.approx(
            binary_entropy(0.25) - binary_entropy(0.1), abs=1e-15
        )
        assert binary_rdf_obs(0.25, 0.25) == 0.0
        assert binary_rdf_obs(0.25, 0.4) == 0.0

    def test_sem_case2(self):
        assert binary_rdf_sem(0.25, 0.11, 2) == pytest.approx(
            1.0 - binary_entropy(0.11), abs=1e-15
        )
        assert binary_rdf_sem(0.25, 0.6, 2) == 0.0

    def test_sem_case1(self):
        assert binary_rdf_sem(0.25, 0.35, 1) == pytest.approx(
            1.0 - binary_entropy(0.2), abs=1e-15
        )
        assert binary_rdf_sem(0.25, 0.1, 1) == float("inf")
        assert binary_rdf_sem(0.25, 0.5, 1) == 0.0
        # Degenerate crossover: formula guarded, only the saturated branch.
        assert binary_rdf_sem(0.5, 0.5, 1) == 0.0

    def test_joint_case1_is_max(self):
        for ds, du in [(0.3, 0.1), (0.4, 0.2), (0.26, 0.24)]:
            expected = max(binary_rdf_sem(0.25, ds, 1), binary_rdf_obs(0.25, du))
            assert binary_rdf_joint(0.25, ds, du, 1) == pytest.approx(expected, abs=1e-15)

    def test_joint_case1_infeasible(self):
        with pytest.raises(InfeasibleError):
            binary_rdf_joint(0.25, 0.1, 0.3, 1)

    def test_joint_case2_observation_only_reduction(self):
        # With the semantic constraint inactive the joint solver must land
        # on the classic rate for the (uniform) observable component.
        val = binary_rdf_joint(0.25, 0.5, 0.25, 2)
        assert val == pytest.approx(1.0 - binary_entropy(0.25), abs=5e-3)

    def test_joint_case2_dominates_marginals(self):
        # Sandwich against the exact marginal rates of the underlying
        # doubly symmetric source (both components are uniform bits).
        for ds, du in [(0.3, 0.25), (0.2, 0.2), (0.45, 0.1)]:
            joint = binary_rdf_joint(0.25, ds, du, 2)
            r_s = binary_rdf_sem(0.25, ds, 2)
            r_u = max(0.0, 1.0 - binary_entropy(min(du, 0.5)))
            assert joint >= max(r_s, r_u) - 5e-3
            assert joint <= r_s + r_u + 5e-3

    def test_joint_case2_is_the_certified_bound(self):
        ham = hamming_distortion(2)
        point = rdf_semantic_case2(dsbs(0.25), ham, ham, 0.25, 0.3)
        assert point.dual_bound < point.rate
        assert binary_rdf_joint(0.25, 0.25, 0.3, 2) == point.dual_bound

    def test_joint_case2_swapped_cells_share_one_solve(self):
        binary._binary_joint_case2_cached.cache_clear()
        first = binary_rdf_joint(0.2, 0.1, 0.35, 2)
        swapped = binary_rdf_joint(0.2, 0.35, 0.1, 2)
        assert first == swapped
        info = binary._binary_joint_case2_cached.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_joint_case2_warns_when_the_solver_does_not_converge(self, monkeypatch):
        monkeypatch.setattr(rdf, "_BA_MAX_ITER", 2)
        binary._binary_joint_case2_cached.cache_clear()
        try:
            with pytest.warns(RuntimeWarning, match=r"\(D_s, D_u\)=\(0\.3, 0\.25\).*gap"):
                value = binary_rdf_joint(0.25, 0.3, 0.25, 2)
        finally:
            binary._binary_joint_case2_cached.cache_clear()
        # Starved or not, the value is a certified lower bound.
        assert 0.0 <= value <= JOINT_CASE2_03_025 + 1e-3
