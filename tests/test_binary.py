"""Binary model: closed-form converse bounds and the distortion tradeoff curve."""

import math

import converse_oracle as oracle
import numpy as np
import pytest

from semsec import (
    DISABLED,
    DiscreteSemanticSource,
    DomainError,
    EquivocationTargets,
    InfeasibleError,
    SemanticSourceBinary,
    WiretapChannelBinary,
    binary_entropy,
    binary_min_r,
    delta_s_curve,
    equivocation_caps,
    hamming_distortion,
    rdf_semantic_case2,
)

# Frozen oracles for the default operating point (alpha 0.25, eps 0.1/0.3).
SLOPE_GAMMA0 = 0.4558231113837489   # H_b(0.34) - H_b(0.1)
C_MAIN = 0.5310044064107189         # 1 - H_b(0.1)
H_ALPHA = 0.8112781244591328        # H_b(0.25)


def default_source():
    return SemanticSourceBinary(0.25)


def default_channel():
    return WiretapChannelBinary(0.1, 0.3)


class TestTypes:
    def test_source_validation(self):
        for bad in (-0.01, 0.51):
            with pytest.raises(DomainError):
                SemanticSourceBinary(bad)

    def test_channel_validation(self):
        with pytest.raises(DomainError):
            WiretapChannelBinary(0.6, 0.3)
        with pytest.raises(DomainError):
            WiretapChannelBinary(0.1, -0.1)

    def test_source_entropies(self):
        src = default_source()
        assert src.h_s == 1.0
        assert src.h_u == 1.0
        assert src.h_su == pytest.approx(1.0 + H_ALPHA, abs=1e-15)

    def test_channel_derived(self):
        ch = default_channel()
        assert ch.eps_z == pytest.approx(0.34, abs=1e-15)
        assert ch.capacity_main == pytest.approx(C_MAIN, abs=1e-15)


class TestSecrecyTerm:
    def test_gamma_zero_pin(self):
        assert default_channel().secrecy_capacity == pytest.approx(SLOPE_GAMMA0, abs=1e-15)

    def test_decreasing_in_gamma(self):
        # The slope at a time-sharing gamma falls from the secrecy capacity
        # at gamma = 0 to nothing at gamma = 1/2.
        ch = default_channel()
        gammas = np.linspace(0.0, 0.5, 11)
        vals = [oracle.binary_slope(ch, g) for g in gammas]
        assert vals[0] == ch.secrecy_capacity
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] == pytest.approx(0.0, abs=1e-12)

    def test_no_degradation_no_secrecy(self):
        assert WiretapChannelBinary(0.1, 0.0).secrecy_capacity == 0.0


class TestCaps:
    def test_case1_raw_semantic_oracle(self):
        src, ch = default_source(), default_channel()
        caps = equivocation_caps(src, ch, 0.3, 0.25, r=1.0, case=1)
        r_s = 1.0 - binary_entropy(0.1)  # modified closed form at D_s = 0.3
        assert caps.raw_delta_s == pytest.approx(
            SLOPE_GAMMA0 + 1.0 - r_s, abs=1e-12
        )
        assert not caps.capped_s

    def test_clamps(self):
        src, ch = default_source(), default_channel()
        caps = equivocation_caps(src, ch, 0.45, 0.25, r=1.0, case=1)
        assert caps.raw_delta_s > 1.0
        assert caps.capped_s
        assert caps.delta_s == 1.0
        assert caps.delta_su <= 1.0 + H_ALPHA + 1e-12

    def test_observation_bound_uses_conditional_entropy(self):
        src, ch = default_source(), default_channel()
        caps = equivocation_caps(src, ch, 0.3, 0.1, r=0.0, case=2)
        r_u = H_ALPHA - binary_entropy(0.1)
        assert caps.raw_delta_u == pytest.approx(H_ALPHA - r_u, abs=1e-12)

    def test_case1_below_crossover_infeasible(self):
        src, ch = default_source(), default_channel()
        with pytest.raises(InfeasibleError):
            equivocation_caps(src, ch, 0.2, 0.25, r=1.0, case=1)


class TestMinR:
    def test_rate_driven_is_exactly_one(self):
        # At (0.3, 0.25) the case-1 joint rate equals the main capacity.
        src, ch = default_source(), default_channel()
        res = binary_min_r(src, ch, 0.3, 0.25, EquivocationTargets.no_secrecy(), case=1)
        assert res.feasible
        assert res.r_min == pytest.approx(1.0, abs=1e-12)
        assert res.binding == "rate"

    def test_full_secrecy_demand(self):
        src, ch = default_source(), default_channel()
        tg = EquivocationTargets(1.0, float("-inf"), float("-inf"))
        res = binary_min_r(src, ch, 0.3, 0.25, tg, case=1)
        r_s = 1.0 - binary_entropy(0.1)
        expected = max(1.0, r_s / SLOPE_GAMMA0)
        assert res.feasible
        assert res.r_min == pytest.approx(expected, abs=1e-12)
        assert 1.1 < res.r_min < 1.2
        assert res.binding == "delta_s"

    def test_key_rate_lowers_demand(self):
        src, ch = default_source(), default_channel()
        tg0 = EquivocationTargets(1.0, float("-inf"), float("-inf"))
        tg1 = EquivocationTargets(1.0, float("-inf"), float("-inf"), R_k=0.1)
        r0 = binary_min_r(src, ch, 0.3, 0.25, tg0, case=1).r_min
        r1 = binary_min_r(src, ch, 0.3, 0.25, tg1, case=1).r_min
        # The key eases the secrecy demand until the rate floor (1.0 here)
        # becomes binding.
        assert r1 == pytest.approx(max(1.0, r0 - 0.1 / SLOPE_GAMMA0), abs=1e-12)
        assert r1 < r0

    def test_no_eavesdropper_noise_infeasible(self):
        src = default_source()
        ch = WiretapChannelBinary(0.1, 0.0)
        tg = EquivocationTargets(1.0, float("-inf"), float("-inf"))
        res = binary_min_r(src, ch, 0.3, 0.25, tg, case=1)
        assert not res.feasible
        assert "delta_s" in res.reason

    def test_case2_uses_certified_dual_bound(self):
        # The doubly symmetric source is solved at the sorted pair.
        src, ch = default_source(), default_channel()
        res = binary_min_r(src, ch, 0.3, 0.25, EquivocationTargets.no_secrecy(), case=2)
        ham = hamming_distortion(2)
        point = rdf_semantic_case2(DiscreteSemanticSource.doubly_symmetric(0.25), ham, ham, 0.25, 0.3)
        assert res.feasible
        assert res.r_min == pytest.approx(point.dual_bound / C_MAIN, abs=1e-12)
        assert res.r_min <= point.rate / C_MAIN

    def test_case1_infinite_rdf_infeasible(self):
        src, ch = default_source(), default_channel()
        _, ((_, _, r_s), _, _), blocked = src.rdf_components(0.2, 0.25, 1)
        assert r_s == float("inf") and blocked
        res = binary_min_r(src, ch, 0.2, 0.25, EquivocationTargets.no_secrecy(), case=1)
        assert not res.feasible


class TestTradeoffCurve:
    def test_grid_validation(self):
        src, ch = default_source(), default_channel()
        with pytest.raises(DomainError):
            delta_s_curve(src, ch, 1.0, d_s_grid=[0.4, 0.3])
        with pytest.raises(DomainError):
            delta_s_curve(src, ch, 1.0, case=1, d_s_grid=[0.2, 0.3])
        with pytest.raises(DomainError):
            delta_s_curve(src, ch, 1.0, case=2, d_s_grid=[[0.3, 0.4]])

    def test_shape_and_monotonicity(self):
        src, ch = default_source(), default_channel()
        curve = delta_s_curve(src, ch, r=1.0, case=1)
        assert curve.d_s.shape == curve.delta_s_max.shape == curve.raw.shape
        assert np.all(np.diff(curve.raw) >= -1e-12)
        assert np.all(curve.delta_s_max <= 1.0)
        np.testing.assert_array_equal(
            curve.delta_s_max, np.minimum(curve.raw, 1.0)
        )

    def test_cap_is_exact_one(self):
        src, ch = default_source(), default_channel()
        curve = delta_s_curve(src, ch, r=1.0, case=1)
        assert curve.d_s_star is not None
        beyond = curve.d_s >= curve.d_s_star
        assert beyond.any()
        assert np.all(curve.delta_s_max[beyond] == 1.0)
        assert np.all(curve.capped == (curve.raw > 1.0))

    def test_key_rate_shift_is_exact(self):
        src, ch = default_source(), default_channel()
        base = delta_s_curve(src, ch, r=1.0, R_k=0.0, case=1)
        keyed = delta_s_curve(src, ch, r=1.0, R_k=0.1, case=1)
        np.testing.assert_allclose(keyed.raw - base.raw, 0.1, atol=1e-12)
        if base.d_s_star is not None and keyed.d_s_star is not None:
            assert keyed.d_s_star <= base.d_s_star + 1e-15

    def test_positive_gamma_never_helps(self):
        # Each point of the curve is the equivocation reached at r = 1 with
        # the secrecy capacity as slope; at the slope of gamma = 0.2 the
        # same equivocation needs a ratio of at least 1. The raw points can
        # exceed the entropy, so they are priced without its ceiling.
        src, ch = default_source(), default_channel()
        grid = np.linspace(0.26, 0.49, 50)
        base = delta_s_curve(src, ch, r=1.0, case=1, d_s_grid=grid)
        tilted_slope = oracle.binary_slope(ch, 0.2)
        assert tilted_slope < ch.secrecy_capacity
        for d_s, raw in zip(grid.tolist(), base.raw.tolist()):
            tg = EquivocationTargets(raw, DISABLED, DISABLED)
            comps = (("delta_s", 1.0, oracle.binary_rdf_sem(src.alpha, d_s, 1)),)
            unclamped = {"delta_s": math.inf}
            at_cap = oracle.min_ratio(0.0, ch.capacity_main, comps, tg, ch.secrecy_capacity,
                                      unclamped)
            tilted = oracle.min_ratio(0.0, ch.capacity_main, comps, tg, tilted_slope, unclamped)
            assert at_cap.r_min == pytest.approx(1.0, abs=1e-12)
            assert tilted.r_min >= at_cap.r_min - 1e-12
