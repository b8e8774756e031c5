"""Gaussian model: converse bounds, samplers, and the Monte-Carlo inner bound."""

import math

import numpy as np
import pytest

import semsec.gaussian as gaussian_mod
from semsec import (
    CovMatrix,
    DomainError,
    EquivocationTargets,
    InfeasibleError,
    InnerSample,
    SamplerStarvationError,
    SemanticSourceGaussian,
    WiretapChannelGaussian,
    converse_equivocation_caps,
    converse_min_r,
    converse_surface,
    draw_inner_samples,
    gaussian_mi,
    gaussian_rdf_joint,
    gaussian_rdf_obs,
    gaussian_rdf_sem,
    inner_bound_scan,
    inner_min_r,
    sample_sigma1,
    sample_sigma2,
    secrecy_term,
)
from semsec.gaussian import SIGMA1_LABELS, SIGMA2_LABELS

# Frozen oracles for the default operating point.
H_S = 1.789808998765762            # 0.5*log2(2*pi*e*0.7)
H_U = 2.047095585180641            # 0.5*log2(2*pi*e*1.0)
H_SU = 3.3159944960990893          # 0.5*log2((2*pi*e)^2 * det K)
C_MAIN = 1.7297158093186487        # 0.5*log2(1 + 1.0/0.1)
C_SECRECY = 0.9372345589580706     # 0.5*[log2(11) - log2(3)]
R_SEM_05 = 0.24271341358512083     # 0.5*log2(0.7/0.5)
R_JOINT_05_06 = 0.3848939535930074
MIN_R_SEMANTIC = 0.2589676311711626
RAW_S_EXAMPLE = 2.4843301441387116  # C_SECRECY + H_S - R_SEM_05


def default_source():
    return SemanticSourceGaussian(0.7, 1.0, 0.6)


def default_channel():
    return WiretapChannelGaussian(1.0, 0.1, 0.4)


class TestSource:
    def test_validation(self):
        with pytest.raises(DomainError):
            SemanticSourceGaussian(-0.1, 1.0, 0.0)
        with pytest.raises(DomainError):
            SemanticSourceGaussian(0.7, 1.0, 0.9)  # |cov| > sqrt(P_s P_u)

    def test_moments(self):
        src = default_source()
        assert src.det_k == pytest.approx(0.7 - 0.36, abs=1e-15)
        assert src.rho2 == pytest.approx(0.36 / 0.7, abs=1e-15)
        np.testing.assert_allclose(src.K, [[0.7, 0.6], [0.6, 1.0]])

    def test_entropies(self):
        src = default_source()
        assert src.h_s == pytest.approx(H_S, abs=1e-12)
        assert src.h_u == pytest.approx(H_U, abs=1e-12)
        assert src.h_su == pytest.approx(H_SU, abs=1e-12)

    def test_singular_source(self):
        sing = SemanticSourceGaussian(1.0, 1.0, 1.0)
        assert sing.h_su == float("-inf")
        ell = sing.cholesky()
        np.testing.assert_allclose(ell @ ell.T, sing.K, atol=1e-12)

    def test_cholesky_reconstructs(self):
        src = default_source()
        ell = src.cholesky()
        assert ell[0, 1] == 0.0
        np.testing.assert_allclose(ell @ ell.T, src.K, atol=1e-12)


class TestChannel:
    def test_validation(self):
        with pytest.raises(DomainError):
            WiretapChannelGaussian(0.0, 0.1, 0.4)
        with pytest.raises(DomainError):
            WiretapChannelGaussian(1.0, -0.1, 0.4)

    def test_compound_noise_and_capacity(self):
        ch = default_channel()
        assert ch.P_N == pytest.approx(0.5, abs=1e-15)
        assert ch.capacity_main == pytest.approx(C_MAIN, abs=1e-12)

    def test_channel_block(self):
        ch = default_channel()
        np.testing.assert_allclose(
            ch.channel_block(),
            [[1.0, 1.0, 1.0], [1.0, 1.1, 1.1], [1.0, 1.1, 1.5]],
            atol=1e-15,
        )


class TestTargets:
    def test_validation(self):
        with pytest.raises(DomainError):
            EquivocationTargets(float("inf"), 0.0, 0.0)
        with pytest.raises(DomainError):
            EquivocationTargets(0.0, float("nan"), 0.0)
        with pytest.raises(DomainError):
            EquivocationTargets(0.0, 0.0, 0.0, R_k=-0.1)

    def test_disabled_and_active(self):
        tg = EquivocationTargets(1.0, float("-inf"), -2.0)
        assert tg.active() == ("delta_s", "delta_su")
        assert EquivocationTargets.no_secrecy().active() == ()
        assert EquivocationTargets.no_secrecy(0.3).R_k == 0.3


class TestGaussianRdf:
    def test_obs(self):
        src = default_source()
        assert gaussian_rdf_obs(src, 0.25) == pytest.approx(1.0, abs=1e-12)
        assert gaussian_rdf_obs(src, 1.0) == 0.0
        assert gaussian_rdf_obs(src, 3.0) == 0.0

    def test_sem_case2(self):
        src = default_source()
        assert gaussian_rdf_sem(src, 0.5, 2) == pytest.approx(R_SEM_05, abs=1e-12)
        assert gaussian_rdf_sem(src, 0.7, 2) == 0.0

    def test_sem_case1_floor(self):
        src = default_source()
        # Residual semantic variance not explained by the observation.
        floor = (1.0 - src.rho2) * 0.7
        assert floor == pytest.approx(0.34, abs=1e-12)
        expected = 0.5 * math.log2(0.36 / (0.5 - 0.34))
        assert gaussian_rdf_sem(src, 0.5, 1) == pytest.approx(expected, abs=1e-12)
        # Rate blows up approaching the floor; below it the problem is void.
        assert gaussian_rdf_sem(src, 0.340001, 1) > 9.0
        for bad in (0.3399, 0.2):
            with pytest.raises(InfeasibleError):
                gaussian_rdf_sem(src, bad, 1)

    def test_joint_case1_is_max(self):
        src = default_source()
        for ds, du in [(0.5, 0.6), (0.4, 0.2), (0.6, 0.9)]:
            expected = max(gaussian_rdf_sem(src, ds, 1), gaussian_rdf_obs(src, du))
            assert gaussian_rdf_joint(src, ds, du, 1) == pytest.approx(
                expected, abs=1e-12
            )

    def test_joint_case2_pin(self):
        src = default_source()
        assert gaussian_rdf_joint(src, 0.5, 0.6, 2) == pytest.approx(
            R_JOINT_05_06, abs=1e-12
        )

    def test_joint_case2_dominates_marginals(self):
        src = default_source()
        for ds in (0.2, 0.45, 0.65):
            for du in (0.1, 0.5, 0.95):
                joint = gaussian_rdf_joint(src, ds, du, 2)
                assert joint >= gaussian_rdf_sem(src, ds, 2) - 1e-12
                assert joint >= gaussian_rdf_obs(src, du) - 1e-12

    def test_joint_case2_continuous_across_branches(self):
        src = default_source()
        for ds in (0.3, 0.5, 0.68):
            grid = np.linspace(0.02, 1.3, 641)
            vals = [gaussian_rdf_joint(src, ds, du, 2) for du in grid]
            steps = np.abs(np.diff(vals))
            assert steps.max() < 0.08


class TestSecrecyTerm:
    def test_zero_power_share(self):
        assert secrecy_term(default_channel(), 0.0) == 0.0

    def test_monotone_and_pin(self):
        ch = default_channel()
        betas = np.linspace(0.0, 1.0, 11)
        vals = [secrecy_term(ch, b) for b in betas]
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] == pytest.approx(C_SECRECY, abs=1e-12)

    def test_no_degradation_no_secrecy(self):
        ch = WiretapChannelGaussian(1.0, 0.1, 0.0)
        for b in (0.2, 1.0):
            assert secrecy_term(ch, b) == pytest.approx(0.0, abs=1e-15)


class TestConverseCaps:
    def test_raw_and_clamped_example(self):
        caps = converse_equivocation_caps(
            default_source(), default_channel(), 0.5, 0.6, r=1.0
        )
        assert caps.raw_delta_s == pytest.approx(RAW_S_EXAMPLE, abs=1e-9)
        assert caps.capped_s
        assert caps.delta_s == pytest.approx(H_S, abs=1e-12)
        clamped = tuple(caps)
        assert clamped[0] == caps.delta_s

    def test_key_rate_shifts_raw(self):
        src, ch = default_source(), default_channel()
        base = converse_equivocation_caps(src, ch, 0.5, 0.6, r=0.05)
        keyed = converse_equivocation_caps(src, ch, 0.5, 0.6, r=0.05, R_k=0.25)
        assert keyed.raw_delta_s - base.raw_delta_s == pytest.approx(0.25, abs=1e-12)

    def test_case1_power_split_fixed(self):
        src, ch = default_source(), default_channel()
        with pytest.raises(DomainError):
            converse_equivocation_caps(src, ch, 0.5, 0.6, r=1.0, case=1, beta2=0.5)
        caps = converse_equivocation_caps(src, ch, 0.5, 0.6, r=1.0, case=1, beta2=1.0)
        assert caps.raw_delta_u == caps.raw_delta_u  # well-defined

    def test_case1_floor_propagates(self):
        with pytest.raises(InfeasibleError):
            converse_equivocation_caps(
                default_source(), default_channel(), 0.2, 0.6, r=1.0, case=1
            )


class TestConverseMinR:
    def test_semantic_secrecy_pin(self):
        src, ch = default_source(), default_channel()
        tg = EquivocationTargets(src.h_s, float("-inf"), src.h_s)
        res = converse_min_r(src, ch, 0.5, 0.6, tg, case=2)
        assert res.feasible
        assert res.r_min == pytest.approx(MIN_R_SEMANTIC, abs=1e-12)
        assert res.binding == "delta_s"

    def test_rate_driven_floor(self):
        src, ch = default_source(), default_channel()
        res = converse_min_r(src, ch, 0.5, 0.6, EquivocationTargets.no_secrecy(), case=2)
        assert res.feasible
        assert res.r_min == pytest.approx(R_JOINT_05_06 / C_MAIN, abs=1e-12)
        assert res.binding == "rate"

    def test_key_rate_never_hurts(self):
        src, ch = default_source(), default_channel()
        tg0 = EquivocationTargets(src.h_s, float("-inf"), src.h_s)
        tg1 = EquivocationTargets(src.h_s, float("-inf"), src.h_s, R_k=0.2)
        r0 = converse_min_r(src, ch, 0.5, 0.6, tg0, case=2).r_min
        r1 = converse_min_r(src, ch, 0.5, 0.6, tg1, case=2).r_min
        assert r1 <= r0 + 1e-12

    def test_zero_slope_infeasible(self):
        src = default_source()
        ch = WiretapChannelGaussian(1.0, 0.1, 0.0)
        tg = EquivocationTargets(src.h_s, float("-inf"), float("-inf"))
        res = converse_min_r(src, ch, 0.5, 0.6, tg, case=2)
        assert not res.feasible
        assert "delta_s" in res.reason

    def test_distortion_infeasible_reason(self):
        src, ch = default_source(), default_channel()
        tg = EquivocationTargets.no_secrecy()
        res = converse_min_r(src, ch, 0.2, 0.6, tg, case=1)
        assert not res.feasible
        assert res.reason.startswith("distortion_infeasible")

    def test_case2_no_worse_than_case1(self):
        src, ch = default_source(), default_channel()
        tg = EquivocationTargets(src.h_s, float("-inf"), src.h_s)
        for ds, du in [(0.5, 0.6), (0.45, 0.3), (0.6, 0.8)]:
            r1 = converse_min_r(src, ch, ds, du, tg, case=1)
            r2 = converse_min_r(src, ch, ds, du, tg, case=2)
            assert r1.feasible and r2.feasible
            assert r2.r_min <= r1.r_min + 1e-9


class TestConverseSurface:
    def test_shape_and_rows(self):
        src, ch = default_source(), default_channel()
        surf = converse_surface(
            src, ch, EquivocationTargets.no_secrecy(), 2,
            [0.3, 0.5], [0.4, 0.6, 0.8],
        )
        assert surf.values.shape == (2, 3)
        rows = list(surf.rows())
        assert len(rows) == 6
        assert set(rows[0]) >= {"D_s", "D_u", "value", "feasible"}


class TestSamplers:
    def test_sigma1_structure(self):
        src = default_source()
        rng = np.random.default_rng(3)
        for case in (1, 2):
            for _ in range(10):
                draw = sample_sigma1(src, rng, case=case)
                assert draw.labels == SIGMA1_LABELS
                s = draw.entries
                np.testing.assert_array_equal(s[:2, :2], src.K)
                assert np.linalg.eigvalsh(s).min() >= -1e-9

    def test_sigma1_case1_markov(self):
        # Restricted encoder: auxiliaries depend on the source only through
        # the observable component, so Cov(S, aux | U) must vanish.
        src = default_source()
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = sample_sigma1(src, rng, case=1).entries
            cond = s[0, 2:] - s[0, 1] / s[1, 1] * s[1, 2:]
            np.testing.assert_allclose(cond, 0.0, atol=1e-9)

    def test_sigma2_structure(self):
        ch = default_channel()
        rng = np.random.default_rng(5)
        for _ in range(20):
            draw = sample_sigma2(ch, rng)
            assert draw.labels == SIGMA2_LABELS
            s = draw.entries
            np.testing.assert_array_equal(
                s[np.ix_([4, 5, 6], [4, 5, 6])], ch.channel_block()
            )
            # The receiver/eavesdropper outputs add independent noise, so
            # covariances with the auxiliaries match those with the input.
            np.testing.assert_array_equal(s[:4, 5], s[:4, 4])
            np.testing.assert_array_equal(s[:4, 6], s[:4, 4])
            assert np.linalg.eigvalsh(s).min() >= -1e-9

    def test_sampler_determinism(self):
        src, ch = default_source(), default_channel()
        a = sample_sigma1(src, np.random.default_rng(42), case=2).entries
        b = sample_sigma1(src, np.random.default_rng(42), case=2).entries
        np.testing.assert_array_equal(a, b)
        c = sample_sigma2(ch, np.random.default_rng(42)).entries
        d = sample_sigma2(ch, np.random.default_rng(42)).entries
        np.testing.assert_array_equal(c, d)


class TestInnerTerms:
    def test_terms_match_direct_mutual_information(self):
        src, ch = default_source(), default_channel()
        rng = np.random.default_rng(99)
        s1 = sample_sigma1(src, rng, case=2)
        s2 = sample_sigma2(ch, rng)
        t = gaussian_mod._inner_terms(s1.entries[None], s2.entries[None], case=2)

        def mi1(a, b, c=()):
            return gaussian_mi(s1, a, b, c)

        def mi2(a, b, c=()):
            return gaussian_mi(s2, a, b, c)

        v = [0, 1]
        assert t["a1"][0] == pytest.approx(mi1([2], v), abs=1e-8)
        assert t["a2"][0] == pytest.approx(mi1([2, 3], v), abs=1e-8)
        assert t["a3"][0] == pytest.approx(mi1([4, 5], v, [2]), abs=1e-8)
        assert t["b1"][0] == pytest.approx(mi2([0], [5]), abs=1e-8)
        assert t["b2"][0] == pytest.approx(mi2([0, 2], [5]), abs=1e-8)
        assert t["b3"][0] == pytest.approx(mi2([1, 3], [5], [0]), abs=1e-8)
        assert t["gqs_y"][0] == pytest.approx(mi2([2], [5], [0]), abs=1e-8)
        assert t["gqs_z"][0] == pytest.approx(mi2([2], [6], [0]), abs=1e-8)
        assert t["gj_z"][0] == pytest.approx(mi2([2, 3], [6], [0, 1]), abs=1e-8)

    def test_distortions_are_conditional_variances(self):
        src = default_source()
        rng = np.random.default_rng(123)
        s1 = sample_sigma1(src, rng, case=2)
        t = gaussian_mod._inner_terms(s1.entries[None], np.eye(7)[None], case=2)
        s = s1.entries

        def cond_var(i, given):
            idx = list(given)
            sub = s[np.ix_(idx, idx)]
            cross = s[i, idx]
            return s[i, i] - cross @ np.linalg.solve(sub, cross)

        assert t["d_s"][0] == pytest.approx(cond_var(0, [2, 3]), rel=1e-6)
        assert t["d_u"][0] == pytest.approx(cond_var(1, [2, 4, 5]), rel=1e-6)


def _handmade_sample(src, ch, aux_coupled=True):
    """A deliberately simple auxiliary structure built by hand.

    Source side: Sc = S + n1, Sp = n2, Uc = U + n3, Up = n4 with small
    independent perturbations. Channel side: either a useful structure or
    one whose auxiliaries carry no information about the channel input.
    """
    k = src.K
    s1 = np.zeros((6, 6))
    s1[:2, :2] = k
    noise = 0.01
    # Sc row: correlated with S (and through it with U).
    s1[2, :2] = s1[:2, 2] = k[0]
    s1[2, 2] = k[0, 0] + noise
    s1[3, 3] = noise
    s1[4, :2] = s1[:2, 4] = k[1]
    s1[4, 2] = s1[2, 4] = k[0, 1]
    s1[4, 4] = k[1, 1] + noise
    s1[5, 5] = noise
    sigma1 = CovMatrix(s1, SIGMA1_LABELS)

    s2 = np.zeros((7, 7))
    s2[4:, 4:] = ch.channel_block()
    if aux_coupled:
        for i in range(4):
            s2[i, i] = ch.P / 4.0 + noise
            s2[i, 4] = s2[4, i] = ch.P / 4.0
            s2[i, 5] = s2[5, i] = ch.P / 4.0
            s2[i, 6] = s2[6, i] = ch.P / 4.0
        s2[:4, :4] += np.full((4, 4), 1e-6)
        np.fill_diagonal(s2[:4, :4], np.diag(s2[:4, :4]))
    else:
        for i in range(4):
            s2[i, i] = noise
    sigma2 = CovMatrix(s2, SIGMA2_LABELS)
    return InnerSample.from_covariances(sigma1, sigma2, case=2)


class TestInnerMinR:
    def test_key_rate_rejected(self):
        src, ch = default_source(), default_channel()
        sample = _handmade_sample(src, ch)
        with pytest.raises(DomainError):
            inner_min_r(sample, EquivocationTargets.no_secrecy(R_k=0.1))

    def test_case_mismatch_rejected(self):
        src, ch = default_source(), default_channel()
        sample = _handmade_sample(src, ch)
        with pytest.raises(DomainError):
            inner_min_r(sample, EquivocationTargets.no_secrecy(), case=1)

    def test_public_rate_violation_reason(self):
        src, ch = default_source(), default_channel()
        sample = _handmade_sample(src, ch, aux_coupled=False)
        res = inner_min_r(sample, EquivocationTargets.no_secrecy())
        assert not res.feasible
        assert res.reason == "public_rate"

    def test_discards_unsound_draws_like_the_scan(self):
        # A single draw must be discarded exactly as the scan discards it:
        # draws outside the sound regime of an active target can lie below
        # the converse.
        src, ch = default_source(), default_channel()
        tg = EquivocationTargets(src.h_s, float("-inf"), src.h_s)
        for case in (1, 2):
            rng = np.random.default_rng(5)
            reasons = set()
            for _ in range(300):
                sample = InnerSample.from_covariances(
                    sample_sigma1(src, rng, case=case), sample_sigma2(ch, rng), case
                )
                res = inner_min_r(sample, tg)
                reasons.add(res.reason)
                if res.feasible:
                    lower = converse_min_r(src, ch, sample.d_s, sample.d_u, tg, case=case)
                    assert lower.feasible
                    assert res.r_min >= lower.r_min - 1e-6
            assert {None, "unsound_s", "unsound_su"} <= reasons

    def test_sandwich_against_converse(self):
        src, ch = default_source(), default_channel()
        tg = EquivocationTargets.no_secrecy()
        out = draw_inner_samples(src, ch, tg, case=2, n_samples=400, seed=17)
        acc = out["accepted"]
        assert acc.sum() > 20
        for i in np.flatnonzero(acc)[:25]:
            lower = converse_min_r(
                src, ch, float(out["d_s"][i]), float(out["d_u"][i]), tg, case=2
            )
            assert lower.feasible
            assert out["r"][i] >= lower.r_min - 1e-6


class TestDrawSamples:
    def test_prefix_stability(self):
        src, ch = default_source(), default_channel()
        tg = EquivocationTargets.no_secrecy()
        small = draw_inner_samples(src, ch, tg, case=2, n_samples=600, seed=11)
        large = draw_inner_samples(src, ch, tg, case=2, n_samples=5000, seed=11)
        for key in ("d_s", "d_u", "r", "accepted", "reason"):
            np.testing.assert_array_equal(small[key], large[key][:600])

    def test_reason_codes_in_range(self):
        src, ch = default_source(), default_channel()
        tg = EquivocationTargets(src.h_s, float("-inf"), src.h_s)
        out = draw_inner_samples(src, ch, tg, case=1, n_samples=2000, seed=4)
        assert set(np.unique(out["reason"])) <= set(range(12))
        assert out["accepted"].sum() > 0

    def test_starvation(self, monkeypatch):
        src, ch = default_source(), default_channel()
        monkeypatch.setattr(
            gaussian_mod, "_psd_mask", lambda mats: np.zeros(len(mats), dtype=bool)
        )
        monkeypatch.setattr(gaussian_mod, "_REJECTION_BUDGET", 50)
        with pytest.raises(SamplerStarvationError):
            draw_inner_samples(
                src, ch, EquivocationTargets.no_secrecy(), case=2,
                n_samples=200, seed=1,
            )


class TestInnerScan:
    def test_structure_and_determinism(self):
        src, ch = default_source(), default_channel()
        tg = EquivocationTargets.no_secrecy()
        surf1 = inner_bound_scan(src, ch, tg, case=2, n_samples=3000, seed=8, grid=10)
        surf2 = inner_bound_scan(src, ch, tg, case=2, n_samples=3000, seed=8, grid=10)
        assert surf1.values.shape == (10, 10)
        np.testing.assert_array_equal(surf1.values, surf2.values)
        np.testing.assert_array_equal(surf1.samples, surf2.samples)
        assert surf1.metadata["accepted"] > 0
        assert "discard_reasons" in surf1.metadata
        # Buckets without accepted draws stay flagged as no-data.
        empty = surf1.samples == 0
        assert np.all(~surf1.feasible[empty])
