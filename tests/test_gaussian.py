"""Gaussian model: converse bounds, samplers, and the Monte-Carlo inner bound."""

import hashlib
import itertools
import math
import re
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import accept_oracle
import converse_oracle
import gram_oracle
import scan_oracle
import semsec.gaussian as gaussian_mod
from semsec import (
    DISABLED,
    DomainError,
    EquivocationTargets,
    InfeasibleError,
    SemanticSourceGaussian,
    WiretapChannelGaussian,
    converse_min_r,
    converse_surface,
    draw_inner_samples,
    equivocation_caps,
    gaussian_rdf_joint,
    inner_bound_scan,
    min_ratio,
)
from semsec.cli import _render_surfaces
from semsec.config import RunConfig, build_channel, build_source, get_preset

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
#: sha256 of small sampler batches; see TestSamplers.test_small_batches_are_pinned.
SMALL_BATCH_PIN = "19d73be4d66c7803bfa769a9d20d1f34081c25f4e11d9293150f68c1561820ed"


def default_source():
    return SemanticSourceGaussian(0.7, 1.0, 0.6)


def default_channel():
    return WiretapChannelGaussian(1.0, 0.1, 0.4)


def cov(src):
    """The covariance block K = [[P_s, P_su], [P_su, P_u]] of a source."""
    return np.array([[src.P_s, src.P_su], [src.P_su, src.P_u]])


def rdfs(src, d_s, d_u, case):
    """(R_s, R_u, R_joint, below the case-1 floor) at one cell."""
    r_j, ((_, _, r_s), (_, _, r_u), _), blocked = src.rdf_components(d_s, d_u, case)
    return float(r_s), float(r_u), float(r_j), bool(blocked)


# ---------------------------------------------------------------------------
# Oracle: the source side as the 6x6 covariance Σ1 = g gᵀ of the sampler's
# factor g, the channel side as a 7x7 covariance over (Wc, Wu, Qs, Qu, X, Y,
# Z), and the information terms from batched LAPACK slogdet. The library
# computes the terms without LAPACK (the source side by Gram-Schmidt on the
# rows of g, the channel side in closed form from its layer powers); these
# are the references it is checked against.
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=60, deadline=None)

# (A, B, C) of each I(A; B | C) and (i, C) of each Var(i | C), per side.
SOURCE_MI = {
    1: {"a1": ([2], [1], []), "a2": ([2, 3], [1], []), "a3": ([4, 5], [1], [2])},
    2: {"a1": ([2], [0, 1], []), "a2": ([2, 3], [0, 1], []), "a3": ([4, 5], [0, 1], [2])},
}
SOURCE_VAR = {"d_s": (0, [2, 3]), "d_u": (1, [2, 4, 5])}
CHANNEL_MI = {
    "b1": ([0], [5], []),
    "b2": ([0, 2], [5], []),
    "b3": ([1, 3], [5], [0]),
    "gqu_y": ([3], [5], [0, 1]),
}
#: The channel MIs that only the secrecy slopes read, and each slope as
#: (the MIs it adds, the MIs it subtracts).
LEAK_MI = {
    "gqs_y": ([2], [5], [0]),
    "gqs_z": ([2], [6], [0]),
    "gqu_z": ([3], [6], [0, 1]),
    "gj_z": ([2, 3], [6], [0, 1]),
}
SLOPES = {
    "g_s": (["gqs_y"], ["gqs_z"]),
    "g_u": (["gqu_y"], ["gqu_z"]),
    "leak_su": (["gqs_y", "gqu_y"], ["gj_z"]),
}
TERM_NAMES = ("a1", "a2", "a3", "d_s", "d_u", *CHANNEL_MI, *SLOPES)


def _slopes(mi):
    """Each secrecy slope from the channel MIs ``mi``, a dict by name."""
    return {name: sum(mi[m] for m in plus) - sum(mi[m] for m in minus)
            for name, (plus, minus) in SLOPES.items()}


def _channel_sets(name):
    """The (A, B, C) of each channel MI I(A; B | C) that a channel term reads."""
    if name in SLOPES:
        return [(CHANNEL_MI | LEAK_MI)[m] for m in sum(SLOPES[name], [])]
    return [CHANNEL_MI[name]]


def _sigma2_oracle(ch, sig2, nu2):
    """The 7x7 channel-side covariances of layer draws (σ², ν²), each (n, 4).

    Layer k is W_k = S_k + M_k with Var(S_k) = σ_k², Var(M_k) = ν_k², all
    independent; X = sum of the S_k plus an independent residual, Y = X + N1,
    Z = Y + N2. So Var(W_k) = σ_k² + ν_k², Cov(W_k, ·) = σ_k² for each of
    X, Y and Z, and the covariance of two of X, Y, Z is the variance of the
    earlier one: P, P + P_N1 or P + P_N.
    """
    s2 = np.zeros((len(sig2), 7, 7))
    layer = np.arange(4)
    s2[:, layer, layer] = sig2 + nu2
    s2[:, :4, 4:] = sig2[:, :, None]
    s2[:, 4:, :4] = sig2[:, None, :]
    p, n1, n = ch.P, ch.P_N1, ch.P_N
    s2[:, 4:, 4:] = [[p, p, p], [p, p + n1, p + n1], [p, p + n1, p + n]]
    return s2


#: Factor rows in chain order (0, 1, 2), one draw each: a zero first row; a
#: second row dependent on the first, then an independent third; a regular
#: draw with pivots 4, 1, 1; and a first row whose squared norm underflows
#: to 0, so that the residuals after it are infinite. Coordinate-major:
#: (coordinate, factor dim, draw).
SINGULAR_FACTORS = np.stack([
    [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]],
    [[2.0, 0.0, 0.0], [-4.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
    [[2.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 3.0, 1.0]],
    [[1e-170, 1e-170, 1e-170], [1.0, 1.0, 1.0], [1.0, 2.0, 3.0]],
], axis=-1)


def _draw_major(g):
    """A coordinate-major factor batch (coordinate, factor dim, draw), the
    layout of the sampler and of the Gram-Schmidt pass, viewed draw-major as
    (draw, coordinate, factor dim), the layout these tests index."""
    return g.transpose(2, 0, 1)


def _gram(g):
    """Σ1 = g gᵀ of each draw of a coordinate-major factor batch."""
    d = _draw_major(g)
    return d @ d.transpose(0, 2, 1)


def _logdet_batch(s, idx):
    sub = s[:, idx][:, :, idx]
    sign, val = np.linalg.slogdet(sub)
    return np.where(sign > 0, val / math.log(2.0), -np.inf)


def _mi_batch(s, a, b, c=()):
    a, b, c = list(a), list(b), list(c)
    ld_c = _logdet_batch(s, c) if c else 0.0
    val = 0.5 * (
        _logdet_batch(s, a + c) + _logdet_batch(s, b + c) - ld_c - _logdet_batch(s, a + b + c)
    )
    return np.maximum(val, 0.0)


def _oracle_terms(s1, s2, case):
    with np.errstate(invalid="ignore"):
        terms = {name: _mi_batch(s1, *abc) for name, abc in SOURCE_MI[case].items()}
        for name, (i, c) in SOURCE_VAR.items():
            terms[name] = np.exp2(_logdet_batch(s1, [i] + c) - _logdet_batch(s1, c))
        terms.update(_channel_oracle(s2))
    return terms


def _channel_oracle(s2):
    """The channel terms from the 7x7 covariances ``s2``: each MI by slogdet,
    each slope as a difference of them."""
    mi = {name: _mi_batch(s2, *abc) for name, abc in (CHANNEL_MI | LEAK_MI).items()}
    return {name: mi[name] for name in CHANNEL_MI} | _slopes(mi)


def _term_support(name, case):
    """(side, sorted union of the index sets the term reads)."""
    if name in CHANNEL_MI or name in SLOPES:
        return 2, sorted(set().union(*(a + b + c for a, b, c in _channel_sets(name))))
    if name in SOURCE_VAR:
        i, c = SOURCE_VAR[name]
        return 1, sorted({i, *c})
    return 1, sorted(set().union(*SOURCE_MI[case][name]))


def _sampler_draws(case, n, seed, src=None, ch=None):
    """(coordinate-major factors g, σ², ν²) of ``n`` seeded sampler draws."""
    rng = np.random.default_rng(seed)
    g = gaussian_mod._sample_sigma1_batch(src or default_source(), case, n, rng)
    sig2, nu2 = gaussian_mod._sample_sigma2_batch(ch or default_channel(), n, rng)
    return g, sig2, nu2


@st.composite
def random_psd(draw, dim):
    """A random factor G of a PSD matrix G Gᵀ of any rank, some coordinates
    (rows of G) exactly zero.

    Returns (factor, set of zeroed coordinates)."""
    seed = draw(st.integers(0, 2**32 - 1))
    rank = draw(st.integers(1, dim + 2))
    zero = draw(st.sets(st.integers(0, dim - 1), max_size=dim))
    spread = draw(st.floats(0.0, 1.5))
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, rank)) * 10.0 ** rng.uniform(-spread, spread, (dim, 1))
    g[sorted(zero)] = 0.0
    return g, zero


@st.composite
def factor_batch(draw):
    """A coordinate-major factor batch and chains over its coordinates.

    Either the singular fixtures; or 1-64 sampler draws with the chains of
    their case; or 1-6 rows over 1-6 factor dims and 1-64 draws with some
    dims zero for every draw, some rows zero, entries zero in single draws,
    a row that is twice another and rows whose squared norms underflow in
    some draws. Chains other than the sampler's are 1-3 prefixes of random
    orderings of the coordinates. Returns (g, chains)."""
    kind = draw(st.integers(0, 4))
    if kind == 0:
        g = SINGULAR_FACTORS
    elif kind == 1:
        case = draw(st.sampled_from([1, 2]))
        g, _, _ = _sampler_draws(case, draw(st.integers(1, 64)), draw(st.integers(0, 2**32 - 1)))
        return g, list(gaussian_mod._SOURCE_CHAINS[case])
    else:
        n_coord, n_dim = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        g = rng.normal(size=(n_coord, n_dim, draw(st.integers(1, 64))))
        g[rng.random(g.shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
        g[:, sorted(draw(st.sets(st.integers(0, n_dim - 1))))] = 0.0
        g[sorted(draw(st.sets(st.integers(0, n_coord - 1))))] = 0.0
        if draw(st.booleans()):
            g[rng.integers(n_coord)] = 2.0 * g[rng.integers(n_coord)]
        tiny = rng.random(g.shape[2]) < draw(st.sampled_from([0.0, 0.3]))
        g[rng.integers(n_coord), :, tiny] *= 1e-170
    n_coord = g.shape[0]
    orders = draw(st.lists(st.permutations(range(n_coord)), min_size=1, max_size=3))
    return g, [tuple(p[:draw(st.integers(1, n_coord))]) for p in orders]


@st.composite
def layer_params(draw):
    """A channel and the (σ², ν²) of one layer draw, each (1, 4): powers
    spanning decades, some exactly zero, signal powers summing to at most P.

    Returns (channel, σ², ν², set of layers with σ = ν = 0)."""
    power = st.one_of(st.just(0.0), st.floats(-8.0, 1.0).map(lambda x: 10.0**x))
    ch = WiretapChannelGaussian(
        10.0 ** draw(st.floats(-3.0, 3.0)), draw(st.floats(1e-3, 1e3)), draw(st.floats(0.0, 1e3))
    )
    shares = np.array(draw(st.lists(power, min_size=4, max_size=4)))
    sig2 = shares / max(shares.sum(), 1.0) * ch.P
    nu2 = np.array(draw(st.lists(power, min_size=4, max_size=4))) * ch.P
    zero = set(np.flatnonzero((sig2 == 0.0) & (nu2 == 0.0)).tolist())
    return ch, sig2[None], nu2[None], zero


def _mp_terms(g, s2, case):
    """The terms of one draw from 50-digit log-determinants: on the source
    side, of the Gram matrix of the factor rows ``g``, formed at 50 digits."""
    with mpmath.workdps(50):
        rows = [[mpmath.mpf(x) for x in row] for row in g]
        s1 = mpmath.matrix([[mpmath.fdot(a, b) for b in rows] for a in rows])

        def ld(s, idx):
            if not idx:
                return mpmath.mpf(0)
            det = mpmath.det(mpmath.matrix([[s[i, j] for j in idx] for i in idx]))
            return mpmath.log(det, 2) if det > 0 else mpmath.mpf("-inf")

        def mi(s, a, b, c):
            return max(0.5 * (ld(s, a + c) + ld(s, b + c) - ld(s, c) - ld(s, a + b + c)), 0)

        terms = {name: mi(s1, *abc) for name, abc in SOURCE_MI[case].items()}
        for name, (i, c) in SOURCE_VAR.items():
            terms[name] = mpmath.power(2, ld(s1, [i] + c) - ld(s1, c))
        channel = {name: mi(s2, *abc) for name, abc in (CHANNEL_MI | LEAK_MI).items()}
        terms.update({name: channel[name] for name in CHANNEL_MI} | _slopes(channel))
        return {name: float(val) for name, val in terms.items()}


def _bits_error(name, got, want):
    """Error in bits; the distortions are compared through their log2."""
    if name in SOURCE_VAR:
        return np.abs(np.log2(got) - np.log2(want))
    return np.abs(got - want)


class TestSource:
    def test_validation(self):
        with pytest.raises(DomainError):
            SemanticSourceGaussian(-0.1, 1.0, 0.0)
        with pytest.raises(DomainError):
            SemanticSourceGaussian(0.7, 1.0, 0.9)  # |cov| > sqrt(P_s P_u)

    @pytest.mark.parametrize("params", [
        (0.7, 1.0, math.nan), (math.nan, 1.0, 0.3), (0.7, math.nan, 0.3),
        (math.inf, 1.0, 0.3), (0.7, math.inf, 0.3), (math.inf, math.inf, 0.3),
        (0.7, 1.0, -math.inf),
    ])
    def test_non_finite_parameters_rejected(self, params):
        # A NaN P_su passed every comparison and the converse then reported
        # a feasible r_min = 0 from a NaN rate-distortion value.
        with pytest.raises(DomainError):
            SemanticSourceGaussian(*params)

    @pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12])
    def test_validation_is_unit_free(self, scale):
        # |rho| = 2 is rejected at every scale; a rank-one K whose P_su is
        # rounded one ulp off sqrt(P_s P_u) is accepted at every scale.
        with pytest.raises(DomainError):
            SemanticSourceGaussian(scale, scale, 2.0 * scale)
        p_s, p_u = 0.7 * scale, scale
        for sign in (1.0, -1.0):
            for ulp in (1.0 + 2.2e-16, 1.0 - 2.2e-16):
                src = SemanticSourceGaussian(p_s, p_u, sign * math.sqrt(p_s * p_u) * ulp)
                assert src.rho2 == pytest.approx(1.0, abs=1e-15)

    def test_moments(self):
        src = default_source()
        assert src.det_k == pytest.approx(0.7 - 0.36, abs=1e-15)
        assert src.rho2 == pytest.approx(0.36 / 0.7, abs=1e-15)

    def test_entropies(self):
        src = default_source()
        assert src.h_s == pytest.approx(H_S, abs=1e-12)
        assert src.h_u == pytest.approx(H_U, abs=1e-12)
        assert src.h_su == pytest.approx(H_SU, abs=1e-12)

    def test_singular_source(self):
        sing = SemanticSourceGaussian(1.0, 1.0, 1.0)
        assert sing.h_su == float("-inf")
        ell = sing.cholesky()
        np.testing.assert_allclose(ell @ ell.T, cov(sing), atol=1e-12)

    def test_cholesky_reconstructs(self):
        src = default_source()
        ell = src.cholesky()
        assert ell[0, 1] == 0.0
        np.testing.assert_allclose(ell @ ell.T, cov(src), atol=1e-12)


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


class TestTargets:
    def test_validation(self):
        with pytest.raises(DomainError):
            EquivocationTargets(float("inf"), 0.0, 0.0)
        with pytest.raises(DomainError):
            EquivocationTargets(0.0, float("nan"), 0.0)
        with pytest.raises(DomainError):
            EquivocationTargets(0.0, 0.0, 0.0, R_k=-0.1)

    def test_disabled_and_active(self):
        tg = EquivocationTargets.no_secrecy(0.3)
        assert (tg.delta_s, tg.delta_u, tg.delta_su, tg.R_k) == (DISABLED,) * 3 + (0.3,)
        # Only an enabled target is priced: the same demand binds while it is
        # enabled and is ignored once disabled.
        src, ch = default_source(), default_channel()
        active = EquivocationTargets(src.h_s, DISABLED, DISABLED)
        assert converse_min_r(src, ch, 0.5, 0.6, active, case=2).binding == "delta_s"
        disabled = replace(active, delta_s=DISABLED)
        assert converse_min_r(src, ch, 0.5, 0.6, disabled, case=2).binding == "rate"


class TestGaussianRdf:
    def test_obs(self):
        src = default_source()
        assert rdfs(src, 0.5, 0.25, 2)[1] == pytest.approx(1.0, abs=1e-12)
        assert rdfs(src, 0.5, 1.0, 2)[1] == 0.0
        assert rdfs(src, 0.5, 3.0, 2)[1] == 0.0

    def test_sem_case2(self):
        src = default_source()
        assert rdfs(src, 0.5, 0.6, 2)[0] == pytest.approx(R_SEM_05, abs=1e-12)
        assert rdfs(src, 0.7, 0.6, 2)[0] == 0.0

    def test_sem_case1_floor(self):
        src = default_source()
        # Residual semantic variance not explained by the observation.
        floor = (1.0 - src.rho2) * 0.7
        assert floor == pytest.approx(0.34, abs=1e-12)
        expected = 0.5 * math.log2(0.36 / (0.5 - 0.34))
        assert rdfs(src, 0.5, 0.6, 1)[0] == pytest.approx(expected, abs=1e-12)
        # Rate blows up approaching the floor; below it the problem is void.
        assert rdfs(src, 0.340001, 0.6, 1)[0] > 9.0
        assert not rdfs(src, 0.340001, 0.6, 1)[3]
        for bad in (0.3399, 0.2):
            assert rdfs(src, bad, 0.6, 1)[0] == math.inf and rdfs(src, bad, 0.6, 1)[3]
            with pytest.raises(InfeasibleError):
                gaussian_rdf_joint(src, bad, 0.6, 1)

    def test_joint_case1_is_max(self):
        src = default_source()
        for ds, du in [(0.5, 0.6), (0.4, 0.2), (0.6, 0.9)]:
            r_s, r_u, _, _ = rdfs(src, ds, du, 1)
            assert gaussian_rdf_joint(src, ds, du, 1) == pytest.approx(
                max(r_s, r_u), abs=1e-12
            )

    def test_joint_case2_pin(self):
        src = default_source()
        assert gaussian_rdf_joint(src, 0.5, 0.6, 2) == pytest.approx(
            R_JOINT_05_06, abs=1e-12
        )

    def test_joint_case2_dominates_marginals(self):
        # At P_su = 0 and D_u > P_u the mid form once gave less than R_S(D_s).
        for src in (default_source(), SemanticSourceGaussian(0.7, 1.0, 0.0)):
            for ds in (0.2, 0.45, 0.65):
                for du in (0.1, 0.5, 0.95, 1.2, 5.0):
                    r_s, r_u, joint, _ = rdfs(src, ds, du, 2)
                    assert joint >= r_s - 1e-12
                    assert joint >= r_u - 1e-12

    def test_joint_case2_continuous_across_branches(self):
        src = default_source()
        for ds in (0.3, 0.5, 0.68):
            grid = np.linspace(0.02, 1.3, 641)
            vals = [gaussian_rdf_joint(src, ds, du, 2) for du in grid]
            steps = np.abs(np.diff(vals))
            assert steps.max() < 0.08


    # A distortion near the smallest floats overflows a closed form, at
    # P_s / D_s or at det K / (D_s D_u). With P_su = 0 and variances whose
    # product is the smallest normal float, a cell one ulp below P_u leaves
    # both deficits positive but their product, and D_s D_u, 0: no regime.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("source, d_s, d_u, case, message", [
        ((0.7, 0.5, 0.3), 1e-160, 1e-160, 2,
         "RDFs are not finite at (D_s, D_u) = (1e-160, 1e-160)"),
        ((0.7, 0.5, 0.3), 1e-320, 0.25, 2, "RDFs are not finite at (D_s, D_u) = (1e-320, 0.25)"),
        ((0.7, 0.5, 0.3), 1e-320, 0.25, 1, None),  # below the case-1 floor: blocked
        ((2.0**-511, 2.0**-511, 0.0), 2.0**-600, math.nextafter(2.0**-511, 0.0), 2,
         f"degenerate at ({2.0**-600}, {math.nextafter(2.0**-511, 0.0)})"),
    ], ids=("weak-regime", "semantic", "case1-floor", "no-regime"))
    def test_overflowing_cell_raises(self, source, d_s, d_u, case, message):
        src = SemanticSourceGaussian(*source)
        if message is None:
            assert src.rdf_components(d_s, d_u, case)[2]
            return
        with pytest.raises(DomainError, match=re.escape(message)):
            src.rdf_components(d_s, d_u, case)
        # In a grid, the first such cell in row-major order is named.
        with pytest.raises(DomainError, match=re.escape(message)):
            src.rdf_components(np.array([[0.5], [d_s]]), np.array([d_u, 0.5]), case)


class TestSecrecyTerm:
    def test_zero_power_share(self):
        assert converse_oracle.gaussian_slope(default_channel(), 0.0) == 0.0

    def test_secrecy_capacity_pin(self):
        assert default_channel().secrecy_capacity == pytest.approx(C_SECRECY, abs=1e-12)

    def test_no_degradation_no_secrecy(self):
        assert WiretapChannelGaussian(1.0, 0.1, 0.0).secrecy_capacity == 0.0

    @pytest.mark.parametrize("p, p_n1, p_n2", [(0.125, 2.0, 1e-14), (1.0, 0.5, 2.22e-16),
                                               (1.0, 0.1, 1e-10)])
    def test_secrecy_capacity_keeps_its_relative_precision(self, p, p_n1, p_n2):
        # A converse ratio divides a need by this capacity, so an
        # underestimate raises the converse above the true lower bound.
        with mpmath.workdps(50):
            p, p_n1, p_n2 = map(mpmath.mpf, (p, p_n1, p_n2))
            exact = float(mpmath.log(1 + p * p_n2 / (p_n1 * (p_n1 + p_n2 + p)), 2) / 2)
        got = WiretapChannelGaussian(float(p), float(p_n1), float(p_n2)).secrecy_capacity
        assert got == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(p=st.floats(5e-324, 1e300), p_n1=st.floats(5e-324, 1e300),
           p_n2=st.one_of(st.just(0.0), st.floats(5e-324, 1e300)))
    @example(p=1e-300, p_n1=5e-324, p_n2=0.0)  # P P_N2 / (P_N1 (P_N + P)) was 0 / 0
    @example(p=1e300, p_n1=2.4e-5, p_n2=1e300)  # P P_N2 overflowed: C_s was inf
    @example(p=1e300, p_n1=5e-324, p_n2=0.0)
    def test_secrecy_capacity_lies_between_0_and_the_main_capacity(self, p, p_n1, p_n2):
        # The main capacity rounds 1 + P / P_N1 to 1 below an SNR of about
        # 1e-16, so the bound is taken in its log1p form, within ulps.
        ch = WiretapChannelGaussian(p, p_n1, p_n2)
        c_s = ch.secrecy_capacity
        assert c_s >= 0.0
        if math.isfinite(ch.capacity_main):
            assert c_s <= math.log1p(p / p_n1) / (2.0 * math.log(2.0)) * (1.0 + 1e-14)


class TestConverseCaps:
    def test_raw_and_clamped_example(self):
        caps = equivocation_caps(default_source(), default_channel(), 0.5, 0.6, r=1.0)
        assert caps.raw_delta_s == pytest.approx(RAW_S_EXAMPLE, abs=1e-9)
        assert caps.capped_s
        assert caps.delta_s == pytest.approx(H_S, abs=1e-12)

    def test_key_rate_shifts_raw(self):
        src, ch = default_source(), default_channel()
        base = equivocation_caps(src, ch, 0.5, 0.6, r=0.05)
        keyed = equivocation_caps(src, ch, 0.5, 0.6, r=0.05, R_k=0.25)
        assert keyed.raw_delta_s - base.raw_delta_s == pytest.approx(0.25, abs=1e-12)

    def test_case1_floor_propagates(self):
        with pytest.raises(InfeasibleError):
            equivocation_caps(default_source(), default_channel(), 0.2, 0.6, r=1.0, case=1)


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
        assert surf.values.shape == surf.feasible.shape == surf.samples.shape == (2, 3)
        rows = "".join(_render_surfaces({2: surf}, RunConfig(), "csv")).splitlines()[3:]
        assert len(rows) == 6
        assert rows[0].split(",")[:3] == ["2", "0.3", "0.4"]
        assert rows[-1].split(",")[:3] == ["2", "0.5", "0.8"]


class TestSamplers:
    def test_sigma1_structure(self):
        src = default_source()
        for case in (1, 2):
            g = gaussian_mod._sample_sigma1_batch(src, case, 10, np.random.default_rng(3))
            d = _draw_major(g)
            assert d.shape == (10, 6, 6)
            # Rows 0-1 are the Cholesky rows of K, so Σ1's source block is K.
            np.testing.assert_array_equal(d[:, :2, :2], np.broadcast_to(src.cholesky(), (10, 2, 2)))
            assert np.all(d[:, :2, 2:] == 0.0)
            np.testing.assert_allclose(_gram(g)[:, :2, :2], np.broadcast_to(cov(src), (10, 2, 2)),
                                       rtol=1e-14)

    def test_sigma1_case1_markov(self):
        # Restricted encoder: auxiliaries depend on the source only through
        # the observable component, so Cov(S, aux | U) must vanish.
        g = gaussian_mod._sample_sigma1_batch(default_source(), 1, 50, np.random.default_rng(7))
        s = _gram(g)
        cond = s[:, 0, 2:] - (s[:, 0, 1] / s[:, 1, 1])[:, None] * s[:, 1, 2:]
        np.testing.assert_allclose(cond, 0.0, atol=1e-9)

    def test_sigma2_structure(self):
        ch = default_channel()
        sig2, nu2 = gaussian_mod._sample_sigma2_batch(ch, 200, np.random.default_rng(5))
        assert sig2.shape == nu2.shape == (200, 4)
        assert np.all(sig2 >= 0.0) and np.all(nu2 >= 0.0)
        # The layer signals share the input power; the residual tops it up.
        assert np.all(sig2.sum(axis=1) <= ch.P * (1.0 + 1e-12))
        # Both the clean full-power split and noisy layers are drawn.
        clean = np.all(nu2 == 0.0, axis=1)
        assert clean.any() and not clean.all()
        assert np.linalg.eigvalsh(_sigma2_oracle(ch, sig2, nu2)).min() >= -1e-9

    def test_sampler_determinism(self):
        src, ch = default_source(), default_channel()
        a = gaussian_mod._sample_sigma1_batch(src, 2, 8, np.random.default_rng(42))
        b = gaussian_mod._sample_sigma1_batch(src, 2, 8, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)
        c = gaussian_mod._sample_sigma2_batch(ch, 8, np.random.default_rng(42))
        d = gaussian_mod._sample_sigma2_batch(ch, 8, np.random.default_rng(42))
        np.testing.assert_array_equal(c, d)

    def test_small_batches_are_pinned(self):
        # Batches this small leave some modes empty. The digest covers the
        # draws and the generator state after each call, so a mode with no
        # draws must consume nothing from the stream. Frozen while each mode
        # was still guarded by a nonempty check; it holds for numpy's PCG64
        # Generator streams and glibc's libm.
        src, ch = default_source(), default_channel()
        h = hashlib.sha256()
        for case in (1, 2):
            for n in (1, 2, 3, 5, 8):
                for seed in range(20):
                    rng = np.random.default_rng(seed)
                    h.update(gaussian_mod._sample_sigma1_batch(src, case, n, rng).tobytes())
                    h.update(repr(rng.bit_generator.state).encode())
                    for part in gaussian_mod._sample_sigma2_batch(ch, n, rng):
                        h.update(part.tobytes())
                    h.update(repr(rng.bit_generator.state).encode())
        assert h.hexdigest() == SMALL_BATCH_PIN


class TestInnerTerms:
    def test_terms_match_direct_mutual_information(self):
        ch = default_channel()
        g, sig2, nu2 = _sampler_draws(2, 1, seed=99)
        t = gaussian_mod._inner_terms(g, sig2, nu2, ch, case=2)
        s1, s2 = _gram(g), _sigma2_oracle(ch, sig2, nu2)

        def mi1(a, b, c=()):
            return _mi_batch(s1, a, b, c)[0]

        def mi2(a, b, c=()):
            return _mi_batch(s2, a, b, c)[0]

        v = [0, 1]
        assert t["a1"][0] == pytest.approx(mi1([2], v), abs=1e-8)
        assert t["a2"][0] == pytest.approx(mi1([2, 3], v), abs=1e-8)
        assert t["a3"][0] == pytest.approx(mi1([4, 5], v, [2]), abs=1e-8)
        assert t["b1"][0] == pytest.approx(mi2([0], [5]), abs=1e-8)
        assert t["b2"][0] == pytest.approx(mi2([0, 2], [5]), abs=1e-8)
        assert t["b3"][0] == pytest.approx(mi2([1, 3], [5], [0]), abs=1e-8)
        assert t["gqu_y"][0] == pytest.approx(mi2([3], [5], [0, 1]), abs=1e-8)
        assert t["g_s"][0] == pytest.approx(mi2([2], [5], [0]) - mi2([2], [6], [0]), abs=1e-8)
        assert t["g_u"][0] == pytest.approx(mi2([3], [5], [0, 1]) - mi2([3], [6], [0, 1]),
                                            abs=1e-8)
        assert t["leak_su"][0] == pytest.approx(
            mi2([2], [5], [0]) + mi2([3], [5], [0, 1]) - mi2([2, 3], [6], [0, 1]), abs=1e-8)

    def test_distortions_are_conditional_variances(self):
        g, sig2, nu2 = _sampler_draws(2, 1, seed=123)
        t = gaussian_mod._inner_terms(g, sig2, nu2, default_channel(), case=2)
        s = _gram(g)[0]

        def cond_var(i, given):
            idx = list(given)
            sub = s[np.ix_(idx, idx)]
            cross = s[i, idx]
            return s[i, i] - cross @ np.linalg.solve(sub, cross)

        assert t["d_s"][0] == pytest.approx(cond_var(0, [2, 3]), rel=1e-6)
        assert t["d_u"][0] == pytest.approx(cond_var(1, [2, 4, 5]), rel=1e-6)

    def test_nonpositive_pivot_makes_longer_prefixes_singular(self):
        g = SINGULAR_FACTORS
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ld, piv = gaussian_mod._prefix_logdets(g, [(0, 1, 2)])
        np.testing.assert_array_equal(piv[(0,)], [0.0, 4.0, 4.0, 0.0])
        np.testing.assert_array_equal(piv[(0, 1)][1:3], [0.0, 1.0])
        np.testing.assert_array_equal(piv[(0, 1, 2)][2], 1.0)
        np.testing.assert_array_equal(ld[frozenset({0})], [-np.inf, 2.0, 2.0, -np.inf])
        np.testing.assert_array_equal(ld[frozenset({0, 1})], [-np.inf, -np.inf, 2.0, -np.inf])
        np.testing.assert_array_equal(ld[frozenset({0, 1, 2})], [-np.inf, -np.inf, 2.0, -np.inf])
        for prefix in ([0], [0, 1], [0, 1, 2]):
            np.testing.assert_allclose(ld[frozenset(prefix)], _logdet_batch(_gram(g), prefix),
                                       rtol=1e-15)

    @settings(max_examples=400, deadline=None)
    @given(batch=factor_batch())
    def test_pass_matches_the_dense_oracle(self, batch):
        # Skipping the dims that are zero for every draw changes no bit: every
        # log-det, and every pivot, NaN after a singular prefix included.
        # einsum sums a lone contiguous draw in another order than a batch
        # of them, so the oracle sees every draw twice.
        g, chains = batch
        n = g.shape[2]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ld, piv = gaussian_mod._prefix_logdets(g, chains)
            ld_want, piv_want = gram_oracle._prefix_logdets(np.tile(_draw_major(g), (2, 1, 1)),
                                                            chains)
        assert ld.keys() == ld_want.keys() and piv.keys() == piv_want.keys()
        for key, want in ld_want.items():
            assert np.array_equal(ld[key], want[:n]), key
        for key, want in piv_want.items():
            assert np.array_equal(piv[key], want[:n], equal_nan=True), key

    @pytest.mark.parametrize("case", [1, 2])
    def test_every_term_matches_direct_formulas(self, case):
        ch = default_channel()
        g, sig2, nu2 = _sampler_draws(case, 5, seed=100 + case)
        t = gaussian_mod._inner_terms(g, sig2, nu2, ch, case)
        assert set(t) == set(TERM_NAMES)
        s1, s2 = _gram(g), _sigma2_oracle(ch, sig2, nu2)
        mi1 = {name: _mi_batch(s1, *abc) for name, abc in SOURCE_MI[case].items()}
        mi2 = _channel_oracle(s2)
        for k in range(5):
            for name, want in (mi1 | mi2).items():
                assert t[name][k] == pytest.approx(want[k], abs=1e-8), name
            s = s1[k]
            for name, (i, c) in SOURCE_VAR.items():
                cross = s[i, c]
                direct = s[i, i] - cross @ np.linalg.solve(s[np.ix_(c, c)], cross)
                assert t[name][k] == pytest.approx(direct, rel=1e-9), name

    @pytest.mark.parametrize("case", [1, 2])
    def test_terms_match_slogdet_oracle_on_sampler_draws(self, case):
        ch = default_channel()
        g, sig2, nu2 = _sampler_draws(case, 3000, seed=30 + case)
        s1, s2 = _gram(g), _sigma2_oracle(ch, sig2, nu2)
        got = gaussian_mod._inner_terms(g, sig2, nu2, ch, case)
        want = _oracle_terms(s1, s2, case)
        for name in TERM_NAMES:
            side, idx = _term_support(name, case)
            s = s1 if side == 1 else s2
            cond = np.linalg.cond(s[:, idx][:, :, idx])
            finite = np.isfinite(want[name])
            np.testing.assert_array_equal(np.isfinite(got[name]), finite, err_msg=name)
            err = _bits_error(name, got[name], want[name])
            assert np.all(err[finite & (cond <= 1e5)] <= 1e-9), name
            assert np.all(err[finite] <= 1e-4), name

    @PROPERTY
    @given(case=st.sampled_from([1, 2]), m1=random_psd(6), layers=layer_params())
    def test_terms_match_oracle_on_random_psd(self, case, m1, layers):
        (g, zero1), (ch, sig2, nu2, zero2) = m1, layers
        s1, s2 = g @ g.T, _sigma2_oracle(ch, sig2, nu2)[0]
        got = gaussian_mod._inner_terms(g[..., None], sig2, nu2, ch, case)
        want = _oracle_terms(s1[None], s2[None], case)
        for name in TERM_NAMES:
            side, idx = _term_support(name, case)
            s, zero = (s1, zero1) if side == 1 else (s2, zero2)
            rest = [i for i in idx if i not in zero]
            if rest and np.linalg.cond(s[np.ix_(rest, rest)]) > 1e5:
                continue  # numerically singular: rounding decides either way
            g, w = got[name][0], want[name][0]
            if zero & set(idx):
                # Exactly singular: a zero coordinate (on the channel side, a
                # layer with σ = ν = 0) gives the same NaN, infinity or zero
                # distortion on both paths.
                assert (np.isnan(g) and np.isnan(w)) or g == w, name
            else:
                assert np.isfinite(g) and np.isfinite(w), name
                assert _bits_error(name, g, w) <= 1e-9, name

    @PROPERTY
    @given(case=st.sampled_from([1, 2]), layers=layer_params())
    def test_channel_terms_on_layer_parameters(self, case, layers):
        # I(A; · | C) vanishes exactly when no layer of A carries signal, and
        # a layer with σ = ν = 0 makes its terms NaN and the draw degenerate.
        ch, sig2, nu2, zero = layers
        src = default_source()
        g, _, _ = _sampler_draws(case, 1, seed=0, src=src)
        t = gaussian_mod._inner_terms(g, sig2, nu2, ch, case)
        silent = set(np.flatnonzero(sig2[0] == 0.0).tolist())
        for name, (a, _, c) in CHANNEL_MI.items():
            val = t[name][0]
            if zero & set(a + c):
                assert np.isnan(val), name
            elif set(a) <= silent:
                assert val == 0.0, name
            else:
                assert np.isfinite(val) and val > 0.0, name
        # A slope is NaN where a layer it reads is; g_s and g_u are at least
        # 0, and exactly 0 where their layer is silent or Z is Y.
        for name in SLOPES:
            val = t[name][0]
            sets = _channel_sets(name)
            a = set().union(*(a for a, _, _ in sets))
            if zero & set().union(*(a + c for a, _, c in sets)):
                assert np.isnan(val), name
                continue
            assert np.isfinite(val), name
            if name != "leak_su":
                assert val >= 0.0, name
                if a <= silent or ch.P_N2 == 0.0:
                    assert val == 0.0, name
        _, accepted, reason = gaussian_mod._accept_draws(t, EquivocationTargets.no_secrecy(), src)
        assert (reason[0] == 10) == bool(zero)
        assert not (zero and accepted[0])

    def test_worst_conditioned_draws_against_high_precision(self):
        # 50-digit log-dets on the 10 worst-conditioned draws of each side:
        # of the Gram matrix of the factor rows on the source side, of the
        # stored entries on the channel side. Gram-Schmidt on the rows loses
        # nothing measurable on the source terms, nor do the closed-form
        # channel terms; slogdet on the rounded Gram matrix loses up to ~1e-6
        # bits on the worst-conditioned Σ1 draws.
        ch = default_channel()
        for case in (1, 2):
            g, sig2, nu2 = _sampler_draws(case, 2000, seed=40 + case)
            s1, s2 = _gram(g), _sigma2_oracle(ch, sig2, nu2)
            keep = [0, 1, 2, 3, 5, 6]  # no channel term reads X
            cond2 = np.linalg.cond(s2[:, keep][:, :, keep])
            worst = np.union1d(np.argsort(np.linalg.cond(s1))[-10:], np.argsort(cond2)[-10:])
            got = gaussian_mod._inner_terms(g[..., worst], sig2[worst], nu2[worst], ch, case)
            want = _oracle_terms(s1[worst], s2[worst], case)
            for k, i in enumerate(worst):
                ref = _mp_terms(g[..., i], s2[i], case)
                for name in TERM_NAMES:
                    tol = 1e-12 if name in CHANNEL_MI or name in SLOPES else 1e-9
                    assert _bits_error(name, got[name][k], ref[name]) <= tol, name
                    assert _bits_error(name, want[name][k], ref[name]) <= 1e-4, name

    @pytest.mark.parametrize("p_n2", [0.4, 1e-10, 1e-14, 10.0**-15.5, 2.22e-16])
    def test_secrecy_slopes_keep_their_relative_precision(self, p_n2):
        # Each slope against 50-digit differences of the Y and Z gains at the
        # same layer powers e_k. The difference of two float logs lost all
        # digits of a slope near P_N2 = 1e-15.
        ch = WiretapChannelGaussian(1.0, 0.5, p_n2)
        g, sig2, nu2 = _sampler_draws(2, 200, seed=8)
        t = gaussian_mod._inner_terms(g, sig2, nu2, ch, case=2)
        e = (sig2**2 / (sig2 + nu2)).tolist()
        with mpmath.workdps(50):
            v_y = mpmath.mpf(ch.P) + mpmath.mpf(ch.P_N1)
            v_z = v_y + mpmath.mpf(ch.P_N2)

            def gain(v, a, c):
                return mpmath.log((v - c) / (v - c - a), 2) / 2

            for k, (wc, wu, qs, qu) in enumerate(map(lambda row: map(mpmath.mpf, row), e)):
                if not np.isfinite(t["leak_su"][k]):  # a layer with σ = ν = 0
                    continue
                want = {
                    "g_s": gain(v_y, qs, wc) - gain(v_z, qs, wc),
                    "g_u": gain(v_y, qu, wc + wu) - gain(v_z, qu, wc + wu),
                }
                part = gain(v_y, qs, wc) - gain(v_z, qs, wc + wu + qu)
                for name, val in want.items():
                    assert t[name][k] == pytest.approx(float(val), rel=1e-12, abs=0.0), name
                # leak_su adds two parts that may cancel: each part's error counts.
                scale = float(abs(want["g_u"]) + abs(part))
                assert abs(t["leak_su"][k] - float(want["g_u"] + part)) <= 1e-12 * scale

    @pytest.mark.parametrize("case", [1, 2])
    def test_acceptance_matches_oracle_terms(self, case):
        src, ch = default_source(), default_channel()
        g, sig2, nu2 = _sampler_draws(case, 20_000, seed=2024 + case)
        got = gaussian_mod._inner_terms(g, sig2, nu2, ch, case)
        want = _oracle_terms(_gram(g), _sigma2_oracle(ch, sig2, nu2), case)
        for tg in (
            EquivocationTargets.no_secrecy(),
            EquivocationTargets(src.h_s, float("-inf"), src.h_s),
        ):
            r_got, acc_got, reason_got = gaussian_mod._accept_draws(got, tg, src)
            r_want, acc_want, reason_want = gaussian_mod._accept_draws(want, tg, src)
            np.testing.assert_array_equal(acc_got, acc_want)
            np.testing.assert_array_equal(reason_got, reason_want)
            np.testing.assert_allclose(r_got[acc_got], r_want[acc_got], rtol=1e-6)


class TestLargeScale:
    @staticmethod
    def _draws(scale, case):
        src = SemanticSourceGaussian(0.7 * scale, scale, 0.6 * scale)
        ch = WiretapChannelGaussian(scale, 0.1 * scale, 0.4 * scale)
        return draw_inner_samples(src, ch, EquivocationTargets.no_secrecy(), case, 20_000, seed=3)

    @pytest.mark.parametrize("scale", [1e-3, 1e5, 1e7, 1e9])
    def test_scan_without_gate_at_large_scale(self, scale):
        # No draw is gated, no tolerance is in the units of the inputs and
        # the sampler scales its draws with the source, so rescaling every
        # variance by s rescales the distortions by s and leaves the reasons
        # and the ratios as they are at s = 1, small s and large s alike.
        # Distortions are compared on the accepted draws: a discarded draw
        # may have a conditional variance that is a rounding residual.
        for case, accepted in ((1, 9345), (2, 8357)):
            ref, out = self._draws(1.0, case), self._draws(scale, case)
            np.testing.assert_array_equal(out["reason"], ref["reason"])
            acc = out["accepted"]
            assert acc.sum() == accepted
            np.testing.assert_allclose(out["r"], ref["r"], rtol=1e-11)
            for key in ("d_s", "d_u"):
                np.testing.assert_allclose(out[key][acc] / scale, ref[key][acc], rtol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-3, 1e9, 1e150])
    def test_constructive_batch_is_unit_free(self, scale):
        # The batch builds its factors from ratios of the source variances,
        # so at 1e150, where a product of three variances overflows, it
        # still keeps every cell and the ratios of s = 1.
        def batch(s, case):
            src = SemanticSourceGaussian(0.7 * s, s, 0.6 * s)
            ch = WiretapChannelGaussian(s, 0.1 * s, 0.4 * s)
            mid = (np.arange(12) + 0.5) / 12
            return scan_oracle.centre_batch(
                "constructive", src, ch, EquivocationTargets.no_secrecy(), case,
                np.repeat(mid * src.P_s, 12), np.tile(mid * src.P_u, 12))

        for case in (1, 2):
            (d_s, d_u, r, acc, reason), ref = batch(scale, case), batch(1.0, case)
            np.testing.assert_array_equal(reason, ref[4])
            assert acc.any()
            np.testing.assert_allclose(r[acc], ref[2][acc], rtol=1e-11)
            np.testing.assert_allclose(d_s[acc] / scale, ref[0][acc], rtol=1e-12)
            np.testing.assert_allclose(d_u[acc] / scale, ref[1][acc], rtol=1e-12)


def _handmade_factor(src):
    """A deliberately simple source-side factor built by hand: Sc = S + n1,
    Sp = n2, Uc = U + n3, Up = n4 with small independent perturbations."""
    l = src.cholesky()
    g = np.zeros((6, 6))
    g[:2, :2] = l
    g[2, :2] = l[0]  # Sc: correlated with S (and through it with U)
    g[4, :2] = l[1]
    g[[2, 3, 4, 5], [2, 3, 4, 5]] = 0.1  # noise variance 0.01
    return g


@st.composite
def inner_configs(draw):
    """A source, a channel, targets each disabled or at most its ceiling,
    and a case. P_N2 is 0 or 10^u for u in [-16, 0.3]: the secrecy capacity
    keeps its relative precision however small P_N2 is (see
    ``TestSecrecyTerm.test_secrecy_capacity_keeps_its_relative_precision``),
    and so does every converse ratio it divides."""
    p_s, p_u = draw(st.floats(0.05, 5.0)), draw(st.floats(0.05, 5.0))
    src = SemanticSourceGaussian(p_s, p_u, draw(st.floats(-0.99, 0.99)) * math.sqrt(p_s * p_u))
    ch = WiretapChannelGaussian(draw(st.floats(0.1, 5.0)), draw(st.floats(0.02, 2.0)),
                                draw(st.one_of(st.just(0.0),
                                               st.floats(-16.0, 0.3).map(lambda u: 10.0**u))))
    tg = EquivocationTargets(*(draw(st.one_of(st.just(DISABLED), st.floats(h - 3.0, h)))
                               for h in (src.h_s, src.h_u, src.h_su)))
    return src, ch, tg, draw(st.sampled_from((1, 2)))


class TestInnerMinR:
    def test_key_rate_rejected(self):
        src, ch = default_source(), default_channel()
        with pytest.raises(DomainError):
            draw_inner_samples(src, ch, EquivocationTargets.no_secrecy(R_k=0.1), 2, 1, seed=0)

    def test_public_rate_violation_reason(self):
        # Layers that carry no signal (every e_k = 0) give the public layer
        # no rate, while Sc describes the source.
        src, ch = default_source(), default_channel()
        sig2, nu2 = np.zeros((1, 4)), np.full((1, 4), 0.01)
        t = gaussian_mod._inner_terms(_handmade_factor(src)[..., None], sig2, nu2, ch, case=2)
        assert t["b1"][0] == 0.0 and t["a1"][0] > 0.0
        r, accepted, reason = gaussian_mod._accept_draws(t, EquivocationTargets.no_secrecy(), src)
        assert not accepted[0] and np.isnan(r[0])
        assert gaussian_mod.REASON_NAMES[int(reason[0])] == "public_rate"

    @pytest.mark.parametrize("name, ceiling, code", [
        ("delta_s", H_S, 4), ("delta_u", H_U, 5), ("delta_su", H_SU, 6),
    ])
    def test_target_above_its_entropy_accepts_no_draw(self, name, ceiling, code):
        # No scheme meets such a target, and the converse calls it
        # infeasible; every finite draw carries the target's secrecy code
        # unless a rate code came first.
        src, ch = default_source(), default_channel()
        tg = replace(EquivocationTargets.no_secrecy(), **{name: ceiling + 0.5})
        assert not min_ratio(src, ch, tg, 0.3, 0.5, 1).feasible
        for case in (1, 2):
            out = draw_inner_samples(src, ch, tg, case, n_samples=2000, seed=1)
            assert not out["accepted"].any()
            assert code in out["reason"]
            assert set(np.unique(out["reason"])) <= {1, 2, 3, code, 10}
        at_ceiling = replace(tg, **{name: ceiling})
        assert draw_inner_samples(src, ch, at_ceiling, 1, n_samples=2000, seed=1)["accepted"].any()

    def test_sandwich_against_converse(self):
        src, ch = default_source(), default_channel()
        tg = EquivocationTargets.no_secrecy()
        out = draw_inner_samples(src, ch, tg, case=2, n_samples=400, seed=17)
        acc = out["accepted"]
        assert acc.sum() > 20
        first = np.flatnonzero(acc)[:25]
        lower = min_ratio(src, ch, tg, out["d_s"][first], out["d_u"][first], 2)
        assert lower.feasible.all()
        assert np.all(out["r"][first] >= lower.r_min - 1e-6)

    def test_no_case_1_draw_beats_the_floor_at_rho_0(self):
        # At rho = 0 the floor is P_s, and a draw's d_s = fl(fl(sqrt(P_s))^2)
        # can round one ulp below it; the scan clamps d_s at the floor.
        src = SemanticSourceGaussian(0.3, 1.0, 0.0)
        out = draw_inner_samples(src, default_channel(), EquivocationTargets.no_secrecy(), 1,
                                 200, seed=0)
        assert out["accepted"].any()
        assert np.all(out["d_s"][out["accepted"]] >= src.P_s)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(config=inner_configs(), seed=st.integers(0, 2**32 - 1),
           grid=st.tuples(st.integers(1, 12), st.integers(1, 12)))
    # Secrecy slopes formed as differences of logs put 2 of 812 accepted
    # draws below the converse here, the worst at 0.913 of it.
    @example(config=(SemanticSourceGaussian(1.0, 2.0, 0.0),
                     WiretapChannelGaussian(1.0, 0.5, 10.0**-15.5),
                     EquivocationTargets(DISABLED, 1.0, DISABLED), 1), seed=0, grid=(12, 12))
    def test_sandwich_over_the_parameter_space(self, config, seed, grid):
        # Every accepted draw is at least the converse at its own
        # distortions, and none is accepted where the converse is
        # infeasible. A draw's distortions carry a few ulps of rounding, and
        # in case 1 at |rho| below about 1e-5 the converse is ill-conditioned
        # there: its semantic RDF divides by d_s - (1 - rho^2) P_s, a gap
        # of a few ulps. So the converse is taken 8 ulps above them. The
        # converse never rises with distortion, so each covered bucket is
        # at least the converse at its upper corner.
        src, ch, tg, case = config
        out = draw_inner_samples(src, ch, tg, case, 3000, seed)
        acc = out["accepted"]
        up = 1.0 + 8 * np.finfo(float).eps
        lower = min_ratio(src, ch, tg, out["d_s"][acc] * up, out["d_u"][acc] * up, case)
        assert lower.feasible.all()
        assert np.all(out["r"][acc] >= lower.r_min - 1e-6)
        scan = inner_bound_scan(src, ch, tg, case, 3000, seed, grid)
        a, b = np.nonzero(scan.feasible)
        hi_s, hi_u = src.distortion_range
        corner = min_ratio(src, ch, tg, np.linspace(0.0, hi_s, grid[0] + 1)[a + 1],
                           np.linspace(0.0, hi_u, grid[1] + 1)[b + 1], case)
        assert corner.feasible.all()
        assert np.all(scan.values[a, b] >= corner.r_min - 1e-6)


_TOL = gaussian_mod._TOL
#: Term values at the acceptance rule's edges: both zeros, NaN, both
#: infinities, subnormals, the division floor 1e-300 and its neighbours, and
#: _TOL and its neighbours.
EDGE_TERMS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-310, 1e-305,
              1e-300, math.nextafter(1e-300, 0.0), math.nextafter(1e-300, 1.0),
              _TOL, math.nextafter(_TOL, 0.0), math.nextafter(_TOL, 1.0))
#: Sources with distinct ceilings; the second is singular, so h_su = -inf.
SOURCES = (default_source(), SemanticSourceGaussian(1.0, 1.0, 1.0))


def _target_settings(ceiling):
    """Disabled, negative, and below, at and above ``ceiling``."""
    return (DISABLED, -1.0, ceiling - 1.0, ceiling, math.nextafter(ceiling, math.inf),
            ceiling + 0.5)


@st.composite
def term_batches(draw):
    """A source and a batch of 1-64 draws' terms. Each term value is either
    an ordinary magnitude or one from a drawn pool of edge values, values
    within 1e-9 of _TOL and values within 1e-9 of a ceiling plus _TOL."""
    src = draw(st.sampled_from(SOURCES))
    near = [h + _TOL for h in (src.h_s, src.h_u, src.h_su) if math.isfinite(h)]
    pool = draw(st.lists(st.one_of(
        st.sampled_from(EDGE_TERMS),
        st.floats(0.0, 2.0 * _TOL),
        st.sampled_from(near).flatmap(lambda x: st.floats(x - 1e-9, x + 1e-9)),
    ), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 64))
    terms = {}
    for name in TERM_NAMES:
        ordinary = rng.uniform(-0.5, 1.0 if name == "a1" else 6.0, n)  # a1 > b1 discards
        terms[name] = np.where(rng.random(n) < 0.4, rng.choice(pool, n), ordinary)
    return src, terms


def _assert_same_verdicts(t, tg, src):
    """The acceptance rule against its oracle: reason codes, the accepted
    mask and r bit for bit, NaN included."""
    r, accepted, reason = gaussian_mod._accept_draws(t, tg, src)
    r_want, accepted_want, reason_want = accept_oracle._accept_draws(t, tg, src)
    np.testing.assert_array_equal(reason, reason_want)
    np.testing.assert_array_equal(accepted, accepted_want)
    np.testing.assert_array_equal(r.view(np.int64), r_want.view(np.int64))


class TestAcceptanceRule:
    # A target of -1.8e308 overflows need / 1e-300 in both versions, and
    # the oracle adds a2 + a3 = inf + -inf outside its errstate.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(batch=term_batches(), data=st.data())
    def test_matches_the_three_block_oracle(self, batch, data):
        src, t = batch
        tg = EquivocationTargets(*(data.draw(st.one_of(st.sampled_from(_target_settings(h)),
                                                        st.floats(-2.0, 4.0)))
                                   for h in (src.h_s, src.h_u, src.h_su)))
        _assert_same_verdicts(t, tg, src)

    @pytest.mark.parametrize("case", [1, 2])
    def test_matches_the_oracle_on_sampler_chunks(self, case):
        # A full 4096-draw chunk of real terms, against every combination of
        # the target settings for the three targets.
        src, ch = default_source(), default_channel()
        g, sig2, nu2 = _sampler_draws(case, 4096, seed=90 + case)
        t = gaussian_mod._inner_terms(g, sig2, nu2, ch, case)
        for values in itertools.product(*(_target_settings(h)
                                          for h in (src.h_s, src.h_u, src.h_su))):
            _assert_same_verdicts(t, EquivocationTargets(*values), src)


class TestDrawSamples:
    def test_prefix_stability(self):
        src, ch = default_source(), default_channel()
        tg = EquivocationTargets.no_secrecy()
        small = draw_inner_samples(src, ch, tg, case=2, n_samples=600, seed=11)
        large = draw_inner_samples(src, ch, tg, case=2, n_samples=5000, seed=11)
        for key in ("d_s", "d_u", "r", "accepted", "reason"):
            np.testing.assert_array_equal(small[key], large[key][:600])

    @pytest.mark.parametrize("case", [1, 2])
    def test_prefix_stability_with_a_one_draw_chunk(self, case):
        # The last chunk of 4097 draws holds one draw. Its sums run in the
        # same order as inside a full chunk, so its bits are the same.
        src, ch = default_source(), default_channel()
        tg = EquivocationTargets.no_secrecy()
        small = draw_inner_samples(src, ch, tg, case, n_samples=4097, seed=2)
        large = draw_inner_samples(src, ch, tg, case, n_samples=8192, seed=2)
        for key in ("d_s", "d_u", "r", "accepted", "reason"):
            np.testing.assert_array_equal(small[key], large[key][:4097])

    def test_reason_codes_in_range(self):
        src, ch = default_source(), default_channel()
        tg = EquivocationTargets(src.h_s, float("-inf"), src.h_s)
        out = draw_inner_samples(src, ch, tg, case=1, n_samples=2000, seed=4)
        assert set(np.unique(out["reason"])) <= set(range(11))
        assert out["accepted"].sum() > 0

    @settings(max_examples=25, deadline=None)
    @given(config=inner_configs(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64),
           grid=st.tuples(st.integers(1, 12), st.integers(1, 12)))
    def test_one_candidate_draws_match_one_acceptance_call(self, config, seed, n, grid):
        # Random and constructive draws have one channel candidate each, so
        # each must get what one _accept_draws call gives on its terms, bit
        # for bit: the reason codes, r with its NaNs, and d_s clamped at the
        # case-1 floor.
        src, ch, tg, _ = config
        (hi_s, hi_u), (n_s, n_u) = src.distortion_range, grid
        cells = (np.repeat((np.arange(n_s) + 0.5) * hi_s / n_s, n_u),
                 np.tile((np.arange(n_u) + 0.5) * hi_u / n_u, n_s))
        for case in (1, 2):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
            g = gaussian_mod._sample_sigma1_batch(src, case, 4096, rng)
            sig2, nu2 = gaussian_mod._sample_sigma2_batch(ch, 4096, rng)
            random = draw_inner_samples(src, ch, tg, case, n, seed)
            _assert_one_acceptance_call(
                [random[key] for key in ("d_s", "d_u", "r", "accepted", "reason")],
                gaussian_mod._inner_terms(g[..., :n], sig2[:n], nu2[:n], ch, case), tg, src, case)
            source, sig2 = gaussian_mod._constructive_draws(src, ch, case, *cells)
            split = sig2[:, 0]
            _assert_one_acceptance_call(
                scan_oracle.centre_batch("constructive", src, ch, tg, case, *cells),
                {**source, **gaussian_mod._channel_terms(split, (split == 0.0).astype(float), ch)},
                tg, src, case)


def _assert_one_acceptance_call(got, t, tg, src, case):
    """``got``, a ``(d_s, d_u, r, accepted, reason)`` tuple, against one
    ``_accept_draws`` call on the terms ``t`` and their distortions, d_s
    clamped at the floor in case 1, bit for bit."""
    floor = src.semantic_floor(1) if case == 1 else -np.inf
    want = (np.maximum(t["d_s"], floor), t["d_u"], *gaussian_mod._accept_draws(t, tg, src))
    for got_part, want_part in zip(got, want, strict=True):
        assert got_part.dtype == want_part.dtype
        np.testing.assert_array_equal(got_part.view(np.uint8), want_part.view(np.uint8))


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

    @pytest.mark.parametrize("n_samples", [1, 4095, 4096, 4097, 3 * 4096 + 5])
    @pytest.mark.parametrize("case", [1, 2])
    @pytest.mark.parametrize("preset", ["gaussian-inner-nosecrecy", "gaussian-inner-semantic"])
    def test_folding_each_chunk_matches_the_concatenated_oracle(self, preset, case, n_samples):
        # A minimum, a count and a sum do not depend on how the draws are
        # split into chunks, so the streamed scan keeps every bit.
        cfg = get_preset(preset)
        src, ch, tg = build_source(cfg), build_channel(cfg), cfg.targets()
        for grid in (1, (3, 7), 40):
            got = inner_bound_scan(src, ch, tg, case, n_samples, seed=31, grid=grid)
            want = scan_oracle.inner_bound_scan(src, ch, tg, case, n_samples, seed=31, grid=grid)
            np.testing.assert_array_equal(got.values.view(np.int64), want.values.view(np.int64))
            np.testing.assert_array_equal(got.feasible, want.feasible)
            assert got.samples.dtype == want.samples.dtype
            np.testing.assert_array_equal(got.samples, want.samples)
            assert got.metadata == want.metadata
            assert list(got.metadata["discard_reasons"]) == list(want.metadata["discard_reasons"])
            for axis in ("D_s", "D_u"):
                np.testing.assert_array_equal(got.axes[axis], want.axes[axis])

    def test_each_chunk_is_a_slice_of_the_draws(self):
        src, ch = default_source(), default_channel()
        tg = EquivocationTargets(src.h_s, DISABLED, DISABLED)
        n = 2 * 4096 + 5
        whole = draw_inner_samples(src, ch, tg, 2, n, seed=6)
        chunks = list(gaussian_mod._inner_chunks(src, ch, tg, 2, n, seed=6))
        assert [len(chunk[0]) for chunk in chunks] == [4096, 4096, 5]
        for ci, chunk in enumerate(chunks):
            for key, got in zip(("d_s", "d_u", "r", "accepted", "reason"), chunk):
                want = whole[key][ci * 4096:(ci + 1) * 4096]
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))

    @pytest.mark.parametrize("case, accepted, public_rate", [(1, 684, 156), (2, 1246, 354)])
    def test_constructive_batch_on_the_nosecrecy_preset(self, case, accepted, public_rate):
        # One draw per bucket centre of the 40x40 grid, in case 1 only the
        # 840 above the floor. Each is discarded only where R_joint > C,
        # for the public constraint, and counted apart from the random draws.
        cfg = get_preset("gaussian-inner-nosecrecy")
        src, ch, tg = build_source(cfg), build_channel(cfg), cfg.targets()
        scan = inner_bound_scan(src, ch, tg, case, 1, seed=5)
        assert scan.metadata["constructive"] == {
            "accepted": accepted, "discard_reasons": {"ok": accepted, "public_rate": public_rate}}
        assert scan.metadata["accepted"] + sum(scan.metadata["discard_reasons"].values()) == 2
        assert scan.samples.sum() == (accepted + scan.metadata["accepted"]
                                      + scan.metadata["secret_layer"]["accepted"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(config=inner_configs(), grid=st.tuples(st.integers(1, 40), st.integers(1, 40)))
    def test_constructive_draws_meet_the_converse(self, config, grid):
        # Without secrecy the constructive draw at a bucket centre has
        # r = R_joint / C, the converse at its own distortions, and only the
        # public constraint, a1 = R_joint <= C, can discard it.
        src, ch, _, _ = config
        tg = EquivocationTargets.no_secrecy()
        (hi_s, hi_u), (n_s, n_u) = src.distortion_range, grid
        cell_s, cell_u = np.meshgrid((np.arange(n_s) + 0.5) * hi_s / n_s,
                                     (np.arange(n_u) + 0.5) * hi_u / n_u, indexing="ij")
        for case in (1, 2):
            d_s, d_u, r, acc, reason = scan_oracle.centre_batch(
                "constructive", src, ch, tg, case, cell_s.ravel(), cell_u.ravel())
            assert set(reason.tolist()) <= {0, 1}
            lower = min_ratio(src, ch, tg, d_s[acc], d_u[acc], case)
            assert lower.feasible.all()
            np.testing.assert_allclose(r[acc], lower.r_min, rtol=1e-9, atol=0.0)
            at_centre = min_ratio(src, ch, tg, cell_s, cell_u, case)
            reach = at_centre.r_min[at_centre.feasible]
            assert np.sum(reach < 1.0 - 1e-6) <= acc.sum() <= np.sum(reach <= 1.0 + 1e-6)

    @pytest.mark.parametrize("preset, case, reasons", [
        ("nosecrecy", 1, {"ok": 840}),
        ("nosecrecy", 2, {"ok": 1600}),
        ("semantic", 1, {"ok": 738, "unsound_s": 80, "unsound_su": 22}),
        ("semantic", 2, {"ok": 1437, "unsound_s": 120, "unsound_su": 43}),
    ])
    def test_secret_layer_batch_on_the_presets(self, preset, case, reasons):
        # One draw per bucket centre of the 40x40 grid, in case 1 only the
        # 840 above the floor, counted apart from the other draws. Under the
        # semantic preset's targets the constructive batch accepts none. A
        # discarded centre reports the highest code over the splits, here
        # the soundness constraint that binds at the splits meeting both
        # rate constraints.
        cfg = get_preset(f"gaussian-inner-{preset}")
        src, ch, tg = build_source(cfg), build_channel(cfg), cfg.targets()
        scan = inner_bound_scan(src, ch, tg, case, 1, seed=5)
        assert scan.metadata["secret_layer"] == {"accepted": reasons["ok"],
                                                 "discard_reasons": reasons}

    @staticmethod
    def _assert_the_best_lattice_split(src, ch, tg, case, cell_s, cell_u):
        # The batch against one _inner_terms + _accept_draws call per split
        # on every draw, bit for bit: the least r, and the highest reason
        # code over the splits where no split accepts the draw.
        got = scan_oracle.centre_batch("secret_layer", src, ch, tg, case, cell_s, cell_u)
        want = scan_oracle.secret_layer_batch(src, ch, tg, case, cell_s, cell_u)
        for got_part, want_part in zip(got, want):
            assert got_part.dtype == want_part.dtype
            np.testing.assert_array_equal(got_part.view(np.uint8), want_part.view(np.uint8))

    @pytest.mark.parametrize("case", [1, 2])
    @pytest.mark.parametrize("preset", ["gaussian-inner-nosecrecy", "gaussian-inner-semantic"])
    def test_secret_layer_batch_is_the_best_lattice_split(self, preset, case):
        cfg = get_preset(preset)
        src, ch, tg = build_source(cfg), build_channel(cfg), cfg.targets()
        mid = (np.arange(40) + 0.5) / 40
        self._assert_the_best_lattice_split(src, ch, tg, case, np.repeat(mid * src.P_s, 40),
                                            np.tile(mid * src.P_u, 40))

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=60, deadline=None)
    @given(config=inner_configs(), grid=st.tuples(st.integers(1, 30), st.integers(1, 30)))
    def test_secret_layer_draws_meet_their_centres_and_the_converse(self, config, grid):
        # Every draw hits its centre's distortions, and no accepted draw is
        # below the converse there. In case 1 only a centre above the floor,
        # where Sp = U + N needs a positive noise variance, gets a draw.
        src, ch, tg, _ = config
        (hi_s, hi_u), (n_s, n_u) = src.distortion_range, grid
        cell_s, cell_u = (c.ravel() for c in np.meshgrid((np.arange(n_s) + 0.5) * hi_s / n_s,
                                                         (np.arange(n_u) + 0.5) * hi_u / n_u,
                                                         indexing="ij"))
        for case in (1, 2):
            d_s, d_u, r, acc, reason = scan_oracle.centre_batch("secret_layer", src, ch, tg,
                                                                case, cell_s, cell_u)
            drawn = np.ones(cell_s.size, dtype=bool)
            if case == 1:
                drawn = src.P_su * (src.P_su / (src.P_s - cell_s)) - src.P_u > 0.0
            np.testing.assert_allclose(d_s, cell_s[drawn], rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(d_u, cell_u[drawn], rtol=1e-12, atol=0.0)
            lower = min_ratio(src, ch, tg, d_s[acc], d_u[acc], case)
            assert lower.feasible.all()
            assert np.all(r[acc] >= lower.r_min * (1.0 - 1e-9))
            if case == 2 and grid[0] * grid[1] <= 16:
                self._assert_the_best_lattice_split(src, ch, tg, case, cell_s, cell_u)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-3, 1e9, 1e150])
    def test_secret_layer_batch_is_unit_free(self, scale):
        # Each noise variance is one variance times a ratio, so at 1e150,
        # where a product of three variances overflows, the batch still
        # keeps every cell, and the reasons and ratios of s = 1.
        def batch(s, case):
            src = SemanticSourceGaussian(0.7 * s, s, 0.6 * s)
            ch = WiretapChannelGaussian(s, 0.1 * s, 0.4 * s)
            mid = (np.arange(12) + 0.5) / 12
            return scan_oracle.centre_batch(
                "secret_layer", src, ch, EquivocationTargets.no_secrecy(), case,
                np.repeat(mid * src.P_s, 12), np.tile(mid * src.P_u, 12))

        for case in (1, 2):
            (d_s, d_u, r, acc, reason), ref = batch(scale, case), batch(1.0, case)
            np.testing.assert_array_equal(reason, ref[4])
            assert acc.any()
            np.testing.assert_allclose(r[acc], ref[2][acc], rtol=1e-11)
            np.testing.assert_allclose(d_s / scale, ref[0], rtol=1e-12)
            np.testing.assert_allclose(d_u / scale, ref[1], rtol=1e-12)

    def test_memory_does_not_grow_with_the_draw_count(self):
        # The scan holds one chunk of draws at a time. Holding every draw,
        # 16 chunks peaked 37% above 2 chunks.
        cfg = get_preset("gaussian-inner-semantic")
        src, ch, tg = build_source(cfg), build_channel(cfg), cfg.targets()
        inner_bound_scan(src, ch, tg, 2, 1, seed=5)  # first-call set-up, untraced
        peaks = []
        for n_chunks in (2, 16):
            tracemalloc.start()
            try:
                inner_bound_scan(src, ch, tg, 2, n_chunks * 4096, seed=5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]
