"""Information-theoretic primitives: oracles and structural properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semsec import (
    DomainError,
    Pmf,
    appendix_inequality_slack,
    binary_entropy,
    entropy,
    mutual_information,
    star,
)

# Frozen independently computed values.
H_QUARTER = 0.8112781244591328          # -0.25 log2 0.25 - 0.75 log2 0.75
H_034_MINUS_H_01 = 0.4558231113837489   # H_b(0.34) - H_b(0.1)

probs = st.floats(0.0, 1.0, allow_nan=False)


class TestBinaryEntropy:
    def test_endpoints_and_midpoint(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_frozen_oracles(self):
        assert binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-15)
        assert binary_entropy(0.34) - binary_entropy(0.1) == pytest.approx(
            H_034_MINUS_H_01, abs=1e-15
        )

    def test_array_input(self):
        vals = binary_entropy(np.array([0.0, 0.25, 0.5]))
        assert vals.shape == (3,)
        assert vals[2] == 1.0

    @pytest.mark.parametrize("bad", [-0.01, 1.01, 2.0])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            binary_entropy(bad)

    @given(probs)
    def test_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)

    @given(probs)
    def test_range(self, p):
        assert 0.0 <= binary_entropy(p) <= 1.0

    @given(st.one_of(probs, st.just(math.nan), st.sampled_from([5e-324, 1e-300, 1.0 - 2**-53])))
    def test_float_path_matches_array_path_bitwise(self, p):
        got, ref = binary_entropy(p), float(binary_entropy(np.array(p)))
        assert type(got) is float
        assert got == ref or (math.isnan(got) and math.isnan(ref))


class TestStar:
    def test_identity_and_absorbing(self):
        assert star(0.3, 0.0) == 0.3
        assert star(0.3, 0.5) == 0.5          # exactly
        assert star(0.5, 0.999) == 0.5        # exactly
        assert star(0.3, 1.0) == pytest.approx(0.7, abs=1e-15)

    def test_frozen_oracle(self):
        assert star(0.1, 0.3) == pytest.approx(0.34, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            star(-0.1, 0.3)
        with pytest.raises(DomainError):
            star(0.1, 1.3)

    @given(probs, probs)
    def test_commutative_and_in_range(self, a, b):
        assert star(a, b) == pytest.approx(star(b, a), abs=1e-12)
        assert 0.0 <= star(a, b) <= 1.0

    @given(st.one_of(probs, st.just(0.5), st.just(math.nan)),
           st.one_of(probs, st.just(0.5), st.just(math.nan)))
    def test_float_path_matches_array_path_bitwise(self, a, b):
        got, ref = star(a, b), float(star(np.array(a), np.array(b)))
        assert type(got) is float
        assert got == ref or (math.isnan(got) and math.isnan(ref))

    @given(probs, probs, probs)
    @settings(max_examples=60)
    def test_associative(self, a, b, c):
        assert star(star(a, b), c) == pytest.approx(star(a, star(b, c)), abs=1e-9)


class TestPmf:
    def test_validation(self):
        with pytest.raises(DomainError):
            Pmf(np.array([0.5, 0.6]))
        with pytest.raises(DomainError):
            Pmf(np.array([-0.1, 1.1]))

    def test_readonly(self):
        p = Pmf(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_marginal_order(self):
        joint = np.array([[0.1, 0.2], [0.3, 0.4]])
        p = Pmf(joint)
        np.testing.assert_allclose(p.marginal((0,)), [0.3, 0.7])
        np.testing.assert_allclose(p.marginal((1,)), [0.4, 0.6])
        np.testing.assert_allclose(p.marginal((1, 0)), joint.T)

    def test_entropy_uniform(self):
        p = Pmf(np.full(8, 0.125))
        assert entropy(p) == pytest.approx(3.0, abs=1e-12)

    @given(st.integers(2, 5), st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_entropy_range(self, n, rnd):
        rng = np.random.default_rng(rnd.getrandbits(32))
        p = Pmf(rng.dirichlet(np.ones(n)))
        h = entropy(p)
        assert -1e-12 <= h <= math.log2(n) + 1e-12


class TestMutualInformation:
    def test_independent_is_zero(self):
        p = Pmf(np.outer([0.3, 0.7], [0.4, 0.6]))
        assert mutual_information(p, (0,), (1,)) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_copy(self):
        p = Pmf(np.diag([0.5, 0.5]))
        assert mutual_information(p, (0,), (1,)) == pytest.approx(1.0, abs=1e-12)

    def test_disjointness_enforced(self):
        p = Pmf(np.full((2, 2), 0.25))
        with pytest.raises(DomainError):
            mutual_information(p, (0,), (0,))

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_chain_rule(self, rnd):
        rng = np.random.default_rng(rnd.getrandbits(32))
        p = Pmf(rng.dirichlet(np.ones(8)).reshape(2, 2, 2))
        lhs = mutual_information(p, (0,), (1, 2))
        rhs = mutual_information(p, (0,), (1,)) + mutual_information(p, (0,), (2,), (1,))
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_nonnegative(self, rnd):
        rng = np.random.default_rng(rnd.getrandbits(32))
        p = Pmf(rng.dirichlet(np.ones(12)).reshape(3, 4))
        assert mutual_information(p, (0,), (1,)) >= 0.0


class TestAppendixInequality:
    def test_arity_checked(self):
        with pytest.raises(DomainError):
            appendix_inequality_slack(Pmf(np.full((2, 2), 0.25)))

    def test_nonnegative_on_random_joints(self):
        rng = np.random.default_rng(20240817)
        worst = math.inf
        for _ in range(300):
            p = Pmf(rng.dirichlet(np.ones(32)).reshape(2, 2, 2, 2, 2))
            worst = min(worst, appendix_inequality_slack(p))
        assert worst >= -1e-9

    def test_independent_everything(self):
        # Fully independent uniform bits: slack reduces to H(C) + H(Z|C0)
        # + extra entropies minus the matching terms; just confirm it is
        # nonnegative and finite.
        p = Pmf(np.full((2, 2, 2, 2, 2), 1.0 / 32))
        slack = appendix_inequality_slack(p)
        assert slack >= -1e-12
        assert math.isfinite(slack)
