import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import qk_enumerate
from dpconc.measures import DPSpec, canonicalize
from dpconc.sampler import (
    mc_log_mgf,
    moment_nested,
    qk_rk,
    sample_exact,
    sample_payoff_means,
    sample_stick_breaking,
)

BER_HALF = canonicalize([(0.0, 0.5), (1.0, 0.5)])


class TestSampleExact:
    def test_single_positive_atom(self):
        dp = DPSpec(2.0, canonicalize([(0.3, 1.0)]))
        s = sample_exact(dp, np.random.default_rng(0))
        assert s.weights.tolist() == [1.0]
        assert s.payoff_mean() == 0.3

    @pytest.mark.parametrize("atoms", [[(0.3, 1.0)], [(0.0, 0.0), (0.3, 1.0), (0.9, 0.0)]])
    def test_payoff_means_of_single_positive_atom(self, atoms):
        # numpy's one-shape Dirichlet can return 1 - 2^-53: no draw is taken
        dp = DPSpec(2.0, canonicalize(atoms))
        assert sample_payoff_means(dp, 6, np.random.default_rng(0)).tolist() == [0.3] * 6

    def test_zero_weight_atoms_stay_zero(self):
        dp = DPSpec(2.0, canonicalize([(0.0, 0.5), (0.5, 0.0), (1.0, 0.5)]))
        s = sample_exact(dp, np.random.default_rng(0))
        assert s.weights[1] == 0.0
        assert s.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_mean_matches_base(self):
        rng = np.random.default_rng(1)
        dp = DPSpec(3.0, canonicalize([(0.0, 0.25), (0.4, 0.35), (1.0, 0.4)]))
        n = 100_000
        draws = np.array([sample_exact(dp, rng).weights for _ in range(2000)])
        # vectorized route for the big run; loop route spot-checked above
        means = sample_payoff_means(dp, n, rng)
        se = means.std(ddof=1) / math.sqrt(n)
        assert abs(means.mean() - dp.base.mean) <= 3 * se
        assert np.allclose(draws.sum(axis=1), 1.0, atol=1e-9)

    def test_variance_two_atoms(self):
        # Var X(A) = p(1-p)/(alpha+1) for a two-atom base
        rng = np.random.default_rng(2)
        dp = DPSpec(2.0, BER_HALF)
        n = 100_000
        w1 = sample_payoff_means(dp, n, rng)  # equals the weight on atom 1
        target = 0.25 / 3.0
        sample_var = w1.var(ddof=1)
        se = math.sqrt(2.0 / (n - 1)) * sample_var  # normal-theory approx
        assert abs(sample_var - target) <= max(3 * se, 3e-3)

    def test_deterministic_given_seed(self):
        dp = DPSpec(1.5, BER_HALF)
        a = sample_exact(dp, np.random.default_rng(42)).weights
        b = sample_exact(dp, np.random.default_rng(42)).weights
        assert a.tolist() == b.tolist()

    def test_payoff_means_validates_n(self):
        with pytest.raises(ValueError):
            sample_payoff_means(DPSpec(1.0, BER_HALF), 0, np.random.default_rng(0))


class TestStickBreaking:
    def test_residual_tol_domain(self):
        dp = DPSpec(1.0, BER_HALF)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_stick_breaking(dp, rng, 0.0)
        with pytest.raises(ValueError):
            sample_stick_breaking(dp, rng, 1.5)

    def test_weights_sum_to_one(self):
        dp = DPSpec(4.0, BER_HALF)
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = sample_stick_breaking(dp, rng, 1e-6)
            assert s.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(s.weights >= 0)

    def test_tiny_concentration_one_stick(self):
        dp = DPSpec(1e-6, BER_HALF)
        rng = np.random.default_rng(4)
        heavy = 0
        for _ in range(2000):
            s = sample_stick_breaking(dp, rng, 1e-8)
            if s.weights[0] >= 1.0 - 1e-3:
                heavy += 1
        assert heavy / 2000 >= 0.999

    def test_payoff_mean_matches_base(self):
        dp = DPSpec(2.0, canonicalize([(0.0, 0.3), (0.5, 0.3), (1.0, 0.4)]))
        rng = np.random.default_rng(5)
        n = 20_000
        vals = np.array(
            [sample_stick_breaking(dp, rng, 1e-8).payoff_mean() for _ in range(n)]
        )
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - dp.base.mean) <= 3 * se

    def test_agrees_with_exact_sampler(self):
        dp = DPSpec(3.0, canonicalize([(0.0, 0.4), (0.5, 0.35), (1.0, 0.25)]))
        rng = np.random.default_rng(6)
        n = 10_000
        exact = sample_payoff_means(dp, n, rng)
        stick = np.array(
            [sample_stick_breaking(dp, rng, 1e-8).payoff_mean() for _ in range(n)]
        )
        ks = stats.ks_2samp(exact, stick)
        assert ks.pvalue > 0.01

    def test_truncation_structure(self):
        # at alpha = 1, tol = 1e-6 a chunk holds int(log(1e6)) + 8 = 21
        # fractions; the expected stick count is log(1e6) = 13.8, so a few
        # draws in 500 need a second chunk
        dp = DPSpec(1.0, BER_HALF)
        tol = 1e-6
        rng = np.random.default_rng(13)
        sticks = []
        for _ in range(500):
            s = sample_stick_breaking(dp, rng, tol)
            w = s.weights
            # the leftover before stick i is the mass of sticks i, i+1, ...
            leftover = np.cumsum(w[::-1])[::-1]
            assert np.all(leftover[:-1] >= tol * (1.0 - 1e-9))
            assert w[-1] < tol
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.isin(s.values, [0.0, 1.0]))
            sticks.append(w.size - 1)
        assert max(sticks) > 21

    def test_deterministic_given_seed(self):
        dp = DPSpec(2.0, BER_HALF)
        a = sample_stick_breaking(dp, np.random.default_rng(8), 1e-6)
        b = sample_stick_breaking(dp, np.random.default_rng(8), 1e-6)
        assert a.values.tolist() == b.values.tolist()
        assert a.weights.tolist() == b.weights.tolist()


class TestMomentNested:
    def test_first_moment(self):
        assert moment_nested(DPSpec(7.0, BER_HALF), [0.3]) == pytest.approx(0.3)

    def test_second_moment_reference(self):
        got = moment_nested(DPSpec(1.0, BER_HALF), [0.2, 0.6])
        assert got == pytest.approx(0.16, abs=1e-12)

    def test_full_space_is_one(self):
        for m in range(1, 6):
            assert moment_nested(DPSpec(2.5, BER_HALF), [1.0] * m) == pytest.approx(1.0)

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(7)
        base = canonicalize([(0.0, 0.2), (0.5, 0.6), (1.0, 0.2)])
        dp = DPSpec(1.0, base)
        exact = moment_nested(dp, [0.2, 0.8])
        n = 100_000
        w = rng.dirichlet(dp.alpha * base.weights, size=n)
        prod = w[:, 0] * (w[:, 0] + w[:, 1])
        se = prod.std(ddof=1) / math.sqrt(n)
        assert abs(prod.mean() - exact) <= 3 * se

    def test_decreasing_masses_rejected(self):
        with pytest.raises(ValueError):
            moment_nested(DPSpec(1.0, BER_HALF), [0.6, 0.2])

    def test_domain_bounds(self):
        with pytest.raises(ValueError):
            moment_nested(DPSpec(1.0, BER_HALF), [0.5, 1.2])


class TestQkRk:
    def test_first_order_exact_equality(self):
        for alpha, beta, a1 in [(1.0, 1.0, 0.5), (2.0, 0.5, 0.25), (4.0, 8.0, 0.75)]:
            q, r = qk_rk(alpha, beta, [a1], 1)
            assert q == r == (alpha + beta) * a1

    def test_hand_computed_pair(self):
        q, r = qk_rk(1.0, 1.0, [0.2, 0.6], 2)
        assert q == pytest.approx(0.56, abs=1e-12)
        assert r == pytest.approx(0.5866666666666667, abs=1e-12)
        assert q <= r

    def test_full_masses_collapse(self):
        for k in (1, 3, 5):
            q, r = qk_rk(1.5, 2.5, [1.0] * k, k)
            assert q == pytest.approx(4.0**k, rel=1e-12)
            assert r == pytest.approx(4.0**k, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            qk_rk(1.0, 1.0, [0.5], 2)
        with pytest.raises(ValueError):
            qk_rk(1.0, 1.0, [0.5] * 21, 21)
        with pytest.raises(ValueError):
            qk_rk(-1.0, 1.0, [0.5], 1)

    @settings(max_examples=60)
    @given(
        st.floats(0.1, 10.0),
        st.floats(0.1, 10.0),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10),
    )
    def test_split_moments_never_exceed_merged(self, alpha, beta, masses):
        k = len(masses)
        q, r = qk_rk(alpha, beta, masses, k)
        assert q <= r * (1 + 1e-12) + 1e-300

    @given(
        st.floats(0.1, 10.0),
        st.floats(0.1, 10.0),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10),
    )
    def test_matches_enumerated_assignments(self, alpha, beta, masses):
        k = len(masses)
        q, r = qk_rk(alpha, beta, masses, k)
        assert q == pytest.approx(qk_enumerate(alpha, beta, masses), rel=1e-12)
        ab = alpha + beta
        merged = ab**k * moment_nested(DPSpec(ab, BER_HALF), sorted(masses))
        assert r == pytest.approx(merged, rel=1e-12)

    def test_stepwise_recursion_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            k = int(rng.integers(2, 9))
            alpha = float(rng.uniform(0.1, 10.0))
            beta = float(rng.uniform(0.1, 10.0))
            a = np.sort(rng.uniform(0.0, 1.0, k))
            q_k, _ = qk_rk(alpha, beta, a, k)
            q_prev, _ = qk_rk(alpha, beta, a[:-1], k - 1)
            ab = alpha + beta
            factor = ab * (ab * a[-1] + k - 1) / (ab + k - 1)
            assert q_k <= factor * q_prev * (1 + 1e-12)


class TestMcLogMgf:
    def test_constant_payoff_exact(self):
        dp = DPSpec(3.0, canonicalize([(0.7, 1.0)]))
        est, se = mc_log_mgf(dp, 1000, np.random.default_rng(10))
        assert est == pytest.approx(0.7, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_one_sample_has_infinite_error(self):
        # one draw has no sample deviation: the estimate is that draw's
        # log-MGF term and its standard error is inf
        dp = DPSpec(1.0, BER_HALF)
        draw = float(sample_payoff_means(dp, 1, np.random.default_rng(13))[0])
        est, se = mc_log_mgf(dp, 1, np.random.default_rng(13))
        assert est == math.log(math.exp(draw))
        assert se == math.inf

    def test_below_conjugate_bound(self):
        from dpconc.cgf import cgf_bound

        dp = DPSpec(1.0, BER_HALF)
        est, se = mc_log_mgf(dp, 100_000, np.random.default_rng(11))
        assert est <= cgf_bound(dp).value + 3 * se

    def test_normalized_cgf_nondecreasing_in_concentration(self):
        # superadditivity: (1/alpha) log E exp(alpha E_X[f]) grows with alpha
        rng = np.random.default_rng(12)
        n = 200_000
        vals = []
        for alpha in (1.0, 2.0, 4.0, 8.0):
            scaled = canonicalize([(0.0, 0.5), (alpha * 1.0, 0.5)])
            est, se = mc_log_mgf(DPSpec(alpha, scaled), n, rng)
            vals.append((est / alpha, se / alpha))
        for (lo, se_lo), (hi, se_hi) in zip(vals, vals[1:]):
            assert hi >= lo - 3 * math.hypot(se_lo, se_hi)
