import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import hyp1f1

from oracles import exact_log_mgf, one_term_root
from dpconc.cgf import (
    _conjugate,
    _root,
    beta_cgf_bound,
    cgf_bound,
    cgf_bound_scaled,
)
from dpconc.kinf import kinf, kinf_inverse, tail_bound_single
from dpconc.measures import DPSpec, WeightedValues, canonicalize, kl_bernoulli, kl_discrete
from dpconc.sums import SumSpec, region_radius, sum_tail
from dpconc.verify import _gamma_log_mgf, chernoff_minimum_gamma, min_scaled_conjugate, random_measure

BER_HALF = canonicalize([(0.0, 0.5), (1.0, 0.5)])


def dual_objective(dp, c):
    v, p = dp.base.positive()
    return c - dp.alpha + dp.alpha * float(np.sum(p * np.log(dp.alpha / (c - v))))


class TestRoot:
    def test_infinite_slope_bisects(self):
        # a Newton step from an infinite slope is 0 and would stop at a non-root
        assert _root(lambda x: (x - 0.5, math.inf), 0.0, 1.0, 0.0) == pytest.approx(0.5, rel=1e-13)

    def test_nan_raises(self):
        with pytest.raises(ArithmeticError, match="NaN"):
            _root(lambda x: (math.nan, 1.0), 0.0, 1.0, 0.5)

    def test_no_convergence_raises(self):
        # no slope to follow, and a relative stop that a root at 0 never meets
        with pytest.raises(ArithmeticError, match="did not converge"):
            _root(lambda x: (x, 0.0), -1.0, 2.0, 2.0)


def _one_term_views(seed, n=5000):
    """(top, p, a, b, r) for ``n`` seeded one-term views with p = 1 - top: a
    top mass of 0 (an ambient top), 5e-324 or drawn up to 1, evenly or in
    logs, and a concentration exp(ell), ell in [-745, 709] or near the log
    gap 0 of the term; (a, b) is its u = a / b as the kernel forms it."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        kind = rng.random()
        if kind < 0.15:
            top = 0.0
        elif kind < 0.2:
            top = 5e-324
        elif kind < 0.6:
            top = math.exp(rng.uniform(math.log(5e-324), 0.0))
        else:
            top = rng.uniform(0.0, 1.0)
        p = 1.0 - top
        if rng.random() < 0.7:
            ell = rng.uniform(-745.0, 709.0)
        else:
            ell = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-17.0, 1.0))
        a, b = (1.0, math.exp(-ell)) if ell > 0.0 else (math.exp(ell), 1.0)
        yield top, p, a, b, _conjugate(top, [(p, 0.0)], ell)[0]


class TestOneTermRoot:
    """Views with one term below the top take the secular root in closed form."""

    def test_matches_exact_root(self):
        for top, p, a, b, r in _one_term_views(21):
            want = one_term_root(top, p, a, b)
            assert abs(r - want) <= 4.0 * math.ulp(want), (top, p, a, b)
            assert top <= r <= 1.0

    def test_boundary_branch_is_exactly_zero(self):
        seen = 0
        for top, p, a, b, r in _one_term_views(22):
            if top == 0.0 and Fraction(p) * Fraction(a) <= Fraction(b):
                assert r == 0.0
                seen += 1
        assert seen > 100

    def test_stays_in_bracket_off_unit_mass(self):
        # canonical weights sum to 1 only within 1e-12
        rng = np.random.default_rng(23)
        for top, p, _, _, _ in _one_term_views(24, 2000):
            p *= 1.0 + rng.uniform(-1e-12, 1e-12)
            for ell in (-745.0, -30.0, -1e-9, 0.0, 1e-9, 30.0, 709.0):
                r = _conjugate(top, [(p, 0.0)], ell)[0]
                assert top <= r <= 1.0


@pytest.mark.parametrize("t", [1e-100, 1e-160, 1e-300, 5e-324])
class TestTinyTopMass:
    """On the base {0: 1, 1: t} every query is its limit as t -> 0.  The
    secular roots reach down to r ~ t, where r * r underflows and a bracket
    [t, 1] halved linearly does not close in 200 steps."""

    @staticmethod
    def base(t):
        return canonicalize([(0.0, 1.0), (1.0, t)])

    def test_cgf_bound(self, t):
        # sup_s s + alpha log(1 - s) at s = 1 - alpha
        got = cgf_bound(DPSpec(1e-3, self.base(t))).value
        assert got == pytest.approx(1.0 - 1e-3 * (1.0 + math.log(1000.0)), rel=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_kinf(self, t):
        res = kinf(self.base(t), 0.5)
        assert res.value == pytest.approx(math.log(2.0), rel=1e-14)
        assert res.diagnostic == pytest.approx(1.0, rel=1e-14)

    def test_kinf_inverse(self, t):
        assert kinf_inverse(self.base(t), 0.5) == pytest.approx(-math.expm1(-0.5), rel=1e-14)

    def test_region_radius(self, t):
        got = region_radius(SumSpec([DPSpec(1.0, self.base(t))]), 0.1).radius
        assert got == pytest.approx(0.9, rel=1e-14)

    def test_sum_tail(self, t):
        got = sum_tail(SumSpec([DPSpec(1.0, self.base(t))]), 0.5).value
        assert got == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("t", [5e-101, 5e-160, 5e-300, 5e-324])
class TestTinyTopMassManyAtoms:
    """On the base {0: 1/2, 1/2: 1/2, 1: t} the secular equation has two terms
    and no closed form: its root r ~ t is reached by bisecting [t, 1] in
    log r.  Every query is its limit as t -> 0, the base with an ambient top."""

    LIMIT = canonicalize([(0.0, 0.5), (0.5, 0.5), (1.0, 0.0)])

    @staticmethod
    def base(t):
        return canonicalize([(0.0, 0.5), (0.5, 0.5), (1.0, t)])

    def test_cgf_bound(self, t):
        # a 300-digit mpmath reference
        got = cgf_bound(DPSpec(1e-3, self.base(t))).value
        assert got == pytest.approx(0.9924388183112978, rel=1e-14)

    def test_kinf_inverse(self, t):
        # a 300-digit mpmath reference
        assert kinf_inverse(self.base(t), 0.5) == pytest.approx(0.5711180575196466, rel=1e-14)

    def test_kinf(self, t):
        assert kinf(self.base(t), 0.6).value == pytest.approx(kinf(self.LIMIT, 0.6).value, rel=1e-14)

    def test_region_radius(self, t):
        def radius(base):
            return region_radius(SumSpec([DPSpec(1.0, base), DPSpec(2.0, base)]), 0.1).radius

        assert radius(self.base(t)) == pytest.approx(radius(self.LIMIT), rel=1e-14)


class TestCgfBound:
    def test_single_atom(self):
        res = cgf_bound(DPSpec(3.0, canonicalize([(0.7, 1.0)])))
        assert res.value == pytest.approx(0.7, abs=1e-9)
        assert res.witness.atoms[0][0] == 0.7
        assert res.witness.weights[0] == pytest.approx(1.0, abs=1e-9)

    def test_bernoulli_reference(self):
        res = cgf_bound(DPSpec(1.0, BER_HALF))
        assert res.value == pytest.approx(0.6129935779567486, abs=1e-9)
        assert res.c_star == pytest.approx(1.7071067811865475, abs=1e-9)
        assert res.boundary_mass == 0.0

    def test_decreasing_in_concentration(self):
        v1 = cgf_bound(DPSpec(1.0, BER_HALF)).value
        v10 = cgf_bound(DPSpec(10.0, BER_HALF)).value
        assert 0.5 <= v10 <= v1
        assert v10 < v1

    def test_large_concentration_to_relative_accuracy(self):
        # B = mean + Var / (2 alpha) + O(alpha^-2): no cancellation at alpha = 1e9
        got = cgf_bound(DPSpec(1e9, BER_HALF)).value
        assert got - 0.5 == pytest.approx(0.25 / 2e9, rel=1e-4)

    def test_huge_concentration_does_not_overflow(self):
        # alpha / gap = 1e310 is past the largest float; B = mean + Var / (2 alpha) + ...
        base = canonicalize([(0.0, 0.5), (1e-10, 0.5)])
        got = cgf_bound(DPSpec(1e300, base)).value
        assert math.isfinite(got)
        assert got == pytest.approx(5e-11, rel=1e-12)

    @pytest.mark.parametrize("alpha", [1e-3, 1e-20, 1e-300])
    def test_tiny_top_mass(self, alpha):
        # the witness's mean gap to the top, per unit of alpha, rounds to 1
        base = WeightedValues([0.0, 1.0], [1.0, 1e-17])
        res = cgf_bound(DPSpec(alpha, base))
        primal = res.witness.mean - alpha * kl_discrete(base, res.witness)
        assert res.value == pytest.approx(primal, rel=1e-12)

    def test_c_star_is_top_eigenvalue(self):
        # the secular equation sum_i alpha p_i / (c - v_i) = 1 is that of the
        # top eigenvalue of diag(v) + alpha sqrt(p) sqrt(p)^T; on the boundary
        # branch an ambient top atom contributes the eigenvalue v_max
        rng = np.random.default_rng(17)
        for _ in range(300):
            base = random_measure(rng, int(rng.integers(1, 9)))
            alpha = float(np.exp(rng.uniform(np.log(0.05), np.log(100.0))))
            root_p = np.sqrt(base.weights)
            matrix = np.diag(base.values) + alpha * np.outer(root_p, root_p)
            top = float(np.linalg.eigvalsh(matrix)[-1])
            assert cgf_bound(DPSpec(alpha, base)).c_star == pytest.approx(top, rel=1e-12)

    def test_value_at_least_mean(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            base = random_measure(rng, int(rng.integers(1, 6)))
            alpha = float(np.exp(rng.uniform(np.log(0.1), np.log(30.0))))
            assert cgf_bound(DPSpec(alpha, base)).value >= base.mean - 1e-10

    def test_witness_attains_value(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            base = random_measure(rng, int(rng.integers(2, 6)))
            alpha = float(np.exp(rng.uniform(np.log(0.1), np.log(30.0))))
            res = cgf_bound(DPSpec(alpha, base))
            attained = res.witness.mean - alpha * kl_discrete(base, res.witness)
            assert attained == pytest.approx(res.value, abs=1e-8)
            assert res.c_star >= base.v_max - 1e-12
            assert res.c_star <= base.v_max + alpha + 1e-9
            assert 0.0 <= res.boundary_mass <= 1.0

    def test_boundary_case_puts_mass_at_ambient_top(self):
        # small alpha, no base mass at the top: leftover goes to the top atom
        base = canonicalize([(0.0, 1.0), (1.0, 0.0)])
        res = cgf_bound(DPSpec(0.5, base))
        assert res.c_star == 1.0
        assert res.boundary_mass == pytest.approx(0.5)
        assert res.value == pytest.approx(0.5 + 0.5 * math.log(0.5), abs=1e-12)

    def test_dual_objective_strictly_convex(self):
        base = canonicalize([(0.0, 0.4), (0.3, 0.3), (1.0, 0.3)])
        dp = DPSpec(2.0, base)
        cs = np.linspace(1.0 + 1e-6, 3.0, 200)
        g = np.array([dual_objective(dp, c) for c in cs])
        second = g[2:] - 2 * g[1:-1] + g[:-2]
        assert np.all(second > 0)


class TestExactLogMgf:
    """The bound against the exact log-MGF of the Chinese-restaurant series."""

    @pytest.mark.parametrize("alpha,p", [(0.05, 0.5), (0.5, 0.3), (1.0, 0.5), (4.0, 0.9), (10.0, 0.2)])
    def test_oracle_matches_confluent_hypergeometric(self, alpha, p):
        # E_X[f] ~ Beta(alpha p, alpha (1 - p)) on two atoms {0, 1}
        base = canonicalize([(0.0, 1.0 - p), (1.0, p)])
        want = math.log(hyp1f1(alpha * p, alpha, 1.0))
        assert exact_log_mgf(alpha, base) == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("top", [50.0, 200.0, 700.0])
    @pytest.mark.parametrize("alpha,p", [(4.0, 0.5), (0.3, 0.1), (25.0, 0.9)])
    def test_oracle_matches_confluent_hypergeometric_at_wide_ranges(self, top, alpha, p):
        # E exp(E_X f) = 1F1(alpha p; alpha; F) on {0: 1 - p, F: p}; powers of F
        # and the rising factorials both leave the float range here
        mpmath = pytest.importorskip("mpmath")
        base = canonicalize([(0.0, 1.0 - p), (top, p)])
        with mpmath.workdps(40):
            want = float(mpmath.log(mpmath.hyp1f1(alpha * p, alpha, top)))
        assert exact_log_mgf(alpha, base) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_bound_dominates_exact_log_mgf(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            base = random_measure(rng, int(rng.integers(2, 8)))
            if base.positive()[1].size == 1:
                continue
            alpha = float(np.exp(rng.uniform(np.log(0.05), np.log(10.0))))
            assert cgf_bound(DPSpec(alpha, base)).value > exact_log_mgf(alpha, base)

    @pytest.mark.parametrize("base", [BER_HALF, canonicalize([(0.0, 0.2), (0.3, 0.5), (1.0, 0.3)])])
    def test_log_mgf_superadditive_in_concentration(self, base):
        # the paper's lemma: a(alpha) = log E exp(E_X[alpha f]), X ~ DP(alpha nu),
        # has a(x + y) >= a(x) + a(y)
        cache = {}

        def a(alpha):
            if alpha not in cache:
                scaled = canonicalize((alpha * v, w) for v, w in base.atoms)
                cache[alpha] = exact_log_mgf(alpha, scaled)
            return cache[alpha]

        grid = np.geomspace(0.05, 10.0, 12).tolist()
        assert min(a(x + y) - a(x) - a(y) for x in grid for y in grid) > 0.0


class TestCgfBoundScaled:
    def test_zero_lambda(self):
        assert cgf_bound_scaled(DPSpec(2.0, BER_HALF), 0.0, 0.3) == 0.0

    def test_identity_scaling(self):
        dp = DPSpec(1.5, BER_HALF)
        assert cgf_bound_scaled(dp, 1.0, 0.0) == pytest.approx(
            cgf_bound(dp).value, abs=1e-12
        )

    def test_matches_beta_closed_form(self):
        got = cgf_bound_scaled(DPSpec(1.0, BER_HALF), 2.0, 0.5)
        assert got == pytest.approx(beta_cgf_bound(0.5, 0.5, 2.0), abs=1e-9)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            cgf_bound_scaled(DPSpec(1.0, BER_HALF), -1.0, 0.0)

    @pytest.mark.parametrize("atoms", [[(0.0, 0.5), (1.0, 0.5)],
                                       [(0.0, 0.5), (0.5, 0.5), (1.0, 0.0)]])
    def test_nan_lambda_rejected(self, atoms):
        with pytest.raises(ValueError):
            cgf_bound_scaled(DPSpec(1.0, canonicalize(atoms)), math.nan, 0.0)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_nan_level_rejected(self, lam):
        with pytest.raises(ValueError, match="u must not be NaN"):
            cgf_bound_scaled(DPSpec(2.0, BER_HALF), lam, math.nan)

    def test_infinite_lambda_rejected(self):
        with pytest.raises(ValueError, match="lam must be nonnegative and finite"):
            cgf_bound_scaled(DPSpec(2.0, BER_HALF), math.inf, 0.5)


def gamma_log_mgf(dp):
    """The Gamma-process log-MGF at the payoff of ``dp``'s base."""
    base = dp.base
    return _gamma_log_mgf(dp.alpha, base.v_max, [a for a in base.atoms if a[1] > 0.0])


class TestGammaLogMgf:
    def test_zero_payoff(self):
        assert gamma_log_mgf(DPSpec(4.0, canonicalize([(0.0, 1.0)]))) == 0.0

    def test_reference(self):
        got = gamma_log_mgf(DPSpec(2.0, canonicalize([(0.5, 1.0)])))
        assert got == pytest.approx(1.3862943611198906, abs=1e-12)

    def test_mass_at_one_rejected(self):
        with pytest.raises(ValueError):
            gamma_log_mgf(DPSpec(1.0, canonicalize([(1.0, 1.0)])))

    def test_value_above_one_rejected(self):
        with pytest.raises(ValueError):
            gamma_log_mgf(DPSpec(1.0, canonicalize([(0.0, 0.5), (1.5, 0.5)])))

    def test_ambient_atom_at_one_allowed(self):
        base = canonicalize([(0.0, 1.0), (1.0, 0.0)])
        assert gamma_log_mgf(DPSpec(1.0, base)) == 0.0


class TestTailBoundSingle:
    def test_below_mean_is_one(self):
        assert tail_bound_single(DPSpec(10.0, BER_HALF), 0.4) == 1.0
        assert tail_bound_single(DPSpec(10.0, BER_HALF), 0.5) == 1.0

    def test_reference(self):
        got = tail_bound_single(DPSpec(10.0, BER_HALF), 0.75)
        assert got == pytest.approx(0.2373046875, abs=1e-9)  # (3/4)^5 exactly

    def test_infinite_exponent_gives_zero(self):
        assert tail_bound_single(DPSpec(10.0, BER_HALF), 1.0) == 0.0

    def test_near_top_boundary_closed_form(self):
        # no mass at the top: the boundary multiplier gives
        # kinf = sum p log((vmax - v)/(vmax - u)), so the tail stays positive
        base = canonicalize([(0.0, 0.5), (0.5, 0.5), (1.0, 0.0)])
        alpha, u = 2.0, 1.0 - 1e-6
        res = kinf(base, u)
        assert res.at_boundary
        expected_exponent = 0.5 * math.log((1.0 - 0.0) / (1.0 - u)) + 0.5 * math.log(
            (1.0 - 0.5) / (1.0 - u)
        )
        got = tail_bound_single(DPSpec(alpha, base), u)
        assert got > 0.0
        assert got == pytest.approx(math.exp(-alpha * expected_exponent), rel=1e-9)


class TestBetaCgfBound:
    def test_zero_lambda(self):
        assert beta_cgf_bound(1.0, 2.0, 0.0) == 0.0

    def test_uniform_reference(self):
        got = beta_cgf_bound(1.0, 1.0, 2.0)
        assert got == pytest.approx(0.22598715591349733, abs=1e-9)
        assert got >= math.log(math.sinh(1.0))  # exact uniform centered CGF

    def test_half_half_reference(self):
        assert beta_cgf_bound(0.5, 0.5, 1.0) == pytest.approx(
            0.11299357795674866, abs=1e-9
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beta_cgf_bound(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            beta_cgf_bound(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            beta_cgf_bound(1.0, 1.0, -0.5)
        with pytest.raises(ValueError):
            beta_cgf_bound(1.0, 1.0, math.nan)

    @pytest.mark.parametrize("a, b", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0),
                                      (1.0, math.nan), (math.inf, math.inf)])
    def test_non_finite_shape_rejected(self, a, b):
        with pytest.raises(ValueError, match="a and b must be positive and finite"):
            beta_cgf_bound(a, b, 1.0)

    @pytest.mark.parametrize("lam", [math.inf, math.nan, -math.inf])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="lam must be nonnegative and finite"):
            beta_cgf_bound(1.0, 1.0, lam)

    @settings(max_examples=60)
    @given(
        st.floats(0.1, 10.0),
        st.floats(0.1, 10.0),
        st.floats(1e-6, 40.0),
    )
    def test_reduces_to_two_atom_solver(self, a, b, lam):
        p = a / (a + b)
        dp = DPSpec(a + b, canonicalize([(0.0, 1.0 - p), (1.0, p)]))
        assert beta_cgf_bound(a, b, lam) == pytest.approx(
            cgf_bound_scaled(dp, lam, p), abs=1e-8
        )

    @pytest.mark.parametrize("lam", [1e16, 1e100, 1e300])
    def test_huge_lambda(self, lam):
        # s rounds to 1 here, so 1 - s must be carried on its own
        rng = np.random.default_rng(16)
        for a, b in [(1.0, 1.0)] + [tuple(rng.uniform(0.1, 10.0, 2)) for _ in range(20)]:
            p = a / (a + b)
            dp = DPSpec(a + b, canonicalize([(0.0, 1.0 - p), (1.0, p)]))
            assert beta_cgf_bound(a, b, lam) == pytest.approx(
                cgf_bound_scaled(dp, lam, p), rel=1e-12
            )

    def test_small_lambda_stable(self):
        # rationalized stationary point: no cancellation as lam -> 0
        for lam in (1e-3, 1e-6, 1e-9, 1e-12):
            v = beta_cgf_bound(2.0, 3.0, lam)
            assert 0.0 <= v <= lam**2  # quadratic near zero

    @pytest.mark.parametrize("a, b, lam, want", [(1.0, 1.0, 1e-9, 6.25e-20),
                                                 (2.0, 3.0, 1e-12, 2.4e-26)])
    def test_small_lambda_relative_accuracy(self, a, b, lam, want):
        # 50-digit values; the leading term lam^2 ab / (2 (a+b)^3) gives both
        assert beta_cgf_bound(a, b, lam) == pytest.approx(want, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 3.0), (0.05, 7.0), (40.0, 0.3)])
    def test_continuous_at_series_cutoff(self, a, b):
        # the divergence switches to a series where s - p is a tenth of p or
        # of 1 - p: on both sides of either switch, and across lam <= a + b,
        # the bound keeps its relative accuracy
        pytest.importorskip("mpmath")
        from oracles import beta_cgf_exact

        n, p, q = a + b, a / (a + b), b / (a + b)
        s_lo, s_hi = 1.1 * p, p + 0.1 * q
        cutoffs = [n * (s - p) / (s * (1.0 - s)) for s in (s_lo, s_hi) if s < 1.0]
        lams = [c * (1.0 + d) for c in cutoffs for d in (-1e-9, 0.0, 1e-9)]
        lams += list(n * np.logspace(-15, 0, 31))
        for lam in lams:
            want = beta_cgf_exact(a, b, lam)
            assert beta_cgf_bound(a, b, lam) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_above_a_plus_b_relative_accuracy(self):
        # for lam > a + b, s - p and log((1 - p) / (1 - s)) cancel as s nears p
        # and on skewed (a, b); the last two named cases put 1 - s or s - p
        # near the float limits
        pytest.importorskip("mpmath")
        from oracles import beta_cgf_exact

        rng = np.random.default_rng(23)
        cases = [(155.908, 0.006795, 171.563), (1e5, 1e-3, 1e100),
                 (1.0, 1e-300, 1e10), (1e300, 1e-5, 1.7e308)]
        for _ in range(300):
            a, b = np.exp(rng.uniform(-5.0, 6.0, 2))
            cases.append((float(a), float(b), float((a + b) * np.exp(rng.uniform(0.0, 3.0)))))
        for a, b, lam in cases:
            # 1 - s reaches 1e-310 here: the oracle's textbook form needs the digits
            want = beta_cgf_exact(a, b, lam, digits=400)
            assert beta_cgf_bound(a, b, lam) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_below_a_plus_b_where_a_is_below_the_rounding_of_b(self):
        # a + b rounds to b, and x / p reaches 1e150: lam x and (a + b) p e(x/p)
        # cancel in the textbook form
        pytest.importorskip("mpmath")
        from oracles import beta_cgf_exact

        want = beta_cgf_exact(1e-300, 1.0, 1.0, digits=800)
        assert want == pytest.approx(3.4488776394910686e-298, rel=1e-15)
        assert beta_cgf_bound(1e-300, 1.0, 1.0) == pytest.approx(want, rel=1e-12, abs=0.0)

    @staticmethod
    def _assert_matches_mpmath(a, b, lam):
        # 1000 digits: the textbook form loses log10((a + b) / lam) digits twice;
        # a subnormal value is held to 1e-13 of the smallest normal float
        from oracles import beta_cgf_exact

        want = beta_cgf_exact(a, b, lam, digits=1000)
        got = beta_cgf_bound(a, b, lam)
        assert abs(got - want) <= 1e-13 * max(want, 2.2250738585072014e-308), (a, b, lam)

    @pytest.mark.parametrize("a, b, lam, want", [
        (1e308, 1e308, 1.0, 6.25e-310), (1.7e308, 1.7e308, 1e300, 3.676470588235294e290),
        (1e160, 1e160, 1.0, 6.25e-162), (1e200, 1e200, 1.0, 6.25e-202),
        (1e200, 3e200, 1.0, 2.34375e-202), (8e307, 8e307, 1e300, 7.8125e290)])
    def test_huge_shapes(self, a, b, lam, want):
        # a + b overflows in the first two; in the others (x/p)^2 underflows,
        # which dropped the divergence and doubled the value
        pytest.importorskip("mpmath")
        assert beta_cgf_bound(a, b, lam) == pytest.approx(want, rel=1e-10)
        self._assert_matches_mpmath(a, b, lam)

    def test_huge_shapes_grid(self):
        pytest.importorskip("mpmath")
        shapes = [1e100, 3e150, 1e200, 7e250, 1e300, 8e307, 1.7e308]
        for a in shapes:
            for b in shapes:
                for lam in [1e-10, 1.0, 3e10, 1e100, 1e200, 1e300]:
                    self._assert_matches_mpmath(a, b, lam)

    def test_conjugate_dominates_kl(self):
        from dpconc.verify import _minimize_convex

        rng = np.random.default_rng(14)
        for _ in range(40):
            a = float(rng.uniform(0.2, 5.0))
            b = float(rng.uniform(0.2, 5.0))
            p = a / (a + b)
            eps = float(rng.uniform(0.01, 0.95)) * (1.0 - p)
            target = (a + b) * kl_bernoulli(p, p + eps)

            def neg_transform(lam):
                return beta_cgf_bound(a, b, lam) - lam * eps

            hi, f_hi = 1.0, neg_transform(1.0)
            for _ in range(100):
                f_next = neg_transform(2.0 * hi)
                if f_next >= f_hi:
                    break
                hi, f_hi = 2.0 * hi, f_next
            sup = -_minimize_convex(neg_transform, 0.0, 2.0 * hi)
            assert sup >= target - 1e-6


class TestDuality:
    def test_scaled_conjugate_minimum_matches_projection(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            base = random_measure(rng, int(rng.integers(2, 6)))
            if base.v_max <= base.mean:
                continue
            alpha = float(np.exp(rng.uniform(np.log(0.2), np.log(20.0))))
            dp = DPSpec(alpha, base)
            u = base.mean + rng.uniform(0.05, 0.95) * (base.v_max - base.mean)
            k = kinf(base, u).value
            assert min_scaled_conjugate(dp, u) == pytest.approx(-alpha * k, abs=1e-6)

    @pytest.mark.parametrize("reference", [min_scaled_conjugate, chernoff_minimum_gamma])
    @pytest.mark.parametrize("u", [1.0, 1.5, math.nan])
    def test_level_at_or_above_top_rejected(self, reference, u):
        # the minimizer lies in [0, alpha / (v_max - u)], empty from u = v_max on
        with pytest.raises(ValueError):
            reference(DPSpec(2.0, canonicalize([(0.0, 0.5), (1.0, 0.5)])), u)

    def test_gamma_chernoff_minimum_matches_projection(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            base = random_measure(rng, int(rng.integers(2, 6)))
            if base.v_max <= base.mean:
                continue
            alpha = float(np.exp(rng.uniform(np.log(0.2), np.log(20.0))))
            dp = DPSpec(alpha, base)
            u = base.mean + rng.uniform(0.05, 0.95) * (base.v_max - base.mean)
            k = kinf(base, u).value
            assert chernoff_minimum_gamma(dp, u) == pytest.approx(-alpha * k, abs=1e-9)
