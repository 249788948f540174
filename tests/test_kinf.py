import math

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import optimize

from conftest import measures
from oracles import kinf_grid_three_atoms, kinf_grid_two_atoms
from dpconc.cgf import cgf_bound
from dpconc.kinf import kinf, kinf_inverse
from dpconc.measures import DPSpec, WeightedValues, canonicalize, kl_bernoulli
from dpconc.verify import random_measure

BER_HALF = canonicalize([(0.0, 0.5), (1.0, 0.5)])


class TestKinfExamples:
    def test_zero_at_mean(self):
        res = kinf(BER_HALF, 0.5)
        assert res.value == 0.0
        assert res.lambda_star == 0.0

    def test_bernoulli_reference(self):
        res = kinf(BER_HALF, 0.75)
        assert res.value == pytest.approx(kl_bernoulli(0.5, 0.75), abs=1e-10)
        assert res.diagnostic == pytest.approx(1.0, abs=1e-6)

    def test_point_mass_with_ambient_top(self):
        base = canonicalize([(0.0, 1.0), (1.0, 0.0)])
        res = kinf(base, 0.5)
        assert res.value == pytest.approx(math.log(2.0), abs=1e-10)
        assert res.at_boundary
        assert res.lambda_star == pytest.approx(2.0, abs=1e-10)

    def test_above_top_is_infinite(self):
        assert kinf(BER_HALF, 1.0).value == math.inf
        assert kinf(BER_HALF, 1.5).value == math.inf

    def test_point_mass_at_top(self):
        base = canonicalize([(0.0, 0.0), (1.0, 1.0)])
        assert kinf(base, 1.0).value == 0.0
        assert kinf(base, 1.0 + 1e-9).value == math.inf

    def test_single_atom(self):
        base = canonicalize([(0.3, 1.0)])
        assert kinf(base, 0.2).value == 0.0
        assert kinf(base, 0.3).value == 0.0
        assert kinf(base, 0.4).value == math.inf

    def test_rejects_nonfinite_level(self):
        with pytest.raises(ValueError):
            kinf(BER_HALF, math.nan)

    def test_top_weight_of_one_with_mass_below(self):
        # the weights sum to 1 + 1e-13, within tolerance, so canonicalize keeps
        # them: 1 - top is 0 while mass sits below the top
        base = canonicalize([(-1.0, 1e-13), (1.0, 1.0)])
        assert base.weights[-1] == 1.0
        normed = WeightedValues(base.values, base.weights / base.weights.sum())
        u = 1.0 - 5e-14
        got = kinf(base, u).value
        assert 0.0 < got < math.inf
        assert got == pytest.approx(kinf(normed, u).value, rel=1e-9)


class TestKinfProperties:
    @given(measures(min_atoms=2))
    def test_zero_iff_at_most_mean(self, base):
        mean, vmax = base.mean, base.v_max
        assert kinf(base, mean).value <= 1e-12
        assert kinf(base, mean - 0.25).value == 0.0
        if vmax > mean:
            u = mean + 0.3 * (vmax - mean)
            assert kinf(base, u).value > 1e-12

    def test_convex_in_level(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            base = random_measure(rng, int(rng.integers(2, 6)))
            mean, vmax = base.mean, base.v_max
            if vmax <= mean:
                continue
            a, b = np.sort(mean + rng.uniform(0.01, 0.99, 2) * (vmax - mean))
            mid = kinf(base, (a + b) / 2).value
            assert mid <= (kinf(base, a).value + kinf(base, b).value) / 2 + 1e-9

    def test_diagnostic_contract(self):
        rng = np.random.default_rng(3)
        for _ in range(120):
            base = random_measure(rng, int(rng.integers(2, 6)))
            mean, vmax = base.mean, base.v_max
            if vmax <= mean:
                continue
            u = mean + rng.uniform(0.02, 0.98) * (vmax - mean)
            res = kinf(base, u)
            assert res.diagnostic <= 1.0 + 1e-9
            assert 0.0 <= res.lambda_star <= 1.0 / (vmax - u) + 1e-12
            if res.at_boundary:
                assert base.weights[-1] == 0.0
            elif res.lambda_star > 0:
                assert abs(res.diagnostic - 1.0) <= 1e-6

    def test_atom_split_leaves_solvers_unchanged(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            base = random_measure(rng, 3, ambient_prob=0.0)
            # split the middle atom into two equal-value halves
            (v0, p0), (v1, p1), (v2, p2) = base.atoms
            frac = rng.uniform(0.1, 0.9)
            split = canonicalize(
                [(v0, p0), (v1, frac * p1), (v1, (1 - frac) * p1), (v2, p2)]
            )
            u = base.mean + 0.4 * (base.v_max - base.mean)
            assert kinf(split, u).value == pytest.approx(kinf(base, u).value, abs=1e-9)
            alpha = float(rng.uniform(0.5, 5.0))
            assert cgf_bound(DPSpec(alpha, split)).value == pytest.approx(
                cgf_bound(DPSpec(alpha, base)).value, abs=1e-9
            )


class TestKinfOracles:
    def test_two_atom_grid(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            base = random_measure(rng, 2)
            u = base.mean + rng.uniform(0.02, 0.95) * (base.v_max - base.mean)
            if u >= base.v_max:
                continue
            assert kinf(base, u).value == pytest.approx(
                kinf_grid_two_atoms(base, u), abs=1e-4
            )

    def test_three_atom_segment_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            base = random_measure(rng, 3)
            u = base.mean + rng.uniform(0.02, 0.95) * (base.v_max - base.mean)
            if u >= base.v_max:
                continue
            assert kinf(base, u).value == pytest.approx(
                kinf_grid_three_atoms(base, u, points=100_000), abs=1e-4
            )

    def test_many_atoms_against_primal_solver(self):
        # independent route: constrained primal minimization of the KL
        rng = np.random.default_rng(8)
        for _ in range(12):
            base = random_measure(rng, int(rng.integers(4, 6)), ambient_prob=0.0)
            v, p = base.positive()
            u = base.mean + rng.uniform(0.1, 0.8) * (base.v_max - base.mean)

            def neg_entropy(q):
                return float(np.sum(p * np.log(p / np.maximum(q, 1e-300))))

            cons = [
                {"type": "eq", "fun": lambda q: q.sum() - 1.0},
                {"type": "ineq", "fun": lambda q: q @ v - u},
            ]
            best = math.inf
            for _attempt in range(5):
                q0 = rng.dirichlet(np.ones(v.size))
                r = optimize.minimize(
                    neg_entropy,
                    q0,
                    bounds=[(1e-12, 1.0)] * v.size,
                    constraints=cons,
                    method="SLSQP",
                    options={"maxiter": 500, "ftol": 1e-14},
                )
                if r.success:
                    best = min(best, float(r.fun))
            assert kinf(base, u).value == pytest.approx(best, abs=1e-5)


class TestKinfSlope:
    def test_zero_at_or_below_mean(self):
        assert kinf(BER_HALF, 0.5).lambda_star == 0.0
        assert kinf(BER_HALF, 0.2).lambda_star == 0.0

    def test_matches_finite_differences(self):
        h = 1e-5
        fd = (kinf(BER_HALF, 0.75 + h).value - kinf(BER_HALF, 0.75 - h).value) / (2 * h)
        assert kinf(BER_HALF, 0.75).lambda_star == pytest.approx(fd, abs=1e-4)

    def test_monotone_on_grid(self):
        grid = np.arange(0.55, 0.951, 0.05)
        slopes = [kinf(BER_HALF, u).lambda_star for u in grid]
        assert all(b >= a - 1e-9 for a, b in zip(slopes, slopes[1:]))


class TestKinfInverse:
    def test_zero_budget_returns_mean(self):
        assert kinf_inverse(BER_HALF, 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_reference_budget(self):
        assert kinf_inverse(BER_HALF, 0.25) == pytest.approx(0.8136356725116606, abs=1e-9)

    def test_huge_budget_approaches_top(self):
        assert kinf_inverse(BER_HALF, 1e6) == pytest.approx(1.0, abs=1e-9)

    def test_small_budget_to_relative_accuracy(self):
        # kl(1/2, 1/2 + e) = 2 e^2 + O(e^4): the index sits sqrt(budget / 2) above the mean
        budget = 1e-16
        assert kinf_inverse(BER_HALF, budget) - 0.5 == pytest.approx(
            math.sqrt(budget / 2.0), rel=1e-6
        )

    def test_point_mass_hits_top_exactly(self):
        base = canonicalize([(0.25, 1.0)])
        assert kinf_inverse(base, 0.1) == 0.25

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            kinf_inverse(BER_HALF, -0.1)

    @pytest.mark.parametrize("budget", [math.nan, -1.0])
    def test_nan_and_negative_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            kinf_inverse(BER_HALF, budget)

    def test_budget_ends_give_mean_and_top(self):
        base = canonicalize([(-1.0, 0.25), (0.5, 0.5), (3.0, 0.25), (4.0, 0.0)])
        assert kinf_inverse(base, 0.0) == base.mean
        assert kinf_inverse(base, math.inf) == base.v_max

    def test_top_weight_short_of_one_is_the_point_mass(self):
        # no positive mass sits below the top: every budget, 0 included, reads
        # the base as the point mass at 1, as the tail does
        base = canonicalize([(0.0, 0.0), (1.0, 1 - 1e-13)])
        assert kinf(base, 0.99999999999995).value == 0.0
        for budget in (0.0, 0.3, math.inf):
            assert kinf_inverse(base, budget) == 1.0

    # canonicalize keeps weights summing to within 1e-12 of 1, so a mean can
    # round to its top (a mass of 1e-14 below it) or pass it (a top weight
    # of 5e-13 over a full mass just below)
    @pytest.mark.parametrize("budget", [1e-6, 0.1, 10.0])
    @pytest.mark.parametrize("atoms, top", [
        ([(0.0, 1e-14), (0.5, 1.0)], 0.5),
        ([(0.9999999999999999, 1.0), (1.0, 5e-13)], 1.0),
    ])
    def test_mean_rounded_to_top_gives_top(self, atoms, top, budget):
        base = canonicalize(atoms)
        assert base.mean >= base.v_max == top
        assert kinf_inverse(base, budget) == top

    def test_huge_budget_gives_top(self):
        # the lower end of the multiplier's bracket, log lam of order
        # -budget / mass, overflows to -inf, where the radius rounds to the top
        base = canonicalize([(0.0, 1e-10), (1.0, 1.0)])
        assert kinf_inverse(base, 1e300) == 1.0

    def test_narrow_base_gives_top(self):
        # the bracket's reach / budget, 5e-301 / 1e30, rounds to 0
        base = canonicalize([(0.0, 0.5), (1e-300, 0.5)])
        assert kinf_inverse(base, 1e30) == 1e-300

    @settings(max_examples=25)
    @given(measures(min_atoms=2))
    def test_roundtrip_with_kinf(self, base):
        if base.v_max <= base.mean:
            return
        budget = 0.2
        u = kinf_inverse(base, budget)
        assert kinf(base, u).value <= budget + 1e-6
        if u + 1e-6 < base.v_max:
            assert kinf(base, u + 1e-6).value >= budget - 1e-6
