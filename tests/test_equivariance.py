"""Scale and shift equivariance, monotonicity and range of the bounds.

Shifting the payoffs of a component by t shifts the KL-UCB index, the
region radius, the conjugate bound and the tail level by t; scaling
every payoff by s > 0 scales them by s (the conjugate bound with its
concentration scaled by s too).  The half-space projection moves with
its level: its value and the single-component tail bound stay put, and
its slope scales by 1/s.  The solvers work in scale-free variables and
stop on relative steps, so these hold to rounding at any payoff scale,
from s = 1e-170 to s = 1e170.
"""

import math

from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import measures
from dpconc.cgf import cgf_bound
from dpconc.kinf import kinf, kinf_inverse, tail_bound_single
from dpconc.measures import DPSpec, canonicalize
from dpconc.sums import SumSpec, region_radius, sum_tail_bound

REL = 1e-9

BER_HALF = canonicalize([(0.0, 0.5), (1.0, 0.5)])
scales = st.integers(-12, 6).map(lambda k: 10.0**k)
shifts = st.integers(-40, 40).map(lambda i: i / 4.0)
alphas = st.integers(-8, 12).map(lambda k: 2.0 ** (k / 2.0))
components = st.lists(st.tuples(alphas, measures()), min_size=1, max_size=3)
fractions = st.floats(0.02, 0.98)


def moved(base, s=1.0, t=0.0):
    return canonicalize((s * v + t, w) for v, w in base.atoms)


def spec_of(parts, s=1.0, t=0.0):
    return SumSpec(DPSpec(alpha, moved(base, s, t)) for alpha, base in parts)


def size(parts):
    """Payoff magnitude of a sum, the scale of its rounding errors."""
    return sum(1.0 + max(abs(base.v_min), abs(base.v_max)) for _, base in parts)


def level(parts, frac):
    """A tail level between the sums of the means and of the maxima."""
    lo = sum(base.mean for _, base in parts)
    hi = sum(base.v_max for _, base in parts)
    return lo + frac * (hi - lo)


@example(base=BER_HALF, s=1e-12, t=0.0, budget=0.3)
@given(measures(), scales, shifts, st.floats(0.001, 20.0))
def test_kinf_inverse_equivariant(base, s, t, budget):
    want = kinf_inverse(base, budget)
    tol = REL * size([(1.0, base)])
    assert abs(kinf_inverse(moved(base, s=s), budget) / s - want) <= tol
    assert abs(kinf_inverse(moved(base, t=t), budget) - t - want) <= tol


@example(parts=[(4.0, BER_HALF)] * 2, s=1e-12, t=0.0, delta=math.exp(-2.0))
@given(components, scales, shifts, st.floats(1e-6, 0.9))
def test_region_radius_equivariant(parts, s, t, delta):
    want = region_radius(spec_of(parts), delta).radius
    tol = REL * size(parts)
    assert abs(region_radius(spec_of(parts, s=s), delta).radius / s - want) <= tol
    shifted = region_radius(spec_of(parts, t=t), delta).radius
    assert abs(shifted - len(parts) * t - want) <= tol


@example(parts=[(5.0, BER_HALF)] * 2, s=1e-12, t=0.0, frac=0.4)
@example(parts=[(5.0, BER_HALF)] * 2, s=1e-170, t=0.0, frac=0.4)
@example(parts=[(5.0, BER_HALF)] * 2, s=1e170, t=0.0, frac=0.4)
@given(components, scales, shifts, fractions)
def test_sum_tail_equivariant(parts, s, t, frac):
    # with every component a point mass the level sits on both ends at once
    assume(any(base.v_max > base.mean for _, base in parts))
    u = level(parts, frac)
    want = sum_tail_bound(spec_of(parts), u)
    assert abs(sum_tail_bound(spec_of(parts, s=s), s * u) - want) <= REL
    assert abs(sum_tail_bound(spec_of(parts, t=t), u + len(parts) * t) - want) <= REL


@example(base=BER_HALF, s=1e9, t=0.0, frac=0.5)
@example(base=BER_HALF, s=1e-12, t=0.0, frac=0.5)
@example(base=BER_HALF, s=1e-170, t=0.0, frac=0.5)
@example(base=BER_HALF, s=1e170, t=0.0, frac=0.5)
@given(measures(), scales, shifts, fractions)
def test_kinf_equivariant(base, s, t, frac):
    assume(base.v_max > base.mean)
    u = level([(1.0, base)], frac)
    want = kinf(base, u).value
    assert abs(kinf(moved(base, s=s), s * u).value - want) <= REL
    assert abs(kinf(moved(base, t=t), u + t).value - want) <= REL


@example(base=BER_HALF, s=1e9, t=0.0, frac=0.5)
@example(base=BER_HALF, s=1e6, t=0.0, frac=0.5)
@given(measures(), scales, shifts, fractions)
def test_kinf_slope_equivariant(base, s, t, frac):
    assume(base.v_max > base.mean)
    u = level([(1.0, base)], frac)
    want = kinf(base, u).lambda_star
    assert abs(kinf(moved(base, s=s), s * u).lambda_star * s - want) <= REL * want
    assert abs(kinf(moved(base, t=t), u + t).lambda_star - want) <= REL * want


@example(alpha=1.0, base=BER_HALF, s=1e9, t=0.0, frac=0.5)
@given(alphas, measures(), scales, shifts, fractions)
def test_tail_bound_single_equivariant(alpha, base, s, t, frac):
    assume(base.v_max > base.mean)
    u = level([(1.0, base)], frac)
    want = tail_bound_single(DPSpec(alpha, base), u)
    assert abs(tail_bound_single(DPSpec(alpha, moved(base, s=s)), s * u) - want) <= REL
    shifted = tail_bound_single(DPSpec(alpha, moved(base, t=t)), u + t)
    assert abs(shifted - want) <= REL


@example(alpha=1.0, base=BER_HALF, s=1e-12, t=0.0)
@example(alpha=1.0, base=BER_HALF, s=1e6, t=0.0)
@given(alphas, measures(), scales, shifts)
def test_cgf_bound_equivariant(alpha, base, s, t):
    want = cgf_bound(DPSpec(alpha, base)).value
    tol = REL * size([(alpha, base)])
    assert abs(cgf_bound(DPSpec(s * alpha, moved(base, s=s))).value / s - want) <= tol
    assert abs(cgf_bound(DPSpec(alpha, moved(base, t=t))).value - t - want) <= tol


@given(measures(), alphas, alphas)
def test_cgf_bound_nonincreasing_in_alpha(base, a1, a2):
    low, high = cgf_bound(DPSpec(min(a1, a2), base)), cgf_bound(DPSpec(max(a1, a2), base))
    assert base.mean - REL * size([(1.0, base)]) <= high.value <= low.value


@given(components, st.floats(1e-6, 0.9), st.floats(1e-6, 0.9))
def test_radius_between_means_and_maxima_and_monotone(parts, d1, d2):
    spec = spec_of(parts)
    tol = REL * size(parts)
    loose, tight = region_radius(spec, max(d1, d2)), region_radius(spec, min(d1, d2))
    assert sum(base.mean for _, base in parts) - tol <= loose.radius
    assert loose.radius <= tight.radius + tol
    assert tight.radius <= sum(base.v_max for _, base in parts) + tol


@given(components, fractions, fractions)
def test_tail_in_unit_interval_and_monotone(parts, f1, f2):
    spec = spec_of(parts)
    low, high = sum_tail_bound(spec, level(parts, min(f1, f2))), sum_tail_bound(
        spec, level(parts, max(f1, f2))
    )
    assert 0.0 <= high <= low + 1e-12
    assert low <= 1.0
