"""Minimal reversed KL divergence onto a payoff half-space.

For a base measure nu with payoff atoms (v_i, p_i) and a level u,

    kinf(nu, u) = inf { KL(nu || mu) : mu supported on the atoms, E_mu[v] >= u },

computed through its concave 1-D dual

    kinf(nu, u) = max_{lam in [0, 1/(v_max - u)]} sum_i p_i log(1 - lam (v_i - u)).

The dual derivative is strictly decreasing in lam, so bisection on it is
robust even when mass at v_max drives the derivative to -inf at the
right endpoint.  The endpoint lam = 1/(v_max - u) is attainable only
when the base puts no mass at v_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import WeightedValues

__all__ = ["KinfResult", "kinf", "kinf_slope", "kinf_inverse"]

# relative stop: lambda scales as 1 / payoff, so an absolute one would make
# the result depend on the payoff scale
_LAMBDA_RTOL = 1e-12
_MAX_ITER = 200


@dataclass(frozen=True)
class KinfResult:
    """Solution of the half-space projection.

    ``value`` is the divergence, ``lambda_star`` the optimal dual
    multiplier in [0, 1/(v_max - u)], ``at_boundary`` whether the right
    endpoint was attained, and ``diagnostic`` the self-consistency
    statistic E_nu[1 / (1 - lambda_star (v - u))], which is <= 1 always
    and = 1 at interior optima.
    """

    value: float
    lambda_star: float
    at_boundary: bool
    diagnostic: float


def kinf(base: WeightedValues, u: float) -> KinfResult:
    """Solve the half-space projection of ``base`` at level ``u``."""
    if not math.isfinite(u):
        raise ValueError("u must be finite")
    mean = base.mean
    if u <= mean:
        return KinfResult(0.0, 0.0, False, 1.0)
    vmax = base.v_max
    if u >= vmax:
        # the constraint forces the point mass at v_max
        pv, _ = base.positive()
        if u == vmax and pv.size == 1 and pv[0] == vmax:
            return KinfResult(0.0, 0.0, False, 1.0)
        return KinfResult(math.inf, 0.0, False, 1.0)

    v, p = base.positive()
    lam_max = 1.0 / (vmax - u)
    # scalar arithmetic: these bisections sit inside the sum solvers' own
    # bisections, where numpy overhead on tiny atom sets dominates
    terms = [(float(pi), u - float(vi)) for pi, vi in zip(p, v)]

    def dphi(lam: float) -> float:
        return sum(pi * di / (1.0 + lam * di) for pi, di in terms)

    if base.mass_at_max == 0.0 and dphi(lam_max) >= 0.0:
        lam = lam_max
        at_boundary = True
    else:
        lo, hi = 0.0, lam_max
        for _ in range(_MAX_ITER):
            mid = 0.5 * (lo + hi)
            if dphi(mid) > 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= _LAMBDA_RTOL * hi:
                break
        lam = 0.5 * (lo + hi)
        at_boundary = False

    value = sum(pi * math.log1p(lam * di) for pi, di in terms)
    diagnostic = sum(pi / (1.0 + lam * di) for pi, di in terms)
    return KinfResult(max(value, 0.0), lam, at_boundary, diagnostic)


def kinf_slope(base: WeightedValues, u: float) -> float:
    """Derivative of u -> kinf(base, u): the optimal dual multiplier.

    Defined for v_min <= u < v_max; identically 0 at and below the mean
    and nondecreasing in u.
    """
    if not (base.v_min <= u < base.v_max):
        raise ValueError(f"u must lie in [v_min, v_max), got {u!r}")
    return kinf(base, u).lambda_star


def kinf_inverse(base: WeightedValues, budget: float) -> float:
    """Largest u in [mean, v_max] with kinf(base, u) <= budget: the KL-UCB index.

    It is the one-component confidence region of :mod:`dpconc.sums` at
    concentration 1 and log(1/delta) = budget, solved to relative accuracy
    through the conjugate's secular equation; returns v_max when even the
    supremum of the divergence stays within budget (point-mass bases).
    """
    from .sums import _region  # sums builds on this module

    if not budget >= 0:
        raise ValueError("budget must be nonnegative")
    if budget == 0.0:
        return base.mean
    if math.isinf(budget):
        return base.v_max
    return _region([(1.0, base)], budget)[0]
