"""Minimal reversed KL divergence onto a payoff half-space.

For a base measure nu with payoff atoms (v_i, p_i) and a level u,

    kinf(nu, u) = inf { KL(nu || mu) : mu supported on the atoms, E_mu[v] >= u }
                = sup_{lam >= 0} lam u - B(1, lam v),

the Legendre transform of the conjugate B of :mod:`dpconc.cgf` at
concentration 1: the Chernoff exponent of the one-component sum tail of
:mod:`dpconc.sums`, solved as one root over the shared conjugate kernel.
With c = u + 1/lam, the stationarity condition of the classical dual
max_lam sum_i p_i log(1 - lam (v_i - u)) is the conjugate's secular
equation (c - u) sum_i p_i / (c - v_i) = 1 at concentration 1/lam, so
the tail's multiplier is the optimal dual multiplier.  The endpoint
lam = 1/(v_max - u) is attained, on the conjugate's boundary branch,
only when the base puts no mass at v_max.  The KL-UCB index
``kinf_inverse`` is the one-component region at concentration 1, and the
single-process Chernoff tail ``tail_bound_single`` is exp(-alpha * kinf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cgf import _atoms
from .measures import DPSpec, WeightedValues
from .sums import _region, _tail

__all__ = ["KinfResult", "kinf", "kinf_inverse", "tail_bound_single"]


@dataclass(frozen=True)
class KinfResult:
    """Solution of the half-space projection.

    ``value`` is the divergence, ``lambda_star`` the optimal dual
    multiplier in [0, 1/(v_max - u)], ``at_boundary`` whether the right
    endpoint was attained, and ``diagnostic`` the self-consistency
    statistic E_nu[1 / (1 - lambda_star (v - u))], which is <= 1 always
    and = 1 at interior optima.  It is the mass of the tail's witness
    before normalization, and is summed from it.
    """

    value: float
    lambda_star: float
    at_boundary: bool
    diagnostic: float


def kinf(base: WeightedValues, u: float) -> KinfResult:
    """Solve the half-space projection of ``base`` at level ``u``.

    Levels are read as by the sum tail: 0 at or below the mean, inf at or
    above v_max unless the base is the point mass there; NaN is rejected.
    """
    view = _atoms(base)
    value, _, tau, outer = _tail([(1.0, view)], u)
    if outer.sols[0] is None:
        # nothing was solved: the level is at or past an end of the range
        return KinfResult(value, 0.0, False, 1.0)
    r, q_below = outer.sols[0][:2]
    # the statistic is the witness mass sum_i q_i, q_i = p_i / (1 + lam (u - v_i)),
    # whose top term is top / r; r = 0 on the boundary branch, where the top
    # has no mass and lam = 1/(v_max - u)
    top = view.top
    diagnostic = (top / r if top > 0.0 else 0.0) + sum(q_below)
    return KinfResult(value, math.exp(tau), r == 0.0, diagnostic)


def kinf_inverse(base: WeightedValues, budget: float) -> float:
    """Largest u in [mean, v_max] with kinf(base, u) <= budget: the KL-UCB index.

    It is the one-component confidence region of :mod:`dpconc.sums` at
    concentration 1 and log(1/delta) = budget, solved to relative accuracy
    through the conjugate's secular equation.  A budget of 0 gives the mean, inf
    gives v_max, and so does any budget on a base with no mass below its top.
    """
    return _region([(1.0, _atoms(base))], budget)[0]


def tail_bound_single(dp: DPSpec, u: float) -> float:
    """Chernoff tail bound exp(-alpha * kinf(base, u)) in [0, 1].

    The exponent of the one-component sum tail scales with alpha, so it is
    alpha times the tail at concentration 1, which is ``kinf``; solving at 1
    keeps the multiplier, alpha times kinf's slope, within range.
    """
    return math.exp(-dp.alpha * kinf(dp.base, u).value)
