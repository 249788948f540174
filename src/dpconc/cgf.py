"""Log-MGF bound for Dirichlet-process payoffs and its special cases.

The central object is the convex conjugate of the scaled reversed KL
divergence,

    B(alpha, nu) = sup_q ( E_q[v] - alpha * KL(nu || q) ),

taken over probability measures q on the atom set.  It upper-bounds the
cumulant generating function log E[exp(E_X[v])] of X ~ DP(alpha * nu).
The supremum is computed through the 1-D dual

    B = min_{c in [v_max, v_max + alpha]} c - alpha + alpha * sum_i p_i log(alpha / (c - v_i)),

which is strictly convex in c.  An interior stationary point solves the
secular equation sum_i alpha p_i / (c - v_i) = 1 and yields the witness
q_i = alpha p_i / (c - v_i); the boundary c = v_max is admissible only
when the base has no mass at v_max, and then the leftover weight
1 - sum_i alpha p_i / (v_max - v_i) sits at the ambient maximizer.

The secular equation is solved for the scale-free ratio r = (c - v_max) / alpha
in [top mass, 1] (see ``_conjugate``).  Where one atom below the top carries
mass (every two-atom base, with any ambient atoms) it is a quadratic in r,
solved in closed form by ``_quadratic_root``; otherwise it is solved by
``_root``, a safeguarded Newton root finder that bisects in log r where the
bracket spans decades.  The sum regions and tails of
``dpconc.sums``, the half-space projection ``kinf``, its inverse
``kinf_inverse`` (the KL-UCB index) and the single-process Chernoff tail
``tail_bound_single`` are outer roots of ``_root`` over this kernel.

Also here: the closed-form bound for Beta random variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .measures import DPSpec, WeightedValues

__all__ = [
    "CgfBoundResult",
    "cgf_bound",
    "cgf_bound_scaled",
    "beta_cgf_bound",
]

_RTOL = 1e-13
_MAX_ITER = 200


@dataclass(frozen=True)
class CgfBoundResult:
    """Conjugate value with its dual optimizer and primal witness."""

    value: float
    c_star: float
    boundary_mass: float
    witness: WeightedValues


def _root(f, lo: float, hi: float, x: float, atol: float = 0.0) -> float:
    """Root of ``f`` on the bracket [lo, hi], where f(lo) <= 0 <= f(hi).

    ``f(x)`` returns the value and the slope at x.  Newton steps start
    from ``x``; every evaluation shrinks the bracket, and bisection
    replaces a step that would leave it, that has no positive finite slope
    to follow, or that is not under half the step before last (which breaks
    Newton cycles).  The bisection is in log x while 0 < 4 lo < hi, at
    sqrt(lo) sqrt(hi), and halves the bracket after.  Stops once a step, or
    the bracket, is at most _RTOL * |x| + atol, so the last point at which
    ``f`` was evaluated is within that of the returned root.
    """
    last = older = math.inf
    for _ in range(_MAX_ITER):
        fx, slope = f(x)
        if fx < 0.0:
            lo = x
        elif fx > 0.0:
            hi = x
        elif fx == 0.0:
            return x
        else:
            raise ArithmeticError(f"root finder met a NaN at {x!r}")
        tol = _RTOL * abs(x) + atol
        step = fx / slope if slope > 0.0 else math.inf
        if abs(step) <= tol:
            if slope < math.inf:
                return x - step
            # an infinite slope gives a zero step, not a root: bisect
            step = math.inf
        if lo <= x - step <= hi and 2.0 * abs(step) <= older:
            x -= step
        elif 0.0 < 4.0 * lo < hi:
            # a bracket above 0 that spans more than a factor of 4 is bisected
            # in log x, so that a root near its lower end is reached in
            # O(log log(hi / lo)) steps rather than O(log(hi / lo))
            x = math.sqrt(lo) * math.sqrt(hi)
            step = x - lo
        else:
            step = 0.5 * (hi - lo)
            x = lo + step
            if hi - lo <= tol:
                return x
        older, last = last, abs(step)
    raise ArithmeticError(f"root finder did not converge in {_MAX_ITER} steps")


class _View(NamedTuple):
    """A base as the solvers read it: its range and mean, its mass at the top
    value and (p_i, log(v_max - v_i)) for the positive atoms below it.  With
    none below, the base is the point mass at its top, and its mean v_max.
    Every field is a Python float, read by the solvers with no numpy call."""

    v_min: float
    v_max: float
    mean: float
    top: float
    terms: list[tuple[float, float]]


def _atoms(base: WeightedValues) -> _View:
    """The solver view of ``base``, read off its float core."""
    values, weights = base.value_core, base.weight_core
    v_max = values[-1]
    terms = [(w, math.log(v_max - v)) for v, w in zip(values, weights[:-1]) if w > 0.0]
    return _View(values[0], v_max, base.mean if terms else v_max, weights[-1], terms)


def _conjugate(top: float, terms, ell: float, r: float = 1.0):
    """The conjugate at concentration kappa = exp(ell), scale-free.

    With u_i = kappa / (v_max - v_i) for the ``terms`` (p_i, log gap) of
    :func:`_atoms`, the dual optimum c = v_max + kappa * r solves the
    secular equation divided through by kappa,

        r = top + sum_i p_i r u_i / (1 + r u_i),

    at its largest root in [top, 1]; r = 0 on the boundary branch (no top
    mass and sum_i p_i u_i <= 1).  With one term the root is that of a
    quadratic, from :func:`_quadratic_root`; with more, :func:`_root` finds
    it from the start ``r``, or from 1, the root's limit at large kappa,
    where ``r`` is outside (top, 1].  Working in r rather than c keeps
    c - v_max from underflowing at tiny kappa.

    Returns r, the witness weights q_i = p_i u_i / (1 + r u_i) below the
    top, the mean gap (v_max - E_q[v]) / kappa = 1 - r, KL(base || q) and
    the derivative of that KL in ell.  The conjugate itself is
    v_max - kappa * (gap + KL).
    """
    # u_i = a_i / b_i with the larger of the two equal to 1: where u_i > 1,
    # 1 / u_i is carried instead, which can only underflow (harmlessly)
    pu = [(p, 1.0, math.exp(lg - ell)) if ell > lg else (p, math.exp(ell - lg), 1.0)
          for p, lg in terms]
    if len(pu) == 1:
        r = _quadratic_root(top, *pu[0])
    elif top > 0.0 or sum(p * a / b if b > 0.0 else math.inf for p, a, b in pu) > 1.0:

        def excess(r_):
            s0 = s1 = 0.0
            for p, a, b in pu:
                t = a / (b + r_ * a)
                s0 += p * t
                s1 += p * t * t
            return r_ * (1.0 - s0) - top, 1.0 - s0 + r_ * s1

        # r = 0 solves the equation too when top = 0: never start there
        r = _root(excess, top, 1.0, r if top < r <= 1.0 else 1.0)
    else:
        r = 0.0
    q = []
    gap = curv = tilt = 0.0
    for p, a, b in pu:
        # t = u_i / (1 + r u_i) and d = 1 / (1 + r u_i)
        inv = 1.0 / (b + r * a)
        t, d = a * inv, b * inv
        q.append(p * t)
        gap += p * d
        curv += p * t * t
        tilt += p * t * d
    # gap = 1 - r at the root, to full relative accuracy even where r
    # rounds to 1 (large kappa), so it stands in for 1 - r below; where the
    # gap rounds to 1 (top mass below the rounding of 1), r carries log r
    kl = top * (math.log1p(-gap) if gap < 1.0 else math.log(r)) if top > 0.0 else 0.0
    for (p, a, b), (_, lg) in zip(pu, terms):
        # log(r + 1/u) without cancellation on either side of u = 1
        kl += p * (math.log1p(b - gap) if b < 1.0 else math.log1p(r * a) + lg - ell)
    # dr/dell from the secular equation; 0 on the boundary branch
    dr = tilt / (curv + top / r / r) if r > 0.0 else 0.0
    return r, q, gap, kl, dr - gap


def _quadratic_root(top: float, p: float, a: float, b: float) -> float:
    """The r of :func:`_conjugate` for one term (p, u = a / b) below the top.

    Its secular equation times b (1 + r u) is the quadratic
    a r^2 + k r - top b = 0 with k = b - a (top + p), whose root in [top, 1]
    is taken in the form that does not cancel, with the discriminant's
    square root from ``math.hypot`` and a factor of top b split so that it
    does not underflow.  With no top mass the roots are 0 and -k / a, and the
    latter is taken where it is positive (p a > b).  k is formed as
    (b - a) - a (top + p - 1), with top + p - 1 from whichever of p - 1 and
    top - 1 is exact, so it keeps relative accuracy where b is near a.  The
    weights sum to 1 only within 1e-12, so r is clamped to [top, 1].
    """
    s = (p - 1.0) + top if p >= top else (top - 1.0) + p
    k = (b - a) - a * s
    if top == 0.0:
        r = -k / a if k < 0.0 else 0.0
    else:
        root = math.hypot(k, 2.0 * math.sqrt(top) * math.sqrt(a * b))
        r = top * (2.0 * b / (k + root)) if k >= 0.0 else (root - k) / (2.0 * a)
    # clamped by comparisons: calls to min and max would add half the solve
    return top if r < top else r if r < 1.0 else 1.0


def cgf_bound(dp: DPSpec) -> CgfBoundResult:
    """Convex conjugate of ``alpha * KL(base || .)`` evaluated at the payoff."""
    base = dp.base
    alpha = dp.alpha
    view = _atoms(base)
    r, q_below, gap, kl, _ = _conjugate(view.top, view.terms, math.log(alpha))
    value = view.v_max - alpha * (gap + kl)
    witness, boundary_mass = _witness(base, r, q_below)
    return CgfBoundResult(value, view.v_max + alpha * r, boundary_mass, witness)


def _witness(base: WeightedValues, r: float, q_below) -> tuple[WeightedValues, float]:
    """Witness measure on the atoms of ``base`` from a :func:`_conjugate`
    solution, filled in a list and normalized by its ``math.fsum``, and the
    boundary mass it puts on an ambient top.  It is built on the base's
    checked values, so only its weights are checked."""
    *below, top = base.weight_core
    solved = iter(q_below)
    q = [next(solved) if w > 0.0 else 0.0 for w in below]
    # r = 0 on the boundary branch alone, which has no top mass
    boundary_mass = 0.0 if r > 0.0 else max(1.0 - math.fsum(q), 0.0)
    q.append(top / r if r > 0.0 else boundary_mass)
    total = math.fsum(q)
    return base._reweighted([x / total for x in q]), boundary_mass


def cgf_bound_scaled(dp: DPSpec, lam: float, u: float) -> float:
    """Conjugate bound for the recentered, rescaled payoff lam * (v - u)."""
    if math.isnan(u):
        raise ValueError("u must not be NaN")
    return _scaled_conjugate(_atoms(dp.base), dp.alpha, lam, u)


def _scaled_conjugate(view: _View, alpha: float, lam: float, u: float) -> float:
    """:func:`cgf_bound_scaled` on the solver view of the base, for a u that is not NaN."""
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be nonnegative and finite, got {lam!r}")
    if lam == 0.0:
        return 0.0
    # the gaps to the top scale by lam, so the concentration scales by 1/lam
    _, _, gap, kl, _ = _conjugate(view.top, view.terms, math.log(alpha) - math.log(lam))
    return lam * (view.v_max - u) - alpha * (gap + kl)


def _excess_log_ratio(t: float) -> float:
    """(t - log(1 + t)) / t for t > -1, with relative accuracy: its series where |t| < 0.1."""
    if abs(t) < 0.1:
        return -sum((-t) ** k / (k + 1) for k in range(1, 17))
    return (t - math.log1p(t)) / t


def beta_cgf_bound(a: float, b: float, lam: float) -> float:
    """Closed-form CGF bound for a centered Beta(a, b) random variable.

    Evaluates max_{s in [p, 1]} lam (s - p) - (a+b) kl(p, s), p = a/(a+b),
    at the stationary point s, the root of lam s^2 + (a + b - lam) s = a.
    For lam <= a + b, x = s - p comes from its own rationalized root, and
    kl(p, p + x) as x (f(x/p) - f(-x/(1 - p))), f(t) = (t - log(1 + t)) / t,
    keeps relative accuracy as lam -> 0 (where the bound is lam^2 ab / (2 (a+b)^3)
    to leading order) with no square of x/p to underflow; where x > p, the
    log(1 + x/p) of the divergence is taken out of the cancelling terms.  For
    lam > a + b, s - p and 1 - s are carried in forms that neither cancel nor
    overflow.  Where lam or a + b passes 2^1020, the bound is 32 times its value
    at a 32nd of a, b and lam (it is homogeneous), unless that would round a or b.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"a and b must be positive and finite, got a={a!r}, b={b!r}")
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be nonnegative and finite, got {lam!r}")
    if lam == 0.0:
        return 0.0
    if max(lam, a + b) > 2.0**1020 and min(a, b) > 2.0**-1017:
        return 32.0 * beta_cgf_bound(a / 32.0, b / 32.0, lam / 32.0)
    p = a / (a + b)
    # lam - (a + b) with one rounding where lam is near a + b, which a + b
    # itself loses where a is below the rounding of b (or b of a)
    diff = (lam - max(a, b)) - min(a, b)
    root = math.hypot(diff, 2.0 * math.sqrt(lam) * math.sqrt(a))
    q = b / (a + b)
    # s = p is always feasible, so the maximum is nonnegative
    if diff <= 0:
        # x solves lam x^2 + (2 lam p - diff) x = lam p q, q = 1 - p; it is
        # carried as t = x / p and x / q, which stay normal where x underflows,
        # and x / q stays below 1/2 here, so both arguments of e exceed -1
        den = 2.0 * lam * p - diff + root
        t, t_q = 2.0 * lam * q / den, 2.0 * lam * p / den
        down = _excess_log_ratio(-t_q)
        if t <= 1.0:
            # x (lam - (a + b) (f(t) - f(-t_q))) with x = p t = q t_q by the larger
            # ratio: the smaller one is negligible where it underflows, and the
            # product of the other two factors is at least the value
            g = lam - (a + b) * (_excess_log_ratio(t) - down)
            return max(p * g * t if t >= t_q else q * g * t_q, 0.0)
        # beyond, lam x and (a + b) p e(x/p) cancel: with a / p = a + b the
        # value is a log(1 + x/p) - b e(-x/q) + diff x
        return max(a * math.log1p(t) + b * t_q * down + diff * (p * t), 0.0)
    # 1 - s = b / d with d = (lam + a + b + root) / 2, and m = d - (a + b)
    # = (diff + root) / 2 (both halved through to stay finite) gives x = q m / d
    # and (1 - p) / (1 - s) = 1 + m / (a + b) with no cancellation in either log
    d = 0.5 * (lam + a + b) + 0.5 * root
    m = 0.5 * diff + 0.5 * root
    x = q * (m / d)
    up = math.log1p(x / p) if x < p else -math.log(p / (p + x))
    down = math.log1p(m / (a + b)) if m < a + b else math.log(d) - math.log(a + b)
    return max(lam * x + a * up - b * down, 0.0)
