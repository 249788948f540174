"""Confidence regions and Chernoff tails for sums of independent processes.

Both are one root over a shared multiplier lam of the conjugate bounds
B_j of :mod:`dpconc.cgf`, each solved through its secular equation.

Given components (alpha_j, nu_j) and a confidence level delta, the
region radius is

    sup { sum_j E_{mu_j}[v_j] : sum_j alpha_j KL(nu_j || mu_j) <= log(1/delta) }
        = min_{lam >= 0} lam log(1/delta) + sum_j B_j(lam alpha_j, v_j),

with optimum where the witnesses q_j(lam) of the conjugates at
concentration lam alpha_j spend the budget exactly,
sum_j alpha_j KL(nu_j || q_j(lam)) = log(1/delta).  The divergence has
the closed form KL = sum_i p_i log((c - v_i) / (lam alpha_j)) at the dual
optimum c, and falls with lam, so the root is taken in log lam.

The tail bound at a level u is exp(-I(u)) with the Chernoff exponent

    I(u) = inf { sum_j alpha_j kinf_j(u_j) : sum_j u_j = u }
         = sup_{lam >= 0} lam u - sum_j B_j(alpha_j, lam v_j),

whose optimum is the root of u = sum_j E_{q_j(lam)}[v_j]; the witness
means there are the optimal split of u.  Both outer roots start from
brackets that follow from the inputs in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cgf import _atoms, _conjugate, _root, _witness
from .measures import DPSpec, WeightedValues

__all__ = ["SumSpec", "RegionResult", "SumTailResult", "region_radius", "sum_tail",
           "sum_tail_bound", "optimal_split"]

# absolute step tolerance of the outer roots in log lam: a relative step of lam
_TAU_TOL = 1e-13


def _logsumexp(xs) -> float:
    """log sum_i exp(x_i), with no term leaving the float range."""
    top = max(xs)
    return top + math.log(sum([math.exp(x - top) for x in xs]))


@dataclass(frozen=True)
class SumSpec:
    """An ordered collection of independent components."""

    components: tuple[DPSpec, ...]

    def __init__(self, components):
        components = tuple(components)
        if len(components) == 0:
            raise ValueError("at least one component is required")
        object.__setattr__(self, "components", components)


@dataclass(frozen=True)
class RegionResult:
    """Radius of the sum-confidence region with its dual certificate.

    ``witnesses`` are per-component optimizing measures; ``unconstrained``
    marks the degenerate outer multiplier lam = 0, where the budget
    exceeds every finite divergence and the radius is the sum of the
    maximal payoff values.  ``lambda_star`` can also be 0 without that,
    when tiny concentrations leave a multiplier below the smallest float,
    or when the live bases' means round to their maximal values.
    """

    radius: float
    lambda_star: float
    unconstrained: bool
    witnesses: tuple[WeightedValues, ...]


class _Outer:
    """The components of a sum, ready for an outer root over log lam.

    ``comps`` holds (alpha, view) pairs, each view a base as
    :func:`dpconc.cgf._atoms` reads it.  Components whose base puts all
    its mass on its top value are degenerate: their conjugate is v_max at
    every concentration, so they only add v_max and sit out of the root.
    """

    def __init__(self, comps):
        self.comps = comps
        self.live = [j for j, (_, view) in enumerate(comps) if view.terms]
        self.logs = [math.log(alpha) for alpha, _ in comps]
        self.sols = [None] * len(comps)

    def solve(self, shift: float) -> list[tuple[float, float, tuple]]:
        """(alpha_j, kappa_j, conjugate solution) of each live component.

        Component j is solved at concentration kappa_j = alpha_j * exp(shift),
        starting from its previous solution.
        """
        out = []
        for j in self.live:
            alpha, view = self.comps[j]
            ell = self.logs[j] + shift
            prev = self.sols[j]
            self.sols[j] = sol = _conjugate(view.top, view.terms, ell, prev[0] if prev else 1.0)
            out.append((alpha, math.exp(ell), sol))
        return out


def _region(comps, budget: float) -> tuple[float, float, _Outer]:
    """Radius, multiplier and solved components of the region at ``budget`` nats.

    ``comps`` holds (alpha, view) pairs.  A budget of 0 gives the sum of the
    means, and inf (or no live component) the sum of the maxima.  Otherwise
    the root is taken in tau = log lam on log(budget / spent), which is near
    linear both where lam is small (spent ~ -tau) and where it is large
    (spent ~ exp(-2 tau)).
    """
    if not budget >= 0.0:
        raise ValueError("budget must be nonnegative")
    outer = _Outer(comps)
    if budget == 0.0:
        return sum(view.mean for _, view in comps), math.inf, outer
    tops = sum(view.v_max for _, view in comps)
    if not outer.live or budget == math.inf:
        return tops, 0.0, outer

    # the weights, the budget and the bracket are per unit of the largest
    # concentration, since the unscaled sums and the bracket offset
    # alpha log alpha can pass the float range.  The unit is a power of two, so
    # that the scaling is exact, and no smaller than keeps the scaled budget,
    # which spent meets at the root, above 2^-1000
    unit = math.ldexp(1.0, -min(math.frexp(max(a for a, _ in comps))[1], math.frexp(budget)[1] + 1000))
    weights = [comps[j][0] * unit for j in outer.live]
    scaled = budget * unit

    def h(tau: float):
        spent = dspent = 0.0
        for w, (_, _, (_, _, _, kl, dkl)) in zip(weights, outer.solve(tau)):
            spent += w * kl
            dspent += w * dkl
        if spent <= 0.0:
            return math.inf, 0.0
        try:
            return math.log(scaled / spent), -dspent / spent
        except ValueError:
            # far from the root the ratio can round to 0: take the logs apart
            return math.log(scaled) - math.log(spent), -dspent / spent

    # spent >= sum_j alpha_j (sum_i p_i log(gap_i / kappa_j) + top_j log top_j),
    # which is exact as lam -> 0; and spent <= sum_j (v_max_j - mean_j) / lam
    # because each conjugate is at least the base mean
    slope = offset = reach = 0.0
    for j, w in zip(outer.live, weights):
        _, v_max, mean, top, terms = comps[j][1]
        mass = sum(p for p, _ in terms)
        slope += w * mass
        offset += w * (sum(p * lg for p, lg in terms) - mass * outer.logs[j])
        offset += w * top * math.log(top) if top > 0.0 else 0.0
        reach += v_max - mean
    lo = (offset - scaled) / slope
    if reach <= 0.0 or lo == -math.inf:
        # every live mean rounds to its top (or past it, by the weights'
        # tolerance), or the budget leaves lam below e^-1e308: the radius,
        # between the means and the tops, is tops
        return tops, 0.0, outer
    # reach / budget can round to 0 on a narrow range: take the logs apart
    ratio = reach / budget
    hi = math.log(ratio) if ratio > 0.0 else math.log(reach) - math.log(budget)
    tau = _root(h, lo, max(hi, lo), lo, atol=_TAU_TOL)
    lam = math.exp(tau)
    radius = lam * budget + tops
    for _, kappa, (_, _, gap, kl, _) in outer.solve(tau):
        radius -= kappa * (gap + kl)
    return radius, lam, outer


def region_radius(spec: SumSpec, delta: float) -> RegionResult:
    """Radius of the product confidence region at level ``delta``."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0,1), got {delta!r}")
    comps = spec.components
    radius, lam, outer = _region([(c.alpha, _atoms(c.base)) for c in comps], -math.log(delta))
    witnesses = [c.base if sol is None else _witness(c.base, sol[0], sol[1])[0]
                 for c, sol in zip(comps, outer.sols)]
    return RegionResult(radius=radius, lambda_star=lam, unconstrained=not outer.live,
                        witnesses=tuple(witnesses))


# -- tail bound over an additive split ------------------------------------


@dataclass(frozen=True)
class SumTailResult:
    """Chernoff bound on P(sum_j E_{X_j}[v_j] >= u) with the optimal split.

    ``split`` holds the levels (u_j) summing to u that minimize
    sum_j alpha_j kinf_j(u_j); it is None for u outside
    [sum of means, sum of maxima], where no split exists.
    """

    value: float
    split: list[float] | None


def _tail(comps, u: float) -> tuple[float, list[float] | None, float, _Outer]:
    """Chernoff exponent I(u), the optimal split, the log of the multiplier
    and the components, solved when means < u < maxima.

    ``comps`` holds (alpha, view) pairs.  At or below the sum of means
    (a view's mean is its top where no positive mass sits below it, as
    :func:`dpconc.cgf._atoms` reads it) the exponent is 0, at
    or above the sum of maxima it is inf; there the multiplier is 0 and
    the split is the means (or the maxima) at equality, None beyond.

    Component j's conjugate at payoff lam v_j has concentration
    alpha_j / lam.  The root is taken in tau = log lam on
    log((tops - u) / deficit), where tops is the sum of maxima and the
    deficit sum_j (v_max_j - E_{q_j}[v_j]) falls like exp(-tau) for
    large lam.
    """
    if math.isnan(u):
        raise ValueError("u must not be NaN")
    outer = _Outer(comps)
    maxima = [view.v_max for _, view in comps]
    means = [view.mean for _, view in comps]
    tops, bottom = sum(maxima), sum(means)
    if u <= bottom:
        return 0.0, means if u == bottom else None, -math.inf, outer
    if u >= tops:
        return math.inf, maxima if u == tops else None, -math.inf, outer

    def excess(tau: float):
        deficit = ddeficit = 0.0
        for _, kappa, (_, _, gap, _, dkl) in outer.solve(-tau):
            deficit += kappa * gap
            ddeficit += kappa * dkl
        if deficit <= 0.0:
            return math.inf, 0.0
        return math.log((tops - u) / deficit), -ddeficit / deficit

    # Pinsker bounds each witness mean by mean_j + lam spread_j^2 / (2 alpha_j),
    # and q_i <= alpha_j p_i / (lam gap_i) bounds it below by
    # v_max_j - alpha_j mass_j / lam, mass_j the base's mass below its top;
    # both sums over j are taken in logs, as log-sum-exps of per-component
    # logs, since their terms can pass the float range
    live = [(outer.logs[j], comps[j][1]) for j in outer.live]
    spread = _logsumexp([2.0 * math.log(v.v_max - v.v_min) - ell for ell, v in live])
    below = _logsumexp([ell + math.log(sum(p for p, _ in v.terms)) for ell, v in live])
    lo = math.log(u - bottom) + math.log(2.0) - spread
    hi = max(below - math.log(tops - u), lo)
    tau = _root(excess, lo, hi, hi, atol=_TAU_TOL)
    # the exponent lam (u - tops) + sum_j alpha_j (gap_j + kl_j), with lam
    # (tops - u) formed in logs, since lam can pass the float range.  So can
    # both terms where the exponent does not: they are taken per unit 2^-k, k
    # the least that brings lam (tops - u) below e^700 (0 almost always)
    log_gap = tau + math.log(tops - u)
    unit = 2.0 ** -max(0, math.ceil((log_gap - 700.0) / math.log(2.0)))
    exponent = -math.exp(log_gap + math.log(unit))
    split = maxima
    for j, (alpha, kappa, (_, _, gap, kl, _)) in zip(outer.live, outer.solve(-tau)):
        exponent += alpha * unit * (gap + kl)
        split[j] -= kappa * gap
    return max(exponent / unit, 0.0), split, tau, outer


def sum_tail(spec: SumSpec, u: float) -> SumTailResult:
    """Chernoff tail bound of the sum at level ``u`` with its optimal split."""
    exponent, split, _, _ = _tail([(c.alpha, _atoms(c.base)) for c in spec.components], u)
    return SumTailResult(math.exp(-exponent), split)


def optimal_split(spec: SumSpec, u: float) -> list[float]:
    """Levels (u_j) summing to ``u`` that minimize sum_j alpha_j kinf_j(u_j).

    They are the means of the tail's witnesses at the optimal multiplier.
    """
    split = sum_tail(spec, u).split
    if split is None:
        raise ValueError(f"u must lie in [sum of means, sum of maxima], got {u!r}")
    return split


def sum_tail_bound(spec: SumSpec, u: float) -> float:
    """Chernoff bound on P(sum_j E_{X_j}[v_j] >= u) in [0, 1]."""
    return sum_tail(spec, u).value
