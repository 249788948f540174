"""Reference computations and output checks, written apart from dpconc.

Every routine here works on plain arrays and numbers: a measure is a pair
(values, weights) with values strictly increasing and weights summing to 1,
zero weights marking ambient atoms.  Nothing in this module calls the
program, so a check compares the program against an independent solve or
against a property the method must have.  Each ``check_*`` function returns a
list of failure messages; an empty list means the output passed.

Tolerances (relative unless stated):
  REL_VALUE   1e-9   dual values (radius, log tail, conjugate) sit at a flat
                     optimum, so solver tolerances enter only to second order;
                     on the 18 region and 12 sum-tail queries of the bounds
                     workload at seeds 1 and 2 the program and these solves
                     agreed to 4.6e-12 (radius) and 1.3e-14 (tail).
  BUDGET_ABS  1e-7   divergence spent by region witnesses enters to first
                     order in the outer multiplier, which the program solves
                     to ~1e-12 relative; the same queries were within 2.7e-10.
  INDEX_ABS   2e-10  kinf_inverse documents an absolute bisection tolerance of
                     1e-10 on payoffs in [0, 1].
  WEIGHT_ABS  1e-12  the tolerance the program itself applies to weight sums.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import brentq

REL_VALUE = 1e-9
BUDGET_ABS = 1e-7
INDEX_ABS = 2e-10
WEIGHT_ABS = 1e-12
SAMPLING_Z = 5.0


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def kl(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) for weight vectors on one atom set."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0.0:
            if qi <= 0.0:
                return math.inf
            total += pi * math.log(pi / qi)
    return total


def bernoulli_kl(p: float, q: float) -> float:
    out = 0.0
    if p > 0.0:
        out += p * math.log(p / q)
    if p < 1.0:
        out += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return out


def conjugate(a: float, values: np.ndarray, weights: np.ndarray) -> tuple[float, np.ndarray]:
    """B = sup_q E_q[values] - a KL(weights || q) with its maximizer q.

    The maximizer has q_i = a p_i / (c - v_i) on positive atoms, where c
    solves sum_i a p_i / (c - v_i) = 1 on (v_max, v_max + a]; when the top
    atom is ambient and the sum at c = v_max is at most 1, c = v_max and the
    leftover mass sits on the top atom.
    """
    v = np.asarray(values, dtype=float)
    p = np.asarray(weights, dtype=float)
    pos = p > 0.0
    vp, pp = v[pos], p[pos]
    vmax = float(v[-1])
    q = np.zeros_like(p)
    if p[-1] == 0.0 and a * float(np.sum(pp / (vmax - vp))) <= 1.0:
        c = vmax
        q[pos] = a * pp / (vmax - vp)
        q[-1] = 1.0 - float(q.sum())
    else:

        def excess(c_: float) -> float:
            return a * float(np.sum(pp / (c_ - vp))) - 1.0

        gap = a
        while excess(vmax + gap) <= 0.0 and gap > 0.0:
            gap *= 0.5
        hi = vmax + a
        lo = vmax + gap
        c = hi if lo >= hi else brentq(excess, lo, hi, xtol=1e-300, rtol=1e-15, maxiter=500)
        q[pos] = a * pp / (c - vp)
    value = c - a + a * float(np.sum(pp * np.log(a / (c - vp))))
    return value, q


def region_radius(components, delta: float) -> float:
    """min over lam >= 0 of lam log(1/delta) + sum_j B(lam alpha_j, nu_j).

    ``components`` is a list of (alpha, values, weights).  The objective is
    convex in lam with slope log(1/delta) - sum_j alpha_j KL(nu_j || q_j(lam)),
    whose root is found by bracketing and Brent's method.
    """
    budget = math.log(1.0 / delta)
    if all(np.count_nonzero(w) == 1 and w[-1] > 0 for _, _, w in components):
        return sum(float(v[-1]) for _, v, _ in components)

    def slope(lam: float) -> float:
        spent = 0.0
        for alpha, v, w in components:
            _, q = conjugate(lam * alpha, v, w)
            spent += alpha * kl(w, q)
        return budget - spent

    def objective(lam: float) -> float:
        return lam * budget + sum(conjugate(lam * a, v, w)[0] for a, v, w in components)

    lo, hi = 1.0, 1.0
    while slope(lo) >= 0.0:
        lo *= 0.5
    while slope(hi) <= 0.0:
        hi *= 2.0
    lam = brentq(slope, lo, hi, xtol=1e-300, rtol=1e-15, maxiter=500)
    return objective(lam)


def log_sum_tail(components, u: float) -> float:
    """sup over lam >= 0 of lam u - sum_j B(alpha_j, lam v_j); +inf beyond reach.

    The slope u - sum_j E_{q_j(lam)}[v_j] falls from u - sum of means to
    u - sum of maxima, so its root is bracketed by doubling.
    """
    means = sum(float(np.dot(v, w)) for _, v, w in components)
    tops = sum(float(v[-1]) for _, v, _ in components)
    if u <= means:
        return 0.0
    if u >= tops:
        return math.inf

    def slope(lam: float) -> float:
        if lam == 0.0:
            return u - means
        reach = 0.0
        for alpha, v, w in components:
            _, q = conjugate(alpha, lam * v, w)
            reach += float(np.dot(q, v))
        return u - reach

    hi = 1.0
    while slope(hi) >= 0.0:
        hi *= 2.0
    lam = brentq(slope, 0.0, hi, xtol=1e-300, rtol=1e-15, maxiter=500)
    return lam * u - sum(conjugate(a, lam * v, w)[0] for a, v, w in components)


def kinf(values, weights, u: float) -> float:
    """max over lam in [0, 1/(v_max - u)] of sum_i p_i log(1 - lam (v_i - u))."""
    v = np.asarray(values, dtype=float)
    p = np.asarray(weights, dtype=float)
    pos = p > 0.0
    vp, pp = v[pos], p[pos]
    if u <= float(np.dot(v, p)):
        return 0.0
    vmax = float(v[-1])
    if u >= vmax:
        return 0.0 if (u == vmax and vp.size == 1 and vp[0] == vmax) else math.inf
    d = u - vp
    lam_max = 1.0 / (vmax - u)

    def slope(lam: float) -> float:
        return float(np.sum(pp * d / (1.0 + lam * d)))

    if p[-1] == 0.0 and slope(lam_max) >= 0.0:
        lam = lam_max
    else:
        shrink = 0.5  # mass at the top drives the slope to -inf at lam_max
        while slope(lam_max * (1.0 - shrink)) >= 0.0:
            shrink *= 0.5
        lam = brentq(slope, 0.0, lam_max * (1.0 - shrink), xtol=1e-300, rtol=1e-15, maxiter=500)
    return float(np.sum(pp * np.log1p(lam * d)))


def kl_ucb(p: float, budget: float) -> float:
    """Largest u in [p, 1] with Bernoulli kl(p, u) <= budget."""
    if budget <= 0.0 or p >= 1.0:
        return p
    hi = 1.0 - 1e-16
    if bernoulli_kl(p, hi) <= budget:
        return 1.0
    return brentq(lambda x: bernoulli_kl(p, x) - budget, p, hi, xtol=1e-300, rtol=1e-15, maxiter=500)


# -- checks --------------------------------------------------------------


def check_probability(values, weights, support, label: str) -> list[str]:
    """Weights are a probability vector and every charged atom lies in ``support``."""
    w = np.asarray(weights, dtype=float)
    out = []
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        out.append(f"{label}: negative or non-finite weight")
    if abs(float(w.sum()) - 1.0) > WEIGHT_ABS:
        out.append(f"{label}: weights sum to {float(w.sum())!r}")
    allowed = set(float(x) for x in support)
    if any(float(x) not in allowed for x, wx in zip(values, w) if wx > 0.0):
        out.append(f"{label}: atom outside the base's support")
    return out


def check_region(components, delta: float, radius: float, witnesses) -> list[str]:
    """``witnesses`` is a list of weight vectors aligned with each base."""
    label = f"region(r={len(components)}, delta={delta:.3g})"
    out = []
    ref = region_radius(components, delta)
    if not _close(radius, ref, REL_VALUE):
        out.append(f"{label}: radius {radius!r} vs reference {ref!r}")
    means = sum(float(np.dot(v, w)) for _, v, w in components)
    tops = sum(float(v[-1]) for _, v, _ in components)
    if not (means - 1e-12 <= radius <= tops + 1e-12):
        out.append(f"{label}: radius {radius!r} outside [{means!r}, {tops!r}]")
    witness_sum = 0.0
    spent = 0.0
    for j, ((alpha, v, w), q) in enumerate(zip(components, witnesses)):
        out += check_probability(v, q, v, f"{label} witness {j}")
        witness_sum += float(np.dot(v, q))
        spent += alpha * kl(w, np.asarray(q, dtype=float))
    if not _close(radius, witness_sum, REL_VALUE):
        out.append(f"{label}: radius {radius!r} vs witness means {witness_sum!r}")
    if ref < tops and abs(spent - math.log(1.0 / delta)) > BUDGET_ABS:
        out.append(f"{label}: witnesses spend {spent!r} of budget {math.log(1.0 / delta)!r}")
    return out


def check_sum_tail(components, u: float, bound: float) -> list[str]:
    label = f"sumtail(r={len(components)}, u={u:.6g})"
    out = []
    if not (0.0 <= bound <= 1.0):
        out.append(f"{label}: bound {bound!r} outside [0, 1]")
    ref = math.exp(-log_sum_tail(components, u))
    if not _close(bound, ref, REL_VALUE):
        out.append(f"{label}: bound {bound!r} vs reference {ref!r}")
    return out


def check_index(p: float, budget: float, index: float) -> list[str]:
    ref = kl_ucb(p, budget)
    if abs(index - ref) > INDEX_ABS:
        return [f"index(p={p:.6g}, budget={budget:.6g}): {index!r} vs reference {ref!r}"]
    return []


def check_conjugate(alpha: float, values, weights, value: float, witness_values, witness) -> list[str]:
    """Dual value equals the primal objective at the witness, a probability vector."""
    label = f"conjugate(alpha={alpha:.6g}, atoms={len(values)})"
    out = check_probability(witness_values, witness, values, label)
    if out:
        return out
    q = np.zeros(len(values))
    index = {float(x): i for i, x in enumerate(values)}
    for x, wx in zip(witness_values, witness):
        q[index[float(x)]] += wx
    primal = float(np.dot(values, q)) - alpha * kl(np.asarray(weights, dtype=float), q)
    if not _close(value, primal, REL_VALUE):
        out.append(f"{label}: dual {value!r} vs primal at witness {primal!r}")
    return out


def check_kinf(values, weights, u: float, value: float) -> list[str]:
    ref = kinf(values, weights, u)
    if not _close(value, ref, REL_VALUE):
        return [f"kinf(u={u:.6g}): {value!r} vs reference {ref!r}"]
    return []


def check_tail(alpha: float, values, weights, u: float, value: float) -> list[str]:
    k = kinf(values, weights, u)
    ref = 0.0 if math.isinf(k) else min(1.0, math.exp(-alpha * k))
    if not _close(value, ref, REL_VALUE):
        return [f"tail(alpha={alpha:.6g}, u={u:.6g}): {value!r} vs reference {ref!r}"]
    return []


def check_regret(block_means, m: int, actions, cum_regret) -> list[str]:
    """Running expected regret recomputed from the chosen blocks."""
    gaps = m * (block_means[0] - np.asarray(block_means, dtype=float))
    ref = np.cumsum(gaps[np.asarray(actions, dtype=np.int64)])
    if len(ref) != len(cum_regret) or not np.allclose(cum_regret, ref, rtol=1e-12, atol=1e-12):
        return ["bandit: cumulative regret does not match the actions"]
    return []


def check_same_actions(first, again) -> list[str]:
    if not np.array_equal(np.asarray(first), np.asarray(again)):
        return ["bandit: a rerun with the same seed chose different actions"]
    return []


def check_choice(label: str, chosen: int, indices) -> list[str]:
    best = int(np.argmax(indices))
    if chosen != best:
        return [f"{label}: picked block {chosen}, reference indices {list(indices)} pick {best}"]
    return []


def check_moments(draws, mean: float, var: float, alpha: float, label: str) -> list[str]:
    """Sample mean and variance of E_X[v] against E_nu[v] and Var_nu(v)/(alpha+1)."""
    x = np.asarray(draws, dtype=float)
    n = x.size
    target_var = var / (alpha + 1.0)
    out = []
    z_mean = abs(float(x.mean()) - mean) / math.sqrt(target_var / n)
    if z_mean > SAMPLING_Z:
        out.append(f"{label}: sample mean is {z_mean:.2f} standard errors from {mean!r}")
    centered = x - float(x.mean())
    s2 = float(np.mean(centered**2)) * n / (n - 1)
    se_var = math.sqrt(max(float(np.mean(centered**4)) - s2 * s2, 0.0) / n)
    if abs(s2 - target_var) > SAMPLING_Z * se_var:
        out.append(f"{label}: sample variance {s2!r} vs closed form {target_var!r}")
    return out


def nested_moment(conc: float, masses) -> float:
    """E[prod_l X(A_l)] for nested sets with ascending base masses."""
    out = 1.0
    for rank, a in enumerate(masses):
        out *= (conc * a + rank) / (conc + rank)
    return out


def subset_split(alpha: float, beta: float, masses) -> tuple[float, float]:
    """Q_k by enumerating every split of the k sets, and R_k."""
    a = sorted(float(x) for x in masses)
    k = len(a)
    q = 0.0
    for size in range(k + 1):
        for chosen in itertools.combinations(range(k), size):
            rest = [a[i] for i in range(k) if i not in chosen]
            q += (
                alpha**size
                * beta ** (k - size)
                * nested_moment(alpha, [a[i] for i in chosen])
                * nested_moment(beta, rest)
            )
    r = (alpha + beta) ** k * nested_moment(alpha + beta, a)
    return q, r


def check_subset_split(alpha: float, beta: float, masses, q: float, r: float) -> list[str]:
    label = f"qk_rk(k={len(masses)})"
    ref_q, ref_r = subset_split(alpha, beta, masses)
    out = []
    if not _close(q, ref_q, 1e-12) or not _close(r, ref_r, 1e-12):
        out.append(f"{label}: ({q!r}, {r!r}) vs enumeration ({ref_q!r}, {ref_r!r})")
    if q > r * (1.0 + 1e-12):
        out.append(f"{label}: Q_k {q!r} exceeds R_k {r!r}")
    return out


def check_suite(report: dict) -> list[str]:
    if not report.get("passed"):
        failed = [c["name"] for c in report.get("checks", []) if not c.get("passed")]
        return [f"suite {report.get('suite')}: failed checks {failed}"]
    return []


def check_exit(label: str, code: int) -> list[str]:
    return [] if code == 0 else [f"{label}: exit code {code}"]
