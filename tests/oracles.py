"""Brute-force oracles shared by the unit and acceptance tests.

These deliberately avoid the library's dual solvers and recursions:
they grid the primal problem or enumerate every case directly, so
agreement is evidence, not tautology.
"""

import itertools
import math

import numpy as np


def kinf_grid_two_atoms(base, u, points=10_000):
    """Minimum KL over all measures on a two-atom space with mean >= u."""
    (v0, p0), (v1, p1) = base.atoms
    s_min = (u - v0) / (v1 - v0)
    if s_min <= p1:
        return 0.0
    grid = np.linspace(s_min, 1.0, points)
    with np.errstate(divide="ignore"):
        kl = np.zeros_like(grid)
        if p0 > 0:
            kl += p0 * np.log(p0 / (1.0 - grid))
        if p1 > 0:
            kl += p1 * np.log(p1 / grid)
    return float(np.min(kl))


def kinf_grid_three_atoms(base, u, points=10_000):
    """Minimum KL over the face of three-atom measures with mean exactly u.

    Above the base mean the constrained optimum activates the mean
    constraint, so the feasible set is a segment: sweep it.
    """
    (v0, p0), (v1, p1), (v2, p2) = base.atoms
    if u <= base.mean:
        return 0.0
    q0 = np.linspace(0.0, 1.0, points)
    q1 = ((1.0 - q0) * v2 - (u - v0 * q0)) / (v2 - v1)
    q2 = 1.0 - q0 - q1
    ok = (q1 >= 0) & (q2 >= 0)
    q0, q1, q2 = q0[ok], q1[ok], q2[ok]
    if q0.size == 0:
        return math.inf
    kl = np.zeros_like(q0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for p, q in ((p0, q0), (p1, q1), (p2, q2)):
            if p > 0:
                kl += np.where(q > 0, p * np.log(p / np.maximum(q, 1e-300)), math.inf)
    return float(np.min(kl))


def bootstrap_mean_ci(values, n_boot=10_000, level=0.95, seed=0):
    """Percentile bootstrap confidence interval for the mean."""
    rng = np.random.default_rng(seed)
    values = np.asarray(values, dtype=float)
    idx = rng.integers(0, values.size, size=(n_boot, values.size))
    means = values[idx].mean(axis=1)
    tail = (1.0 - level) / 2.0
    return float(np.quantile(means, tail)), float(np.quantile(means, 1.0 - tail))


def qk_enumerate(alpha, beta, masses):
    """Split moment Q_k by enumerating the 2^k assignments of the sets,
    summed exactly rounded.

    Each set goes to the process of concentration alpha or beta and
    carries that concentration as a factor; within a process, the l-th
    smallest of its sets contributes (c a_l + l - 1) / (c + l - 1), the
    nested-set moment of a single Dirichlet process.
    """
    a = sorted(masses)
    terms = []
    for sides in itertools.product((0, 1), repeat=len(a)):
        term = 1.0
        for which, c in enumerate((alpha, beta)):
            mine = [m for m, side in zip(a, sides) if side == which]
            for rank, m in enumerate(mine):
                term *= c * (c * m + rank) / (c + rank)
        terms.append(term)
    return math.fsum(terms)


def _logsumexp(x):
    top = float(np.max(x))
    return top + math.log(math.fsum(np.exp(x - top).tolist()))


def exact_log_mgf(alpha, base):
    """log E exp(E_X[f]) for X ~ DP(alpha * base), f the payoff, exactly.

    Shift f so that f >= 0 on the support and set mu_j = E_base[f^j].
    The coefficients h_0 = 1, h_n = (alpha / n) sum_{j <= n} mu_j h_{n-j}
    of exp(alpha sum_j mu_j t^j / j) are the Chinese-restaurant sums over
    partitions, and E exp(E_X[f]) = sum_n h_n / (alpha)_n, with (alpha)_n
    the rising factorial.  The series is summed in G_n = h_n / ((alpha)_n F^n),
    F = max f, from the moments mu_j / F^j of f / F, and G_n is carried as its
    logarithm, so that neither the factorials nor the powers overflow or
    underflow at any range.  Its terms are E[E_X[f]^n] / n! <= (e F / n)^n, so
    N = ceil(e F) + 60 terms leave a remainder far below rounding.
    """
    values, weights = base.positive()
    shift = float(values[0])
    f = values - shift
    top = float(f[-1])
    if top == 0.0:
        return shift
    n_terms = math.ceil(math.e * top) + 60
    # the top atom has (f / F)^j = 1, so no moment is 0
    log_m = np.log(weights @ ((f / top)[:, None] ** np.arange(1, n_terms + 1)))
    log_shifted = np.log(alpha + np.arange(n_terms))  # log(alpha + i), i < N
    log_g = np.zeros(n_terms + 1)
    for n in range(1, n_terms + 1):
        # log (alpha)_n / (alpha)_{n-j} for j = 1, ..., n
        log_rising = np.cumsum(log_shifted[n - 1::-1])
        log_g[n] = math.log(alpha / n) + _logsumexp(log_m[:n] + log_g[n - 1::-1] - log_rising)
    return shift + _logsumexp(log_g + np.arange(n_terms + 1) * math.log(top))


def canonicalize_loop(pairs):
    """(values, weights) of canonical atoms by a stable sort and a merge loop.

    Adds the weights of equal values left to right in input order and
    renormalizes when the total is off 1 by more than 1e-12, as
    ``dpconc.measures.canonicalize`` must; valid input only.
    """
    vals = np.asarray([p[0] for p in pairs], dtype=float)
    wts = np.asarray([p[1] for p in pairs], dtype=float)
    order = np.argsort(vals, kind="stable")
    vals, wts = vals[order], wts[order]
    keep_v, keep_w = [vals[0]], [wts[0]]
    for v, w in zip(vals[1:], wts[1:]):
        if v == keep_v[-1]:
            keep_w[-1] += w
        else:
            keep_v.append(v)
            keep_w.append(w)
    w = np.asarray(keep_w, dtype=float)
    if abs(float(w.sum()) - 1.0) > 1e-12:
        w = w / w.sum()
    return np.asarray(keep_v, dtype=float), w


def beta_cgf_exact(a, b, lam, digits=50):
    """The Beta CGF bound max_s lam (s - p) - (a+b) kl(p, s) in ``digits``-digit
    arithmetic, at the stationary point in its textbook (unrationalized) form."""
    import mpmath

    with mpmath.workdps(digits):
        a, b, lam = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(lam)
        n = a + b
        p = a / n
        s = (lam - n + mpmath.sqrt((lam - n) ** 2 + 4 * lam * a)) / (2 * lam)
        kl = p * mpmath.log(p / s) + (1 - p) * mpmath.log((1 - p) / (1 - s))
        return float(lam * (s - p) - n * kl)


def one_term_root(top, p, a, b, digits=80):
    """The root in [top, 1] of the one-term secular quadratic
    a r^2 + (b - a (top + p)) r - top b = 0, in ``digits``-digit arithmetic
    from the float inputs, clamped to [top, 1]; with no top mass, the larger of
    its roots 0 and p - b / a."""
    import mpmath

    with mpmath.workdps(digits):
        top, p, a, b = (mpmath.mpf(x) for x in (top, p, a, b))
        k = b - a * (top + p)
        if top == 0:
            r = max(-k / a, 0) if a > 0 else 0
        else:
            root = mpmath.sqrt(k * k + 4 * a * top * b)
            r = 2 * top * b / (k + root) if k >= 0 else (root - k) / (2 * a)
        return float(min(max(r, top), 1))
