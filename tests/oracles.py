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
    """Split moment Q_k by enumerating the 2^k assignments of the sets.

    Each set goes to the process of concentration alpha or beta and
    carries that concentration as a factor; within a process, the l-th
    smallest of its sets contributes (c a_l + l - 1) / (c + l - 1), the
    nested-set moment of a single Dirichlet process.
    """
    a = sorted(masses)
    total = 0.0
    for sides in itertools.product((0, 1), repeat=len(a)):
        term = 1.0
        for which, c in enumerate((alpha, beta)):
            mine = [m for m, side in zip(a, sides) if side == which]
            for rank, m in enumerate(mine):
                term *= c * (c * m + rank) / (c + rank)
        total += term
    return total
