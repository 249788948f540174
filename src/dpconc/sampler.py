"""Dirichlet-process samplers and exact moment oracles.

Two sampling routes target the same law and cross-validate each other:
finite-support exact sampling (Dirichlet weights over the positive
atoms, i.e. normalized Gamma draws) and the stick-breaking construction
truncated at a residual tolerance.  Stick-breaking draws its fractions
in whole chunks and its atoms in one call, with the same truncation rule
as breaking one stick at a time.  The moment oracles -- the nested-set
product formula and the split polynomials Q_k / R_k -- are closed-form
and validate every bound in the package against simulation.

All sampling takes an explicit numpy Generator; equal seeds give
bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import DPSpec

__all__ = [
    "DPSample",
    "sample_exact",
    "sample_payoff_means",
    "sample_stick_breaking",
    "moment_nested",
    "qk_rk",
    "mc_log_mgf",
]

_MAX_SUBSET_K = 20


@dataclass(frozen=True)
class DPSample:
    """One realization: payoff values with their random weights."""

    values: np.ndarray
    weights: np.ndarray

    def payoff_mean(self) -> float:
        return float(self.weights @ self.values)


def _weights(dp: DPSpec, rng: np.random.Generator, size=None) -> tuple[np.ndarray, np.ndarray]:
    """The positive atoms and ``size`` rows of Dirichlet(alpha * p) weights over them;
    a lone atom takes weight 1 with no draw, where numpy can return 1 - 2^-53."""
    v, p = dp.base.positive()
    if v.size == 1:
        return v, np.ones(v.shape if size is None else (size, 1))
    return v, rng.dirichlet(dp.alpha * p, size=size)


def sample_exact(dp: DPSpec, rng: np.random.Generator) -> DPSample:
    """Draw one realization over the base's atom set.

    Weights over the positive atoms are Dirichlet(alpha * p_1, ...,
    alpha * p_k); zero-weight (ambient) atoms receive weight 0.
    """
    w = np.zeros_like(dp.base.weights)
    w[dp.base.weights > 0] = _weights(dp, rng)[1]
    return DPSample(dp.base.values.copy(), w)


def sample_payoff_means(dp: DPSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent draws of E_X[v], vectorized over exact samples."""
    if n < 1:
        raise ValueError("n must be >= 1")
    v, w = _weights(dp, rng, n)
    return w @ v


def sample_stick_breaking(
    dp: DPSpec, rng: np.random.Generator, residual_tol: float
) -> DPSample:
    """Draw one realization by breaking sticks until the leftover is small.

    Stick fractions come from Beta(1, alpha), drawn in chunks of about the
    expected stick count alpha log(1/residual_tol); the leftovers are their
    running product, the same left-to-right product as breaking one stick
    at a time.  Sticks are broken while the leftover is at least
    ``residual_tol``; the final leftover is handed to one extra atom, so
    weights always sum to 1.  Atom locations come iid from the base, all
    in one draw after the fractions.  Equal seeds give bit-identical
    draws.
    """
    if not (0.0 < residual_tol < 1.0):
        raise ValueError("residual_tol must be in (0,1)")
    v, p = dp.base.positive()
    chunk = int(dp.alpha * math.log(1.0 / residual_tol)) + 8
    weights = []
    remaining = 1.0
    while remaining >= residual_tol:
        frac = rng.beta(1.0, dp.alpha, size=chunk)
        left = np.cumprod(np.concatenate(([remaining], 1.0 - frac)))
        # left[0] = remaining, so 0 means no leftover in this chunk is small
        n = int(np.argmax(left < residual_tol)) or chunk
        weights.append(frac[:n] * left[:n])
        remaining = float(left[n])
    weights.append([remaining])
    w = np.concatenate(weights)
    return DPSample(rng.choice(v, size=w.size, p=p), w)


def _nested_product(conc: float, a: np.ndarray) -> float:
    """prod_l (conc a_l + l - 1) / (conc + l - 1) over ascending set masses a_l."""
    if not np.all((a >= 0.0) & (a <= 1.0)):
        raise ValueError("set masses must lie in [0,1]")
    # rank offsets precomputed: conc*a + (l-1) must not absorb tiny masses
    ell0 = np.arange(a.size, dtype=float)
    return float(np.prod((conc * a + ell0) / (conc + ell0)))


def moment_nested(dp: DPSpec, nu0_of_sets) -> float:
    """E[prod_l X(A_l)] for nested measurable sets A_1 c ... c A_m.

    Only the base masses a_l = nu0(A_l) enter; the exact value is
    prod_l (alpha a_l + l - 1) / (alpha + l - 1).
    """
    a = np.asarray(list(nu0_of_sets), dtype=float)
    if a.size == 0:
        raise ValueError("need at least one set mass")
    if np.any(np.diff(a) < 0):
        raise ValueError("set masses must be nondecreasing (nested sets)")
    return _nested_product(dp.alpha, a)


def qk_rk(alpha: float, beta: float, nu0_of_sets, k: int) -> tuple[float, float]:
    """Exact subset-split moments Q_k and R_k over nested sets.

    Q_k enumerates all 2^k assignments of the k sets to a pair of
    independent processes with concentrations alpha and beta; R_k is the
    single-process moment at concentration alpha + beta.  Input masses
    are sorted ascending (nested sets ordered by inclusion).
    """
    if not (alpha > 0 and beta > 0):
        raise ValueError("alpha and beta must be positive")
    if not (1 <= k <= _MAX_SUBSET_K):
        raise ValueError(f"k must be in [1, {_MAX_SUBSET_K}]")
    a = np.sort(np.asarray(list(nu0_of_sets), dtype=float))
    if a.size != k:
        raise ValueError(f"expected {k} set masses, got {a.size}")
    r = (alpha + beta) ** k * _nested_product(alpha + beta, a)

    # Row j of t holds E[prod_{l in S} X(A_l)] at concentration conc[j] for
    # every subset S, indexed by bitmask; pop is |S|.  Appending set b
    # doubles both: a set joining S multiplies by
    # (conc a_b + |S|) / (conc + |S|), since it is the largest in S.
    conc = np.array([[alpha], [beta]])
    t = np.ones((2, 1))
    pop = np.zeros(1)
    for a_b in a:
        t = np.concatenate((t, t * ((conc * a_b + pop) / (conc + pop))), axis=1)
        pop = np.concatenate((pop, pop + 1.0))
    # set b is bit b, so the complement of every mask reverses the order
    q = float(np.sum(alpha**pop * beta ** (k - pop) * t[0] * t[1, ::-1]))
    return q, r


def mc_log_mgf(dp: DPSpec, n: int, rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo estimate of log E[exp(E_X[v])] with a delta-method error.

    Returns (log of the sample mean of exp(E_X[v]), standard error of
    that logarithm).
    """
    y = np.exp(sample_payoff_means(dp, n, rng))
    m = float(y.mean())
    if n == 1:
        return math.log(m), math.inf
    se = float(y.std(ddof=1)) / math.sqrt(n) / m
    return math.log(m), se
