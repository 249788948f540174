"""Dirichlet-process samplers and exact moment oracles.

Two sampling routes target the same law and cross-validate each other:
finite-support exact sampling (Dirichlet weights over the positive
atoms, i.e. normalized Gamma draws) and the stick-breaking construction
truncated at a residual tolerance.  Stick-breaking draws its fractions
in whole chunks, with the same truncation rule as breaking one stick at a
time, and its atoms by one inverse-CDF search over the positive weights.
The moment oracles -- the nested-set product formula and the split
polynomials Q_k / R_k, by a recursion over set counts -- are exact and
validate every bound in the package against simulation.

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

# the range of k that qk_rk accepts, part of its API (a test pins it); the
# recursion over set counts itself has no such limit
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
    p = dp.base.weight_core
    w = np.zeros(len(p))
    w[[x > 0.0 for x in p]] = _weights(dp, rng)[1]
    return DPSample(np.array(dp.base.value_core), w)


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
    after the fractions: one uniform per atom, even for a one-atom base,
    located by a search of the base's cumulative positive weights
    (normalized by their last entry).  This is the draw numpy's
    ``Generator.choice`` makes, written out here, so the stream is fixed
    by this module and not by ``choice``'s checks.  Equal seeds give
    bit-identical draws.
    """
    if not (0.0 < residual_tol < 1.0):
        raise ValueError("residual_tol must be in (0,1)")
    v, p = dp.base.positive()
    chunk = int(dp.alpha * math.log(1.0 / residual_tol)) + 8
    weights = []
    remaining = 1.0
    left = np.empty(chunk + 1)
    while remaining >= residual_tol:
        frac = rng.beta(1.0, dp.alpha, size=chunk)
        left[0] = remaining
        np.subtract(1.0, frac, out=left[1:])
        left.cumprod(out=left)
        # left[0] = remaining, so 0 means no leftover in this chunk is small
        n = int((left < residual_tol).argmax()) or chunk
        weights.append(frac[:n] * left[:n])
        remaining = float(left[n])
    weights.append([remaining])
    w = np.concatenate(weights)
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return DPSample(v[cdf.searchsorted(rng.random(w.size), side="right")], w)


def _nested_product(conc: float, a: list[float]) -> float:
    """prod_l (conc a_l + l - 1) / (conc + l - 1) over ascending set masses a_l, left to right."""
    if not all(0.0 <= a_l <= 1.0 for a_l in a):
        raise ValueError("set masses must lie in [0,1]")
    # the rank is added to conc * a_l, never to a_l: it must not absorb tiny masses
    return math.prod((conc * a_l + ell) / (conc + ell) for ell, a_l in enumerate(a))


def moment_nested(dp: DPSpec, nu0_of_sets) -> float:
    """E[prod_l X(A_l)] for nested measurable sets A_1 c ... c A_m.

    Only the base masses a_l = nu0(A_l) enter; the exact value is
    prod_l (alpha a_l + l - 1) / (alpha + l - 1).
    """
    a = [float(a_l) for a_l in nu0_of_sets]
    if not a:
        raise ValueError("need at least one set mass")
    if any(later < earlier for earlier, later in zip(a, a[1:])):
        raise ValueError("set masses must be nondecreasing (nested sets)")
    return _nested_product(dp.alpha, a)


def qk_rk(alpha: float, beta: float, nu0_of_sets, k: int) -> tuple[float, float]:
    """Exact subset-split moments Q_k and R_k over nested sets.

    Q_k sums over all 2^k assignments of the k sets to a pair of
    independent processes with concentrations alpha and beta; R_k is the
    single-process moment at concentration alpha + beta.  Input masses
    are sorted ascending (nested sets ordered by inclusion).  Q_k is summed
    over how many of the sets each process holds, in k (k + 1) / 2 steps.
    """
    if not (alpha > 0 and beta > 0):
        raise ValueError("alpha and beta must be positive")
    if not (1 <= k <= _MAX_SUBSET_K):
        raise ValueError(f"k must be in [1, {_MAX_SUBSET_K}]")
    a = sorted(float(a_l) for a_l in nu0_of_sets)
    if len(a) != k:
        raise ValueError(f"expected {k} set masses, got {len(a)}")
    r = (alpha + beta) ** k * _nested_product(alpha + beta, a)

    # row[i] sums the assignments of the sets so far that give i of them to
    # alpha.  Set b, the largest so far, joins a process that holds n of them
    # with the factor c (c a_b + n) / (c + n), c its concentration: the next
    # row's entry i gives it to beta from row[i] and to alpha from row[i - 1].
    row = [1.0]
    for b, a_b in enumerate(a):
        nxt, to_alpha = [], 0.0
        for i, t in enumerate(row):
            nxt.append(to_alpha + t * beta * (beta * a_b + b - i) / (beta + b - i))
            to_alpha = t * alpha * (alpha * a_b + i) / (alpha + i)
        row = nxt + [to_alpha]
    return sum(row), r


def mc_log_mgf(dp: DPSpec, n: int, rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo estimate of log E[exp(E_X[v])] with a delta-method error.

    Returns (log of the sample mean of exp(E_X[v]), standard error of
    that logarithm).  The exponentials are taken after subtracting the
    largest draw, so that no payoff scale overflows them.
    """
    x = sample_payoff_means(dp, n, rng)
    top = float(x.max())
    y = np.exp(x - top)
    m = float(y.mean())
    if n == 1:
        return top + math.log(m), math.inf
    se = float(y.std(ddof=1)) / math.sqrt(n) / m
    return top + math.log(m), se
