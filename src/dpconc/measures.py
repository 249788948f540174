"""Finite-support probability measures and KL divergences.

Every solver in this package sees a distribution only through the joint
law of a scalar payoff under it: an ordered list of (value, weight)
atoms.  Zero-weight atoms are legal and meaningful -- they mark ambient
points of the underlying space where an optimizing measure may place
mass even though the base has none (for example the endpoint of an
empirical Bernoulli measure whose observed mean is 0 or 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightedValues",
    "DPSpec",
    "canonicalize",
    "kl_bernoulli",
    "kl_discrete",
]

WEIGHT_SUM_TOL = 1e-12


def kl_bernoulli(p: float, q: float) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q).

    kl(p, q) = p log(p/q) + (1-p) log((1-p)/(1-q)), with the
    conventions 0 log(0/x) = 0 and kl = +inf whenever q is 0 or 1 while
    p disagrees.  Total on [0,1]^2, values in [0, +inf].
    """
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError(f"p and q must be in [0,1], got p={p}, q={q}")
    if q == 0.0:
        return 0.0 if p == 0.0 else math.inf
    if q == 1.0:
        return 0.0 if p == 1.0 else math.inf
    if p == 0.0:
        return -math.log1p(-q)
    if p == 1.0:
        return -math.log(q)
    return p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))


def _check_values(v: np.ndarray) -> None:
    """Raise unless the payoff values ``v`` are finite and strictly increasing."""
    # increasing values with finite ends are all finite (NaN fails the comparison)
    if not ((v[1:] > v[:-1]).all() and math.isfinite(v[0]) and math.isfinite(v[-1])):
        raise ValueError("values must be finite" if not np.isfinite(v).all()
                         else "values must be strictly increasing")


@dataclass(frozen=True, eq=False)
class WeightedValues:
    """Canonical pushforward of a probability measure through a payoff.

    ``values`` are strictly increasing finite floats; ``weights`` are
    nonnegative and sum to 1 (within ``WEIGHT_SUM_TOL``).  Zero-weight
    atoms carry ambient payoff levels.  Construct through
    :func:`canonicalize` unless the arrays are already canonical.  A valid
    measure is accepted in three array reductions: neighbouring values, least
    weight and weight sum; one that fails is checked rule by rule for the message.
    """

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", w)
        if v.ndim != 1 or w.ndim != 1 or v.shape != w.shape:
            raise ValueError("values and weights must be 1-D arrays of equal length")
        if v.size == 0:
            raise ValueError("at least one atom is required")
        _check_values(v)
        # nonnegative weights summing to 1 are all finite
        if w.min() >= 0.0 and abs(float(w.sum()) - 1.0) <= WEIGHT_SUM_TOL:
            return
        # some rule fails: find the first, in the order of the messages
        if (w < 0).any() or not np.isfinite(w).all():
            raise ValueError("weights must be finite and nonnegative")
        raise ValueError(f"weights must sum to 1, got {float(w.sum())!r}")

    # -- basic geometry --------------------------------------------------
    @property
    def v_min(self) -> float:
        return float(self.values[0])

    @property
    def v_max(self) -> float:
        return float(self.values[-1])

    @property
    def mean(self) -> float:
        return float(self.weights @ self.values)

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return [(float(v), float(w)) for v, w in zip(self.values, self.weights)]

    def positive(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, weights) restricted to atoms with positive weight."""
        mask = self.weights > 0
        return self.values[mask], self.weights[mask]

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedValues):
            return NotImplemented
        return np.array_equal(self.values, other.values) and np.array_equal(
            self.weights, other.weights
        )

    # -- JSON interchange -------------------------------------------------
    def to_dict(self) -> dict:
        return {"atoms": [{"value": v, "weight": w} for v, w in self.atoms]}

    @classmethod
    def from_dict(cls, data: dict) -> "WeightedValues":
        atoms = data["atoms"]
        return canonicalize([(a["value"], a["weight"]) for a in atoms])


def canonicalize(pairs) -> WeightedValues:
    """Build a canonical :class:`WeightedValues` from raw (value, weight) pairs.

    Sorts by value, merges exact duplicates by adding their weights,
    renormalizes the total mass to 1, and keeps zero-weight atoms.
    Rejects a negative weight (a merge could hide it); :class:`WeightedValues` checks the rest.
    """
    pairs = list(pairs)
    if len(pairs) == 0:
        raise ValueError("empty atom list")
    values, weights = np.asarray(pairs, dtype=float).T
    if (weights < 0).any():
        raise ValueError("weights must be nonnegative")
    # equal values keep the first in input order (0.0 or -0.0) and add their weights in it
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    values, weights = values[first], np.bincount(inverse, weights=weights)
    with np.errstate(over="ignore"):
        total = float(weights.sum())
    if total == math.inf and np.isfinite(weights).all():
        # finite weights whose sum passes the float range: scale them first
        weights = weights / weights.max()
        total = float(weights.sum())
    if not 0.0 < total < math.inf:
        raise ValueError(f"total weight must be a positive finite number, got {total!r}")
    # renormalize only when needed so a canonical echo is bit-exact
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        weights = weights / total
    return WeightedValues(values, weights)


def kl_discrete(nu0: WeightedValues, nu: WeightedValues) -> float:
    """KL divergence of ``nu0`` from ``nu`` on a shared countable space.

    Sums p_i log(p_i / q_i) over positive-weight atoms of ``nu0``,
    matching atoms by exact value; +inf when ``nu`` misses mass where
    ``nu0`` has some.
    """
    pv, pw = nu0.positive()
    idx = np.searchsorted(nu.values, pv)
    out = 0.0
    for v, p, i in zip(pv, pw, idx):
        if i >= nu.values.size or nu.values[i] != v:
            return math.inf
        q = float(nu.weights[i])
        if q == 0.0:
            return math.inf
        out += p * math.log(p / q)
    return out


@dataclass(frozen=True)
class DPSpec:
    """A Dirichlet process: concentration ``alpha`` times base ``base``."""

    alpha: float
    base: WeightedValues

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be a positive finite real, got {self.alpha!r}")
