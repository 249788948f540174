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
import operator
from dataclasses import FrozenInstanceError, dataclass

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


def _check_values(v) -> None:
    """Raise unless the payoff values ``v``, a sequence of floats, are finite and strictly increasing."""
    # increasing values with finite ends are all finite (NaN fails the comparison)
    if not (all(map(operator.lt, v, v[1:])) and math.isfinite(v[0]) and math.isfinite(v[-1])):
        raise ValueError("values must be finite" if not all(map(math.isfinite, v))
                         else "values must be strictly increasing")


def _weight_sum(w) -> float:
    """``math.fsum`` of the finite nonnegative weights ``w``: inf where it passes the float range."""
    try:
        return math.fsum(w)
    except OverflowError:
        return math.inf


_SHAPE = "values and weights must be 1-D arrays of equal length"


def _floats(x) -> tuple[float, ...]:
    """The one-dimensional ``x`` (a sequence or an array) as a tuple of Python floats."""
    if isinstance(x, np.ndarray):
        if x.ndim != 1:
            raise ValueError(_SHAPE)
        x = x.tolist()
    try:
        # through a list, so the tuple is made at its size: one grown from an
        # iterator is resized, and the free lists of the small sizes would fill
        return tuple(list(map(float, x)))
    except TypeError:  # a scalar, or an entry that is itself a sequence
        raise ValueError(_SHAPE) from None


def _frozen(core: tuple[float, ...]) -> np.ndarray:
    """``core`` as a read-only float64 array."""
    array = np.array(core, dtype=float)
    array.flags.writeable = False
    return array


class WeightedValues:
    """Canonical pushforward of a probability measure through a payoff.

    ``values`` are strictly increasing finite floats; ``weights`` are
    nonnegative and sum to 1 (within ``WEIGHT_SUM_TOL``, by ``math.fsum``).
    Zero-weight atoms carry ambient payoff levels.  Construct through
    :func:`canonicalize` unless the inputs are already canonical.

    The measure is held as its core, ``value_core`` and ``weight_core``: two
    tuples of Python floats, checked rule by rule in one pass in Python.  The
    ``values`` and ``weights`` arrays are read-only float64 copies of the core,
    built on first access; only ``mean`` reads them.
    """

    __slots__ = ("value_core", "weight_core", "_values", "_weights")

    def __init__(self, values, weights):
        v, w = _floats(values), _floats(weights)
        if len(v) != len(w):
            raise ValueError(_SHAPE)
        if not v:
            raise ValueError("at least one atom is required")
        _check_values(v)
        if not (all(map(math.isfinite, w)) and min(w) >= 0.0):
            raise ValueError("weights must be finite and nonnegative")
        total = _weight_sum(w)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        setattr_ = object.__setattr__
        setattr_(self, "value_core", v)
        setattr_(self, "weight_core", w)
        setattr_(self, "_values", None)
        setattr_(self, "_weights", None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return WeightedValues, (self.value_core, self.weight_core)

    def __repr__(self) -> str:
        return f"WeightedValues(values={self.value_core!r}, weights={self.weight_core!r})"

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            object.__setattr__(self, "_values", _frozen(self.value_core))
        return self._values

    @property
    def weights(self) -> np.ndarray:
        if self._weights is None:
            object.__setattr__(self, "_weights", _frozen(self.weight_core))
        return self._weights

    # -- basic geometry --------------------------------------------------
    @property
    def v_min(self) -> float:
        return self.value_core[0]

    @property
    def v_max(self) -> float:
        return self.value_core[-1]

    @property
    def mean(self) -> float:
        return float(self.weights @ self.values)

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return list(zip(self.value_core, self.weight_core))

    def positive(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, weights) restricted to atoms with positive weight, as new arrays."""
        w = self.weight_core
        values = [v for v, p in zip(self.value_core, w) if p > 0.0]
        return np.array(values), np.array([p for p in w if p > 0.0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedValues):
            return NotImplemented
        return self.value_core == other.value_core and self.weight_core == other.weight_core

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
    # renormalize only when needed so a canonical echo is bit-exact, by the
    # weight-sum rule of WeightedValues, so that what is kept is accepted
    if abs(_weight_sum(weights.tolist()) - 1.0) > WEIGHT_SUM_TOL:
        weights = weights / total
    return WeightedValues(values, weights)


def kl_discrete(nu0: WeightedValues, nu: WeightedValues) -> float:
    """KL divergence of ``nu0`` from ``nu`` on a shared countable space.

    Sums p_i log(p_i / q_i) over positive-weight atoms of ``nu0``,
    matching atoms by exact value; +inf when ``nu`` misses mass where
    ``nu0`` has some.
    """
    q_of = dict(zip(nu.value_core, nu.weight_core))
    out = 0.0
    for v, p in zip(nu0.value_core, nu0.weight_core):
        if p > 0.0:
            q = q_of.get(v, 0.0)
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
