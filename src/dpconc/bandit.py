"""Partition-action semi-bandit simulator with optimism policies.

The action space partitions n base arms into contiguous blocks of width
m; all arms inside block j are Bernoulli with the same mean p_j, and
block 1 is best.  Policies pick a block per round and observe every
outcome inside it (semi-bandit feedback).  Three optimism rules are
provided -- per-arm posterior sampling, per-arm KL upper confidence
bounds, and a joint KL confidence region over each block -- plus oracle
and worst-case references.  Regret is accounted in expectation:
m (p_1 - p_j) per round spent on block j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cgf import _View
from .measures import kl_bernoulli
from .sums import _region

__all__ = [
    "BanditInstance",
    "PolicyState",
    "RegretTrace",
    "cts_step",
    "cucb_kl_step",
    "escb_kl_step",
    "run_experiment",
    "lower_bound_constant",
    "POLICIES",
]


@dataclass(frozen=True)
class BanditInstance:
    """n Bernoulli arms in blocks of width m with per-block means."""

    n: int
    m: int
    block_means: tuple[float, ...]

    def __init__(self, n: int, m: int, block_means):
        block_means = tuple(float(p) for p in block_means)
        n, m = _integer(n, "n and m"), _integer(m, "n and m")
        if n <= 0 or m <= 0 or n % m != 0:
            raise ValueError("m must divide n and both must be positive")
        if len(block_means) != n // m:
            raise ValueError(f"expected {n // m} block means, got {len(block_means)}")
        if any(not (0.0 < p < 1.0) for p in block_means):
            raise ValueError("block means must lie in (0,1)")
        if block_means[0] != max(block_means):
            raise ValueError("the first block must carry the maximal mean")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "block_means", block_means)

    @property
    def n_blocks(self) -> int:
        return self.n // self.m

    @property
    def theta(self) -> np.ndarray:
        """Per-arm means theta_k = p_{ceil(k/m)}."""
        return np.repeat(np.asarray(self.block_means), self.m)

    def block_arms(self, j: int) -> range:
        return range(j * self.m, (j + 1) * self.m)

    @classmethod
    def from_dict(cls, data: dict) -> "BanditInstance":
        return cls(data["n"], data["m"], data["block_means"])


def _integer(value, name: str) -> int:
    try:
        k = int(value)
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k != value:
        raise ValueError(f"{name} must be integers, got {value!r}")
    return k


@dataclass
class PolicyState:
    """Per-arm observation counts and success counts at round t.

    ``counts`` and ``successes`` are lists of Python ints, converted once
    here from any sequence of integral values (numpy arrays included), so
    that a round reads them with no numpy call.  A state must hold equal
    numbers of counts and successes, 0 <= successes <= counts per arm, and
    an integral round t >= 1; anything else raises ``ValueError``.
    """

    counts: list[int]
    successes: list[int]
    t: int = 1

    def __post_init__(self):
        self.counts = [_integer(c, "counts") for c in self.counts]
        self.successes = [_integer(s, "successes") for s in self.successes]
        self.t = _integer(self.t, "t")
        if len(self.counts) != len(self.successes):
            raise ValueError(f"{len(self.counts)} counts but {len(self.successes)} successes")
        if any(not 0 <= s <= c for c, s in zip(self.counts, self.successes)):
            raise ValueError("successes must lie in [0, counts] per arm")
        if self.t < 1:
            raise ValueError(f"the round t must be >= 1, got {self.t}")

    @classmethod
    def fresh(cls, n: int) -> "PolicyState":
        return cls([0] * n, [0] * n)

    @property
    def means(self) -> list[float]:
        """Empirical means, 0 for unseen arms."""
        return [s / c if c else 0.0 for c, s in zip(self.counts, self.successes)]

    def update(self, arms, outcomes) -> None:
        """Count one observation of each of ``arms`` (a range or a sequence
        of distinct arms) with its 0/1 outcome, stored as a Python int: a
        numpy bool added to an int entry would make it a numpy integer."""
        counts, successes = self.counts, self.successes
        for k, outcome in zip(arms, outcomes, strict=True):
            counts[k] += 1
            successes[k] += int(outcome)
        self.t += 1


@dataclass(frozen=True)
class RegretTrace:
    """Chosen block per round and the running expected regret."""

    actions: np.ndarray
    cum_regret: np.ndarray


def _check_width(instance: BanditInstance, state: PolicyState) -> None:
    if len(state.counts) != instance.n:
        raise ValueError(f"the state has {len(state.counts)} arms, the instance {instance.n}")


def _block_sums(per_arm: list[float], m: int) -> list[float]:
    """Sums of the consecutive width-m blocks of ``per_arm``, bit for bit
    those of ``np.asarray(per_arm).reshape(-1, m).sum(axis=1)``: numpy's
    own for 8 or more arms, its left-to-right order in Python below that,
    where a numpy call would cost more than the additions."""
    if m >= 8:
        return np.asarray(per_arm).reshape(-1, m).sum(axis=1).tolist()
    sums = []
    for lo in range(0, len(per_arm), m):
        s = 0.0  # numpy adds fewer than 8 terms left to right
        for v in per_arm[lo:lo + m]:
            s += v
        sums.append(s)
    return sums


def _argmax(values: list[float]) -> int:
    return values.index(max(values))  # the first of equal maxima, as numpy's


def cts_step(instance: BanditInstance, state: PolicyState, rng: np.random.Generator) -> int:
    """Posterior-sampling step: Beta(1 + successes, 1 + failures) per arm.

    One scalar ``rng.beta`` call per arm, in arm order.  ``Generator.beta``
    on arrays draws element by element in that order from the same bit
    generator, so these are the values one array call would give, at a
    fraction of its cost on a few arms.  Ties go to the lowest block.
    """
    _check_width(instance, state)
    beta = rng.beta
    theta = [beta(1.0 + s, 1.0 + (c - s)) for c, s in zip(state.counts, state.successes)]
    return _argmax(_block_sums(theta, instance.m))


def _bernoulli(mean: float) -> _View:
    # the solver view of the base {0: 1 - mean, 1: mean}, ambient endpoints
    # kept so that the confidence solvers can push mass there
    return _View(0.0, 1.0, mean, mean, [(1.0 - mean, 0.0)] if mean < 1.0 else [])


def _cucb_indices(instance: BanditInstance, state: PolicyState) -> list[float]:
    """Per-arm KL-UCB indices: kinf_inverse at budget log(t)/N, 1 if unseen."""
    logt = math.log(state.t)
    return [_region([(1.0, _bernoulli(s / c))], logt / c)[0] if c else 1.0
            for c, s in zip(state.counts, state.successes)]


def cucb_kl_step(instance: BanditInstance, state: PolicyState) -> int:
    """Per-arm KL upper confidence bounds with exploration budget log(t)/N."""
    _check_width(instance, state)
    return _argmax(_block_sums(_cucb_indices(instance, state), instance.m))


def _escb_indices(instance: BanditInstance, state: PolicyState) -> list[float]:
    """Per-block radii of the joint KL region at level 1/(t log^2(t+1)),
    m for a block with an unseen arm."""
    delta = 1.0 / (state.t * math.log(state.t + 1.0) ** 2)
    budget = -math.log(min(delta, 1.0 - 1e-12))
    counts, successes = state.counts, state.successes
    indices = []
    for j in range(instance.n_blocks):
        arms = instance.block_arms(j)
        if any(counts[k] == 0 for k in arms):
            indices.append(float(instance.m))  # maximal optimism for unseen arms
        else:
            region = [(float(counts[k]), _bernoulli(successes[k] / counts[k])) for k in arms]
            indices.append(_region(region, budget)[0])
    return indices


def escb_kl_step(instance: BanditInstance, state: PolicyState) -> int:
    """Joint KL confidence region per block at level 1/(t log^2(t+1))."""
    _check_width(instance, state)
    return _argmax(_escb_indices(instance, state))


def lower_bound_constant(instance: BanditInstance) -> float:
    """Asymptotic per-log-round regret floor for a unique-best instance.

    sum over suboptimal blocks j of (p_1 - p_j) / kl(p_j, p_1); requires
    the best mean to be strictly maximal.
    """
    p = instance.block_means
    if any(q == p[0] for q in p[1:]):
        raise ValueError("the best block mean must be unique")
    return sum(((p[0] - q) / kl_bernoulli(q, p[0]) for q in p[1:]), 0.0)


# each step looks its policy function up when called, so that a rebinding
# of the module attribute (a tracer, a test double) reaches run_experiment
_STEPS = {
    "cts": lambda inst, st, rng: cts_step(inst, st, rng),
    "cucb": lambda inst, st, rng: cucb_kl_step(inst, st),
    "escb": lambda inst, st, rng: escb_kl_step(inst, st),
    "oracle": lambda inst, st, rng: 0,
    "worst": lambda inst, st, rng: inst.block_means.index(min(inst.block_means)),
}
POLICIES = tuple(_STEPS)


def run_experiment(
    instance: BanditInstance, policy: str, T: int, reps: int, seed: int
) -> list[RegretTrace]:
    """Run ``reps`` independent simulations of ``policy`` for ``T`` rounds.

    Replications get independent generator streams spawned from the
    seed; outcomes are drawn only for arms in the chosen block.
    """
    T, reps = _integer(T, "T and reps"), _integer(reps, "T and reps")
    if T < 1 or reps < 1:
        raise ValueError("T and reps must be >= 1")
    if policy not in _STEPS:
        raise ValueError(f"unknown policy {policy!r}")
    step = _STEPS[policy]
    m = instance.m
    theta = instance.theta.tolist()
    means = np.asarray(instance.block_means)
    regret = m * (means[0] - means)
    traces = []
    for child in np.random.SeedSequence(seed).spawn(reps):
        rng = np.random.default_rng(child)
        draw = rng.random  # one scalar draw per arm gives the values of rng.random(m)
        state = PolicyState.fresh(instance.n)
        actions = [0] * T
        for t in range(T):
            j = actions[t] = step(instance, state, rng)
            arms = range(j * m, j * m + m)
            state.update(arms, [draw() < theta[k] for k in arms])
        actions = np.array(actions, dtype=np.int64)
        traces.append(RegretTrace(actions, np.cumsum(regret[actions])))
    return traces
