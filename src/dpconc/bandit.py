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
        if n != int(n) or m != int(m):
            raise ValueError("n and m must be integers")
        n, m = int(n), int(m)
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


@dataclass
class PolicyState:
    """Per-arm observation counts and success counts at round t."""

    counts: np.ndarray
    successes: np.ndarray
    t: int = 1

    @classmethod
    def fresh(cls, n: int) -> "PolicyState":
        return cls(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))

    @property
    def means(self) -> np.ndarray:
        """Empirical means, 0 for unseen arms."""
        out = np.zeros(len(self.counts))
        seen = self.counts > 0
        out[seen] = self.successes[seen] / self.counts[seen]
        return out

    def update(self, arms, outcomes) -> None:
        """Count one observation of each of ``arms`` (an index, a slice or a
        sequence of distinct arms) with its 0/1 outcome."""
        self.counts[arms] += 1
        self.successes[arms] += outcomes
        self.t += 1


@dataclass(frozen=True)
class RegretTrace:
    """Chosen block per round and the running expected regret."""

    actions: np.ndarray
    cum_regret: np.ndarray


def _block_argmax(instance: BanditInstance, per_arm: np.ndarray) -> int:
    sums = per_arm.reshape(-1, instance.m).sum(axis=1)
    return int(sums.argmax())  # ties resolve to the lowest block index


def cts_step(instance: BanditInstance, state: PolicyState, rng: np.random.Generator) -> int:
    """Posterior-sampling step: Beta(1 + successes, 1 + failures) per arm."""
    a = 1.0 + state.successes
    b = 1.0 + (state.counts - state.successes)
    theta_plus = rng.beta(a, b)
    return _block_argmax(instance, theta_plus)


def _bernoulli(mean: float) -> _View:
    # the solver view of the base {0: 1 - mean, 1: mean}, ambient endpoints
    # kept so that the confidence solvers can push mass there
    return _View(0.0, 1.0, mean, mean, [(1.0 - mean, 0.0)] if mean < 1.0 else [])


def _cucb_indices(instance: BanditInstance, state: PolicyState) -> np.ndarray:
    """Per-arm KL-UCB indices: kinf_inverse at budget log(t)/N, 1 if unseen."""
    u = np.ones(instance.n)
    logt = math.log(state.t)
    for k, (count, mean) in enumerate(zip(state.counts.tolist(), state.means.tolist())):
        if count > 0:
            u[k] = _region([(1.0, _bernoulli(mean))], logt / count)[0]
    return u


def cucb_kl_step(instance: BanditInstance, state: PolicyState) -> int:
    """Per-arm KL upper confidence bounds with exploration budget log(t)/N."""
    return _block_argmax(instance, _cucb_indices(instance, state))


def _escb_indices(instance: BanditInstance, state: PolicyState) -> np.ndarray:
    """Per-block radii of the joint KL region at level 1/(t log^2(t+1)),
    m for a block with an unseen arm."""
    delta = 1.0 / (state.t * math.log(state.t + 1.0) ** 2)
    budget = -math.log(min(delta, 1.0 - 1e-12))
    counts, means = state.counts.tolist(), state.means.tolist()
    indices = np.empty(instance.n_blocks)
    for j in range(instance.n_blocks):
        arms = instance.block_arms(j)
        if any(counts[k] == 0 for k in arms):
            indices[j] = instance.m  # maximal optimism for unseen arms
        else:
            indices[j] = _region([(float(counts[k]), _bernoulli(means[k])) for k in arms], budget)[0]
    return indices


def escb_kl_step(instance: BanditInstance, state: PolicyState) -> int:
    """Joint KL confidence region per block at level 1/(t log^2(t+1))."""
    return int(_escb_indices(instance, state).argmax())


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
    "worst": lambda inst, st, rng: int(np.argmin(inst.block_means)),
}
POLICIES = tuple(_STEPS)


def run_experiment(
    instance: BanditInstance, policy: str, T: int, reps: int, seed: int
) -> list[RegretTrace]:
    """Run ``reps`` independent simulations of ``policy`` for ``T`` rounds.

    Replications get independent generator streams spawned from the
    seed; outcomes are drawn only for arms in the chosen block.
    """
    if T < 1 or reps < 1:
        raise ValueError("T and reps must be >= 1")
    if policy not in _STEPS:
        raise ValueError(f"unknown policy {policy!r}")
    step = _STEPS[policy]
    m = instance.m
    theta = instance.theta
    means = np.asarray(instance.block_means)
    regret = m * (means[0] - means)
    traces = []
    for child in np.random.SeedSequence(seed).spawn(reps):
        rng = np.random.default_rng(child)
        state = PolicyState.fresh(instance.n)
        actions = [0] * T
        for t in range(T):
            j = actions[t] = step(instance, state, rng)
            arms = slice(j * m, j * m + m)
            state.update(arms, rng.random(m) < theta[arms])
        actions = np.array(actions, dtype=np.int64)
        traces.append(RegretTrace(actions, np.cumsum(regret[actions])))
    return traces
