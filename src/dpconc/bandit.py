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

from .kinf import kinf_inverse
from .measures import DPSpec, WeightedValues, kl_bernoulli
from .sums import SumSpec, region_radius

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

    def to_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "block_means": list(self.block_means)}

    @classmethod
    def from_dict(cls, data: dict) -> "BanditInstance":
        return cls(int(data["n"]), int(data["m"]), data["block_means"])


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
        self.counts[list(arms)] += 1
        self.successes[list(arms)] += np.asarray(outcomes, dtype=np.int64)
        self.t += 1


@dataclass(frozen=True)
class RegretTrace:
    """Chosen block per round and the running expected regret."""

    actions: np.ndarray
    cum_regret: np.ndarray


def _block_argmax(instance: BanditInstance, per_arm: np.ndarray) -> int:
    sums = per_arm.reshape(instance.n_blocks, instance.m).sum(axis=1)
    return int(np.argmax(sums))  # ties resolve to the lowest block index


def cts_step(instance: BanditInstance, state: PolicyState, rng: np.random.Generator) -> int:
    """Posterior-sampling step: Beta(1 + successes, 1 + failures) per arm."""
    a = 1.0 + state.successes
    b = 1.0 + (state.counts - state.successes)
    theta_plus = rng.beta(a, b)
    return _block_argmax(instance, theta_plus)


def _bernoulli_base(mean: float) -> WeightedValues:
    # ambient endpoints kept so the confidence solvers can push mass there;
    # sorted distinct values and weights summing to 1 within an ulp: canonical
    return WeightedValues(np.array([0.0, 1.0]), np.array([1.0 - mean, mean]))


def cucb_kl_step(instance: BanditInstance, state: PolicyState) -> int:
    """Per-arm KL upper confidence bounds with exploration budget log(t)/N."""
    u = np.ones(instance.n)
    logt = math.log(state.t)
    for k in range(instance.n):
        if state.counts[k] > 0:
            u[k] = kinf_inverse(
                _bernoulli_base(float(state.means[k])), logt / state.counts[k]
            )
    return _block_argmax(instance, u)


def escb_kl_step(instance: BanditInstance, state: PolicyState) -> int:
    """Joint KL confidence region per block at level 1/(t log^2(t+1))."""
    delta = 1.0 / (state.t * math.log(state.t + 1.0) ** 2)
    delta = min(delta, 1.0 - 1e-12)
    means = state.means
    indices = np.empty(instance.n_blocks)
    for j in range(instance.n_blocks):
        arms = instance.block_arms(j)
        if any(state.counts[k] == 0 for k in arms):
            indices[j] = instance.m  # maximal optimism for unseen arms
            continue
        spec = SumSpec(
            DPSpec(float(state.counts[k]), _bernoulli_base(float(means[k])))
            for k in arms
        )
        indices[j] = region_radius(spec, delta).radius
    return int(np.argmax(indices))


def lower_bound_constant(instance: BanditInstance) -> float:
    """Asymptotic per-log-round regret floor for a unique-best instance.

    sum over suboptimal blocks j of (p_1 - p_j) / kl(p_j, p_1); requires
    the best mean to be strictly maximal.
    """
    p = instance.block_means
    if any(q == p[0] for q in p[1:]):
        raise ValueError("the best block mean must be unique")
    return sum((p[0] - q) / kl_bernoulli(q, p[0]) for q in p[1:])


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
    theta = instance.theta
    means = np.asarray(instance.block_means)
    regret = instance.m * (means[0] - means)
    traces = []
    for child in np.random.SeedSequence(seed).spawn(reps):
        rng = np.random.default_rng(child)
        state = PolicyState.fresh(instance.n)
        actions = np.empty(T, dtype=np.int64)
        for t in range(T):
            j = step(instance, state, rng)
            arms = instance.block_arms(j)
            outcomes = rng.random(instance.m) < theta[list(arms)]
            state.update(arms, outcomes)
            actions[t] = j
        traces.append(RegretTrace(actions, np.cumsum(regret[actions])))
    return traces
