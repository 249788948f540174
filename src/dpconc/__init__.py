"""Concentration toolkit for Dirichlet-process payoffs.

Solvers for the reversed-KL half-space projection, the conjugate bound
on the log-MGF of E_X[f] under X ~ DP(alpha * nu0), tail bounds and
confidence regions for sums of independent processes, exact and
stick-breaking samplers with closed-form moment oracles, and a
partition-action semi-bandit simulator built on those bounds.
"""

from .bandit import (
    BanditInstance,
    PolicyState,
    RegretTrace,
    cts_step,
    cucb_kl_step,
    escb_kl_step,
    lower_bound_constant,
    run_experiment,
)
from .cgf import (
    CgfBoundResult,
    beta_cgf_bound,
    cgf_bound,
    cgf_bound_scaled,
    gamma_log_mgf,
)
from .kinf import KinfResult, kinf, kinf_inverse, tail_bound_single
from .measures import DPSpec, WeightedValues, canonicalize, kl_bernoulli, kl_discrete
from .sampler import (
    DPSample,
    concave_split_max,
    mc_log_mgf,
    moment_nested,
    qk_rk,
    sample_exact,
    sample_payoff_means,
    sample_stick_breaking,
)
from .sums import (RegionResult, SumSpec, SumTailResult, optimal_split, region_radius,
                   sum_tail, sum_tail_bound)

__version__ = "0.1.0"

__all__ = [
    "WeightedValues",
    "DPSpec",
    "canonicalize",
    "kl_bernoulli",
    "kl_discrete",
    "KinfResult",
    "kinf",
    "kinf_inverse",
    "tail_bound_single",
    "CgfBoundResult",
    "cgf_bound",
    "cgf_bound_scaled",
    "gamma_log_mgf",
    "beta_cgf_bound",
    "SumSpec",
    "RegionResult",
    "SumTailResult",
    "region_radius",
    "sum_tail",
    "sum_tail_bound",
    "optimal_split",
    "DPSample",
    "sample_exact",
    "sample_payoff_means",
    "sample_stick_breaking",
    "moment_nested",
    "qk_rk",
    "concave_split_max",
    "mc_log_mgf",
    "BanditInstance",
    "PolicyState",
    "RegretTrace",
    "cts_step",
    "cucb_kl_step",
    "escb_kl_step",
    "run_experiment",
    "lower_bound_constant",
]
