"""Concentration toolkit for Dirichlet-process payoffs.

Solvers for the reversed-KL half-space projection, the conjugate bound
on the log-MGF of E_X[f] under X ~ DP(alpha * nu0), tail bounds and
confidence regions for sums of independent processes, exact and
stick-breaking samplers with closed-form moment oracles, and a
partition-action semi-bandit simulator built on those bounds.
"""

from . import bandit, cgf, kinf, measures, sampler, sums

# read the modules' __all__ before the star-imports rebind ``kinf`` to the function
__all__ = [name for mod in (bandit, cgf, kinf, measures, sampler, sums) for name in mod.__all__]

from .bandit import *
from .cgf import *
from .kinf import *
from .measures import *
from .sampler import *
from .sums import *

__version__ = "0.1.0"
