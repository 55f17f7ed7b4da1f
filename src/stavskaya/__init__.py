"""Certified lower bounds for the critical parameter of Stavskaya's process.

The pipeline: build the minimal automaton of the words that avoid the
primitive forbidden loops, each level from the one below with no loop
listed, and its weighted one-step operator, certify that its spectral
radius stays below one, and push the erasure parameter alpha as high as
that certificate allows.  The loops, each order listed on the level
below's automaton, serve only the `loops` command and the memory-walk
history tables (`build_state_space`, `build_transitions`), whose
quotient the automaton is, which only the benchmark and tests build.
"""

from .errors import ConsistencyError, ResourceLimitError
from .patterns import ForbiddenSet, Parameters, build_forbidden_set
from .search import (BisectionResult, OptimizationResult, alpha_sup,
                     optimize_p)
from .spectral import (SpectralEstimate, certified_upper_bound,
                       power_iteration)
from .statespace import (StateSpace, TransitionTable, build_level,
                         build_state_space, build_transitions)

__version__ = "0.1.0"

__all__ = [
    "BisectionResult",
    "ConsistencyError",
    "ForbiddenSet",
    "OptimizationResult",
    "Parameters",
    "ResourceLimitError",
    "SpectralEstimate",
    "StateSpace",
    "TransitionTable",
    "alpha_sup",
    "build_forbidden_set",
    "build_level",
    "build_state_space",
    "build_transitions",
    "certified_upper_bound",
    "optimize_p",
    "power_iteration",
    "__version__",
]
