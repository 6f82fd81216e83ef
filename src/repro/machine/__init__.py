"""The trajectory-based functional simulator (TBFS) for SVM32.

This package is the substrate the paper calls TBFS: a functional simulator
whose entire machine state — registers, instruction pointer, flags, and
memory — lives in one flat byte vector, and whose ``transition`` function
executes exactly one instruction while accumulating byte-granularity
dependency information. Every higher layer (recognizer, predictors, cache,
engine) treats execution purely as a walk through this state space.
"""

from repro.machine.layout import StateLayout
from repro.machine.state import StateVector
from repro.machine.depvec import (
    DEP_NULL,
    DEP_READ,
    DEP_WRITTEN,
    DEP_WAR,
    DepVector,
)
from repro.machine.blockcache import BlockCache
from repro.machine.transition import (TransitionContext,
                                      fast_path_env_enabled, transition)
from repro.machine.executor import Machine, RunResult
from repro.machine.diff import encode_delta, apply_delta, delta_size_bits

__all__ = [
    "BlockCache",
    "fast_path_env_enabled",
    "StateLayout",
    "StateVector",
    "DEP_NULL",
    "DEP_READ",
    "DEP_WRITTEN",
    "DEP_WAR",
    "DepVector",
    "TransitionContext",
    "transition",
    "Machine",
    "RunResult",
    "encode_delta",
    "apply_delta",
    "delta_size_bits",
]
