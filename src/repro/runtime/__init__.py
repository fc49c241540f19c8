"""Process-pool runtime for the payoff-matrix kernel.

The runnable counterpart of the paper's hybrid thread level, behind the
runtime ablation benchmark: row-block parallel payoff-matrix evaluation
over a process pool, with optional shared-memory result assembly and
deterministic tree reductions.
"""

from .executor import ParallelKernel, parallel_all_fitness, parallel_payoff_matrix
from .partition import block_ranges, interleaved_indices
from .reduction import tree_reduce
from .sharedmem import SharedArray, SharedArraySpec

__all__ = [
    "ParallelKernel",
    "parallel_all_fitness",
    "parallel_payoff_matrix",
    "block_ranges",
    "interleaved_indices",
    "tree_reduce",
    "SharedArray",
    "SharedArraySpec",
]
