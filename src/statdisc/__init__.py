"""Telling quantum states apart with nothing but particle statistics.

Identical two-level particles enter a balanced multiport, one per arm, and
only the number of particles leaving each arm is recorded.  Bunching and
antibunching then carry enough information to discriminate collective
internal states at, and sometimes exactly at, the optimal-measurement
ceiling.
"""

from .core import (CapacityError, DensityMatrix, partial_trace,
                   permutation_operator, swap_operator, symmetric_projector,
                   tensor, trace_norm)
from .states import (BlochDirection, aligned_direction_state,
                     aligned_mixture, antialigned_direction_state,
                     antialigned_mixture, bloch_state, bloch_vector,
                     maximally_mixed, orthogonal_state, qubit_density)
from .multiport import (FockState, MultiportUnitary, OutcomeDistribution,
                        Statistics, dft_unitary, evolve, interfere,
                        prepare_input, spatial_distribution)
from .discrimination import (DiscriminationReport, Hypothesis,
                             aligned_vs_mixed_bound,
                             beam_splitter_discrimination, helstrom_bound,
                             map_strategy)
from .applications import (TwoQubitPureState, classical_comparison,
                           classical_pauli_success, detect_entanglement,
                           purify_symmetric, scan_discrimination)

__version__ = "0.1.0"

__all__ = [
    "BlochDirection", "CapacityError", "DensityMatrix",
    "DiscriminationReport", "FockState", "Hypothesis", "MultiportUnitary",
    "OutcomeDistribution", "Statistics", "TwoQubitPureState",
    "aligned_direction_state", "aligned_mixture", "aligned_vs_mixed_bound",
    "antialigned_direction_state", "antialigned_mixture",
    "beam_splitter_discrimination", "bloch_state", "bloch_vector",
    "classical_comparison", "classical_pauli_success", "detect_entanglement",
    "dft_unitary", "evolve", "helstrom_bound", "interfere", "map_strategy",
    "maximally_mixed", "orthogonal_state", "partial_trace",
    "permutation_operator", "prepare_input", "purify_symmetric",
    "qubit_density", "scan_discrimination", "spatial_distribution",
    "swap_operator", "symmetric_projector", "tensor", "trace_norm",
]
