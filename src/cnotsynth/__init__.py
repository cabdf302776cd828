"""CNOT circuit synthesis over GF(2) with asymptotically optimal depth.

Synthesisers take an invertible Boolean matrix (or a CNOT tree) and emit
an equivalent layered circuit: a simple depth <= 4n pipeline, an
O(n/log n) ancilla-free divide-and-conquer, an O(n/(s log n)) ancilla-based
construction, and O(log^2 n) tree contraction; plus counting / light-cone
lower bounds and an exact small-instance depth oracle for validation.
"""

from .bounds import (
    bfs_optimal_depth,
    counting_depth_bound,
    fanin_depth_bound,
    gl_count,
    layer_count,
)
from .circuit import (
    Circuit,
    Layer,
    VerifyReport,
    apply_to_bits,
    format_circuit,
    invert_circuit,
    parse_circuit,
    simulate_to_matrix,
    verify_implements,
)
from .errors import (
    CnotSynthError,
    DimensionMismatch,
    LaybyFailure,
    LayoutError,
    MalformedLayer,
    MalformedTree,
    NotLowerTriangular,
    SingularMatrix,
    TooLarge,
)
from .f2 import (
    F2Matrix,
    PluFactors,
    format_matrix,
    invert,
    mat_mul,
    parse_matrix,
    permutation_matrix,
    plu_decompose,
    random_gl,
    rank,
)
from .matching import BipartiteGraph, decompose_matchings, max_degree
from .synth_ancilla import (
    max_scale,
    synth_with_ancillae,
)
from .synth_free import (
    LaybyPair,
    TraversalSequence,
    find_layby,
    layby_bound,
    permutation_layers,
    row_traversal_sequence,
    staircase_lower,
    synth_dnc,
    synth_simple,
)
from .trees import (
    CnotTree,
    contract_tree,
    format_tree,
    parse_tree,
    prefix_circuit,
    tree_to_circuit_sequential,
)

__all__ = [name for name in dir() if not name.startswith("_")]
