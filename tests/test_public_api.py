"""The public surface of the package, pinned: a name is added to or removed
from ``cnotsynth.__all__`` on purpose only, by editing this list."""

import cnotsynth

PUBLIC = [
    "AncillaLayout", "BipartiteGraph", "BudgetExceeded", "Circuit", "CnotGate",
    "CnotSynthError", "CnotTree", "DimensionMismatch", "F2Matrix", "LaybyFailure",
    "LaybyPair", "Layer", "LayoutError", "MalformedLayer", "MalformedTree",
    "NotLowerTriangular", "NotUpperTriangular", "PluFactors", "SingularMatrix",
    "TooLarge", "TraversalSequence", "VerifyReport", "apply_to_bits",
    "bfs_optimal_depth", "bounds", "circuit", "contract_tree", "counting_depth_bound",
    "decompose_matchings", "eliminate_upper_dnc", "embed_m", "errors", "f2",
    "fanin_depth_bound", "find_layby", "format_circuit", "format_matrix", "format_tree",
    "gen_scols", "gen_sparse", "gen_ycol", "gl_count", "invert", "invert_circuit",
    "layby_bound", "layer_count", "mat_mul", "matching", "max_degree", "max_scale",
    "parse_circuit", "parse_matrix", "parse_tree", "permutation_layers",
    "permutation_matrix", "plu_decompose", "prefix_circuit", "random_gl", "rank",
    "row_traversal_sequence", "simulate_to_matrix", "staircase_lower", "synth_ancilla",
    "synth_dnc", "synth_free", "synth_simple", "synth_with_ancillae",
    "tree_to_circuit_sequential", "trees", "verify_implements",
]


def test_public_names_pinned():
    assert len(PUBLIC) == 70
    assert sorted(cnotsynth.__all__) == PUBLIC
