"""The public surface of the package, pinned: a name is added to or removed
from ``cnotsynth.__all__`` on purpose only, by editing this list.  And no
module imports a name it never uses."""

import ast
from pathlib import Path

import cnotsynth

PUBLIC = [
    "BipartiteGraph", "Circuit", "CnotSynthError", "CnotTree", "DimensionMismatch",
    "F2Matrix", "LaybyFailure", "LaybyPair", "Layer", "LayoutError", "MalformedLayer",
    "MalformedTree", "NotLowerTriangular", "PluFactors", "SingularMatrix", "TooLarge",
    "TraversalSequence", "VerifyReport", "apply_to_bits", "bfs_optimal_depth", "bounds",
    "circuit", "contract_tree", "counting_depth_bound", "decompose_matchings", "errors",
    "f2", "fanin_depth_bound", "find_layby", "format_circuit", "format_matrix",
    "format_tree", "gl_count", "invert", "invert_circuit", "layby_bound", "layer_count",
    "mat_mul", "matching", "max_degree", "max_scale", "parse_circuit", "parse_matrix",
    "parse_tree", "permutation_layers", "permutation_matrix", "plu_decompose",
    "prefix_circuit", "random_gl", "rank", "row_traversal_sequence",
    "simulate_to_matrix", "staircase_lower", "synth_ancilla", "synth_dnc", "synth_free",
    "synth_simple", "synth_with_ancillae", "tree_to_circuit_sequential", "trees",
    "verify_implements",
]


def test_public_names_pinned():
    assert len(PUBLIC) == 61
    assert sorted(cnotsynth.__all__) == PUBLIC


def unused_imports(source: str) -> list:
    """(line, name) of every name the module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_import_check_finds_one():
    assert unused_imports("import os\nfrom .f2 import a, b as c\nx = os.sep + c\n") == [(2, "a")]


def test_no_unused_imports():
    # the package's __init__ imports to re-export, so it is left out
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(Path(cnotsynth.__file__).parent.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found
