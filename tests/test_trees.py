import math

import numpy as np
import pytest

from cnotsynth import (
    CnotTree,
    F2Matrix,
    MalformedTree,
    contract_tree,
    format_tree,
    parse_tree,
    prefix_circuit,
    simulate_to_matrix,
    tree_to_circuit_sequential,
)
from conftest import all_ones_lower, left_prefix_tree, rand_tree


class TestTreeValidation:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(MalformedTree):
            CnotTree.build(("L", 0, 0))

    def test_gapped_labels_rejected(self):
        with pytest.raises(MalformedTree):
            CnotTree.build(("L", 0, 2))

    def test_bad_side_rejected(self):
        with pytest.raises(MalformedTree):
            CnotTree.build(("X", 0, 1))


class TestSequential:
    def test_single_leaf_empty(self):
        c = tree_to_circuit_sequential(CnotTree.build(0))
        assert c.depth == 0

    def test_one_gate_per_internal_node(self):
        t = rand_tree(17, 3)
        c = tree_to_circuit_sequential(t)
        assert c.depth == 16 and c.size == 16

    def test_prefix_path_tree(self):
        n = 8
        t = left_prefix_tree(n)
        sim = simulate_to_matrix(tree_to_circuit_sequential(t))
        assert sim == all_ones_lower(n)

    def test_two_node_example_by_hand(self):
        # (R (L 2 1) 0): postorder gates (1->2) then (2->0); applying the
        # postorder list by hand to I gives the expected matrix
        t = CnotTree.build(("R", ("L", 2, 1), 0))
        sim = simulate_to_matrix(tree_to_circuit_sequential(t))
        expect = np.eye(3, dtype=int)
        for ctl, tgt in [(1, 2), (2, 0)]:
            expect[tgt] = (expect[tgt] + expect[ctl]) % 2
        assert np.array_equal(sim.to_dense(), expect)


class TestPrefixCircuit:
    def test_n1_empty(self):
        assert prefix_circuit(1).depth == 0

    @pytest.mark.parametrize("n", [2, 4, 8, 64, 256])
    def test_power_of_two_depth_exact(self, n):
        c = prefix_circuit(n)
        assert c.depth == 2 * int(math.log2(n)) - 1
        assert simulate_to_matrix(c) == all_ones_lower(n)

    @pytest.mark.parametrize("n", [3, 6, 100, 1000])
    def test_general_n(self, n):
        c = prefix_circuit(n)
        assert c.depth < 2 * math.ceil(math.log2(n))
        assert simulate_to_matrix(c) == all_ones_lower(n)


class TestContract:
    def test_single_leaf(self):
        assert contract_tree(CnotTree.build(0)).depth == 0

    def test_balanced_all_l(self):
        def balanced(lo, hi):
            if hi - lo == 1:
                return lo
            mid = (lo + hi) // 2
            return ("L", balanced(lo, mid), balanced(mid, hi))

        t = CnotTree.build(balanced(0, 64))
        seq = tree_to_circuit_sequential(t)
        con = contract_tree(t)
        assert simulate_to_matrix(con) == simulate_to_matrix(seq)
        assert con.depth <= 36  # well under C * ceil(log n)^2

    def test_prefix_path_tree_contracts_to_log(self):
        n = 64
        t = left_prefix_tree(n)
        con = contract_tree(t)
        assert simulate_to_matrix(con) == all_ones_lower(n)
        assert con.depth <= 4 * math.ceil(math.log2(n))

    def test_random_trees_equivalent(self):
        for trial in range(40):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(2, 200))
            t = rand_tree(n, trial + 7)
            seq = tree_to_circuit_sequential(t)
            con = contract_tree(t)
            assert simulate_to_matrix(con) == simulate_to_matrix(seq), (n, trial)

    def test_rounds_logarithmic(self):
        # depth / log^2 stays bounded as n grows
        norms = []
        for n in (64, 256, 1024):
            t = rand_tree(n, n)
            con = contract_tree(t)
            norms.append(con.depth / math.ceil(math.log2(n)) ** 2)
        assert max(norms) <= 4


class TestTreeFormat:
    def test_round_trip(self):
        t = rand_tree(13, 2)
        assert format_tree(parse_tree(format_tree(t))) == format_tree(t)

    def test_whitespace_insensitive(self):
        a = parse_tree("(L 0 (R 1 2))")
        b = parse_tree("( L   0\n ( R 1   2 ) )")
        assert format_tree(a) == format_tree(b)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_tree("(L 0 1) junk")
