from collections import Counter

import numpy as np
import pytest

from cnotsynth import BipartiteGraph, decompose_matchings, max_degree
from cnotsynth.matching import color_edges


def random_graph(left, right, edges, seed):
    rng = np.random.default_rng(seed)
    e = [(int(u), int(v), i) for i, (u, v) in enumerate(
        zip(rng.integers(0, left, edges), rng.integers(0, right, edges)))]
    return BipartiteGraph(left, right, e)


def check_decomposition(g):
    ms = decompose_matchings(g)
    assert len(ms) <= max_degree(g)
    # partition: multiset union equals the input edge multiset
    flat = [e for m in ms for e in m]
    assert Counter(flat) == Counter(g.edges)
    # matching validity: no endpoint repeats on either side
    for m in ms:
        us = [u for u, _, _ in m]
        vs = [v for _, v, _ in m]
        assert len(set(us)) == len(us)
        assert len(set(vs)) == len(vs)
    return ms


class TestMaxDegree:
    def test_no_edges(self):
        assert max_degree(BipartiteGraph(3, 3, [])) == 0

    def test_k22(self):
        g = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert max_degree(g) == 2

    def test_star(self):
        g = BipartiteGraph(1, 7, [(0, v) for v in range(7)])
        assert max_degree(g) == 7


class TestDecompose:
    def test_single_edge(self):
        ms = decompose_matchings(BipartiteGraph(1, 1, [(0, 0)]))
        assert len(ms) == 1 and len(ms[0]) == 1

    def test_k22_two_perfect_matchings(self):
        # brute force: the only proper 2-edge-colourings of K_{2,2} split it
        # into two perfect matchings
        g = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        ms = check_decomposition(g)
        assert len(ms) == 2
        assert sorted(len(m) for m in ms) == [2, 2]

    def test_multi_edges(self):
        g = BipartiteGraph(2, 2, [(0, 1), (0, 1), (0, 1)])
        ms = check_decomposition(g)
        assert len(ms) == 3

    def test_large_random(self):
        g = random_graph(300, 280, 2000, 5)
        check_decomposition(g)

    @pytest.mark.parametrize("delta_target", [1, 2, 3, 8, 17, 64])
    def test_degree_sweep(self, delta_target):
        rng = np.random.default_rng(delta_target)
        left = right = 40
        edges = []
        for u in range(left):
            for v in rng.choice(right, size=delta_target, replace=True):
                edges.append((u, int(v)))
        g = BipartiteGraph(left, right, edges)
        check_decomposition(g)

    def test_tags_carried_through(self):
        g = BipartiteGraph(2, 2, [(0, 0, "a"), (0, 1, "b"), (1, 0, "c")])
        tags = {tag for m in decompose_matchings(g) for _, _, tag in m}
        assert tags == {"a", "b", "c"}

    def test_many_small_random_graphs(self):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            l, r = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            e = int(rng.integers(0, 30))
            check_decomposition(random_graph(l, r, e, seed + 100))


def sequential_colouring(us, vs):
    """Reference: edges one at a time, in order, each taking the lowest
    colour free at both ends; where none is, the alternating path of the
    left end's lowest free colour alpha and the right end's beta, from the
    right end, is flipped first, and the edge takes alpha."""
    delta = max(Counter(us).most_common(1)[0][1], Counter(vs).most_common(1)[0][1])
    colour = []
    for u, v in zip(us, vs):
        at_u = {c for c, x in zip(colour, us) if x == u}
        at_v = {c for c, y in zip(colour, vs) if y == v}
        both = [c for c in range(delta) if c not in at_u and c not in at_v]
        if both:
            colour.append(both[0])
            continue
        alpha = min(set(range(delta)) - at_u)
        beta = min(set(range(delta)) - at_v)
        path, x, right, want = [], v, True, alpha
        while True:
            on = [f for f, c in enumerate(colour) if c == want and (vs if right else us)[f] == x]
            if not on:
                break
            path.append(on[0])
            x = (us if right else vs)[on[0]]
            right = not right
            want = alpha + beta - want
        for f in path:
            colour[f] = beta if colour[f] == alpha else alpha
        colour.append(alpha)
    return colour


class TestBatchedColouring:
    """color_edges over many classes at once: each class is a graph of its
    own, with its own palette."""

    @staticmethod
    def check(us, vs, cls, left, right):
        colour = color_edges(us, vs, left, right, cls)
        assert colour.dtype == np.int64  # in one group of classes or several
        us, vs, cls = (np.asarray(x) for x in (us, vs, cls))
        for c in np.unique(cls):
            mine = cls == c
            u, v, col = us[mine], vs[mine], colour[mine]
            degree = max(np.bincount(u).max(), np.bincount(v).max())
            assert 0 <= col.min() and col.max() < degree
            # proper: no vertex meets one colour twice
            assert np.unique(u * degree + col).size == u.size
            assert np.unique(v * degree + col).size == v.size
        return colour

    @staticmethod
    def random_batch(rng, classes, left, right, max_edges):
        sizes = rng.integers(0, max_edges + 1, classes)
        cls = np.repeat(np.arange(classes), sizes)
        us = rng.integers(0, left, cls.size)
        vs = rng.integers(0, right, cls.size)
        return us, vs, cls

    def test_equals_sequential_colouring(self):
        # the rounds and the Kempe loop give each class the colouring of its
        # edges taken one at a time, in order; in these interleaved random
        # multigraphs some classes meet an edge with no common free colour,
        # and Kempe paths are flipped
        rng = np.random.default_rng(13)
        for _ in range(12):
            left, right = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            us, vs, cls = self.random_batch(rng, 20, left, right, 50)
            perm = rng.permutation(cls.size)
            us, vs, cls = us[perm], vs[perm], cls[perm]
            colour = self.check(us, vs, cls, left, right)
            for c in np.unique(cls):
                mine = cls == c
                assert colour[mine].tolist() == sequential_colouring(us[mine].tolist(), vs[mine].tolist())

    def test_random_multigraph_batches(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            left, right = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            us, vs, cls = self.random_batch(rng, int(rng.integers(1, 30)), left, right, 60)
            self.check(us, vs, cls, left, right)

    def test_batch_equals_one_class_at_a_time(self):
        rng = np.random.default_rng(12)
        us, vs, cls = self.random_batch(rng, 25, 12, 9, 80)
        # shuffled so a class's edges are not contiguous
        perm = rng.permutation(cls.size)
        us, vs, cls = us[perm], vs[perm], cls[perm]
        batch = self.check(us, vs, cls, 12, 9)
        for c in range(25):
            mine = cls == c
            if mine.any():
                alone = color_edges(us[mine], vs[mine], 12, 9)
                assert np.array_equal(batch[mine], alone)

    def test_groups_of_classes_equal_one_class_at_a_time(self):
        # past 2^15 edges the classes are coloured in groups; a class larger
        # than a group makes a group of its own
        rng = np.random.default_rng(14)
        us, vs, cls = self.random_batch(rng, 400, 20, 20, 150)
        big = 40000
        us = np.concatenate([us, rng.integers(0, 2000, big)])
        vs = np.concatenate([vs, rng.integers(0, 2000, big)])
        cls = np.concatenate([cls + (cls >= 200), np.full(big, 200)])
        perm = rng.permutation(cls.size)
        us, vs, cls = us[perm], vs[perm], cls[perm]
        colour = self.check(us, vs, cls, 2000, 2000)
        for c in np.unique(cls):
            mine = cls == c
            assert np.array_equal(colour[mine], color_edges(us[mine], vs[mine], 2000, 2000))

    @pytest.mark.parametrize("degree", [62, 63, 64, 90])
    def test_classes_past_the_mask_width(self, degree):
        # one class of each degree around the int64 mask width, next to
        # small classes: the wide ones are coloured by Kempe insertion alone
        rng = np.random.default_rng(degree)
        left = right = 8
        wide_u = np.repeat(np.arange(left), degree)
        wide_v = rng.permutation(np.repeat(np.arange(right), degree))
        small_u, small_v, small_c = self.random_batch(rng, 5, left, right, 40)
        us = np.concatenate([small_u, wide_u])
        vs = np.concatenate([small_v, wide_v])
        cls = np.concatenate([small_c, np.full(wide_u.size, 5)])
        colour = self.check(us, vs, cls, left, right)
        assert colour[cls == 5].max() == degree - 1

    def test_complete_bipartite_uses_degree_colours(self):
        # K_{n,n} needs exactly n colours, every colour a perfect matching
        for n in (1, 5, 17, 70):
            us = np.repeat(np.arange(n), n)
            vs = np.tile(np.arange(n), n)
            colour = self.check(us, vs, np.zeros(n * n, dtype=np.int64), n, n)
            assert np.array_equal(np.bincount(colour), np.full(n, n))

    def test_empty(self):
        assert color_edges([], [], 3, 3, []).size == 0
        assert color_edges([], [], 3, 3).size == 0
