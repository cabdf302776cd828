import itertools
import time
from math import comb, factorial

import numpy as np
import pytest

from cnotsynth import (
    F2Matrix,
    SingularMatrix,
    TooLarge,
    bfs_optimal_depth,
    counting_depth_bound,
    fanin_depth_bound,
    gl_count,
    layer_count,
    prefix_circuit,
    random_gl,
    rank,
    synth_simple,
)
from conftest import all_ones_lower
from cnotsynth import bounds


def gl_count_ref(n):
    """prod_{i<n} (2^n - 2^i), one factor at a time."""
    out = 1
    for i in range(n):
        out *= (1 << n) - (1 << i)
    return out


def layer_count_ref(wires):
    """sum_t C(wires, 2t) (2t)! / t!: pick 2t wires, pair and orient them."""
    return sum(comb(wires, 2 * t) * factorial(2 * t) // factorial(t) for t in range(wires // 2 + 1))


def counting_bound_ref(n, m):
    """Smallest d with layer_count(n+m)^d >= gl_count(n), by multiplying."""
    target, per_layer = gl_count_ref(n), layer_count_ref(n + m)
    d, acc = 0, 1
    while acc < target:
        acc *= per_layer
        d += 1
    return d


class TestGlCount:
    def test_small_values(self):
        assert [gl_count(n) for n in (1, 2, 3)] == [1, 6, 168]

    def test_product_formula_vs_enumeration(self):
        for n in (1, 2, 3):
            cnt = 0
            for bits in itertools.product((0, 1), repeat=n * n):
                m = F2Matrix.from_dense(np.asarray(bits, dtype=np.uint8).reshape(n, n))
                cnt += rank(m) == n
            assert cnt == gl_count(n)

    def test_lower_bound_inequality(self):
        # gl_count(n) >= 2^((n-1)^2 / 2), squared to stay in exact integers
        for n in range(1, 65):
            assert gl_count(n) ** 2 >= 2 ** ((n - 1) ** 2)


    def test_matches_multiply_loop(self):
        for n in range(1, 201):
            assert gl_count(n) == gl_count_ref(n), n


class TestLayerCount:
    def test_matches_binomial_sum(self):
        for wires in range(1, 301):
            assert layer_count(wires) == layer_count_ref(wires), wires

    def test_small_wires(self):
        assert layer_count(1) == 1
        assert layer_count(2) == 3  # identity, 0->1, 1->0

    @pytest.mark.parametrize("wires", [1, 2, 3, 4])
    def test_matches_exhaustive_enumeration(self, wires):
        from cnotsynth.bounds import _all_layers

        assert layer_count(wires) == len(_all_layers(wires)) + 1


class TestCountingBound:
    def test_n1_zero(self):
        assert counting_depth_bound(1, 0) == 0

    def test_monotone_in_ancillae(self):
        for n in (3, 8, 16):
            vals = [counting_depth_bound(n, m) for m in (0, n, 4 * n)]
            assert vals == sorted(vals, reverse=True)

    def test_n64_scale(self):
        d = counting_depth_bound(64, 0)
        assert 5 <= d <= 64  # grows like n / log n

    def test_matches_multiply_loop(self):
        for n in range(1, 49):
            for m in sorted({0, 1, n, 3 * n, 4 * n, 7 * n}):
                assert counting_depth_bound(n, m) == counting_bound_ref(n, m), (n, m)

    @pytest.mark.parametrize(
        "n, m, want",
        [(512, 0, 119), (512, 2048, 19), (512, 3584, 12), (1024, 0, 213), (1024, 4096, 35),
         (1024, 7168, 21), (4096, 0, 707), (4096, 16384, 118), (4096, 28672, 71)],
    )
    def test_pinned_values(self, n, m, want):
        assert counting_depth_bound(n, m) == want

    @pytest.mark.parametrize("n, m, want, budget_s", [(1024, 7168, 21, 0.05), (4096, 28672, 71, 0.1)])
    def test_fast_at_scale(self, n, m, want, budget_s):
        best = float("inf")
        for _ in range(3):  # nothing is cached between calls
            t0 = time.perf_counter()
            got = counting_depth_bound(n, m)
            best = min(best, time.perf_counter() - t0)
            assert got == want
        assert best < budget_s, best

    def test_exact_confirmation(self):
        for n in range(1, 13):
            for m in (0, 1, n, 3 * n):
                want = counting_bound_ref(n, m)
                for k in (want - 1, want):
                    if k >= 0:
                        assert bounds._confirm_depth(k, n, n + m) == want, (n, m, k)

    def test_confirmation_path_end_to_end(self, monkeypatch):
        # a tolerance of 1 sends every ratio to the exact integer check
        monkeypatch.setattr(bounds, "_RATIO_TOL", 1.0)
        for n in range(1, 25):
            for m in (0, 1, n, 3 * n, 7 * n):
                assert counting_depth_bound(n, m) == counting_bound_ref(n, m), (n, m)


class TestFaninBound:
    def test_identity_zero(self):
        assert fanin_depth_bound(F2Matrix.identity(5)) == 0

    def test_all_ones_lower_triangular(self):
        m = all_ones_lower(8)
        assert fanin_depth_bound(m) == 3
        assert prefix_circuit(8).depth >= 3

    def test_every_synthesised_circuit_obeys_it(self):
        for seed in range(10):
            m = random_gl(24, seed)
            assert synth_simple(m).depth >= fanin_depth_bound(m)


class TestBfsOracle:
    def test_identity(self):
        assert bfs_optimal_depth(F2Matrix.identity(3)) == 0

    def test_single_gate(self):
        assert bfs_optimal_depth(F2Matrix.from_dense([[1, 0], [1, 1]])) == 1

    def test_all_ones_lower_3(self):
        d = bfs_optimal_depth(all_ones_lower(3))
        assert d == 2
        assert synth_simple(all_ones_lower(3)).depth >= d

    def test_too_large(self):
        with pytest.raises(TooLarge):
            bfs_optimal_depth(F2Matrix.identity(5))

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            bfs_optimal_depth(F2Matrix.zeros(3, 3))

    def test_sandwich_on_gl3(self, gl3_members):
        for m in gl3_members[:40]:
            lo = fanin_depth_bound(m)
            mid = bfs_optimal_depth(m)
            hi = synth_simple(m).depth
            assert lo <= mid <= hi
