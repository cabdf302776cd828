import math

import numpy as np
import pytest

from cnotsynth import (
    F2Matrix,
    LaybyFailure,
    NotLowerTriangular,
    find_layby,
    invert_circuit,
    layby_bound,
    mat_mul,
    permutation_layers,
    permutation_matrix,
    random_gl,
    rank,
    row_traversal_sequence,
    simulate_to_matrix,
    staircase_lower,
    synth_dnc,
    synth_simple,
    verify_implements,
)
from cnotsynth.circuit import levelled_circuit
from cnotsynth.synth_free import _PRIMITIVE, _SINGER_OPS, _dnc_upper_layers, _singer_walk
from conftest import half_block, rand_unit_lower, rand_unit_upper


class TestSynthSimple:
    def test_identity_depth_zero(self):
        c = synth_simple(F2Matrix.identity(8))
        assert c.depth == 0

    def test_round_trip_and_depth_cap(self):
        n = 128
        for seed in range(50):
            m = random_gl(n, seed)
            c = synth_simple(m)
            assert c.depth <= 4 * n
            assert verify_implements(c, m).ok

    def test_pure_permutation_shallow(self):
        perm = np.random.default_rng(12).permutation(64)
        m = permutation_matrix(perm)
        c = synth_simple(m)
        assert c.depth <= 6
        assert verify_implements(c, m).ok


class TestStaircase:
    def test_identity(self):
        assert staircase_lower(F2Matrix.identity(5)).depth == 0

    def test_single_elimination(self):
        l = F2Matrix.from_dense([[1, 0], [1, 1]])
        c = staircase_lower(l)
        assert c.depth == 1
        assert simulate_to_matrix(c) == l  # l is its own inverse

    @pytest.mark.parametrize("n", [2, 3, 9, 64])
    def test_random_lower_triangulars(self, n):
        for seed in range(100 if n == 64 else 20):
            l = rand_unit_lower(n, seed)
            c = staircase_lower(l)
            assert c.depth <= 2 * n - 3 if n > 1 else c.depth == 0
            # the circuit maps l to I, i.e. simulates l^-1
            assert mat_mul(simulate_to_matrix(c), l) == F2Matrix.identity(n)

    def test_rejects_non_triangular(self):
        with pytest.raises(NotLowerTriangular):
            staircase_lower(F2Matrix.from_dense([[1, 1], [0, 1]]))


class TestPermutationLayers:
    def test_identity(self):
        assert permutation_layers(range(9)).depth == 0

    def test_single_transposition(self):
        c = permutation_layers([1, 0])
        assert c.depth == 3
        assert simulate_to_matrix(c) == F2Matrix.from_dense([[0, 1], [1, 0]])

    def test_random_perms_depth_six(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n = int(rng.integers(2, 1025))
            perm = rng.permutation(n)
            c = permutation_layers(perm)
            assert c.depth <= 6
            assert simulate_to_matrix(c) == permutation_matrix(perm)


class TestRowTraversal:
    @pytest.mark.parametrize("k,expected", [(1, 3), (2, 5), (6, 91)])
    def test_length_formula(self, k, expected):
        assert expected == 3 * 2 ** (k - 1) - k + 1
        assert len(row_traversal_sequence(k).mats) == expected

    @pytest.mark.parametrize("k", range(1, 9))
    def test_all_elements_invertible_last_identity(self, k):
        ts = row_traversal_sequence(k)
        assert ts.mats[-1] == F2Matrix.identity(k)
        for m in ts.mats:
            assert rank(m) == k

    @pytest.mark.parametrize("k", range(1, 7))
    def test_cover_property_exhaustive(self, k):
        ts = row_traversal_sequence(k)
        for p in range(k):
            seen = set()
            for m in ts.mats:
                seen.add(sum(m.get(p, j) << j for j in range(k)))
            assert seen.issuperset(range(1, 1 << k))


def _mat_mul_rows(a, b, k):
    """Rows of a @ b over GF(2), each row a bit mask: row i of the product
    is the XOR of the rows of b picked by row i of a."""
    out = []
    for i in range(k):
        acc = 0
        for j in range(k):
            if a[i] >> j & 1:
                acc ^= b[j]
        out.append(acc)
    return out


class TestSingerWalk:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_states_and_lists(self, k):
        # the states equal the powers G^1..G^(2^k - 1) of the generator, with
        # G the list applied to I for k <= 8 and the companion matrix of the
        # primitive polynomial past that; every row visits every nonzero
        # vector once
        states, ops = _singer_walk(k)
        if k in _SINGER_OPS:
            assert ops == _SINGER_OPS[k]
            gen = [1 << i for i in range(k)]
            for src, dst in ops:
                gen[dst] ^= gen[src]
        else:
            assert len(ops) == {9: 25, 10: 28, 11: 31, 12: 36}[k]
            gen = [1 << (i + 1) for i in range(k - 1)] + [_PRIMITIVE[k]]
        want, cur = [], gen
        for _ in range((1 << k) - 1):
            want.append(cur)
            cur = _mat_mul_rows(gen, cur, k)
        assert states == want
        for p in range(k):
            assert sorted(st[p] for st in states) == list(range(1, 1 << k))


def recount_ok(pair, strip_rows, strip_cols, cap):
    k = pair.k
    for mat in (pair.b, pair.c_mat):
        d = mat.to_dense().reshape(strip_rows, strip_cols, k)
        vals = (d.astype(int) << np.arange(k)).sum(axis=2)
        for lines in (vals, vals.T):
            for line in lines:
                if np.bincount(line, minlength=1 << k).max() > cap:
                    return False
    return True


class TestFindLayby:
    def test_zero_strip(self):
        n_ctx = 4096
        k = 6
        dim = 341
        strip = F2Matrix.zeros(dim, dim * k)
        pair = find_layby(strip, n_ctx, seed=0)
        assert layby_bound(n_ctx) == 8  # floor(sqrt(e*4096)/12)
        assert pair.b == pair.c_mat
        assert recount_ok(pair, dim, dim, 8)

    def test_prior_layby_xored_in(self):
        n_ctx = 1024
        dim = 102
        rng = np.random.default_rng(3)
        strip = F2Matrix.from_dense(rng.integers(0, 2, (dim, dim * 5)))
        first = find_layby(strip, n_ctx, seed=1)
        again = find_layby(first.b, n_ctx, seed=2)
        assert recount_ok(again, dim, dim, layby_bound(n_ctx))

    def test_random_strips_meet_bound(self):
        n_ctx = 1024
        dim = 102
        cap = layby_bound(n_ctx)
        assert cap == 5
        for seed in range(20):
            rng = np.random.default_rng(seed)
            strip = F2Matrix.from_dense(rng.integers(0, 2, (dim, dim * 5)))
            pair = find_layby(strip, n_ctx, seed=seed)
            assert recount_ok(pair, dim, dim, cap)
            assert pair.c_mat.words.base is None or True
            assert (pair.b.words ^ strip.words == pair.c_mat.words).all()


def levelled(layers, wires):
    return levelled_circuit(list(layers), wires, wires)


class TestEliminateUpperDnc:
    """The divide-and-conquer reduction of a unit upper triangular factor,
    _dnc_upper_layers, levelled: it simulates the factor's inverse."""

    def test_identity_depth_zero(self):
        assert levelled(_dnc_upper_layers(F2Matrix.identity(256), 0), 256).depth == 0

    @pytest.mark.parametrize("n", [65, 100, 256])
    def test_maps_to_identity(self, n):
        for seed in range(3):
            u = rand_unit_upper(n, seed)
            c = levelled(_dnc_upper_layers(u, seed), n)
            assert mat_mul(simulate_to_matrix(c), u) == F2Matrix.identity(n)

    @pytest.mark.slow
    def test_depth_ratio_non_diverging(self):
        ratios = []
        for n in (512, 1024, 2048):
            u = rand_unit_upper(n, n)
            c = levelled(_dnc_upper_layers(u, 0), n)
            assert mat_mul(simulate_to_matrix(c), u) == F2Matrix.identity(n)
            ratios.append(c.depth / (n / math.log2(n)))
        for a, b in zip(ratios, ratios[1:]):
            assert b <= 1.5 * a


class TestSynthDnc:
    def test_identity(self):
        assert synth_dnc(F2Matrix.identity(64)).depth == 0

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 200])
    def test_round_trip(self, n):
        for seed in range(3):
            m = random_gl(n, seed)
            c = synth_dnc(m, seed=seed)
            assert verify_implements(c, m).ok

    def test_inverted_circuit_reduces(self):
        m = random_gl(96, 5)
        c = synth_dnc(m)
        red = invert_circuit(c)
        assert mat_mul(simulate_to_matrix(red), m) == F2Matrix.identity(96)

    @pytest.mark.slow
    def test_beats_simple_at_4096(self):
        m = random_gl(4096, 0)
        dnc = synth_dnc(m)
        simple = synth_simple(m)
        assert verify_implements(dnc, m).ok
        assert dnc.depth < simple.depth


class TestLaybyFailurePath:
    def test_impossible_bound_raises(self):
        from cnotsynth.synth_free import _layby_values

        # the strict path of find_layby: 64 entries of one value in a single
        # row cannot satisfy cap 2
        avals = np.zeros((1, 64), dtype=np.int64)
        with pytest.raises(LaybyFailure):
            _layby_values(avals, 2, 2, seed=0)

    def test_batched_pass_matches_one_strip_at_a_time(self):
        # strips laid out side by side in one wave loop pick the same values
        # and fill the same counter tables as each strip on its own
        from cnotsynth.synth_free import _layby_pass

        rng = np.random.default_rng(5)
        for strict in (False, True):
            for _ in range(30):
                cols = int(rng.integers(1, 30))
                nvals = 1 << int(rng.integers(1, 5))
                cap = int(rng.integers(2, 4))
                heights = rng.integers(1, 30, 3)
                strips = [rng.integers(0, nvals, (int(h), cols)) for h in heights]
                seeds = [int(s) for s in rng.integers(0, 1000, 3)]
                got = _layby_pass(strips, nvals, cap, seeds, strict)
                for a, seed, (b, tables) in zip(strips, seeds, got):
                    [(want_b, want_tables)] = _layby_pass([a], nvals, cap, [seed], strict)
                    assert np.array_equal(b, want_b)
                    for t, want_t in zip(tables, want_tables):
                        assert np.array_equal(t, want_t)
                    if not strict:
                        assert not b[a == 0].any()  # zero entries stay zero

    def test_dnc_takes_only_the_lenient_pass(self, monkeypatch):
        # dnc uses the greedy values as they come: neither the repair, the
        # retries nor LaybyFailure are on its path
        import cnotsynth.synth_free as sf

        def unreachable(*args, **kwargs):
            raise AssertionError("strict layby path reached from synth_dnc")

        modes = []
        real_pass = sf._layby_pass

        def spy(strips, nvals, cap, seeds, strict):
            modes.append(strict)
            return real_pass(strips, nvals, cap, seeds, strict)

        monkeypatch.setattr(sf, "_layby_values", unreachable)
        monkeypatch.setattr(sf, "_layby_repair", unreachable)
        monkeypatch.setattr(sf, "_layby_pass", spy)
        m = half_block(300)  # its blocks take the layby on 10 strips
        c = synth_dnc(m, seed=0)
        assert modes and not any(modes)
        assert verify_implements(c, m).ok


# synth_dnc(random_gl(n, seed), seed=seed) as (depth, gates) when a block
# took the layby past twice the cap and each (stamp, strip) class was
# coloured on its own
PARENT_DNC = {(256, 0): (632, 32126), (256, 1): (580, 29178), (256, 2): (545, 26321), (1024, 1): (1710, 330090)}


@pytest.fixture(scope="module")
def dnc_sizes():
    # a random strip's value counts stay within 4x the cap, so every block
    # runs one traverse A -> 0 and never reaches the layby pass
    import cnotsynth.synth_free as sf

    def unreachable(*args, **kwargs):
        raise AssertionError("layby pass reached")

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sf, "_layby_pass", unreachable)
        for n, seed in PARENT_DNC:
            m = random_gl(n, seed)
            c = synth_dnc(m, seed=seed)
            assert verify_implements(c, m).ok
            out[n, seed] = (c.depth, c.size)
    return out


@pytest.mark.parametrize("n,seed", sorted(PARENT_DNC))
def test_dnc_at_or_below_parent(dnc_sizes, n, seed):
    depth, gates = dnc_sizes[n, seed]
    assert depth <= PARENT_DNC[n, seed][0]
    assert gates <= PARENT_DNC[n, seed][1]


def test_dnc_gates_below_parent(dnc_sizes):
    total = sum(gates for _, gates in dnc_sizes.values())
    assert total <= 0.95 * sum(gates for _, gates in PARENT_DNC.values())
