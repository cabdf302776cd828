"""As-soon-as-possible levelling and the lock-step staircase.

``level_asap`` must keep every wire's gate sequence, give wire-disjoint
layers, leave no gate a level it could drop to, and keep the matrix.  The
lock-step staircase must emit, per block, exactly the layers of the
per-block staircase kept here as a reference.  Every synthesiser and
fragment builder must return a circuit that levelling leaves as it is.
"""

import hashlib
import os
import warnings

import numpy as np
import pytest

from cnotsynth import (
    Circuit,
    F2Matrix,
    Layer,
    contract_tree,
    format_circuit,
    mat_mul,
    permutation_matrix,
    random_gl,
    simulate_to_matrix,
    synth_dnc,
    synth_simple,
    synth_with_ancillae,
    tree_to_circuit_sequential,
    verify_implements,
)
from cnotsynth.circuit import _xor_rows, level_asap, levelled_circuit, trusted_layer
from cnotsynth.synth_ancilla import (
    _embed_layers,
    _paste_colours,
    _pick_k,
    _slice_values,
    _stack_layers,
)
from cnotsynth.synth_free import (
    _dnc_upper_layers,
    _elim_upper_layers,
    _flip_reverse,
    _staircase_lower_layers,
)
from conftest import left_prefix_tree, rand_tree, rand_unit_lower, rand_unit_upper


def staircase_lower_ref(l, base):
    """The per-block staircase the lock-step one replaced: phase d clears
    subdiagonal d with gates c -> c+d, split by the parity of c // d."""
    n = l.rows
    w = l.words.copy()
    nw = w.shape[1]
    cols = np.arange(n, dtype=np.int64)
    diag = cols * nw + (cols >> 6)
    shift = (cols & 63).astype(np.uint64)
    ctrls, dists = [], []
    for d in range(1, n):
        bits = (np.take(w.reshape(-1), diag[: n - d] + d * nw) >> shift[: n - d]) & np.uint64(1)
        cand = np.flatnonzero(bits)
        if cand.size == 0:
            continue
        odd = (cand // d) & 1
        for sel in (cand[odd == 0], cand[odd == 1]):
            if sel.size:
                _xor_rows(w, sel, sel + d)
                ctrls.append(sel)
                dists.append(d)
    if not ctrls:
        return []
    sizes = [sel.size for sel in ctrls]
    ctrl = np.concatenate(ctrls) + base
    gates = np.stack([ctrl, ctrl + np.repeat(dists, sizes)], axis=1)
    return np.split(gates, np.cumsum(sizes)[:-1])


def wire_sequences(layers):
    """Each wire's gates in order, as (wire, control, target) rows sorted
    by wire, then by position in ``layers`` (a layer meets a wire once)."""
    gates = np.concatenate([np.asarray(a, dtype=np.int64).reshape(-1, 2) for a in layers])
    step = np.repeat(np.arange(len(layers)), [len(a) for a in layers])
    wire = gates.ravel()
    order = np.lexsort((np.repeat(step, 2), wire))
    return np.column_stack([wire[order], gates[order // 2]])


def levelled(seq, wires):
    out = list(seq)
    level_asap(out, wires)
    return out


def circuit_of(seq, wires):
    return levelled_circuit(list(seq), wires, wires)


def check_levelled(seq, wires):
    seq = [np.asarray(a, dtype=np.int64).reshape(-1, 2) for a in seq]
    out = levelled(seq, wires)
    if not sum(map(len, seq)):
        assert out == []
        return out
    assert all(len(a) for a in out)
    # wire-disjoint: the checking constructor accepts every level
    for a in out:
        Layer(a)
    assert np.array_equal(wire_sequences(seq), wire_sequences(out))
    # tight: a gate above level 1 meets a wire of the level below
    for below, here in zip(out, out[1:]):
        assert np.isin(here, below).any(axis=1).all()
    before = Circuit(wires, wires, [trusted_layer(a.copy()) for a in seq])
    after = Circuit(wires, wires, [trusted_layer(a) for a in out])
    assert simulate_to_matrix(after) == simulate_to_matrix(before)
    assert after.depth <= sum(1 for a in seq if len(a))
    return out


def first_difference(texts):
    """The first line where a text differs from texts[0], in one short
    message: pytest's own diff of two whole circuit texts takes minutes."""
    base = texts[0].splitlines()
    for j, text in enumerate(texts[1:], 1):
        lines = text.splitlines()
        for i, (a, b) in enumerate(zip(base, lines)):
            if a != b:
                c = len(os.path.commonprefix([a, b]))
                return f"text {j}, line {i + 1}, column {c + 1}: {b[c : c + 40]!r} != {a[c : c + 40]!r}"
        if len(lines) != len(base):
            return f"text {j} has {len(lines)} lines, text 0 has {len(base)}"
    return "texts are equal"


def structured_upper(kind, n):
    if kind == "identity":
        d = np.eye(n, dtype=np.uint8)
    elif kind == "all-ones":
        d = np.triu(np.ones((n, n), dtype=np.uint8))
    else:  # 1 % dense above the diagonal
        rng = np.random.default_rng(n)
        d = np.triu(rng.random((n, n)) < 0.01, 1).astype(np.uint8) + np.eye(n, dtype=np.uint8)
    return F2Matrix.from_dense(d)


class TestLevelAsap:
    def test_empty(self):
        assert levelled([], 4) == []
        assert levelled([np.empty((0, 2), dtype=np.int64)], 4) == []

    def test_chain_and_parallel(self):
        out = levelled([[(0, 1)], [(2, 3)], [(1, 2)], [(4, 5)]], 6)
        assert [a.tolist() for a in out] == [[[0, 1], [2, 3], [4, 5]], [[1, 2]]]

    def test_levels_past_one_group(self):
        # more gates than one group of moved gates, so slots carry over
        rng = np.random.default_rng(7)
        seq = [rng.permutation(600)[:500].reshape(250, 2) for _ in range(300)]
        out = check_levelled(seq, 600)
        assert sum(map(len, out)) == 75000

    @pytest.mark.parametrize("wires", [2, 3, 5, 17, 64])
    def test_random_single_gates(self, wires):
        rng = np.random.default_rng(wires)
        for _ in range(20):
            seq = []
            for _ in range(int(rng.integers(0, 60))):
                c, t = rng.choice(wires, 2, replace=False)
                seq.append([(int(c), int(t))])
            check_levelled(seq, wires)

    @pytest.mark.parametrize("wires", [2, 9, 64, 300])
    def test_random_matchings(self, wires):
        rng = np.random.default_rng(wires + 1)
        for _ in range(10):
            seq = []
            for _ in range(int(rng.integers(1, 40))):
                perm = rng.permutation(wires)
                k = int(rng.integers(0, wires // 2 + 1))
                seq.append(perm[: 2 * k].reshape(k, 2))
            check_levelled(seq, wires)

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 129, 300])
    @pytest.mark.parametrize("kind", ["identity", "all-ones", "sparse"])
    def test_dnc_sequences(self, kind, n):
        u = structured_upper(kind, n)
        check_levelled(_dnc_upper_layers(u, 3), n)
        check_levelled(_flip_reverse(_dnc_upper_layers(u, 1)), n)
        c = circuit_of(_dnc_upper_layers(u, 3), n)
        assert mat_mul(simulate_to_matrix(c), u) == F2Matrix.identity(n)
        for m in (mat_mul(u.transpose(), u), random_gl(n, n)):
            assert verify_implements(synth_dnc(m, seed=1), m).ok

    @pytest.mark.parametrize("n", [65, 129, 300])
    def test_random_dnc_sequences(self, n):
        for seed in range(2):
            check_levelled(_dnc_upper_layers(rand_unit_upper(n, seed), seed), n)


class TestLockStepStaircase:
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 64, 65, 200])
    def test_one_block_is_the_reference(self, n):
        for seed in range(5):
            l = rand_unit_lower(n, seed)
            got = _staircase_lower_layers([(7, l)])
            want = staircase_lower_ref(l, 7)
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_mixed_leaves_are_the_reference_per_leaf(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            sizes = rng.integers(30, 65, int(rng.integers(1, 12))).tolist()
            bases = (np.cumsum(sizes) - sizes + 3 * trial).tolist()
            leaves = [
                (b, rand_unit_lower(s, 100 * trial + i)) for i, (b, s) in enumerate(zip(bases, sizes))
            ]
            got = _staircase_lower_layers(leaves)
            assert all(len(a) for a in got)
            for (base, l), size in zip(leaves, sizes):
                mine = [a[(a[:, 0] >= base) & (a[:, 0] < base + size)] for a in got]
                mine = [a for a in mine if len(a)]
                want = staircase_lower_ref(l, base)
                assert len(mine) == len(want)
                assert all(np.array_equal(a, b) for a, b in zip(mine, want))

    @pytest.mark.parametrize("n,seed", [(300, 0), (700, 1)])
    def test_leaf_emission_order_does_not_change_the_circuit(self, n, seed):
        u = rand_unit_upper(n, seed)
        leaves, blocks = [], []
        _elim_upper_layers(u, 0, seed, leaves, blocks)
        per_leaf = []
        for base, leaf in leaves:
            per_leaf.extend(_flip_reverse(staircase_lower_ref(leaf.transpose(), base)))
        texts = [
            format_circuit(Circuit(n, n, [trusted_layer(a) for a in levelled(seq + blocks, n)]))
            for seq in (per_leaf, _dnc_upper_layers(u, seed)[: -len(blocks)])
        ]
        texts.append(format_circuit(circuit_of(_dnc_upper_layers(u, seed), n)))
        digests = [hashlib.sha256(t.encode()).hexdigest() for t in texts]
        assert digests[0] == digests[1] == digests[2], first_difference(texts)


# synth_dnc(random_gl(n, seed), seed=seed).depth before the levelling
PARENT_DNC_DEPTH = {(256, 0): 717, (256, 1): 693, (256, 2): 667, (1024, 1): 2116}


@pytest.mark.parametrize("n,seed", sorted(PARENT_DNC_DEPTH))
def test_dnc_depth_not_above_overlay(n, seed):
    m = random_gl(n, seed)
    c = synth_dnc(m, seed=seed)
    assert verify_implements(c, m).ok
    assert c.depth <= PARENT_DNC_DEPTH[n, seed]


# ----------------------------------------------------------------------
# every method's output is levelled
# ----------------------------------------------------------------------


def structured_gl(kind, n):
    if kind == "identity":
        return F2Matrix.identity(n)
    if kind == "all-ones":
        return F2Matrix.from_dense(np.triu(np.ones((n, n), dtype=np.uint8)))
    if kind == "permutation":
        return permutation_matrix(np.random.default_rng(n).permutation(n).tolist())
    return random_gl(n, n)


def ycol_circuit(m, n):
    """One ancilla column stack (_stack_layers) writing m's first columns,
    at most the 2k^2 of a stack, into rows n..2n-1, with rows 2n..4n-1 as
    machinery."""
    k = _pick_k(n)
    w = min(n, 18, 2 * k * k)
    widths, vals = _slice_values(m.to_dense()[:, :w], k)
    layers = _stack_layers(
        vals, _paste_colours(vals, 2 * k), widths, list(range(w)),
        list(range(n, 2 * n)), list(range(2 * n, 4 * n)),
    )
    return circuit_of(layers, 4 * n)


MATRIX_METHODS = {
    "simple": lambda m, n: synth_simple(m),
    "dnc": lambda m, n: synth_dnc(m, seed=1),
    "ancilla_s1": lambda m, n: synth_with_ancillae(m, 1, seed=1),
    "ancilla_s2": lambda m, n: synth_with_ancillae(m, 2, seed=1),
    "embed_m": lambda m, n: circuit_of(_embed_layers(m.to_dense(), 1, 0, n), 5 * n),
    "gen_ycol": ycol_circuit,
}


def assert_levelled(c):
    """Every level is wire-disjoint, and levelling again changes no byte."""
    for layer in c.layers:
        Layer(layer.pairs)
        assert layer.pairs.dtype == np.int32
    again = [layer.pairs for layer in c.layers]
    level_asap(again, c.wires)
    relevelled = Circuit(c.wires, c.data, [trusted_layer(a) for a in again])
    same = format_circuit(relevelled) == format_circuit(c)
    assert same, f"levelling again changed the circuit: depth {c.depth} -> {relevelled.depth}"


@pytest.mark.parametrize("n", [4, 65, 256])
@pytest.mark.parametrize("kind", ["random", "identity", "all-ones", "permutation"])
@pytest.mark.parametrize("method", sorted(MATRIX_METHODS))
def test_matrix_methods_are_levelled(method, kind, n):
    m = structured_gl(kind, n)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="ancilla scale")
        c = MATRIX_METHODS[method](m, n)
    assert_levelled(c)
    if c.data == n:
        assert verify_implements(c, m).ok


@pytest.mark.parametrize("n", [4, 65, 256])
@pytest.mark.parametrize("shape", ["random", "path"])
def test_contract_tree_is_levelled(shape, n):
    t = rand_tree(n, n) if shape == "random" else left_prefix_tree(n)
    c = contract_tree(t)
    assert_levelled(c)
    assert simulate_to_matrix(c) == simulate_to_matrix(tree_to_circuit_sequential(t))


# depth of the layer-overlay circuits that levelling replaced, after one
# level_asap pass over them, for random_gl(n, seed) with the method's
# seed = seed
PARENT_LEVELLED_DEPTH = {
    "simple": {(256, 0): 625, (256, 1): 621, (256, 2): 614, (1024, 1): 2507},
    "ancilla_s1": {(256, 0): 504, (256, 1): 495, (256, 2): 498, (1024, 1): 1727},
    "ancilla_s2": {(256, 0): 429, (256, 1): 426, (256, 2): 427, (1024, 1): 1380},
}
CEILING_SYNTH = {
    "simple": lambda m, seed: synth_simple(m),
    "ancilla_s1": lambda m, seed: synth_with_ancillae(m, 1, seed=seed),
    "ancilla_s2": lambda m, seed: synth_with_ancillae(m, 2, seed=seed),
}


@pytest.mark.parametrize(
    "method,n,seed", [(k, n, s) for k, v in PARENT_LEVELLED_DEPTH.items() for n, s in sorted(v)]
)
def test_depth_not_above_levelled_overlay(method, n, seed):
    m = random_gl(n, seed)
    c = CEILING_SYNTH[method](m, seed)
    assert verify_implements(c, m).ok
    assert c.depth <= PARENT_LEVELLED_DEPTH[method][n, seed]


# the first three trees of acceptance criterion 11, rand_tree(n, trial):
# (n, trial) -> depth of the layer-overlay contraction after one
# level_asap pass
PARENT_LEVELLED_TREE_DEPTH = {(460, 0): 16, (555, 1): 17, (534, 2): 17}


@pytest.mark.parametrize("n,trial", sorted(PARENT_LEVELLED_TREE_DEPTH))
def test_tree_depth_not_above_levelled_overlay(n, trial):
    t = rand_tree(n, trial)
    c = contract_tree(t)
    assert simulate_to_matrix(c) == simulate_to_matrix(tree_to_circuit_sequential(t))
    assert c.depth <= PARENT_LEVELLED_TREE_DEPTH[n, trial]
