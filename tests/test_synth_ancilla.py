import numpy as np
import pytest

from cnotsynth import (
    DimensionMismatch,
    F2Matrix,
    apply_to_bits,
    max_scale,
    random_gl,
    simulate_to_matrix,
    synth_with_ancillae,
    verify_implements,
)
from cnotsynth import synth_ancilla
from cnotsynth.circuit import levelled_circuit
from cnotsynth.synth_ancilla import (
    _doubling_rounds,
    _embed_layers,
    _group_layers,
    _p_template,
    _pick_k,
    _slice_widths,
    _sparse_layers,
    _stack_layers,
    copy_cap,
)

# The fragment tests below run the private builders that synth_with_ancillae
# runs, levelled on their own: an embedding (_embed_layers) on n data wires,
# an n-wire mirror block and 3sn work wires; one column group of s stacks
# (_group_layers) writing into the mirror rows; one stack (_stack_layers);
# and the sparse block (_sparse_layers).


def levelled(layers, wires):
    return levelled_circuit(list(layers), wires, wires)


def block(sim, rows, cols):
    d = sim.to_dense()
    return d[np.ix_(list(rows), list(cols))]


def sparse_circuit(y, ctrl, tgt, scratch):
    """Rows of the 0/1 array y, bit masks over the control wires, added to
    the target wires through the scratch wires."""
    vals = (np.asarray(y, dtype=np.int64) << np.arange(y.shape[1])).sum(axis=1)
    layers, _ = _sparse_layers(vals, y.shape[1], ctrl, tgt, scratch)
    return levelled(layers, 1 + max(*ctrl, *tgt, *scratch))


def stack_circuit(y, ctrl, tgt, mach, n, seed=0):
    """One stack writing y into the target rows, its slices as wide as
    _pick_k allows for this machinery, as a column group runs it."""
    widths = _slice_widths(y.cols, _pick_k(n, len(mach)))
    rng = np.random.default_rng(seed)
    layers = _stack_layers(y.to_dense(), widths, ctrl, tgt, mach, copy_cap(n), rng)
    return levelled(layers, 1 + max(*ctrl, *tgt, *mach))


def group_circuit(y, s, seed=0):
    """One column group of y's columns, read from the first data wires and
    written into the mirror rows, on (3s+2)n wires."""
    n = y.rows
    rng = np.random.default_rng(seed)
    layers = _group_layers(y.to_dense(), n, list(range(y.cols)), n, _pick_k(n, 2 * n), rng)
    return levelled(layers, (3 * s + 2) * n)


def embed_circuit(m, s, seed=0):
    """|x, j, 0> -> |x, j xor Mx, 0> on (3s+2)n wires."""
    return levelled(_embed_layers(m.to_dense(), s, 0, m.rows, seed), (3 * s + 2) * m.rows)


class TestLayout:
    """The ancilla scale s that synth_with_ancillae accepts."""

    def test_scale_clamped_with_warning(self):
        m = random_gl(16, 0)
        with pytest.warns(UserWarning, match="ancilla scale 5 clamped to 1"):
            c = synth_with_ancillae(m, 5)
        assert max_scale(16) == 1 and c.ancillae == (3 * 1 + 1) * 16
        assert verify_implements(c, m).ok

    def test_scale_below_one_rejected(self):
        with pytest.raises(DimensionMismatch, match="need n >= 1 and s >= 1"):
            synth_with_ancillae(random_gl(16, 0), 0)


class TestDoublingRounds:
    def test_matches_round_by_round_loop(self):
        # reference: per round every group's root and finished copies each
        # feed one new copy, in group order
        rng = np.random.default_rng(4)
        counts = rng.integers(0, 12, 9)
        roots = np.arange(100, 109)
        dests = np.arange(1000, 1000 + counts.sum())
        starts = np.cumsum(counts) - counts
        made = [0] * counts.size
        want = []
        while True:
            gates = []
            for g in range(counts.size):
                group = dests[starts[g] : starts[g] + counts[g]]
                new = min(made[g] + 1, counts[g] - made[g])
                for j in range(max(new, 0)):
                    src = roots[g] if j == 0 else group[j - 1]
                    gates.append((src, group[made[g] + j]))
                made[g] += max(new, 0)
            if not gates:
                break
            want.append(np.asarray(gates))
        got = _doubling_rounds(roots, counts, dests)
        assert len(got) == len(want) == int(counts.max()).bit_length()
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@pytest.fixture
def stack_schedules(monkeypatch):
    """(demand, extra copies) per source of every stack schedule that
    _paste_layers returns; the P templates are built first, so their
    schedules are not recorded."""
    for kb in range(1, 8):
        _p_template(kb)
    paste_layers = synth_ancilla._paste_layers
    got = []

    def record(source, colour, tgt, roots, spare):
        out = paste_layers(source, colour, tgt, roots, spare)
        got.append((np.bincount(source, minlength=roots.size), out[2]))
        return out

    monkeypatch.setattr(synth_ancilla, "_paste_layers", record)
    return got


def _reference_sparse_layers(vals, kb, ctrl_wires, tgt_wires, scratch_wires):
    """The sparse construction as scheduled before the shared paste
    scheduler: a per-target loop over the set bits, ranking each paste
    within its (bit, layer) class, and one paste array per layer."""
    keep = [i for i, v in enumerate(vals) if v]
    uses = {}
    sched = []
    for t in keep:
        x, p = int(vals[t]), 0
        while x:
            b = (x & -x).bit_length() - 1
            r = uses.get((b, p), 0)
            uses[(b, p)] = r + 1
            sched.append((t, b, p, r))
            x &= x - 1
            p += 1
    copies = [0] * kb
    for (b, _p), cnt in uses.items():
        copies[b] = max(copies[b], cnt - 1)
    bases = np.cumsum([0] + copies)
    scr = np.asarray(scratch_wires[: bases[-1]], dtype=np.int64)
    build = _doubling_rounds(np.asarray(ctrl_wires[:kb]), np.asarray(copies), scr)
    paste = []
    for p in range(max((e[2] for e in sched), default=-1) + 1):
        paste.append(np.asarray([
            (ctrl_wires[b] if r == 0 else scr[bases[b] + r - 1], tgt_wires[t])
            for t, b, q, r in sched if q == p
        ]))
    return build + paste + list(reversed(build)), int(bases[-1])


class TestSparseSchedule:
    @pytest.mark.parametrize("kb", range(1, 8))
    def test_matches_reference(self, kb):
        # same arrays in the same order, each with the same gate set; values
        # drawn with zeros and repeats, plus the P-block template's list
        rng = np.random.default_rng(kb)
        cases = [list(range(1, 1 << kb))]
        for size in (1, 5, 3 << kb):
            vals = rng.integers(0, 1 << kb, size)
            vals[rng.random(size) < 0.2] = 0
            cases.append(vals.tolist())
        for vals in cases:
            ctrl = list(range(kb))
            tgt = list(range(kb, kb + len(vals)))
            scr = list(range(kb + len(vals), kb + len(vals) + kb * len(vals)))
            got, used = _sparse_layers(vals, kb, ctrl, tgt, scr)
            want, want_used = _reference_sparse_layers(vals, kb, ctrl, tgt, scr)
            assert used == want_used
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert sorted(map(tuple, a.tolist())) == sorted(map(tuple, b.tolist()))


class TestGenSparse:
    """The sparse block: _sparse_layers."""

    def test_zero_matrix_empty(self):
        y = np.zeros((4, 3), dtype=np.uint8)
        c = sparse_circuit(y, [0, 1, 2], [3, 4, 5, 6], [7, 8, 9, 10, 11, 12])
        assert c.size == 0

    def test_single_one_depth_le_3(self):
        y = np.array([[0, 1, 0], [0, 0, 0]], dtype=np.uint8)
        c = sparse_circuit(y, [0, 1, 2], [3, 4], [5, 6, 7, 8])
        assert c.depth <= 3
        sim = simulate_to_matrix(c)
        assert np.array_equal(block(sim, [3, 4], [0, 1, 2]), y)
        # scratch restored
        assert np.array_equal(block(sim, range(5, 9), range(9)),
                              np.eye(9, dtype=np.uint8)[5:])

    def test_all_vectors_block(self):
        # the full P stack: every nonzero 4-bit sum lands in its target row
        k = 4
        y = np.array([[(v >> b) & 1 for b in range(k)] for v in range(1 << k)], dtype=np.uint8)
        ctrl = list(range(k))
        tgt = list(range(k, k + (1 << k)))
        scr = list(range(k + (1 << k), k + (1 << k) + 40))
        c = sparse_circuit(y, ctrl, tgt, scr)
        sim = simulate_to_matrix(c)
        assert np.array_equal(block(sim, tgt, ctrl), y)
        assert c.depth <= 3 * k + 4
        for w in scr:
            row = sim.to_dense()[w]
            assert row[w] == 1 and row.sum() == 1


class TestGenYcol:
    """One column stack: _stack_layers."""

    def test_zero_is_net_identity(self):
        n = 64
        y = F2Matrix.zeros(n, 8)
        ctrl = list(range(8))
        tgt = list(range(n, 2 * n))
        mach = list(range(2 * n, 4 * n))
        c = stack_circuit(y, ctrl, tgt, mach, n)
        assert simulate_to_matrix(c) == F2Matrix.identity(c.wires)

    @pytest.mark.parametrize("n,w", [(64, 8), (128, 18), (256, 32)])
    def test_block_exact_and_machinery_restored(self, n, w, stack_schedules):
        rng = np.random.default_rng(n + w)
        y = F2Matrix.from_dense(rng.integers(0, 2, (n, w)))
        ctrl = list(range(w))
        tgt = list(range(n, 2 * n))
        mach = list(range(2 * n, 4 * n))
        c = stack_circuit(y, ctrl, tgt, mach, n, seed=1)
        sim = simulate_to_matrix(c)
        assert np.array_equal(block(sim, tgt, ctrl), y.to_dense())
        d = sim.to_dense()
        for wv in mach:
            assert d[wv, wv] == 1 and d[wv].sum() == 1
        # data rows untouched
        for cw in ctrl:
            assert d[cw, cw] == 1 and d[cw].sum() == 1
        # at most n copy rows per stack
        assert stack_schedules
        assert all(extra.sum() <= n for _, extra in stack_schedules)

    def test_identity_rows_embedded(self):
        n = 128
        w = 18
        y = F2Matrix.from_dense(np.eye(n, w, dtype=np.uint8))
        c = stack_circuit(y, list(range(w)), list(range(n, 2 * n)),
                          list(range(2 * n, 4 * n)), n)
        sim = simulate_to_matrix(c)
        assert np.array_equal(block(sim, range(n, 2 * n), range(w)), y.to_dense())

    def test_schedule_cap_respected(self, stack_schedules):
        # no more paste layers than 2*ceil(log2 n), per the copy reuse cap:
        # each (slice, value) has at least ceil(demand / cap) copies
        n = 256
        rng = np.random.default_rng(0)
        y = F2Matrix.from_dense(rng.integers(0, 2, (n, 32)))
        stack_circuit(y, list(range(32)), list(range(n, 2 * n)), list(range(2 * n, 4 * n)), n, seed=3)
        assert stack_schedules
        for demand, extra in stack_schedules:
            assert np.all(extra + 1 >= -(-demand // copy_cap(n)))


class TestGenScols:
    """One column group of s parallel stacks: _group_layers."""

    def test_s1_degenerates_to_ycol(self):
        n = 64
        rng = np.random.default_rng(1)
        y = F2Matrix.from_dense(rng.integers(0, 2, (n, 8)))
        c = group_circuit(y, 1)
        sim = simulate_to_matrix(c)
        assert np.array_equal(block(sim, range(n, 2 * n), range(8)), y.to_dense())

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_parallel_stacks_block_exact(self, s):
        # stack 0 takes its whole region as machinery and pastes into the
        # mirror rows; stacks 1..s-1 paste into partial blocks, the last one
        # full or 7 columns short.  Every row but the mirror rows is
        # restored; the mirror rows gain y on the data columns, and only the
        # work columns, zero under the ancilla contract, may pollute them.
        n = 256
        k = _pick_k(n, 2 * n)
        for short in (0, 7):
            width = s * 2 * k * k - short
            rng = np.random.default_rng(10 * s + short)
            y = F2Matrix.from_dense(rng.integers(0, 2, (n, width)))
            c = group_circuit(y, s, seed=s)
            want = np.eye(c.wires, dtype=np.uint8)
            want[n : 2 * n, :width] ^= y.to_dense()
            d = simulate_to_matrix(c).to_dense()
            assert np.array_equal(d[: 2 * n, : 2 * n], want[: 2 * n, : 2 * n])
            assert np.array_equal(d[2 * n :], want[2 * n :])
            assert np.array_equal(d[:n], want[:n])


class TestEmbed:
    """One embedding: _embed_layers."""

    def test_identity_block(self):
        n = 64
        c = embed_circuit(F2Matrix.identity(n), 1)
        sim = simulate_to_matrix(c)
        assert np.array_equal(block(sim, range(n, 2 * n), range(n)), np.eye(n, dtype=np.uint8))

    def test_mirror_holds_mx_under_vector_sim(self):
        n = 256
        m = random_gl(n, 3)
        c = embed_circuit(m, 1)
        rng = np.random.default_rng(0)
        md = m.to_dense().astype(int)
        for _ in range(100):
            x = rng.integers(0, 2, n, dtype=np.uint8)
            v = np.zeros(c.wires, dtype=np.uint8)
            v[:n] = x
            out = apply_to_bits(c, v)
            assert np.array_equal(out[:n], x)
            assert np.array_equal(out[n : 2 * n], (md @ x) % 2)
            assert not out[2 * n :].any()

    def test_depth_non_increasing_in_s(self):
        m = random_gl(256, 9)
        depths = []
        for s in (1, 2):
            depths.append(embed_circuit(m, s, seed=1).depth)
        assert depths[1] <= depths[0]


class TestSynthWithAncillae:
    def test_identity(self):
        c = synth_with_ancillae(F2Matrix.identity(16), 1)
        assert verify_implements(c, F2Matrix.identity(16)).ok

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 64])
    def test_tiny_and_small_sizes(self, n):
        for s in (1, 2):
            m = random_gl(n, n + s)
            c = synth_with_ancillae(m, s)
            rep = verify_implements(c, m)
            assert rep.ok, (n, s)
            s_eff = min(s, max_scale(n))
            assert c.ancillae == (3 * s_eff + 1) * n

    def test_block_contract_and_scaling(self):
        n = 256
        m = random_gl(n, 17)
        prev = None
        for s in (1, 2, 4):
            c = synth_with_ancillae(m, s)
            rep = verify_implements(c, m)
            assert rep.ok and c.ancillae == (3 * s + 1) * n
            if prev is not None:
                assert c.depth <= prev
            prev = c.depth

    def test_ancilla_restoration_vector_sim(self):
        n = 64
        m = random_gl(n, 2)
        c = synth_with_ancillae(m, 2)
        md = m.to_dense().astype(int)
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.integers(0, 2, n, dtype=np.uint8)
            v = np.zeros(c.wires, dtype=np.uint8)
            v[:n] = x
            out = apply_to_bits(c, v)
            assert np.array_equal(out[:n], (md @ x) % 2)
            assert not out[n:].any()

    def test_fragments_restore_inverse_composition(self):
        # the M and M^-1 embeddings cancel on the data block
        n = 64
        m = random_gl(n, 8)
        forward = embed_circuit(m, 1)
        sim_f = simulate_to_matrix(forward)
        c_full = synth_with_ancillae(m, 1)
        sim = simulate_to_matrix(c_full)
        # top-left block of the full circuit is m, bottom-left zero
        assert np.array_equal(block(sim, range(n), range(n)), m.to_dense())
        assert not block(sim, range(n, c_full.wires), range(n)).any()
        assert np.array_equal(block(sim_f, range(n, 2 * n), range(n)), m.to_dense())


# synth_with_ancillae(random_gl(n, seed), s, seed=seed).size when every stack
# of a group pasted into its own partial block and the group's whole build
# was reversed; each group's first stack now pastes straight into the
# target rows
PARENT_GATES = {
    2: {(256, 0): 92200, (256, 1): 92586, (256, 2): 92056, (1024, 1): 1081315},
    4: {(256, 0): 93224, (256, 1): 93610, (256, 2): 93080, (1024, 1): 1091555},
}
GATE_RATIO = {2: 0.85, 4: 0.95}


@pytest.mark.parametrize(
    "s,n,seed", [(s, n, seed) for s, v in PARENT_GATES.items() for n, seed in sorted(v)]
)
def test_gates_below_parent(s, n, seed):
    m = random_gl(n, seed)
    c = synth_with_ancillae(m, s, seed=seed)
    assert verify_implements(c, m).ok
    assert c.size <= GATE_RATIO[s] * PARENT_GATES[s][n, seed]
