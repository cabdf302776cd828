import contextlib

import numpy as np
import pytest

from cnotsynth import (
    DimensionMismatch,
    F2Matrix,
    apply_to_bits,
    format_circuit,
    invert,
    max_scale,
    random_gl,
    simulate_to_matrix,
    synth_with_ancillae,
    verify_implements,
)
from cnotsynth import synth_ancilla
from cnotsynth.circuit import Circuit, Layer, levelled_circuit
from cnotsynth.synth_ancilla import (
    _MIN_GROUPS,
    _P_ROW_USE,
    _copy_rows,
    _doubling_rounds,
    _embed_layers,
    _group_count,
    _group_layers,
    _layout,
    _p_template,
    _paste_colours,
    _p_row_use,
    _pick_k,
    _slice_values,
    _slices,
    _stack_layers,
)
from test_corpus import STRUCTURED

# The fragment tests below run the private builders that synth_with_ancillae
# runs, levelled on their own: an embedding (_embed_layers) on n data wires,
# an n-wire mirror block and 3sn work wires; one column group of s stacks
# (_group_layers) writing into the mirror rows; one stack (_stack_layers);
# and the P-block template (_p_template).  A group or a stack has its
# pastes coloured by _paste_colours, as the embedding colours all of its
# own.


def levelled(layers, wires):
    return levelled_circuit(list(layers), wires, wires)


def block(sim, rows, cols):
    d = sim.to_dense()
    return d[np.ix_(list(rows), list(cols))]


def stack_circuit(y, ctrl, tgt, mach, n):
    """One stack writing y (at most 2k^2 columns) into the target rows, its
    slices as wide as _pick_k allows and its pastes in runs of 2k, with the
    first n machinery wires for P rows and the next n for copies (2k
    slices of 2^k - 1 P rows fit n wires, and ceil(2k*n/2k) = n)."""
    k = _pick_k(n)
    widths, vals = _slice_values(y.to_dense(), k)
    colour = _paste_colours(vals, [len(widths)], [2 * k])
    layers = _stack_layers(vals, colour, widths, ctrl, tgt, mach[:n], mach[n : 2 * n])
    return levelled(layers, 1 + max(*ctrl, *tgt, *mach))


def group_circuit(y, s):
    """One column group of y's columns (at most k times the group's slices,
    the widths of its stacks), read from the first data wires and written
    into the mirror rows, on (3s+2)n wires."""
    n = y.rows
    k = _pick_k(n)
    stacks = _layout(n, s, k)
    widths, vals = _slice_values(y.to_dense(), k)
    colour = _paste_colours(vals, [w for w, _, _ in stacks], [r for _, r, _ in stacks])
    layers = _group_layers(vals, colour, widths, k, 0, n, stacks)
    return levelled(layers, (3 * s + 2) * n)


def embed_circuit(m, s):
    """|x, j, 0> -> |x, j xor Mx, 0> on (3s+2)n wires."""
    return levelled(_embed_layers(m.to_dense(), s, 0, m.rows), (3 * s + 2) * m.rows)


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
    """(demand and extra copies per source, spare wires offered) of every
    stack schedule that _paste_layers returns."""
    paste_layers = synth_ancilla._paste_layers
    got = []

    def record(source, colour, tgt, roots, spare, parity=0):
        out = paste_layers(source, colour, tgt, roots, spare, parity)
        got.append((np.bincount(source, minlength=roots.size), out[2], len(spare)))
        return out

    monkeypatch.setattr(synth_ancilla, "_paste_layers", record)
    return got


class TestPTemplate:
    """The P-block build: _p_template."""

    @pytest.mark.parametrize("kb", range(1, 9))
    def test_subset_sums_in_levelled_layers(self, kb):
        # on wires [ctrl | P rows], row v at kb + v - 1 ends up holding the
        # sum of the controls in v's bit mask; the build is 2^(kb+1)-kb-2
        # gates on disjoint wires in kb levels, one array per level, and its
        # reversal restores every wire
        nz = (1 << kb) - 1
        tmpl = _p_template(kb)
        c = Circuit(kb + nz, kb + nz, [Layer(arr) for arr in tmpl])
        assert c.size == (1 << (kb + 1)) - kb - 2
        assert c.depth == len(tmpl) == kb
        assert levelled(tmpl, c.wires).depth == c.depth
        d = simulate_to_matrix(c).to_dense()
        masks = (np.arange(1, nz + 1)[:, None] >> np.arange(kb)) & 1
        assert np.array_equal(d[kb:, :kb], masks)
        assert np.array_equal(d[:kb], np.eye(kb, c.wires, dtype=np.uint8))
        undo = Circuit(c.wires, c.wires, c.layers + c.layers[::-1])
        assert simulate_to_matrix(undo) == F2Matrix.identity(c.wires)

    def test_stack_p_rows_fit_n_wires(self):
        # the narrowest stack's at most 2k slices, full ones first, hold
        # 2^w - 1 P rows per slice of width w; _pick_k keeps them within n
        # wires, and within a span of 2k(2^k - 1)
        for n in range(1, 1 << 16):
            k = _pick_k(n)
            full, rem = divmod(n, k)
            widths = ([k] * full + [rem] * (rem > 0))[: 2 * k]
            assert sum((1 << w) - 1 for w in widths) <= min(n, 2 * k * ((1 << k) - 1)), n


class TestPRegions:
    """The work region laid out per (n, s) (_layout) and its double
    buffers: stack i owns, after stacks 0..i-1, its partial block (i > 0),
    two P spans of w(2^k - 1) wires and its copy rows; each group builds
    its P rows in the span of the group's parity, and makes its copies in
    the half of the copy rows of that parity where they fit in half."""

    SCALES = [(n, s) for n in range(1, 4097) for s in range(1, max_scale(n) + 1)] + [
        (n, s) for n in (8192, 65535) for s in sorted({1, 2, max_scale(n)})
    ]

    def test_regions_hold_their_spans_and_copy_rows(self):
        # for both slice widths _slices can pick, the narrower _pick_k(n) and
        # _pick_k(n, (3s+2)n): regions laid one after another from wire 2n
        # are disjoint; each holds its partial block, two spans and at
        # least ceil(w*n/r) copy rows (the bound _paste_colours proves), at
        # most 3n wires, so all lie inside the (3s+1)n ancillae; w + r <= 64
        # keeps the colours in the int64 masks, and stack 0 pastes in runs
        # of k + _pick_k(n) (2k at the narrower width), or of all the
        # slices, and is at least one run wide
        for n, s in self.SCALES:
            for k in {_pick_k(n), _pick_k(n, (3 * s + 2) * n)}:
                pk, nsl = (1 << k) - 1, -(-n // k)
                stacks = _layout(n, s, k)
                assert len(stacks) == s, (n, s, k)
                w0, r0, _ = stacks[0]
                assert w0 >= r0 == min(k + _pick_k(n), nsl), (n, s, k)
                end = 2 * n
                for i, (w, r, c) in enumerate(stacks):
                    assert 1 <= w and 1 <= r and w + r <= 64, (n, s, k, i)
                    assert c == (1 + (i > 0)) * _copy_rows(w, r, n) >= -(-w * n // r), (n, s, k, i)
                    size = n * (i > 0) + 2 * w * pk + c
                    assert size <= 3 * n, (n, s, k, i)
                    end += size
                assert end <= (3 * s + 2) * n, (n, s, k)

    @pytest.mark.parametrize("n,s", [(64, 1), (83, 2), (84, 2), (256, 2), (300, 4)])
    def test_consecutive_groups_build_on_disjoint_p_rows(self, n, s, monkeypatch):
        stack_layers = synth_ancilla._stack_layers
        built = {}  # first P-span wire -> (region, copy rows, rows per group)

        def record(vals, colour, widths, ctrl, tgt, p_rows, copy_rows, with_undo=True, parity=0):
            out = stack_layers(vals, colour, widths, ctrl, tgt, p_rows, copy_rows, with_undo, parity)
            nb = sum(len(_p_template(kb)) for kb in dict.fromkeys(widths.tolist()))
            p_set = set(np.concatenate([a[:, 1] for a in out[:nb]]).tolist())
            written = set(np.concatenate([a[:, 1] for a in out]).tolist())
            copies = set(copy_rows.tolist())
            assert p_set <= set(p_rows.tolist())
            # the span of parity 0 starts the machinery; parity 1 follows it
            first = int(p_rows[0]) - parity * p_rows.size
            region = set(range(first, int(copy_rows[-1]) + 1))
            region |= set() if with_undo else set(tgt.tolist())
            rows = built.setdefault(first, (region, copy_rows.size, []))[2]
            rows.append((p_set, written & copies))
            return out

        monkeypatch.setattr(synth_ancilla, "_stack_layers", record)
        dense = np.random.default_rng(n).integers(0, 2, (n, n)).astype(np.uint8)
        _embed_layers(dense, s, 0, n)
        assert len(built) == s
        regions = [region for region, _, _ in built.values()]
        assert len(set().union(*regions)) == sum(map(len, regions))
        assert set().union(*regions) <= set(range(2 * n, (3 * s + 2) * n))
        for i, (_, c, groups) in enumerate(built.values()):
            assert len(groups) > 1
            for (p_a, c_a), (p_b, c_b) in zip(groups, groups[1:]):
                assert p_a.isdisjoint(p_b), (n, s, i)
                assert c_a and c_b
                # copies alternate exactly where both groups' fit in half;
                # a partial stack's always do
                halves = max(len(c_a), len(c_b)) <= c // 2
                assert c_a.isdisjoint(c_b) == halves, (n, s, i)
                assert halves or i == 0, (n, s, i)

    @pytest.mark.parametrize("n", [15, 16, 23, 24, 63, 64, 83, 84, 85])
    def test_verifies_at_every_scale_around_the_single_region_ranges(self, n):
        m = random_gl(n, n)
        for s in range(1, max_scale(n) + 1):
            rep = verify_implements(synth_with_ancillae(m, s), m)
            assert rep.ok and rep.ancilla_restored, (n, s)


class TestSliceWidth:
    """The slice width of an embedding (_slices): _pick_k(n, (3s+2)n),
    which grows with the room, where the input reads at least _P_ROW_USE of
    that width's P rows and its layout runs at least _MIN_GROUPS column
    groups; the narrower _pick_k(n) otherwise."""

    FAMILIES = {**STRUCTURED, "random_gl": lambda n: random_gl(n, n)}

    @pytest.mark.parametrize("n", [127, 512, 1024])
    def test_p_row_use_parts_random_from_structured(self, n):
        # random matrices and their inverses read every P row of the wider
        # slices; no structured family nor its inverse reads 0.8 of them
        k = _pick_k(n, 5 * n)
        assert k == _pick_k(n) + 1
        for family, make in self.FAMILIES.items():
            m = make(n)
            for dense in (m.to_dense(), invert(m).to_dense()):
                use = _p_row_use(*_slice_values(dense, k))
                if family == "random_gl":
                    assert use == 1.0, (family, n)
                else:
                    assert use < 0.8 < _P_ROW_USE, (family, n, use)

    @pytest.mark.parametrize("n", [127, 512, 1024])
    def test_random_takes_the_room_and_structured_keep_the_narrower_k(self, n):
        # at s = 1, where the wider slices' layout runs _MIN_GROUPS groups,
        # both embeddings of a random matrix take them and those of every
        # structured one keep the narrower width; the slices and stacks
        # returned are those of the width returned
        k_room = _pick_k(n, 5 * n)
        assert _group_count(-(-n // k_room), _layout(n, 1, k_room)) >= _MIN_GROUPS
        for family, make in self.FAMILIES.items():
            m = make(n)
            for dense in (m.to_dense(), invert(m).to_dense()):
                k, widths, vals, stacks = _slices(dense, 1)
                assert k == (k_room if family == "random_gl" else _pick_k(n)), family
                want_widths, want_vals = _slice_values(dense, k)
                assert np.array_equal(widths, want_widths) and np.array_equal(vals, want_vals)
                assert stacks == _layout(n, 1, k)

    @pytest.mark.parametrize("n,s,groups", [(1024, 10, 2), (2048, 16, 4)])
    def test_many_stacks_keep_the_narrower_k(self, n, s, groups):
        # at s = max_scale(n) the wider slices would leave too few column
        # groups, so even a random matrix keeps the narrower width
        k_room = _pick_k(n, (3 * s + 2) * n)
        assert s == max_scale(n) and k_room > _pick_k(n)
        assert _group_count(-(-n // k_room), _layout(n, s, k_room)) == groups < _MIN_GROUPS
        assert _slices(random_gl(n, 1).to_dense(), s)[0] == _pick_k(n)


def _reference_paste_colours(vals, ws, rs):
    """The paste colouring as a loop: slices fall into consecutive stacks
    of ws[i] slices; per slice, each value's targets in order are cut into
    runs of its stack's rs[i]; pastes are taken by (slice within stack,
    position within run), each given the least colour unused at its
    target in its stack and in its run."""
    stack_of = [i for i, w in enumerate(ws) for _ in range(w)]
    first = {i: sum(ws[:i]) for i in range(len(ws))}
    pastes = []
    for sl in range(vals.shape[0]):
        st = stack_of[sl]
        r = rs[st]
        seen = {}
        for t in range(vals.shape[1]):
            v = int(vals[sl, t])
            if v:
                q = seen[v] = seen.get(v, -1) + 1
                pastes.append(((sl - first[st], q % r), sl, t, (sl, v, q // r)))
    at_used, run_used = {}, {}
    colour = np.full(vals.shape, -1)
    for _, sl, t, run in sorted(pastes, key=lambda e: e[0]):
        taken = at_used.setdefault((stack_of[sl], t), set()) | run_used.setdefault(run, set())
        c = min(set(range(len(taken) + 1)) - taken)
        at_used[stack_of[sl], t].add(c)
        run_used[run].add(c)
        colour[sl, t] = c
    return colour


class TestPasteColours:
    @pytest.mark.parametrize("g", [2, 4, 6])
    def test_matches_loop(self, g):
        # values with zeros and repeats, a source longer than a run, runs
        # longer and shorter than the stack is wide, stacks of two widths
        # in turn, and a last stack cut short
        rng = np.random.default_rng(g)
        for ws, rs in (([g], [g + 1]), ([g], [g // 2]), ([g, g // 2 + 1], [1, g])):
            w = sum(ws)
            for nsl, n_t, nv in ((1, 1, 2), (w, 3 * max(rs) + 1, 3), (2 * w + 1, 40, 1 << (g // 2))):
                vals = rng.integers(0, nv, (nsl, n_t)).astype(np.uint16)
                reps = -(-nsl // w)
                want = _reference_paste_colours(vals, ws * reps, rs * reps)
                assert np.array_equal(_paste_colours(vals, ws * reps, rs * reps), want), (ws, rs)


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
        c = stack_circuit(y, ctrl, tgt, mach, n)
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
        assert all(extra.sum() <= n for _, extra, _ in stack_schedules)

    def test_identity_rows_embedded(self):
        n = 128
        w = 18
        y = F2Matrix.from_dense(np.eye(n, w, dtype=np.uint8))
        c = stack_circuit(y, list(range(w)), list(range(n, 2 * n)),
                          list(range(2 * n, 4 * n)), n)
        sim = simulate_to_matrix(c)
        assert np.array_equal(block(sim, range(n, 2 * n), range(w)), y.to_dense())

    @pytest.mark.parametrize("n", [*range(1, 9), 65, 129, 300])
    def test_layout_bounds(self, n, stack_schedules):
        # the fit _paste_colours proves for the stacks of _layout(n, s), w
        # slices with runs of r: at most w+r-1 paste colours per stack, each
        # distinct at its target within the stack; a source of degree d
        # takes at most ceil(d/r)-1 copies, so a stack makes at most
        # ceil(w*n/r), within its copy rows, at every s, for the slice
        # width and stacks that _slices picks
        rng = np.random.default_rng(n)
        row = rng.integers(0, 2, n)
        row[:: _pick_k(n)] = 1  # a nonzero value in every slice
        inputs = {
            "ones": np.ones((n, n)),
            "shared": np.tile(row, (n, 1)),
            "identity": np.eye(n),
            "random": rng.integers(0, 2, (n, n)),
        }
        for name, dense in inputs.items():
            dense = dense.astype(np.uint8)
            for s in range(1, max_scale(n) + 1):
                _, _, vals, stacks = _slices(dense, s)
                nsl = vals.shape[0]
                reps = -(-nsl // sum(w for w, _, _ in stacks))
                # the stacks in emission order, as far as the slices go
                order = []
                g0 = 0
                for _ in range(reps):
                    for w, r, c in stacks:
                        if g0 < nsl:
                            order.append((g0, w, r, c))
                        g0 += w
                colour = _paste_colours(vals, [w for w, _, _ in stacks] * reps,
                                        [r for _, r, _ in stacks] * reps)
                assert np.array_equal(colour >= 0, vals > 0), (name, s)
                for g0, w, r, _ in order:
                    col = np.sort(colour[g0 : g0 + w], axis=0)
                    assert col.max() <= w + r - 2, (name, s)
                    assert not ((col[1:] == col[:-1]) & (col[1:] >= 0)).any(), (name, s)
                stack_schedules.clear()
                _embed_layers(dense, s, 0, n)
                assert len(stack_schedules) == len(order), (name, s)
                for (demand, extra, spare), (_, w, r, c) in zip(stack_schedules, order):
                    assert np.all(extra <= -(-demand // r) - 1), (name, s)
                    assert extra.sum() <= min(-(-w * n // r), spare) and spare == c, (name, s)


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
        k = _pick_k(n)
        for short in (0, 7):
            width = k * sum(w for w, _, _ in _layout(n, s, k)) - short
            rng = np.random.default_rng(10 * s + short)
            y = F2Matrix.from_dense(rng.integers(0, 2, (n, width)))
            c = group_circuit(y, s)
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
            depths.append(embed_circuit(m, s).depth)
        assert depths[1] <= depths[0]


class TestSynthWithAncillae:
    def test_identity(self):
        c = synth_with_ancillae(F2Matrix.identity(16), 1)
        assert verify_implements(c, F2Matrix.identity(16)).ok

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 64])
    def test_tiny_and_small_sizes(self, n):
        for s in (1, 2):
            m = random_gl(n, n + s)
            clamp = s > max_scale(n)
            with pytest.warns(UserWarning, match="clamped") if clamp else contextlib.nullcontext():
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

    def test_every_small_size(self):
        # n <= 3 takes the general path too
        for n in range(1, 40):
            for s in range(1, max_scale(n) + 1):
                m = random_gl(n, n)
                assert verify_implements(synth_with_ancillae(m, s), m).ok, (n, s)

    def test_seed_has_no_effect(self):
        m = random_gl(256, 5)
        texts = {format_circuit(synth_with_ancillae(m, 2, seed=seed)) for seed in (0, 1, 99)}
        assert len(texts) == 1

    def test_ancilla_restoration_vector_sim(self):
        n = 64
        m = random_gl(n, 2)
        with pytest.warns(UserWarning, match="ancilla scale 2 clamped to 1"):
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


# synth_with_ancillae(random_gl(n, seed), s, seed=seed).depth when every
# column group built its P rows on the same machinery wires, so a group
# could start only once the previous one had undone its own
PARENT_DEPTHS = {
    1: {(256, 0): 387, (256, 1): 389, (256, 2): 388, (1024, 1): 1299},
    2: {(256, 0): 309, (256, 1): 307, (256, 2): 311, (1024, 1): 995},
}


@pytest.mark.parametrize(
    "s,n,seed", [(s, n, seed) for s, v in PARENT_DEPTHS.items() for n, seed in sorted(v)]
)
def test_depth_below_parent(s, n, seed):
    m = random_gl(n, seed)
    c = synth_with_ancillae(m, s, seed=seed)
    assert verify_implements(c, m).ok
    assert c.depth <= 0.85 * PARENT_DEPTHS[s][n, seed]


# synth_with_ancillae(random_gl(n, seed), s, seed=seed).depth when every
# stack owned 3n work wires and a partial stack made every group's copies
# on the same rows, so a group could copy only once the previous one had
# reversed its pastes and copies; S1_DEPTHS are today's s = 1 depths, those
# at n = 512 and 1024 (354 and 595 at the narrower slice width) since a random
# matrix there takes the wider slices of _slices
PARENT_S2_DEPTHS = {(256, 0): 253, (256, 1): 251, (256, 2): 255, (512, 100): 523, (1024, 1): 797}
S1_DEPTHS = {(256, 0): 221, (256, 1): 219, (256, 2): 219, (512, 100): 347, (1024, 1): 575}


@pytest.mark.parametrize("n,seed", sorted(PARENT_S2_DEPTHS))
def test_s2_depth_below_parent(n, seed):
    m = random_gl(n, seed)
    c1, c2 = (synth_with_ancillae(m, s, seed=seed) for s in (1, 2))
    assert verify_implements(c2, m).ok
    assert c2.depth <= 0.93 * PARENT_S2_DEPTHS[n, seed]
    assert c1.depth == S1_DEPTHS[n, seed]


# synth_with_ancillae(random_gl(n, seed), s, seed=seed).depth when every
# stack was 2k slices wide with runs of 2k, so its paste runs were tied to
# its width, stack 0 had n copy rows and the partial stacks 2n
PARENT_RUN_DEPTHS = {
    1: {(256, 0): 257, (256, 1): 256, (256, 2): 256, (512, 100): 555, (1024, 1): 853},
    2: {(256, 0): 228, (256, 1): 227, (256, 2): 230, (512, 100): 435, (1024, 1): 700},
}


@pytest.mark.parametrize(
    "s,n,seed", [(s, n, seed) for s, v in PARENT_RUN_DEPTHS.items() for n, seed in sorted(v)]
)
def test_copy_runs_depth_below_parent(s, n, seed):
    m = random_gl(n, seed)
    c = synth_with_ancillae(m, s, seed=seed)
    assert verify_implements(c, m).ok
    ratio = 0.8 if s == 1 and n >= 512 else 1.0
    assert c.depth <= ratio * PARENT_RUN_DEPTHS[s][n, seed]
