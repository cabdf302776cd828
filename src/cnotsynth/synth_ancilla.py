"""Ancilla-based synthesis: depth O(n / (s log n)) with (3s+1)n ancillae.

The n-wire map M is realised on data + mirror + work regions as two
embeddings and a block swap:

    |x, 0, 0>  --embed(M)-->  |x, Mx, 0>  --embed(M^-1), roles swapped-->
    |0, Mx, 0>  --swap data/mirror-->  |Mx, 0, 0>.

One embedding writes M's columns into its target rows group by group.  A
group of s*2k^2 columns is handled by s stacks of the four-Russians
construction on disjoint wires: each stack builds, for every k-bit column
slice, the block of all nonzero sums of its control rows (a "P block"),
copies the popular sums a few times, and adds one copy per slice into
every target row under a schedule that never reuses a copy within a
layer.  Stack 0 adds straight into the target rows and undoes its
machinery; stacks 1..s-1 add into partial blocks, which a fan-in adds into
the target rows before their builds are reversed.  Pollution survives only
in columns the ancilla contract leaves unconstrained.

Every fragment is emitted as one gate sequence, stack after stack and
group after group, and levelled once as soon as possible
(circuit.levelled_circuit): stacks on disjoint wires run side by side, and
a group's build overlaps the previous group's restore wherever their wires
are free.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .circuit import Circuit, _stable_order, levelled_circuit
from .errors import BudgetExceeded, DimensionMismatch, LayoutError
from .f2 import F2Matrix, invert
from .synth_free import _split_by, permutation_layers

_PLAIN_LIMIT = 3  # below this the four-Russians machinery cannot pay rent


# ----------------------------------------------------------------------
# layout
# ----------------------------------------------------------------------


def max_scale(n: int) -> int:
    """Largest admissible s, floor(n / log2(n)^2)."""
    if n < 2:
        return 1
    return max(1, int(n / (math.log2(n) ** 2)))


def copy_cap(n: int) -> int:
    """Each copy row is reused at most 2*ceil(log2 n) times."""
    return 2 * max(1, math.ceil(math.log2(max(n, 2))))


@dataclass(frozen=True)
class AncillaLayout:
    """Wire regions for one embedding: n data wires, an n-wire mirror block
    and a 3sn-wire work block.  Stack i of a column group owns the 3n work
    wires from 2n + 3ni: stack 0's region is all machinery, and every other
    stack's first n wires are its partial block."""

    n: int
    s: int

    @classmethod
    def create(cls, n: int, s: int) -> "AncillaLayout":
        if n < 1 or s < 1:
            raise DimensionMismatch("need n >= 1 and s >= 1")
        cap = max_scale(n)
        if s > cap:
            warnings.warn(f"ancilla scale {s} clamped to {cap} (= n/log2(n)^2)")
            s = cap
        return cls(n, s)

    @property
    def data_region(self) -> range:
        return range(0, self.n)

    @property
    def mirror_region(self) -> range:
        return range(self.n, 2 * self.n)

    @property
    def work_region(self) -> range:
        return range(2 * self.n, (3 * self.s + 2) * self.n)

    @property
    def total_wires(self) -> int:
        return (3 * self.s + 2) * self.n

    @property
    def ancillae(self) -> int:
        return (3 * self.s + 1) * self.n


# ----------------------------------------------------------------------
# sparse block construction (doubling copies of control rows)
# ----------------------------------------------------------------------


@lru_cache(maxsize=64)
def _sparse_schedule(vals: tuple, kb: int):
    """Paste schedule: target t receives its set bits in weight order, one
    per paste layer p; the rank within (bit, layer) selects which copy of
    the control row feeds it (rank 0 is the control wire itself)."""
    uses: dict = {}
    ti, bs, ps, rs = [], [], [], []
    for t, v in enumerate(vals):
        p = 0
        x = int(v)
        while x:
            b = (x & -x).bit_length() - 1
            r = uses.get((b, p), 0)
            uses[(b, p)] = r + 1
            ti.append(t)
            bs.append(b)
            ps.append(p)
            rs.append(r)
            x &= x - 1
            p += 1
    copies = [0] * kb
    for (b, _p), cnt in uses.items():
        copies[b] = max(copies[b], cnt - 1)
    return (
        np.array(ti, dtype=np.int64),
        np.array(bs, dtype=np.int64),
        np.array(ps, dtype=np.int64),
        np.array(rs, dtype=np.int64),
        tuple(copies),
    )


def _doubling_rounds(roots: np.ndarray, counts: np.ndarray, dests: np.ndarray) -> list:
    """Copy fan-out layers.  Group g copies wire roots[g] onto its
    counts[g] wires of ``dests`` (groups stored contiguously).  Per round
    every available source (root plus finished copies) feeds one new copy,
    so copy q is made in round floor(log2(q+1)) from copy j-1, where
    j = q+1-2^round (j = 0 reading the root), and the round count is
    logarithmic in the copy count."""
    if dests.size == 0:
        return []
    pos = np.arange(dests.size)
    q = pos - np.repeat(np.cumsum(counts) - counts, counts)
    rnd = np.frexp(q + 1)[1] - 1
    j = q + 1 - (1 << rnd)
    src = np.repeat(roots, counts)
    from_copy = j > 0
    src[from_copy] = dests[(pos - q + j - 1)[from_copy]]
    return _split_by(rnd, np.stack([src, dests], axis=1), int(rnd.max()) + 1)


def _sparse_layers(vals, kb, ctrl_wires, tgt_wires, scratch_wires) -> list:
    """Layers adding, to each target wire, the subset-sum of the control
    wires given by its value's bit mask; scratch holds temporary copies of
    the control rows and is built and restored around the pastes."""
    keep = [i for i, v in enumerate(vals) if v]
    sched_ti, sched_b, sched_p, sched_r, copies = _sparse_schedule(
        tuple(int(vals[i]) for i in keep), kb
    )
    bases = np.cumsum([0] + list(copies))
    if bases[-1] > len(scratch_wires):
        raise LayoutError("not enough scratch for sparse construction")
    scr = np.asarray(scratch_wires[: bases[-1]], dtype=np.int64)
    ctrl_arr = np.asarray(ctrl_wires, dtype=np.int64)
    build = _doubling_rounds(ctrl_arr[:kb], np.asarray(copies, dtype=np.int64), scr)
    tgt_arr = np.asarray([tgt_wires[i] for i in keep], dtype=np.int64)
    paste = []
    for p in range(int(sched_p.max(initial=-1)) + 1):
        sel = sched_p == p
        b_sel, r_sel = sched_b[sel], sched_r[sel]
        src = np.empty(b_sel.size, dtype=np.int64)
        first = r_sel == 0
        src[first] = ctrl_arr[b_sel[first]]
        src[~first] = scr[bases[b_sel[~first]] + r_sel[~first] - 1]
        paste.append(np.stack([src, tgt_arr[sched_ti[sel]]], axis=1))
    return build + paste + list(reversed(build))


def gen_sparse(
    y: F2Matrix,
    t: int,
    controls: Sequence[int],
    targets: Sequence[int],
    scratch: Sequence[int],
    wires: int,
) -> Circuit:
    """Fragment adding y's rows (bit masks over the control wires) to the
    target wires with all scratch wires restored; depth O(log t + y.cols).

    Raises:
        BudgetExceeded: if y has more than ``t`` ones or the scratch region
            is smaller than the budget.
    """
    ones = int(y.row_weights().sum())
    if ones > t or t > len(scratch):
        raise BudgetExceeded(f"{ones} ones exceed budget {t} (scratch {len(scratch)})")
    d = y.to_dense().astype(np.int64)
    vals = (d << np.arange(y.cols)).sum(axis=1)
    layers = _sparse_layers(vals, y.cols, list(controls), list(targets), list(scratch))
    return levelled_circuit(layers, wires, wires)


# ----------------------------------------------------------------------
# one column-group stack (the log^2-column four-Russians step)
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CopyPlan:
    """Copy bookkeeping for one stack.  ``table`` has one row
    (slice, value, demand, copies, P-block row) per column slice and value
    in use; ``copy_rows`` holds the extra copy wires, contiguous per row of
    the table in table order."""

    table: np.ndarray
    copy_rows: np.ndarray

    @property
    def total_rows(self) -> int:
        """Extra rows used beyond the P blocks."""
        return int(self.copy_rows.size)

    @property
    def entries(self) -> tuple:
        """Per (slice, value): (slice, value, demand, copies, wires), the
        first wire being the P-block row itself."""
        out, pos = [], 0
        for g, val, mult, need, prow in self.table.tolist():
            extra = self.copy_rows[pos : pos + need - 1].tolist()
            out.append((g, val, mult, need, (prow, *extra)))
            pos += need - 1
        return tuple(out)


def _slice_widths(total: int, k: int) -> list:
    widths = [k] * (total // k)
    if total % k:
        widths.append(total % k)
    return widths


def _stack_layers(y_dense, widths, ctrl_wires, tgt_wires, mach, c_cap, rng, with_undo=True):
    """Layers writing y (rows = targets, columns = sum(widths) controls,
    cut into consecutive slices of the given widths) into the target rows;
    machinery is restored when ``with_undo`` (a caller reversing the whole
    stack skips it).  Returns (layers, plan).

    Machinery holds, per slice, its P rows and their build scratch, then
    the copy rows, contiguous per (slice, value).  Schedule: target i takes
    colour (g + salt[i]) mod c_cap in slice g, so its colours are distinct
    across slices; within a (slice, value, colour) class the rank-r
    demander reads copy r of that value (rank 0 reads the P row).
    """
    n_t = y_dense.shape[0]
    ngroups = len(widths)
    if ngroups > c_cap:
        raise LayoutError("more column slices than schedule colours")
    ctrl = np.asarray(ctrl_wires, dtype=np.int64)
    tgt = np.asarray(tgt_wires, dtype=np.int64)
    mach = np.asarray(mach, dtype=np.int64)
    widths = np.asarray(widths, dtype=np.int64)
    offs = np.cumsum(widths) - widths
    nv = 1 << int(widths.max())
    shift = np.arange(y_dense.shape[1]) - np.repeat(offs, widths)
    vals = np.add.reduceat(y_dense.astype(np.int64) << shift, offs, axis=1)

    # step 1: P blocks of all nonzero kb-bit sums, one template layer for
    # all slices of a width at a time
    tmpls = [_p_template(kb) for kb in widths.tolist()]
    block_len = np.asarray([nz + s_len for _, nz, s_len in tmpls], dtype=np.int64)
    p_off = np.cumsum(block_len) - block_len
    used = int(block_len.sum())
    if used > mach.size:
        raise LayoutError("machinery region exhausted")
    step1: list = []
    for kb in dict.fromkeys(widths.tolist()):
        gs = np.flatnonzero(widths == kb)
        tmpl = tmpls[gs[0]][0]
        wire_map = np.concatenate(
            [ctrl[offs[gs, None] + np.arange(kb)],
             mach[p_off[gs, None] + np.arange(block_len[gs[0]])]],
            axis=1,
        )
        step1.extend(wire_map[:, arr].reshape(-1, 2) for arr in tmpl)

    salt = rng.integers(0, c_cap, size=n_t)

    # steps 2 and 3 jointly: rank the targets within their (slice, value,
    # colour) class; rank r reads copy r of the value, so the copy count
    # per (slice, value) is the largest class over its colours
    gg, rows = np.nonzero(vals.T)
    v = vals[rows, gg]
    color = (gg + salt[rows]) % c_cap
    cell = gg * nv + v
    cls = cell * c_cap + color
    order = _stable_order(cls, ngroups * nv * c_cap)
    gg, rows, v, color, cell, cls = (x[order] for x in (gg, rows, v, color, cell, cls))
    idx = np.arange(cell.size)
    new_run = np.r_[True, cls[1:] != cls[:-1]]
    ranks = idx - np.maximum.accumulate(np.where(new_run, idx, 0))
    need = np.zeros(ngroups * nv, dtype=np.int64)
    np.maximum.at(need, cell, ranks + 1)
    extra = np.maximum(need - 1, 0)
    copy_start = np.cumsum(extra) - extra
    n_copies = int(extra.sum())
    if used + n_copies > mach.size:
        raise LayoutError("machinery region exhausted")
    copies = mach[used : used + n_copies]
    src = mach[p_off[gg] + v - 1]
    from_copy = ranks > 0
    src[from_copy] = copies[copy_start[cell[from_copy]] + ranks[from_copy] - 1]

    present = np.flatnonzero(need)
    p_of_cell = mach[p_off[present // nv] + present % nv - 1]
    step2 = _doubling_rounds(p_of_cell, extra[present], copies)
    step3 = _split_by(color, np.stack([src, tgt[rows]], axis=1), c_cap)
    plan = CopyPlan(
        np.stack([present // nv, present % nv, np.bincount(cell)[present],
                  need[present], p_of_cell], axis=1),
        copies,
    )

    if not with_undo:
        return step1 + step2 + step3, plan
    undo = list(reversed(step1 + step2))
    return step1 + step2 + step3 + undo, plan


def _pick_k(n: int, mach_len: int) -> int:
    k = max(1, (max(n, 2).bit_length() - 1) // 2)
    while k > 1:
        nz = (1 << k) - 1
        _, _, _, _, copies = _sparse_schedule(tuple(range(1, nz + 1)), k)
        if 2 * k * (nz + sum(copies)) <= mach_len // 2:
            break
        k -= 1
    return k


@lru_cache(maxsize=None)
def _p_template(kb: int):
    """P-block build layers on virtual wires [ctrl | P rows | scratch],
    translated per slice with one gather."""
    nz = (1 << kb) - 1
    _, _, _, _, copies = _sparse_schedule(tuple(range(1, nz + 1)), kb)
    s_len = sum(copies)
    layers = _sparse_layers(
        list(range(1, nz + 1)), kb,
        list(range(kb)), list(range(kb, kb + nz)),
        list(range(kb + nz, kb + nz + s_len)),
    )
    return tuple(layers), nz, s_len


def gen_ycol_with_plan(
    y: F2Matrix,
    controls: Sequence[int],
    targets: Sequence[int],
    machinery: Sequence[int],
    n_ctx: int,
    seed: int = 0,
):
    """As gen_ycol but also returns the CopyPlan of the schedule."""
    if y.rows != len(targets) or y.cols != len(controls):
        raise DimensionMismatch("y shape does not match wire lists")
    rng = np.random.default_rng(seed)
    wires = 1 + max(max(controls), max(targets), max(machinery))
    k = _pick_k(n_ctx, len(machinery))
    while True:
        widths = _slice_widths(y.cols, k)
        try:
            layers, plan = _stack_layers(
                y.to_dense(), widths, controls, targets, machinery, copy_cap(n_ctx), rng,
            )
            return levelled_circuit(layers, wires, wires), plan
        except LayoutError:
            if k == 1:
                raise
            k -= 1


def gen_ycol(
    y: F2Matrix,
    controls: Sequence[int],
    targets: Sequence[int],
    machinery: Sequence[int],
    n_ctx: int,
    seed: int = 0,
) -> Circuit:
    """Fragment writing ``y`` (rows over the target wires, columns over the
    control wires) into the target rows, machinery restored; the schedule
    uses at most 2*ceil(log2 n_ctx) paste layers and O(log n_ctx) depth."""
    circuit, _ = gen_ycol_with_plan(y, controls, targets, machinery, n_ctx, seed)
    return circuit


# ----------------------------------------------------------------------
# s-way parallelisation, sequential embedding, full synthesis
# ----------------------------------------------------------------------


def _fanin_layers(partial_bases: list, tgt_base: int, n_t: int) -> list:
    """Tree-add the partial blocks (none to s-1 of them) into the target
    rows, then restore the partials by reversing the tree."""
    if not partial_bases:
        return []
    rows = np.arange(n_t, dtype=np.int64)
    combine = []
    stride = 1
    while stride < len(partial_bases):
        gates = []
        for i in range(0, len(partial_bases) - stride, 2 * stride):
            gates.append(
                np.stack([partial_bases[i + stride] + rows, partial_bases[i] + rows], axis=1)
            )
        if gates:
            combine.append(np.concatenate(gates))
        stride *= 2
    emit = [np.stack([partial_bases[0] + rows, tgt_base + rows], axis=1)]
    return combine + emit + list(reversed(combine))


def _group_layers(dense_group, layout, ctrl_wires, tgt_base, k, rng):
    """One group of <= s*2k^2 columns, s stacks on disjoint wires: stack 0
    pastes straight into the target rows and undoes its machinery; stacks
    1..s-1 paste into partial blocks, fanned in before their builds reverse."""
    n = layout.n
    w1 = 2 * k * k
    direct, build, partials = [], [], []
    for i, width in enumerate(_slice_widths(dense_group.shape[1], w1)):
        c0 = i * w1
        region = 2 * n + 3 * n * i
        if i == 0:
            tgts, mach = np.arange(tgt_base, tgt_base + n), np.arange(region, region + 3 * n)
        else:
            tgts, mach = np.arange(region, region + n), np.arange(region + n, region + 3 * n)
            partials.append(region)
        sub, _ = _stack_layers(
            dense_group[:, c0 : c0 + width], _slice_widths(width, k),
            ctrl_wires[c0 : c0 + width], tgts, mach, copy_cap(n), rng, with_undo=i == 0,
        )
        (build if i else direct).extend(sub)
    return direct + build + _fanin_layers(partials, tgt_base, n) + list(reversed(build))


def _plain_layers(m_dense, ctrl_base, tgt_base) -> list:
    """One gate per set bit, column by column, each gate its own array."""
    cols, rows = np.nonzero(m_dense.T)
    return list(np.stack([ctrl_base + cols, tgt_base + rows], axis=1)[:, None])


def _embed_layers(m_dense, layout: AncillaLayout, ctrl_base: int, tgt_base: int, seed: int) -> list:
    """Layers adding M (columns read from ctrl wires) into the target rows,
    work region restored; column groups of s*2k^2 run sequentially."""
    n, s = layout.n, layout.s
    if n <= _PLAIN_LIMIT:
        return _plain_layers(m_dense, ctrl_base, tgt_base)
    k0 = _pick_k(n, 2 * n)
    for k in range(k0, 0, -1):
        rng = np.random.default_rng(seed)
        t_w = s * 2 * k * k
        try:
            layers = []
            for g0 in range(0, n, t_w):
                width = min(t_w, n - g0)
                layers.extend(
                    _group_layers(
                        m_dense[:, g0 : g0 + width], layout,
                        list(range(ctrl_base + g0, ctrl_base + g0 + width)),
                        tgt_base, k, rng,
                    )
                )
            return layers
        except LayoutError:
            continue
    return _plain_layers(m_dense, ctrl_base, tgt_base)


def gen_scols(y: F2Matrix, layout: AncillaLayout, seed: int = 0) -> Circuit:
    """Fragment writing one column group ``y`` (n rows, <= s*2k^2 columns
    against the first data wires) into the mirror rows as _group_layers
    does: stack 0 straight, stacks 1..s-1 through an O(log s) fan-in."""
    n = layout.n
    if y.rows != n:
        raise DimensionMismatch("y must have n rows")
    k = _pick_k(n, 2 * n)
    if y.cols > layout.s * 2 * k * k:
        raise LayoutError("more columns than one group can hold")
    rng = np.random.default_rng(seed)
    layers = _group_layers(y.to_dense(), layout, list(range(y.cols)), n, k, rng)
    return levelled_circuit(layers, layout.total_wires, layout.total_wires)


def embed_m(m: F2Matrix, layout: AncillaLayout, seed: int = 0) -> Circuit:
    """Fragment mapping |x, j, 0> to |x, j xor Mx, 0> on the layout wires;
    depth O(n / (s log n))."""
    if m.rows != layout.n or m.cols != layout.n:
        raise DimensionMismatch("matrix must be n x n")
    layers = _embed_layers(m.to_dense(), layout, 0, layout.n, seed)
    return levelled_circuit(layers, layout.total_wires, layout.total_wires)


def synth_with_ancillae(m: F2Matrix, s: int, seed: int = 0) -> Circuit:
    """Synthesise ``m`` on n data wires plus (3s+1)n ancillae.

    Composition: embed M into the mirror block, embed M^-1 back onto the
    data block (mirror wires as controls), then swap the two n-wire blocks
    with one transposition layer triple; the whole sequence is levelled
    once.
    """
    if m.rows != m.cols:
        raise DimensionMismatch("square matrix required")
    n = m.rows
    layout = AncillaLayout.create(n, s)
    minv = invert(m)
    layers = _embed_layers(m.to_dense(), layout, 0, n, seed)
    layers += _embed_layers(minv.to_dense(), layout, n, 0, seed + 1)
    swap = np.arange(layout.total_wires)
    swap[:n] = np.arange(n, 2 * n)
    swap[n : 2 * n] = np.arange(n)
    layers += [l.pairs for l in permutation_layers(swap).layers]
    return levelled_circuit(layers, layout.total_wires, n)
