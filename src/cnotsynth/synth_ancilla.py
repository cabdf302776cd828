"""Ancilla-based synthesis: depth O(n / (s log n)) with (3s+1)n ancillae.

The n-wire map M is realised on data + mirror + work regions as two
embeddings and a block swap:

    |x, 0, 0>  --embed(M)-->  |x, Mx, 0>  --embed(M^-1), roles swapped-->
    |0, Mx, 0>  --swap data/mirror-->  |Mx, 0, 0>.

One embedding writes M's columns into its target rows group by group.  A
group of columns is handled by s stacks of the four-Russians construction
on disjoint wires: each stack builds, for every k-bit column slice, the
block of all nonzero sums of its control rows (a "P block", built by one
doubling subset-sum tree, _p_template), copies the popular sums a few
times, and adds one copy per slice into every target row.  Stack 0 adds
straight into the target rows and undoes its machinery; stacks 1..s-1 add
into partial blocks, which a fan-in adds into the target rows before their
builds are reversed.  Pollution survives only in columns the ancilla
contract leaves unconstrained.

The slice width k is chosen once per embedding (_slices): it grows with
the room, floor(log2((3s+2)n) / 2), as the paper's log(n+m), where the
input reads nearly all of that width's P rows and its layout still runs
several column groups, and stays floor(log2(n) / 2) otherwise (both
lowered until a stack fits, _pick_k).  The work wires are then laid out
once (_layout): each stack has a width w in slices, a run length r, two
P spans of w(2^k - 1) wires and ceil(w*n/r) copy rows (twice that for a
partial stack), a partial stack its n-row partial block too, and no
stack more than 3n wires.  Stack 0 keeps runs of about 2k and spends its
idle wires on width; the partial stacks, which paste twice, are narrower
with shorter runs.  The pastes of the whole embedding are coloured once
(_paste_colours): each (slice, value) source's pastes are cut into runs
of its stack's r, and a greedy gives every paste a colour free at its
target and in its run, so a stack uses at most w+r-1 colours and
ceil(w*n/r) copy rows; _paste_layers turns the colours into a stack's
copy and paste layers.

Every fragment is emitted as one gate sequence, stack after stack and
group after group, and levelled once by commutation
(circuit.level_commuting): stacks on disjoint wires run side by side, and
a gate also drops below earlier gates that share only its control or
only its target, as pastes into the same target rows, P builds reading
the same control rows and copy fan-outs do.
Consecutive groups are double-buffered: even groups build their P rows in
the first span and odd groups in the second, so a group's P build runs
beside the previous group's pastes and undo, and a group whose copies fit
in half of its stack's copy rows makes them in the half of its parity, so
its copy fan-out runs beside the previous group's undo or reversal.  The
gates are the same either way; only their wires and levels move.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .circuit import Circuit, _fold_layers, _stable_order, level_commuting, levelled_circuit
from .errors import DimensionMismatch
from .f2 import F2Matrix, invert
from .synth_free import _split_by


# ----------------------------------------------------------------------
# layout: n data wires, an n-wire mirror block and a 3sn-wire work block;
# stack i of a column group owns the work wires of _layout(n, s, k)[i] (its
# partial block, two P spans and its copy rows) that follow those of stacks
# 0..i-1, the first from 2n
# ----------------------------------------------------------------------


def max_scale(n: int) -> int:
    """Largest admissible s, floor(n / log2(n)^2)."""
    if n < 2:
        return 1
    return max(1, int(n / (math.log2(n) ** 2)))


# ----------------------------------------------------------------------
# copy fan-out and the paste scheduler
# ----------------------------------------------------------------------


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


def _paste_layers(source, colour, tgt, roots, spare, parity=0) -> tuple:
    """Copy-and-paste schedule of one stack: paste i adds wire
    roots[source[i]], the P row of its (slice, value) source, into wire
    tgt[i] in the layer of colour[i].  Within a (source, colour) class
    the paste of rank r, in the order given, reads copy r of its source,
    copy 0 being the root; so a source gets as many extra copies as its
    largest class, less one, which sit contiguously per source, in source
    order, in the copy rows ``spare``, which must hold them: in its half
    of index ``parity`` where they fit in half of it, so that consecutive
    groups copy on disjoint rows, and from its front otherwise.  Returns
    (build, paste, extra): the copy fan-out layers, one paste array per
    colour present in colour order, and the extra copies per source."""
    ncol = int(colour.max(initial=-1)) + 1
    cls = source * ncol + colour
    order = _stable_order(cls, roots.size * ncol)
    idx = np.arange(cls.size)
    new_run = np.r_[True, cls[order[1:]] != cls[order[:-1]]]
    rank = np.empty_like(idx)
    rank[order] = idx - np.maximum.accumulate(np.where(new_run, idx, 0))
    extra = np.zeros(roots.size, dtype=np.int64)
    np.maximum.at(extra, source, rank)
    total, half = int(extra.sum()), spare.size // 2
    copies = spare[parity * half * (total <= half) :][:total]
    src = roots[source]
    from_copy = rank > 0
    src[from_copy] = copies[(np.cumsum(extra) - extra)[source[from_copy]] + rank[from_copy] - 1]
    paste = _split_by(colour, np.stack([src, tgt], axis=1), ncol)
    return _doubling_rounds(roots, extra, copies), paste, extra


# ----------------------------------------------------------------------
# column slices and the paste colouring of a whole embedding
# ----------------------------------------------------------------------


def _slice_values(dense, k: int) -> tuple:
    """The widths of dense's k-column slices (the last one the remainder)
    and every row's value in every slice, slices x rows, bit b standing
    for the slice's column b (k <= 16)."""
    offs = np.arange(0, dense.shape[1], k)
    widths = np.diff(np.r_[offs, dense.shape[1]])
    shift = (np.arange(dense.shape[1]) - np.repeat(offs, widths)).astype(np.uint16)
    bits = dense.T.astype(np.uint16) << shift[:, None]
    return widths, np.add.reduceat(bits, offs, axis=0, dtype=np.uint16)


def _paste_colours(vals, ws, rs) -> np.ndarray:
    """Paste colour of every nonzero entry of ``vals`` (slices x targets),
    -1 elsewhere, for consecutive stacks of ws[i] slices whose pastes run
    rs[i] long (the last stack may be cut short).

    A source is a (slice, value) pair; its pastes are cut, in target order,
    into runs of its stack's r.  Round (j, p) colours the pastes of slice j
    of every stack that sit at position p of their run, each with the least
    colour free both at its target in its stack and in its run; no two
    pastes of a round share either, so the round is one gather and one
    scatter, and there are max(w) * max(r) rounds.  A paste sees at most
    w-1 colours at its target and r-1 in its run, so a stack uses at most
    w+r-1 colours (w + r <= 64 keeps them in the int64 masks).  A
    (source, colour) class holds at most one paste per run, so a source of
    degree d needs at most ceil(d/r)-1 copies, and a stack's pastes, at
    most w per target, at most ceil(w*n/r) copies in all.
    """
    nsl, n_t = vals.shape
    ws, rs = np.asarray(ws, dtype=np.int64), np.asarray(rs, dtype=np.int64)
    stack = np.repeat(np.arange(ws.size), ws)[:nsl]
    j = np.arange(nsl) - (np.cumsum(ws) - ws)[stack]
    r = rs[stack][:, None]
    nj, nr = int(ws.max()), int(rs.max())
    order = np.argsort(vals, axis=1, kind="stable")
    v = np.take_along_axis(vals, order, axis=1)
    idx = np.arange(n_t)
    first = np.maximum.accumulate(np.where(np.diff(v, axis=1, prepend=0) > 0, idx, 0), axis=1)
    pos = (idx - first) % r
    # round of each entry in the sorted layout; zero entries go to round
    # nj*nr, which is not run
    key = np.where(v > 0, (j * nr)[:, None] + pos, nj * nr).ravel()
    by_round = _stable_order(key, nj * nr + 1)
    at = ((stack * n_t)[:, None] + order).ravel()[by_round]
    run = (np.arange(key.size) - pos.ravel())[by_round]
    at_mask = np.zeros((int(stack[-1]) + 1) * n_t, dtype=np.int64)
    run_mask = np.zeros(key.size, dtype=np.int64)
    free = np.zeros(key.size, dtype=np.int64)
    bounds = np.r_[0, np.cumsum(np.bincount(key, minlength=nj * nr + 1))]
    for lo, hi in zip(bounds[: nj * nr], bounds[1 : nj * nr + 1]):
        a, rr = at[lo:hi], run[lo:hi]
        used_a, used_r = at_mask[a], run_mask[rr]
        f = ~(used_a | used_r) & ((used_a | used_r) + 1)
        at_mask[a] = used_a | f
        run_mask[rr] = used_r | f
        free[lo:hi] = f
    sorted_colour = np.empty(key.size, dtype=np.int64)
    sorted_colour[by_round] = np.frexp(free)[1] - 1  # -1 where free is 0
    colour = np.empty(vals.shape, dtype=np.int64)
    np.put_along_axis(colour, order, sorted_colour.reshape(nsl, n_t), axis=1)
    return colour


# ----------------------------------------------------------------------
# one column-group stack (the log^2-column four-Russians step)
# ----------------------------------------------------------------------


def _stack_layers(vals, colour, widths, ctrl_wires, tgt_wires, p_rows, copy_rows,
                  with_undo=True, parity=0):
    """Layers writing a stack's slices (``vals`` and their paste colours,
    slices x targets, slice g reading the next widths[g] control wires)
    into the target rows; machinery is restored when ``with_undo`` (a
    caller reversing the whole stack skips it).

    The P rows, 2^kb - 1 per slice, fill ``p_rows`` from its front; the
    copies of _paste_layers go to ``copy_rows``, in its half of index
    ``parity`` (the group's parity) where they fit in half of it, so that
    consecutive groups copy on disjoint rows.
    """
    ctrl = np.asarray(ctrl_wires, dtype=np.int64)
    tgt = np.asarray(tgt_wires, dtype=np.int64)
    p_rows = np.asarray(p_rows, dtype=np.int64)
    copy_rows = np.asarray(copy_rows, dtype=np.int64)
    widths = np.asarray(widths, dtype=np.int64)
    offs = np.cumsum(widths) - widths
    nv = 1 << int(widths.max())

    # step 1: P blocks of all nonzero kb-bit sums, one template layer for
    # all slices of a width at a time
    block_len = (1 << widths) - 1
    p_off = np.cumsum(block_len) - block_len
    step1: list = []
    for kb in dict.fromkeys(widths.tolist()):
        gs = np.flatnonzero(widths == kb)
        wire_map = np.concatenate(
            [ctrl[offs[gs, None] + np.arange(kb)],
             p_rows[p_off[gs, None] + np.arange((1 << kb) - 1)]],
            axis=1,
        )
        step1.extend(wire_map[:, arr].reshape(-1, 2) for arr in _p_template(kb))

    # steps 2 and 3: every (slice, value) in use is a source read from its
    # P row, pasted into each of its targets in that paste's colour
    gg, rows = np.nonzero(vals)
    cell = gg * nv + vals[gg, rows]
    present = np.bincount(cell, minlength=len(widths) * nv) > 0
    cells = np.flatnonzero(present)
    step2, step3, _ = _paste_layers(
        (np.cumsum(present) - 1)[cell], colour[gg, rows], tgt[rows],
        p_rows[p_off[cells // nv] + cells % nv - 1], copy_rows, parity,
    )

    if not with_undo:
        return step1 + step2 + step3
    return step1 + step2 + step3 + list(reversed(step1 + step2))


def _pick_k(n: int, room: int = 0) -> int:
    """Slice width: floor(log2(room) / 2), room n unless given, lowered
    until the narrowest stack, 2k slices of 2^k - 1 P rows each, takes two
    P spans and n copy rows within its 3n work wires, 2k(2^k - 1) <= n (at
    k = 1 it always does: a stack of one or two 1-bit slices).  The room of
    an embedding is its (3s+2)n wires (_slices)."""
    k = max(1, (max(room or n, 2).bit_length() - 1) // 2)
    while k > 1 and 2 * k * ((1 << k) - 1) > n:
        k -= 1
    return k


def _copy_rows(w: int, r: int, n: int) -> int:
    """Copy rows that a stack of w slices, pastes in runs of r, can need:
    ceil(w*n/r) (_paste_colours)."""
    return -(-w * n // r)


def _partial_runs(w: int, n: int, k: int) -> int:
    """Shortest runs, w + r <= 64, for which a partial stack of w slices
    of width k fits its two P spans and twice its copy rows in its 2n
    machinery wires (None if none do)."""
    pk = (1 << k) - 1
    return next((r for r in range(1, 65 - w) if w * pk + _copy_rows(w, r, n) <= n), None)


def _layout(n: int, s: int, k: int) -> list:
    """(w, r, c) per stack of a column group of k-bit slices, in stack
    order: w slices, the pastes of each (slice, value) cut into runs of r,
    and c copy rows.  Stack i owns the work wires after those of stacks
    0..i-1, from 2n: its n-row partial block (stacks 1..s-1 only), two P
    spans of w(2^k - 1) wires and its c copy rows; each stack stays within
    3n wires, so all within the 3sn work wires, and w + r <= 64.  Every k
    that _pick_k returns for n lays out (2k(2^k - 1) <= n).

    Stack 0 pastes in runs of k + _pick_k(n): 2k at the narrower width
    _pick_k(n), one shorter for each bit by which _slices widens k, whose
    wider slices give each source fewer pastes, so that shorter runs save
    paste colours for few extra copies.  It spends its 3n wires on width:
    the widest stack of at least one run's slices whose spans and
    ceil(w*n/r) copy rows fit.  A partial stack pastes twice, into its
    block and back out, so it is narrower, 3/8 of stack 0, with the
    shortest runs for which twice its copy rows fit; a group's copies
    always fit in half of them, so consecutive groups copy on disjoint
    rows.  Where that leaves the partial stacks two or three groups to
    carry (the slices past each group's stack 0), they widen to the least
    width that carries one group fewer: a last group that stack 0 covers
    alone costs little, a group with partial stacks a fan-in and a
    reversal.
    """
    pk = (1 << k) - 1
    nsl = -(-n // k)
    r0 = min(k + _pick_k(n), nsl)
    w0 = max(w for w in range(r0, 65 - r0) if 2 * w * pk + _copy_rows(w, r0, n) <= 3 * n)
    w0 = min(w0, nsl)
    stacks = [(w0, r0, _copy_rows(w0, r0, n))]
    if s > 1:
        wp, rest = max(1, 3 * w0 // 8), nsl - w0
        groups = -(-rest // (w0 + (s - 1) * wp))
        if 2 <= groups <= 3:
            per_group = -(-rest // (groups - 1))  # slices, one group fewer
            wide = -(-(per_group - w0) // (s - 1))
            if wide <= w0 and _partial_runs(wide, n, k):
                wp = wide
        rp = _partial_runs(wp, n, k)
        stacks += [(wp, rp, 2 * _copy_rows(wp, rp, n))] * (s - 1)
    return stacks


@lru_cache(maxsize=None)
def _p_template(kb: int) -> tuple:
    """P-block build layers on virtual wires [ctrl | P rows], row v (the sum
    of the controls in v's bit mask) at offset kb + v - 1, translated per
    slice with one gather: a doubling subset-sum tree of 2^(kb+1) - kb - 2
    gates and no scratch rows.  For each bit b, a copy tree writes control
    b into rows 2^(b+1) - 1 down to 2^b, every wire holding it feeding one
    new row per round, and one layer adds row u into row 2^b + u for
    1 <= u < 2^b.  The last round only writes row 2^b, which no add
    touches, so the add runs beside it and the build, levelled here once
    by commutation (which gives it the as-soon-as-possible levels),
    takes kb layers (kb + 1, and deeper circuits, with row 2^b written
    first).  The layers are intp arrays, which index faster than int32."""
    nz = (1 << kb) - 1
    top_down = np.arange(kb)[::-1]
    seq = _doubling_rounds(top_down, 1 << top_down, kb - 1 + np.arange(nz, 0, -1))
    for b in range(1, kb):
        low = np.arange(kb, kb + (1 << b) - 1)  # rows 1 .. 2^b - 1
        seq.append(np.stack([low, low + (1 << b)], axis=1))
    level_commuting(seq, kb + nz)
    out = tuple(arr.astype(np.intp) for arr in seq)
    for arr in out:
        arr.setflags(write=False)  # shared by every caller through the cache
    return out


# ----------------------------------------------------------------------
# s-way parallelisation, sequential embedding, full synthesis
# ----------------------------------------------------------------------


def _fanin_layers(partial_bases: list, tgt_base: int, n_t: int) -> list:
    """Tree-add the partial blocks (none to s-1 of them) into the target
    rows, then restore the partials by reversing the tree."""
    if not partial_bases:
        return []
    rows = np.arange(n_t, dtype=np.int64)
    return _fold_layers([base + rows for base in partial_bases], tgt_base + rows)


def _group_layers(vals, colour, widths, k, ctrl_base, tgt_base, stacks, parity=0):
    """One group of at most s stacks (``vals`` and their paste colours,
    slices x n targets, read from the control wires from ``ctrl_base``)
    on the work regions of ``stacks`` (_layout), laid one after another
    from wire 2n: stack 0 takes its whole region as machinery, pastes
    straight into the target rows and undoes its machinery; stacks 1..s-1
    paste into partial blocks, the first n wires of their regions, fanned
    in before their builds reverse.  Each stack builds its P rows in the
    P span of ``parity`` (the group's parity within its embedding), and
    makes its copies in the half of its copy rows of that parity where
    they fit (_stack_layers)."""
    n = vals.shape[1]
    pk = (1 << k) - 1
    direct, build, partials = [], [], []
    start, g0 = 2 * n, 0
    for i, (w, _, c) in enumerate(stacks):
        if g0 >= len(widths):
            break
        g1 = g0 + w
        if i == 0:
            tgts = np.arange(tgt_base, tgt_base + n)
        else:
            tgts = np.arange(start, start + n)
            partials.append(start)
            start += n
        span = w * pk
        c0 = ctrl_base + k * g0
        sub = _stack_layers(
            vals[g0:g1], colour[g0:g1], widths[g0:g1],
            np.arange(c0, c0 + int(widths[g0:g1].sum())), tgts,
            np.arange(start + parity * span, start + (parity + 1) * span),
            np.arange(start + 2 * span, start + 2 * span + c),
            with_undo=i == 0, parity=parity,
        )
        (build if i else direct).extend(sub)
        start += 2 * span + c
        g0 = g1
    return direct + build + _fanin_layers(partials, tgt_base, n) + list(reversed(build))


def _p_row_use(widths, vals) -> float:
    """Share of the P rows of the slices (2^w - 1 per slice of width w)
    that some paste of ``vals`` reads: the (slice, nonzero value) sources
    present over the rows built."""
    nv = 1 << int(widths.max())
    cell = (np.arange(len(widths)) * nv)[:, None] + vals
    present = np.bincount(cell[vals > 0], minlength=len(widths) * nv) > 0
    return np.count_nonzero(present) / int(((1 << widths) - 1).sum())


def _group_count(nsl: int, stacks) -> int:
    """Column groups that carry nsl slices on ``stacks`` (_layout)."""
    return -(-nsl // sum(w for w, _, _ in stacks))


# the wider slices are taken where the input reads at least this share of
# their P rows, and their layout runs at least this many column groups
_P_ROW_USE = 0.9
_MIN_GROUPS = 5


def _slices(m_dense, s: int) -> tuple:
    """(k, widths, vals, stacks): the slice width, _slice_values and
    _layout of one embedding of the n x n matrix M at scale s.

    k is _pick_k(n, (3s+2)n), which grows with the room, where M's slices
    of that width read at least _P_ROW_USE of their P rows (_p_row_use)
    and its layout runs at least _MIN_GROUPS column groups, and the
    narrower _pick_k(n) otherwise.  A P block is built whether or not a
    paste reads it: random matrices read every row, structured ones
    (permutations, triangles, sparse or dense blocks) far fewer, and pay
    for the wider blocks in depth.  With many stacks to few groups (s =
    max_scale(n), 2 to 4 groups) the wider slices were deeper too."""
    n = m_dense.shape[0]
    k = _pick_k(n, (3 * s + 2) * n)
    if k > _pick_k(n):
        stacks = _layout(n, s, k)
        if _group_count(-(-n // k), stacks) >= _MIN_GROUPS:
            widths, vals = _slice_values(m_dense, k)
            if _p_row_use(widths, vals) >= _P_ROW_USE:
                return k, widths, vals, stacks
        k = _pick_k(n)
    return (k, *_slice_values(m_dense, k), _layout(n, s, k))


def _embed_layers(m_dense, s: int, ctrl_base: int, tgt_base: int) -> list:
    """Layers adding the n x n matrix M (columns read from ctrl wires) into
    the target rows, work region restored; the pastes of every stack are
    coloured together, each stack with its own width and runs.  The slice
    width and the work region are chosen once (_slices) and every group
    uses the same stacks.  Column groups are emitted one after another,
    group gi building its P rows (and, where they fit in half, making its
    copies) in region gi % 2 of each stack, so that one group's build and
    copy fan-out overlap the previous group's pastes and undo once
    levelled."""
    k, widths, vals, stacks = _slices(m_dense, s)
    per_group = sum(w for w, _, _ in stacks)  # slices
    groups = _group_count(len(widths), stacks)
    colour = _paste_colours(vals, [w for w, _, _ in stacks] * groups,
                            [r for _, r, _ in stacks] * groups)
    layers = []
    for gi, g0 in enumerate(range(0, len(widths), per_group)):
        g1 = g0 + per_group
        layers.extend(
            _group_layers(vals[g0:g1], colour[g0:g1], widths[g0:g1], k,
                          ctrl_base + k * g0, tgt_base, stacks, parity=gi % 2)
        )
    return layers


def synth_with_ancillae(m: F2Matrix, s: int, seed: int = 0) -> Circuit:
    """Synthesise ``m`` on n data wires plus (3s+1)n ancillae.

    Composition: embed M into the mirror block, embed M^-1 back onto the
    data block (mirror wires as controls), then swap the two n-wire blocks
    with three n-gate layers, (i -> n+i), (n+i -> i), (i -> n+i); the
    whole sequence is levelled once, by commutation (level_commuting).
    The construction is deterministic: ``seed`` is accepted for callers
    that pass one to every method, and has no effect.
    """
    if m.rows != m.cols:
        raise DimensionMismatch("square matrix required")
    n = m.rows
    if s < 1:
        raise DimensionMismatch("need n >= 1 and s >= 1")
    cap = max_scale(n)
    if s > cap:
        warnings.warn(f"ancilla scale {s} clamped to {cap} (= n/log2(n)^2)")
        s = cap
    minv = invert(m)
    layers = _embed_layers(m.to_dense(), s, 0, n)
    layers += _embed_layers(minv.to_dense(), s, n, 0)
    swap = np.stack([np.arange(n), np.arange(n, 2 * n)], axis=1)
    layers += [swap, swap[:, ::-1], swap]
    return levelled_circuit(layers, (3 * s + 2) * n, n)
