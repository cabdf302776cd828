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
every target row.  The pastes of the whole embedding are coloured once
(_paste_colours): each (slice, value) source's pastes are cut into runs of
2k, and a greedy gives every paste a colour free at its target and in its
run, so at most 4k-1 colours are used and no stack makes more than n
copies.  One scheduler, _paste_layers, serves both copy-and-paste steps:
the P block's build from the control rows and the stack's pastes from
the P rows.  Stack 0 adds straight into the target rows and undoes its
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
from functools import lru_cache

import numpy as np

from .circuit import Circuit, _fold_layers, _stable_order, levelled_circuit
from .errors import DimensionMismatch
from .f2 import F2Matrix, invert
from .synth_free import _split_by, permutation_layers


# ----------------------------------------------------------------------
# layout: n data wires, an n-wire mirror block and a 3sn-wire work block;
# stack i of a column group owns the 3n work wires from 2n + 3ni
# ----------------------------------------------------------------------


def max_scale(n: int) -> int:
    """Largest admissible s, floor(n / log2(n)^2)."""
    if n < 2:
        return 1
    return max(1, int(n / (math.log2(n) ** 2)))


# ----------------------------------------------------------------------
# sparse block construction (doubling copies of control rows)
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


def _paste_layers(source, colour, tgt, roots, spare) -> tuple:
    """Copy-and-paste schedule: paste i adds wire roots[source[i]] into
    wire tgt[i] in the layer of colour[i].  Within a (source, colour) class
    the paste of rank r, in the order given, reads copy r of its source,
    copy 0 being the root; so a source gets as many extra copies as its
    largest class, less one, which sit contiguously per source, in source
    order, at the front of ``spare``, which must hold them.  Returns
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
    copies = spare[: int(extra.sum())]
    src = roots[source]
    from_copy = rank > 0
    src[from_copy] = copies[(np.cumsum(extra) - extra)[source[from_copy]] + rank[from_copy] - 1]
    paste = _split_by(colour, np.stack([src, tgt], axis=1), ncol)
    return _doubling_rounds(roots, extra, copies), paste, extra


def _sparse_layers(vals, kb, ctrl_wires, tgt_wires, scratch_wires) -> tuple:
    """Layers adding, to each target wire, the subset-sum of the control
    wires given by its value's bit mask, and the number of scratch wires
    used.  Target t takes its set bits in weight order, one per paste
    layer; scratch holds the copies of the control rows and is built and
    restored around the pastes."""
    bits = (np.asarray(vals, dtype=np.int64)[:, None] >> np.arange(kb)) & 1
    ti, b = np.nonzero(bits)
    build, paste, extra = _paste_layers(
        b, (np.cumsum(bits, axis=1) - 1)[ti, b], np.asarray(tgt_wires, dtype=np.int64)[ti],
        np.asarray(ctrl_wires, dtype=np.int64)[:kb], np.asarray(scratch_wires, dtype=np.int64),
    )
    return build + paste + build[::-1], int(extra.sum())


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


def _paste_colours(vals, g: int) -> np.ndarray:
    """Paste colour of every nonzero entry of ``vals`` (slices x targets),
    -1 elsewhere, for stacks of g consecutive slices.

    A source is a (slice, value) pair; its pastes are cut, in target order,
    into runs of g.  Round (j, p) colours the pastes of slice j of every
    stack that sit at position p of their run, each with the least colour
    free both at its target in its stack and in its run; no two pastes of a
    round share either, so the round is one gather and one scatter.  A
    paste sees at most g-1 colours at its target and g-1 in its run, so
    the colours stay below 2g-1.  A (source, colour) class holds at most
    one paste per run, so a source of degree d needs at most ceil(d/g)-1
    copies, and a stack's pastes, at most g per target, need at most one
    copy per target in all.
    """
    nsl, n_t = vals.shape
    order = np.argsort(vals, axis=1, kind="stable")
    v = np.take_along_axis(vals, order, axis=1)
    idx = np.arange(n_t)
    first = np.maximum.accumulate(np.where(np.diff(v, axis=1, prepend=0) > 0, idx, 0), axis=1)
    pos = (idx - first) % g
    # round of each entry in the sorted layout; zero entries go to round g*g,
    # which is not run
    key = np.where(v > 0, (np.arange(nsl) % g * g)[:, None] + pos, g * g).ravel()
    by_round = _stable_order(key, g * g + 1)
    at = ((np.arange(nsl) // g * n_t)[:, None] + order).ravel()[by_round]
    run = (np.arange(key.size) - pos.ravel())[by_round]
    at_mask = np.zeros(-(-nsl // g) * n_t, dtype=np.int64)
    run_mask = np.zeros(key.size, dtype=np.int64)
    free = np.zeros(key.size, dtype=np.int64)
    bounds = np.r_[0, np.cumsum(np.bincount(key, minlength=g * g + 1))]
    for lo, hi in zip(bounds[: g * g], bounds[1 : g * g + 1]):
        a, r = at[lo:hi], run[lo:hi]
        used_a, used_r = at_mask[a], run_mask[r]
        f = ~(used_a | used_r) & ((used_a | used_r) + 1)
        at_mask[a] = used_a | f
        run_mask[r] = used_r | f
        free[lo:hi] = f
    sorted_colour = np.empty(key.size, dtype=np.int64)
    sorted_colour[by_round] = np.frexp(free)[1] - 1  # -1 where free is 0
    colour = np.empty(vals.shape, dtype=np.int64)
    np.put_along_axis(colour, order, sorted_colour.reshape(nsl, n_t), axis=1)
    return colour


# ----------------------------------------------------------------------
# one column-group stack (the log^2-column four-Russians step)
# ----------------------------------------------------------------------


def _stack_layers(vals, colour, widths, ctrl_wires, tgt_wires, mach, with_undo=True):
    """Layers writing a stack's slices (``vals`` and their paste colours,
    slices x targets, slice g reading the next widths[g] control wires)
    into the target rows; machinery is restored when ``with_undo`` (a
    caller reversing the whole stack skips it).

    Machinery holds, per slice, its P rows and their build scratch, then
    the copy rows of _paste_layers, contiguous per (slice, value).  _pick_k
    keeps the first part within n wires and _paste_colours the second, so
    2n machinery wires always suffice.
    """
    ctrl = np.asarray(ctrl_wires, dtype=np.int64)
    tgt = np.asarray(tgt_wires, dtype=np.int64)
    mach = np.asarray(mach, dtype=np.int64)
    widths = np.asarray(widths, dtype=np.int64)
    offs = np.cumsum(widths) - widths
    nv = 1 << int(widths.max())

    # step 1: P blocks of all nonzero kb-bit sums, one template layer for
    # all slices of a width at a time
    tmpls = [_p_template(kb) for kb in widths.tolist()]
    block_len = np.asarray([nz + s_len for _, nz, s_len in tmpls], dtype=np.int64)
    p_off = np.cumsum(block_len) - block_len
    used = int(block_len.sum())
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

    # steps 2 and 3: every (slice, value) in use is a source read from its
    # P row, pasted into each of its targets in that paste's colour
    gg, rows = np.nonzero(vals)
    cell = gg * nv + vals[gg, rows]
    present = np.bincount(cell, minlength=len(widths) * nv) > 0
    cells = np.flatnonzero(present)
    step2, step3, _ = _paste_layers(
        (np.cumsum(present) - 1)[cell], colour[gg, rows], tgt[rows],
        mach[p_off[cells // nv] + cells % nv - 1], mach[used:],
    )

    if not with_undo:
        return step1 + step2 + step3
    return step1 + step2 + step3 + list(reversed(step1 + step2))


def _pick_k(n: int) -> int:
    """Slice width: floor(log2(n) / 2), lowered until a stack's 2k slices of
    P rows and build scratch fit in n wires (at k = 1 they always do: a
    stack of one or two 1-bit slices)."""
    k = max(1, (max(n, 2).bit_length() - 1) // 2)
    while k > 1:
        _, nz, s_len = _p_template(k)
        if 2 * k * (nz + s_len) <= n:
            break
        k -= 1
    return k


@lru_cache(maxsize=None)
def _p_template(kb: int):
    """P-block build layers on virtual wires [ctrl | P rows | scratch],
    translated per slice with one gather, and the P rows and scratch rows
    used.  The scratch offered, kb * nz rows, is at least the kb * 2^(kb-1)
    pastes, so it never runs short."""
    nz = (1 << kb) - 1
    layers, s_len = _sparse_layers(
        range(1, nz + 1), kb, range(kb), range(kb, kb + nz), range(kb + nz, kb + nz + kb * nz)
    )
    return tuple(layers), nz, s_len


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


def _group_layers(vals, colour, widths, k, ctrl_base, tgt_base):
    """One group of at most s stacks of 2k slices (``vals`` and their paste
    colours, slices x n targets, read from the control wires from
    ``ctrl_base``) on disjoint wires: stack 0 takes its whole region as
    machinery, pastes straight into the target rows and undoes its
    machinery; stacks 1..s-1 paste into partial blocks, the first n wires
    of their regions, fanned in before their builds reverse."""
    n = vals.shape[1]
    direct, build, partials = [], [], []
    for i, g0 in enumerate(range(0, len(widths), 2 * k)):
        g1 = g0 + 2 * k
        region = 2 * n + 3 * n * i
        if i == 0:
            tgts, mach = np.arange(tgt_base, tgt_base + n), np.arange(region, region + 3 * n)
        else:
            tgts, mach = np.arange(region, region + n), np.arange(region + n, region + 3 * n)
            partials.append(region)
        c0 = ctrl_base + k * g0
        sub = _stack_layers(
            vals[g0:g1], colour[g0:g1], widths[g0:g1],
            np.arange(c0, c0 + int(widths[g0:g1].sum())), tgts, mach, with_undo=i == 0,
        )
        (build if i else direct).extend(sub)
    return direct + build + _fanin_layers(partials, tgt_base, n) + list(reversed(build))


def _embed_layers(m_dense, s: int, ctrl_base: int, tgt_base: int) -> list:
    """Layers adding the n x n matrix M (columns read from ctrl wires) into
    the target rows, work region restored; the pastes of every stack are
    coloured together, and column groups of s*2k^2 run sequentially."""
    k = _pick_k(m_dense.shape[0])
    widths, vals = _slice_values(m_dense, k)
    colour = _paste_colours(vals, 2 * k)
    per_group = s * 2 * k  # slices
    layers = []
    for g0 in range(0, len(widths), per_group):
        g1 = g0 + per_group
        layers.extend(
            _group_layers(vals[g0:g1], colour[g0:g1], widths[g0:g1], k,
                          ctrl_base + k * g0, tgt_base)
        )
    return layers


def synth_with_ancillae(m: F2Matrix, s: int, seed: int = 0) -> Circuit:
    """Synthesise ``m`` on n data wires plus (3s+1)n ancillae.

    Composition: embed M into the mirror block, embed M^-1 back onto the
    data block (mirror wires as controls), then swap the two n-wire blocks
    with one transposition layer triple; the whole sequence is levelled
    once.  The construction is deterministic: ``seed`` is accepted for
    callers that pass one to every method, and has no effect.
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
    wires = (3 * s + 2) * n
    minv = invert(m)
    layers = _embed_layers(m.to_dense(), s, 0, n)
    layers += _embed_layers(minv.to_dense(), s, n, 0)
    swap = np.arange(wires)
    swap[:n] = np.arange(n, 2 * n)
    swap[n : 2 * n] = np.arange(n)
    layers += [l.pairs for l in permutation_layers(swap).layers]
    return levelled_circuit(layers, wires, n)
