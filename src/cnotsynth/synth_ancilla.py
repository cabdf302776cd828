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
layer.  One scheduler, _paste_layers, serves both copy-and-paste steps:
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
from .errors import DimensionMismatch, LayoutError
from .f2 import F2Matrix, invert
from .synth_free import _split_by, permutation_layers

_PLAIN_LIMIT = 3  # below this the four-Russians machinery cannot pay rent


# ----------------------------------------------------------------------
# layout: n data wires, an n-wire mirror block and a 3sn-wire work block;
# stack i of a column group owns the 3n work wires from 2n + 3ni
# ----------------------------------------------------------------------


def max_scale(n: int) -> int:
    """Largest admissible s, floor(n / log2(n)^2)."""
    if n < 2:
        return 1
    return max(1, int(n / (math.log2(n) ** 2)))


def copy_cap(n: int) -> int:
    """Each copy row is reused at most 2*ceil(log2 n) times."""
    return 2 * max(1, math.ceil(math.log2(max(n, 2))))


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
    order, at the front of ``spare``.  Returns (build, paste, extra): the
    copy fan-out layers, one paste array per colour present in colour
    order, and the extra copies per source.

    Raises:
        LayoutError: if ``spare`` cannot hold the copies.
    """
    ncol = int(colour.max(initial=-1)) + 1
    cls = source * ncol + colour
    order = _stable_order(cls, roots.size * ncol)
    idx = np.arange(cls.size)
    new_run = np.r_[True, cls[order[1:]] != cls[order[:-1]]]
    rank = np.empty_like(idx)
    rank[order] = idx - np.maximum.accumulate(np.where(new_run, idx, 0))
    extra = np.zeros(roots.size, dtype=np.int64)
    np.maximum.at(extra, source, rank)
    n_copies = int(extra.sum())
    if n_copies > len(spare):
        raise LayoutError("no room for the copies")
    copies = spare[:n_copies]
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
# one column-group stack (the log^2-column four-Russians step)
# ----------------------------------------------------------------------


def _slice_widths(total: int, k: int) -> list:
    widths = [k] * (total // k)
    if total % k:
        widths.append(total % k)
    return widths


def _stack_layers(y_dense, widths, ctrl_wires, tgt_wires, mach, c_cap, rng, with_undo=True):
    """Layers writing y (rows = targets, columns = sum(widths) controls,
    cut into consecutive slices of the given widths) into the target rows;
    machinery is restored when ``with_undo`` (a caller reversing the whole
    stack skips it).

    Machinery holds, per slice, its P rows and their build scratch, then
    the copy rows of _paste_layers, contiguous per (slice, value).
    Schedule: target i takes colour (g + salt[i]) mod c_cap in slice g, so
    its colours are distinct across slices.
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

    # steps 2 and 3: every (slice, value) in use is a source read from its
    # P row, and target i pastes it in colour (g + salt[i]) mod c_cap
    gg, rows = np.nonzero(vals.T)
    cell = gg * nv + vals[rows, gg]
    present = np.bincount(cell, minlength=ngroups * nv) > 0
    cells = np.flatnonzero(present)
    step2, step3, _ = _paste_layers(
        (np.cumsum(present) - 1)[cell], (gg + salt[rows]) % c_cap, tgt[rows],
        mach[p_off[cells // nv] + cells % nv - 1], mach[used:],
    )

    if not with_undo:
        return step1 + step2 + step3
    return step1 + step2 + step3 + list(reversed(step1 + step2))


def _pick_k(n: int, mach_len: int) -> int:
    k = max(1, (max(n, 2).bit_length() - 1) // 2)
    while k > 1:
        _, nz, s_len = _p_template(k)
        if 2 * k * (nz + s_len) <= mach_len // 2:
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


def _group_layers(dense_group, n, ctrl_wires, tgt_base, k, rng):
    """One group of <= s*2k^2 columns, s stacks on disjoint wires: stack 0
    takes its whole region as machinery, pastes straight into the target
    rows and undoes its machinery; stacks 1..s-1 paste into partial blocks,
    the first n wires of their regions, fanned in before their builds
    reverse."""
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
        sub = _stack_layers(
            dense_group[:, c0 : c0 + width], _slice_widths(width, k),
            ctrl_wires[c0 : c0 + width], tgts, mach, copy_cap(n), rng, with_undo=i == 0,
        )
        (build if i else direct).extend(sub)
    return direct + build + _fanin_layers(partials, tgt_base, n) + list(reversed(build))


def _plain_layers(m_dense, ctrl_base, tgt_base) -> list:
    """One gate per set bit, column by column, each gate its own array."""
    cols, rows = np.nonzero(m_dense.T)
    return list(np.stack([ctrl_base + cols, tgt_base + rows], axis=1)[:, None])


def _embed_layers(m_dense, s: int, ctrl_base: int, tgt_base: int, seed: int) -> list:
    """Layers adding the n x n matrix M (columns read from ctrl wires) into
    the target rows, work region restored; column groups of s*2k^2 run
    sequentially."""
    n = m_dense.shape[0]
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
                        m_dense[:, g0 : g0 + width], n,
                        list(range(ctrl_base + g0, ctrl_base + g0 + width)),
                        tgt_base, k, rng,
                    )
                )
            return layers
        except LayoutError:
            continue
    return _plain_layers(m_dense, ctrl_base, tgt_base)


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
    if s < 1:
        raise DimensionMismatch("need n >= 1 and s >= 1")
    cap = max_scale(n)
    if s > cap:
        warnings.warn(f"ancilla scale {s} clamped to {cap} (= n/log2(n)^2)")
        s = cap
    wires = (3 * s + 2) * n
    minv = invert(m)
    layers = _embed_layers(m.to_dense(), s, 0, n, seed)
    layers += _embed_layers(minv.to_dense(), s, n, 0, seed + 1)
    swap = np.arange(wires)
    swap[:n] = np.arange(n, 2 * n)
    swap[n : 2 * n] = np.arange(n)
    layers += [l.pairs for l in permutation_layers(swap).layers]
    return levelled_circuit(layers, wires, n)
