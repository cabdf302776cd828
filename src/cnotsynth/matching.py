"""Decompose a bounded-degree bipartite multigraph into at most max-degree
matchings (a proper edge colouring, constructive Koenig).

Each edge carries an opaque tag so callers can map matchings back to the
row/column bookkeeping they encode.  The colouring core works on plain
index arrays; the synthesisers call it directly on their (row, column)
edge lists.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .circuit import _stable_order


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite multigraph; edges are (left vertex, right vertex, tag).

    Reference for acceptance criterion 8; no synthesiser calls it.
    """

    left_count: int
    right_count: int
    edges: tuple

    def __init__(self, left_count: int, right_count: int, edges: Sequence):
        norm = []
        for e in edges:
            u, v = int(e[0]), int(e[1])
            tag: Any = e[2] if len(e) > 2 else None
            if not (0 <= u < left_count and 0 <= v < right_count):
                raise ValueError(f"edge ({u},{v}) out of range")
            norm.append((u, v, tag))
        object.__setattr__(self, "left_count", left_count)
        object.__setattr__(self, "right_count", right_count)
        object.__setattr__(self, "edges", tuple(norm))


def max_degree(g: BipartiteGraph) -> int:
    """Reference for acceptance criterion 8; no synthesiser calls it."""
    degl = [0] * g.left_count
    degr = [0] * g.right_count
    for u, v, _ in g.edges:
        degl[u] += 1
        degr[v] += 1
    return max(max(degl, default=0), max(degr, default=0))


# widest palette of the numpy rounds: a class's free colours at a vertex
# are the low bits of one int64 mask
_MASK_COLOURS = 62
# edges coloured together: the rounds gather at random from arrays over a
# group's edges and vertices, which stay in cache at this size (at n=4096,
# groups of 2^15 edges took a quarter less time than whole stages)
_GROUP_EDGES = 1 << 15


def color_edges(us, vs, left_count: int, right_count: int, classes=None) -> np.ndarray:
    """Proper edge colourings of bipartite multigraphs, one colour index per
    edge; each graph uses at most its maximum degree colours.

    Edge i joins left vertex us[i] < left_count and right vertex
    vs[i] < right_count of graph classes[i] (one graph when ``classes`` is
    None).  The graphs share no vertex: their vertex ids are offset per
    class, and each class has its own palette, numbered from 0.

    The result is the colouring that takes each class's edges one at a
    time, in the order given, each edge the lowest colour free at both its
    ends, a Kempe path flipped first where they share none.  Most of it is
    found in numpy rounds: every left vertex offers its next edge, and the
    right vertex keeps the offer when it is its next edge too, so an edge
    is coloured after every edge given before it at either end.  A kept
    edge takes the lowest colour free at both ends, read from int64 masks
    per vertex.  From a class's first edge with no common free colour on,
    its edges go through the Kempe loop (_kempe_insert), which also colours
    every edge of a class whose degree exceeds the mask width.  Classes are
    coloured in groups of about _GROUP_EDGES edges.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    cls = np.zeros(us.size, dtype=np.int64) if classes is None else np.asarray(classes, dtype=np.int64)
    ncls = int(cls.max(initial=-1)) + 1
    # whole classes, in class order, about _GROUP_EDGES edges to a group
    sizes = np.bincount(cls, minlength=ncls)
    group_of = (np.cumsum(sizes) - sizes) // _GROUP_EDGES
    if group_of.max(initial=0) == 0:
        # one group needs no split: this skips the group sort and the
        # gathers, about 9 % of the colouring time at n=1024
        return _colour_group(us, vs, left_count, right_count, cls, ncls)
    ngroups = int(group_of[-1]) + 1
    group = group_of[cls]
    order = _stable_order(group, ngroups)
    first = np.searchsorted(group_of, np.arange(ngroups + 1))  # first class of each group
    colour = np.empty(us.size, dtype=np.int64)
    for g, mine in enumerate(np.split(order, np.cumsum(np.bincount(group, minlength=ngroups))[:-1])):
        if mine.size:
            c0 = int(first[g])
            colour[mine] = _colour_group(us[mine], vs[mine], left_count, right_count, cls[mine] - c0, int(first[g + 1]) - c0)
    return colour


def _colour_group(us, vs, left_count: int, right_count: int, cls, ncls: int) -> np.ndarray:
    """color_edges on classes 0..ncls-1, their edges in the order given."""
    gl = cls * left_count + us
    gr = cls * right_count + vs
    degl = np.bincount(gl, minlength=ncls * left_count).reshape(ncls, left_count)
    degr = np.bincount(gr, minlength=ncls * right_count).reshape(ncls, right_count)
    delta = np.maximum(degl.max(axis=1, initial=0), degr.max(axis=1, initial=0))
    masks = (np.int64(1) << np.minimum(delta, _MASK_COLOURS)) - 1
    free_l = np.repeat(masks, left_count)
    free_r = np.repeat(masks, right_count)

    # Each edge's predecessor and successor among the edges of its left
    # vertex, and of its right vertex, in the order given, link the rounds:
    # after the first, only the successors of the edges just taken can be
    # next at both ends.  Index n stands for "no such edge", whose round is
    # -1 as a predecessor; a successor n has predecessor n + 1, never taken.
    # Edges of a class too wide for the masks are never taken.
    n = us.size
    lprev, lnext = _queue_links(gl, ncls * left_count)
    rprev, rnext = _queue_links(gr, ncls * right_count)
    when = np.full(n + 2, n)  # round each edge was taken in, n if not yet
    when[n] = -1
    bit = np.zeros(n, dtype=np.int64)  # colour bit taken, 0 if none was free
    cur = np.flatnonzero((lprev[:n] == n) & (rprev[:n] == n) & (delta[cls] <= _MASK_COLOURS))
    rnd = 0
    while cur.size:
        u, v = gl[cur], gr[cur]
        fl, fr = free_l[u], free_r[v]
        common = fl & fr
        low = common & -common
        bit[cur] = low
        free_l[u] = fl ^ low
        free_r[v] = fr ^ low
        when[cur] = rnd
        # a left successor is next at both ends once its right predecessor
        # is taken; a right successor whose left predecessor was taken in
        # this round is among the left successors already
        a = lnext[cur]
        b = rnext[cur]
        cur = np.concatenate([a[when[rprev[a]] <= rnd], b[when[lprev[b]] < rnd]])
        rnd += 1
    colour = np.frexp(bit.astype(np.float64))[1].astype(np.int64) - 1  # frexp(0) gives -1

    # the edges after a class's first uncoloured one give their colours back
    first = np.full(ncls, us.size, dtype=np.int64)
    np.minimum.at(first, cls[colour < 0], np.flatnonzero(colour < 0))
    undo = np.flatnonzero((np.arange(us.size) > first[cls]) & (colour >= 0))
    np.bitwise_xor.at(free_l, gl[undo], np.int64(1) << colour[undo])
    np.bitwise_xor.at(free_r, gr[undo], np.int64(1) << colour[undo])
    colour[undo] = -1

    # the Kempe loop runs over the classes left with uncoloured edges, their
    # vertices renumbered class by class and their tables built here
    redo = np.flatnonzero(first < us.size)
    if redo.size:
        slot = np.full(ncls, -1, dtype=np.int64)
        slot[redo] = np.arange(redo.size)
        sel = np.flatnonzero(slot[cls] >= 0)
        lu = slot[cls[sel]] * left_count + us[sel]
        lv = slot[cls[sel]] * right_count + vs[sel]
        stride = int(delta[redo].max())
        done = np.flatnonzero(colour[sel] >= 0)
        at_l = np.full(redo.size * left_count * stride, -1, dtype=np.int64)
        at_r = np.full(redo.size * right_count * stride, -1, dtype=np.int64)
        at_l[lu[done] * stride + colour[sel[done]]] = done
        at_r[lv[done] * stride + colour[sel[done]]] = done
        at_l = array("q", at_l.tobytes())
        at_r = array("q", at_r.tobytes())
        free_l = free_l.reshape(ncls, left_count)[redo].ravel().tolist()
        free_r = free_r.reshape(ncls, right_count)[redo].ravel().tolist()
        for j in np.flatnonzero(delta[redo] > _MASK_COLOURS).tolist():
            full = (1 << int(delta[redo[j]])) - 1
            free_l[j * left_count : (j + 1) * left_count] = [full] * left_count
            free_r[j * right_count : (j + 1) * right_count] = [full] * right_count
        # the loop reads and writes one element at a time, which arrays of
        # the array module do faster than numpy, and in less memory than lists
        part = colour[sel]
        todo = np.flatnonzero(part < 0).tolist()
        part = array("q", part.tobytes())
        lu = array("q", lu.tobytes())
        lv = array("q", lv.tobytes())
        _kempe_insert(lu, lv, part, todo, (free_l, free_r, at_l, at_r), stride)
        colour[sel] = np.frombuffer(part, dtype=np.int64)
    return colour


def _queue_links(keys: np.ndarray, nkeys: int) -> tuple:
    """Per edge, the previous and the next edge with the same key, in the
    order given, or n = len(keys) for none; entry n of both is n + 1."""
    n = keys.size
    order = _stable_order(keys, nkeys)
    same = np.flatnonzero(keys[order[1:]] == keys[order[:-1]])
    prev = np.full(n + 1, n)
    prev[order[same + 1]] = order[same]
    nxt = np.full(n + 1, n)
    nxt[order[same]] = order[same + 1]
    prev[n] = nxt[n] = n + 1
    return prev, nxt


def _kempe_insert(us, vs, color_of, todo, tables: tuple, delta: int) -> None:
    """Complete a proper partial edge colouring in place, each edge's class
    keeping to its palette.

    ``tables`` holds the free-colour mask of every left and right vertex,
    and the edge id (-1: none) per (vertex, colour) at vertex*delta +
    colour, on each side.  The uncoloured edges, listed in ``todo``, are
    coloured in that order; when the two endpoints share no free colour,
    the alternating Kempe path starting at the right endpoint is flipped
    first, which frees one (Koenig's edge-colouring proof; the path can
    never reach the left endpoint, by the parity of its length).
    """
    free_l, free_r, at_l, at_r = tables
    for eid in todo:
        u, v = us[eid], vs[eid]
        both = free_l[u] & free_r[v]
        if both:
            low = both & -both
            c = low.bit_length() - 1
        else:
            fu = free_l[u]
            fv = free_r[v]
            alpha = (fu & -fu).bit_length() - 1
            beta = (fv & -fv).bit_length() - 1
            flip = alpha ^ beta
            path = []
            at, ends, vert, want = at_r, us, v, alpha
            while True:
                e2 = at[vert * delta + want]
                if e2 < 0:
                    break
                path.append(e2)
                vert = ends[e2]
                at, ends = (at_l, vs) if at is at_r else (at_r, us)
                want ^= flip
            for e2 in path:
                color_of[e2] ^= flip
            # every alpha or beta edge at a path vertex lies on the path, so
            # flipping the path swaps those two colours at each such vertex
            swap = (1 << alpha) | (1 << beta)
            for at, free, touched in (
                (at_l, free_l, {us[e2] for e2 in path}),
                (at_r, free_r, {vs[e2] for e2 in path}),
            ):
                for x in touched:
                    base = x * delta
                    at[base + alpha], at[base + beta] = at[base + beta], at[base + alpha]
                    if ((free[x] >> alpha) ^ (free[x] >> beta)) & 1:
                        free[x] ^= swap
            c = alpha
            low = 1 << c
        color_of[eid] = c
        free_l[u] ^= low
        free_r[v] ^= low
        at_l[u * delta + c] = eid
        at_r[v * delta + c] = eid


def decompose_matchings(g: BipartiteGraph) -> list:
    """Partition the edges into at most max_degree(g) matchings.

    Reference for acceptance criterion 8; no synthesiser calls it.

    Returns:
        List of matchings, each a list of (u, v, tag) edges; their multiset
        union is exactly the input edge multiset.
    """
    if not g.edges:
        return []
    us = [u for u, _, _ in g.edges]
    vs = [v for _, v, _ in g.edges]
    colors = color_edges(us, vs, g.left_count, g.right_count)
    out = [[] for _ in range(int(colors.max()) + 1)]
    for eid, c in enumerate(colors.tolist()):
        out[c].append(g.edges[eid])
    return [m for m in out if m]
