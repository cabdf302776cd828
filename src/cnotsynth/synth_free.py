"""Ancilla-free synthesis.

Two pipelines over the PLU factorisation M = P L U:

  * synth_simple: permutation block (depth <= 6) plus one staircase sweep
    per triangular factor (depth <= 2n-3 each), total depth <= 4n;
  * synth_dnc: same skeleton but the triangular factors are cleared by a
    divide-and-conquer parallel elimination whose depth is O(n / log n).

The divide-and-conquer step works on the top-right block X = M1^-1 A of a
unit upper triangular matrix.  X is cut into k row strips of k-bit
super-entries; the identity block below is cut into J = h2/k small blocks
that are walked in lock-step through a sequence of invertible k x k states
whose rows visit every nonzero vector.  Whenever the walk state's row i
equals a super-entry of strip i, one CNOT clears that entry; the entries
equal per stamp form a bounded-degree bipartite graph that is peeled into
matchings, one parallel layer each.  Where some strip repeats a value far
more often per row or column than the layby cap, a precomputed "layby"
matrix B keeps every value's count small so the peeling stays shallow,
and the block is moved A -> B -> 0 in two traverses; otherwise one
traverse A -> 0 clears it.

A factor's reduction is emitted as one gate sequence: the base-case
staircases in lock step, then the traverses in lock step by recursion
depth, deepest first, so children come before parents.  Each pipeline
levels its whole circuit as one sequence (circuit.levelled_circuit), so
halves, stages and walk steps overlap wherever their wires are free:
synth_simple as soon as possible, synth_dnc by commutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .circuit import Circuit, _stable_order, _xor_rows, level_commuting, levelled_circuit, trusted_layer
from .errors import DimensionMismatch, LaybyFailure, NotLowerTriangular
from .f2 import F2Matrix, _nwords, _solve_unit_upper, plu_decompose, rank
from .matching import color_edges

_BASE_SIZE = 64  # below this the recursion falls back to the staircase


# ----------------------------------------------------------------------
# grouping helper shared by the schedule builders
# ----------------------------------------------------------------------


def _split_by(keys: np.ndarray, rows: np.ndarray, nkeys: int) -> list:
    """Rows grouped by key in [0, nkeys), one array per key present, in key
    order; rows keep their relative order within a group."""
    bounds = np.cumsum(np.bincount(keys, minlength=nkeys))[:-1]
    return [part for part in np.split(rows[_stable_order(keys, nkeys)], bounds) if part.size]


# ----------------------------------------------------------------------
# permutations: two involutions, three layers each
# ----------------------------------------------------------------------


def permutation_layers(perm: Sequence[int]) -> Circuit:
    """Circuit of depth <= 6 simulating the permutation matrix of ``perm``.

    ``perm`` maps source wire i to destination perm[i].  Every permutation
    is the product of two involutions; an involution is a set of disjoint
    transpositions, and disjoint 3-CNOT swaps share their three layers.
    """
    p = np.fromiter(perm, dtype=np.int64)
    n = p.size
    if not np.array_equal(np.sort(p), np.arange(n)):
        raise DimensionMismatch("not a permutation")
    dest = p.tolist()
    tau = list(range(n))
    rho = list(range(n))
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        cyc = [s]
        seen[s] = True
        nxt = dest[s]
        while nxt != s:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = dest[nxt]
        length = len(cyc)
        for j in range(length):
            tau[cyc[j]] = cyc[(-j) % length]
            rho[cyc[j]] = cyc[(1 - j) % length]
    layers = []
    for inv in (np.asarray(tau, dtype=np.int64), np.asarray(rho, dtype=np.int64)):
        a = np.flatnonzero(np.arange(n) < inv)
        if a.size:
            arr = np.stack([a, inv[a]], axis=1)
            layers.append(arr)  # a -> b
            layers.append(arr[:, ::-1])  # b -> a
            layers.append(arr)  # a -> b
    return Circuit(max(n, 1), max(n, 1), [trusted_layer(a) for a in layers])


def _invert_perm(perm: Sequence[int]) -> np.ndarray:
    p = np.asarray(list(perm), dtype=np.int64)
    out = np.empty_like(p)
    out[p] = np.arange(p.size)
    return out


# ----------------------------------------------------------------------
# staircase elimination of triangular factors
# ----------------------------------------------------------------------


def _staircase_lower_layers(blocks: list) -> list:
    """Layer arrays clearing unit lower triangular blocks to I in lock step.

    ``blocks`` lists (first wire, matrix) pairs on disjoint wire ranges.
    Subdiagonal d is cleared in phase d with gates (c -> c+d) wherever the
    working entry (c+d, c) is 1; two such gates conflict exactly when their
    controls are d apart, so splitting each phase by the parity of c // d
    gives at most two valid layers, each spanning every block.  A phase
    pollutes only subdiagonals deeper than the one it clears, and the last
    two phases are single layers, hence at most 2n-3 layers for blocks of
    at most n rows.

    The blocks' rows are stacked at a stride of the largest block, rows
    past a smaller block's end left zero.  The row d below local row c is
    then the block's own, a zero row, or a row j < c of the next block,
    whose bit c is 0 (the working rows stay lower triangular), so phase d
    reads one slice of the stack.
    """
    size = max(l.rows for _, l in blocks)
    nw = _nwords(size)
    n = size * len(blocks)
    w = np.zeros((n, nw), dtype=np.uint64)
    for i, (_, l) in enumerate(blocks):
        w[i * size : i * size + l.rows, : l.words.shape[1]] = l.words
    local = np.tile(np.arange(size, dtype=np.int64), len(blocks))
    wire = np.repeat(np.asarray([base for base, _ in blocks], dtype=np.int64), size) + local
    diag = np.arange(n, dtype=np.int64) * nw + (local >> 6)  # word holding local entry (c, c)
    bit = np.left_shift(np.uint64(1), (local & 63).astype(np.uint64))
    flat = w.reshape(-1)
    ctrls, dists = [], []
    for d in range(1, size):
        cand = np.flatnonzero(np.take(flat, diag[: n - d] + d * nw) & bit[: n - d])
        if cand.size == 0:
            continue
        odd = (local[cand] // d) & 1
        for sel in (cand[odd == 0], cand[odd == 1]):
            if sel.size:
                _xor_rows(w, sel, sel + d)
                ctrls.append(sel)
                dists.append(d)
    if not ctrls:
        return []
    sizes = [sel.size for sel in ctrls]
    ctrl = wire[np.concatenate(ctrls)]
    gates = np.stack([ctrl, ctrl + np.repeat(dists, sizes)], axis=1)
    return np.split(gates, np.cumsum(sizes)[:-1])


def _flip_reverse(layers: list) -> list:
    """Transpose a reduction: flip every gate and reverse the layer order."""
    return [arr[:, ::-1] for arr in reversed(layers)]


def staircase_lower(l: F2Matrix) -> Circuit:
    """Reduction circuit for a unit lower triangular matrix.

    The returned circuit simulates l^-1 (it maps l to I when applied after
    it) and has depth at most 2n-3.

    Reference for acceptance criterion 2; no synthesiser calls it.
    """
    if l.rows != l.cols:
        raise DimensionMismatch("staircase needs a square matrix")
    if not l.is_unit_lower_triangular():
        raise NotLowerTriangular("expected unit lower triangular input")
    return Circuit(l.rows, l.rows, [trusted_layer(a) for a in _staircase_lower_layers([(0, l)])])


def _staircase_upper_layers(blocks: list) -> list:
    return _flip_reverse(_staircase_lower_layers([(base, u.transpose()) for base, u in blocks]))


# ----------------------------------------------------------------------
# row-traversal sequences
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TraversalSequence:
    """Invertible k x k matrices ending at I whose rows, at every row
    position, visit all 2^k - 1 nonzero vectors."""

    k: int
    mats: tuple


def row_traversal_sequence(k: int) -> TraversalSequence:
    """Generate a row-traversal sequence of length 3*2^(k-1) - k + 1.

    For each vector v the matrix I + 1 v^T is emitted; when v has odd
    weight that matrix is singular, so row i (the lowest i with v_i = 1)
    is replaced by e_i, and the displaced row value u, when nonzero, is
    re-supplied first through an auxiliary invertible matrix whose row i
    equals u.

    Reference for acceptance criterion 4; no synthesiser calls it.
    """
    if not (1 <= k <= 16):
        raise DimensionMismatch("k out of range")
    out = []
    for v in range(1 << k):
        rows = [(1 << r) ^ v for r in range(k)]
        if bin(v).count("1") & 1:
            i = (v & -v).bit_length() - 1
            u = rows[i]
            rows[i] = 1 << i
            if rank(F2Matrix.from_rows(rows, k)) < k:  # e_i provably suffices; stay safe
                for j in range(k):
                    rows[i] = (1 << i) ^ (1 << j)
                    if rank(F2Matrix.from_rows(rows, k)) == k:
                        break
            if u != 0:
                aux = [1 << r for r in range(k)]
                aux[i] = u
                if not (u >> i) & 1:
                    j = (u & -u).bit_length() - 1
                    aux[j] = 1 << i
                assert rank(F2Matrix.from_rows(aux, k)) == k
                out.append(aux)
        out.append(rows)
    out.append([1 << r for r in range(k)])
    mats = tuple(F2Matrix.from_rows(rows, k) for rows in out)
    return TraversalSequence(k, mats)


# ----------------------------------------------------------------------
# layby construction
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LaybyPair:
    """Layby b and c_mat = strip XOR b, both with bounded value counts."""

    b: F2Matrix
    c_mat: F2Matrix
    k: int
    bound: int


def layby_bound(n_ctx: int) -> int:
    """floor(sqrt(e * n_ctx) / log2(n_ctx)), the per-line occurrence cap."""
    return int(math.sqrt(math.e * n_ctx) / math.log2(n_ctx))


def _bincount_lines(vals: np.ndarray, nvals: int) -> tuple:
    r, c = vals.shape
    rows = np.bincount((np.arange(r)[:, None] * nvals + vals).ravel(), minlength=r * nvals)
    cols = np.bincount((np.arange(c)[None, :] * nvals + vals).ravel(), minlength=c * nvals)
    return rows.reshape(r, nvals), cols.reshape(c, nvals)


def _layby_pass(strips, nvals, cap, seeds, strict):
    """One seeded greedy pass per strip, all strips advanced together:
    entries are assigned in anti-diagonal waves (wave entries share no row
    or column of their strip, so decisions are independent) choosing the
    value with the least crowded row/column counters on both the B side
    and the C = A xor B side.

    With ``strict`` every entry is chosen and every value counts against
    ``cap``.  Otherwise zero entries stay zero and value 0, which emits no
    gate, is neither counted nor penalised, so the cap only steers the
    nonzero values.  Returns per strip its values and its counter tables
    (B rows, B columns, C rows, C columns)."""
    r_sz = np.asarray([a.shape[0] for a in strips])
    c_sz = np.asarray([a.shape[1] for a in strips])
    r_off = np.cumsum(r_sz) - r_sz
    c_off = np.cumsum(c_sz) - c_sz
    maxline = int(max(r_sz.max(), c_sz.max())) + 2
    counts = np.arange(maxline + 1, dtype=np.int64)
    pen = np.where(counts >= cap, np.int64(1) << 40, (counts + 1) ** 3)
    cnt_br = np.zeros((r_sz.sum(), nvals), dtype=np.int32)
    cnt_bc = np.zeros((c_sz.sum(), nvals), dtype=np.int32)
    cnt_cr = np.zeros_like(cnt_br)
    cnt_cc = np.zeros_like(cnt_bc)
    cands = np.arange(nvals)
    ent = []
    for s, (avals, seed) in enumerate(zip(strips, seeds)):
        salt = np.random.default_rng(seed).integers(0, nvals, size=avals.shape)
        ii, jj = np.nonzero(np.ones(avals.shape, dtype=bool) if strict else avals)
        ent.append((ii + jj, np.full(ii.size, s), ii, jj, avals[ii, jj], salt[ii, jj]))
    wave, strip, ii, jj, a, salt = (np.concatenate(col) for col in zip(*ent))
    order = _stable_order(wave, int(wave.max(initial=0)) + 1)
    strip, ii, jj, a, salt = strip[order], ii[order], jj[order], a[order], salt[order]
    rows, cols = r_off[strip] + ii, c_off[strip] + jj
    bv = np.zeros(a.size, dtype=np.int64)
    bounds = np.cumsum(np.bincount(wave))
    for lo_e, hi_e in zip(np.r_[0, bounds[:-1]], bounds):
        if lo_e == hi_e:
            continue
        sl = slice(lo_e, hi_e)
        i, j, aw = rows[sl], cols[sl], a[sl]
        xor_idx = cands[None, :] ^ aw[:, None]
        s_b = pen[cnt_br[i]] + pen[cnt_bc[j]]
        s_c = pen[cnt_cr[i[:, None], xor_idx]] + pen[cnt_cc[j[:, None], xor_idx]]
        if not strict:
            s_b[:, 0] = 0  # value 0 emits no gate, never penalise it
            s_c[np.arange(aw.size), aw] = 0
        tie = (cands[None, :] ^ salt[sl, None]) & 0x7
        v = np.argmin((s_b + s_c) * 16 + tie, axis=1)
        bv[sl] = v
        cv = v ^ aw
        # a wave's entries share no row or column, so no index repeats
        cnt_br[i, v] += 1
        cnt_bc[j, v] += 1
        cnt_cr[i, cv] += 1
        cnt_cc[j, cv] += 1
    out = []
    for s, avals in enumerate(strips):
        bvals = np.zeros(avals.shape, dtype=np.int64)
        mine = strip == s
        bvals[ii[mine], jj[mine]] = bv[mine]
        rs = slice(r_off[s], r_off[s] + r_sz[s])
        cs = slice(c_off[s], c_off[s] + c_sz[s])
        out.append((bvals, (cnt_br[rs], cnt_bc[cs], cnt_cr[rs], cnt_cc[cs])))
    return out


def _layby_repair(avals, bvals, tables, cap):
    """Move single entries of over-full (line, value) cells to values that
    create no new overflow; give up (returns None) when stuck."""
    cnt_br, cnt_bc, cnt_cr, cnt_cc = tables
    nvals = cnt_br.shape[1]
    for _ in range(2 * avals.size + 16):
        viol = None
        for axis, table in enumerate(tables):
            bad = np.argwhere(table > cap)
            if bad.size:
                viol = (axis, int(bad[0, 0]), int(bad[0, 1]))
                break
        if viol is None:
            return bvals
        axis, line, val = viol
        if axis in (0, 2):
            i_idx = np.full(avals.shape[1], line)
            j_idx = np.arange(avals.shape[1])
        else:
            i_idx = np.arange(avals.shape[0])
            j_idx = np.full(avals.shape[0], line)
        cur = bvals[i_idx, j_idx] if axis < 2 else bvals[i_idx, j_idx] ^ avals[i_idx, j_idx]
        hit = cur == val
        moved = False
        for i, j in zip(i_idx[hit], j_idx[hit]):
            a, old = int(avals[i, j]), int(bvals[i, j])
            cnt_br[i, old] -= 1
            cnt_bc[j, old] -= 1
            cnt_cr[i, old ^ a] -= 1
            cnt_cc[j, old ^ a] -= 1
            choice = None
            for v in range(nvals):
                if v == old:
                    continue
                over = max(0, cnt_br[i, v] + 1 - cap) + max(0, cnt_bc[j, v] + 1 - cap)
                over += max(0, cnt_cr[i, v ^ a] + 1 - cap) + max(0, cnt_cc[j, v ^ a] + 1 - cap)
                if over == 0:
                    choice = v
                    break
            if choice is None:
                choice = old
            bvals[i, j] = choice
            cnt_br[i, choice] += 1
            cnt_bc[j, choice] += 1
            cnt_cr[i, choice ^ a] += 1
            cnt_cc[j, choice ^ a] += 1
            if choice != old:
                moved = True
                break
        if not moved:
            return None
    return None


def _layby_values(avals, nvals, cap, seed, tries=6):
    """Strict layby values for one strip: a greedy pass and the repair
    pass, reseeded up to ``tries`` times in all."""
    for t in range(tries):
        [(bvals, tables)] = _layby_pass([avals], nvals, cap, [seed + 7919 * t], strict=True)
        bvals = _layby_repair(avals, bvals, tables, cap)
        if bvals is not None:
            return bvals
    raise LaybyFailure(f"occurrence bound {cap} not met after {tries} attempts")


def _pack_values(vals: np.ndarray, k: int) -> F2Matrix:
    r, c = vals.shape
    bits = ((vals[:, :, None] >> np.arange(k)) & 1).astype(np.uint8)
    return F2Matrix.from_dense(bits.reshape(r, c * k))


def _unpack_values(m: F2Matrix, k: int) -> np.ndarray:
    d = m.to_dense()
    r = d.shape[0]
    c = d.shape[1] // k
    packed = np.packbits(d.reshape(r, c, k), axis=2, bitorder="little")
    return (packed.astype(np.int64) << (8 * np.arange(packed.shape[2]))).sum(axis=2)


def find_layby(strip: F2Matrix, n_ctx: int, seed: int = 0) -> LaybyPair:
    """Choose a layby B for a strip of k-bit super-entries.

    Every k-bit vector occurs at most floor(sqrt(e*n_ctx)/log2(n_ctx))
    times in any row or column of B and of strip XOR B, where
    k = floor(log2(n_ctx)/2).  The choice is a seeded greedy balance over
    entry waves with a local repair pass; persistent failure raises
    LaybyFailure after several reseeded retries.

    Reference for acceptance criterion 5; no synthesiser calls it.
    """
    k = max(1, (n_ctx.bit_length() - 1) // 2)
    if strip.cols % k:
        raise DimensionMismatch(f"strip width must be a multiple of k={k}")
    cols = strip.cols // k
    limit = int(math.ceil(n_ctx / math.log2(n_ctx)))
    if strip.rows > limit or cols > limit:
        raise DimensionMismatch("strip larger than n_ctx / log2(n_ctx)")
    cap = layby_bound(n_ctx)
    avals = _unpack_values(strip, k)
    bvals = _layby_values(avals, 1 << k, cap, seed)
    b = _pack_values(bvals, k)
    c_mat = F2Matrix(strip.rows, strip.cols, b.words ^ strip.words)
    return LaybyPair(b=b, c_mat=c_mat, k=k, bound=cap)


# ----------------------------------------------------------------------
# lock-step walk machinery for the divide-and-conquer elimination
# ----------------------------------------------------------------------

# transvection lists (src, dst), applied in order as "row dst ^= row src"
# to I, giving a generator of the Singer cycle for each k <= 8: the
# shortest found among the companion-matrix powers of full order and a
# seeded random search over products of k to k+2 transvections
_SINGER_OPS = {
    1: [],
    2: [(0, 1), (1, 0)],
    3: [(2, 1), (0, 2), (1, 0)],
    4: [(3, 0), (0, 2), (2, 1), (1, 3)],
    5: [(1, 3), (0, 2), (3, 4), (2, 1), (4, 0)],
    6: [(0, 4), (1, 5), (3, 4), (4, 2), (5, 0), (0, 3), (2, 1), (4, 0)],
    7: [(5, 0), (6, 4), (2, 3), (4, 2), (1, 2), (1, 5), (0, 6), (3, 1)],
    8: [(7, 6), (7, 5), (7, 4), (7, 3), (6, 7), (7, 6), (5, 6), (6, 5), (4, 5),
        (5, 4), (3, 4), (3, 2), (2, 3), (2, 1), (1, 2), (1, 0), (0, 1), (1, 0)],
}

# primitive polynomials over GF(2) for larger k; bit i is the coefficient
# of x^i in the remainder of x^k
_PRIMITIVE = {
    9: 0b000010001,
    10: 0b0000001001,
    11: 0b00000000101,
    12: 0b000001010011,
    13: 0b0000000011011,
    14: 0b10001000011,
    15: 0b011,
    16: 0b0001000000001011,
}


@lru_cache(maxsize=None)
def _singer_walk(k: int):
    """Walk X_t = G^t for a generator G of the Singer cycle.

    Row p of G^t runs through every nonzero vector as t covers the full
    period 2^k - 1, and consecutive states differ by the constant factor
    G, so one fixed transvection list advances all blocks per stamp; the
    states are stepped by that same list.  For k <= 8 the list comes from
    _SINGER_OPS (it can never be shorter than k ops, since G - I is
    invertible).  Past that G is the companion matrix of a primitive
    polynomial: k - 1 adjacent row swaps of three transvections each rotate
    the rows of I up by one, and each feedback tap i >= 1 is added into
    the last row, 3(k - 1) + taps ops in all.  The period is checked at
    first use.
    """
    if k in _SINGER_OPS:
        ops = _SINGER_OPS[k]
    else:
        ops = [op for i in range(k - 1) for op in ((i + 1, i), (i, i + 1), (i + 1, i))]
        ops += [(i - 1, k - 1) for i in range(1, k) if _PRIMITIVE[k] >> i & 1]
    ident = [1 << i for i in range(k)]
    period = (1 << k) - 1
    states = []
    cur = list(ident)
    for _ in range(period):
        for src, dst in ops:
            cur[dst] ^= cur[src]
        states.append(list(cur))
    assert states[-1] == ident, "generator order mismatch"
    for p in range(k):
        assert len({st[p] for st in states}) == period
    return states, ops


def _traverse_block(x: F2Matrix, top_base: int, bot_base: int, k: int, n_ctx: int, seed: int) -> list:
    """Clear the h1 x h2 block ``x`` using the identity block below it.

    Emits transition layers walking the J = h2/k bottom blocks through the
    Singer cycle and, per stamp, one layer per matching of super-entries
    whose value equals the walk state's row for their strip (the
    equal-value entries of a strip are coloured into at most their
    bipartite degree of matchings, every class of a stage in one
    matching.color_edges call).  When every strip's value counts are
    within four times the cap, the block runs a single traverse A -> 0;
    otherwise every nonzero strip takes one greedy layby pass.  The circuit
    is levelled afterwards, so the layby's second walk costs depth as well
    as gates: from twice the cap to four times it, one traverse came out
    shallower with fewer gates on every random matrix measured.  The cap
    is only a target in the pass: an overflow costs one more matching,
    never correctness, so its values are used as they come.
    """
    h1, h2 = x.rows, x.cols
    j_blocks = h2 // k
    vals = _unpack_values(x, k)
    strip_rows = np.array_split(np.arange(h1), k)
    strip_sizes = np.asarray([rows_i.size for rows_i in strip_rows])
    strip_of = np.repeat(np.arange(k), strip_sizes)
    row_in_strip = np.arange(h1) - (np.cumsum(strip_sizes) - strip_sizes)[strip_of]
    nvals = 1 << k
    strip_h = math.ceil(h1 / k)
    cap = max(
        layby_bound(n_ctx),
        int(math.ceil(math.sqrt(math.e) * max(strip_h, j_blocks) / nvals)),
        2,
    )

    naturals = []
    for rows_i in strip_rows:
        rcnt, ccnt = _bincount_lines(vals[rows_i], nvals)
        naturals.append(max(rcnt[:, 1:].max(initial=0), ccnt[:, 1:].max(initial=0)))
    # one traverse A -> 0 beats the layby detour unless some strip is so
    # unbalanced that its matchings would outweigh a second walk; below
    # four times the cap they do not, once the circuit is levelled
    direct = max(naturals) <= 4 * cap

    b = vals.copy()
    if not direct:
        laid = [i for i in range(k) if naturals[i]]
        strips = [vals[strip_rows[i]] for i in laid]
        got = _layby_pass(strips, nvals, cap, [seed + 31 * i for i in laid], strict=False)
        for i, (b_i, _) in zip(laid, got):
            b[strip_rows[i]] = b_i
    stage_targets = (vals ^ b, b)

    states, trans_ops = _singer_walk(k)
    period = len(states)
    # stamp at which the walk row of each strip equals each value
    stamp_of = np.full((k, nvals), -1, dtype=np.int64)
    for t, state in enumerate(states):
        stamp_of[np.arange(k), state] = t
    block_idx = np.arange(j_blocks, dtype=np.int64)
    trans_layers = [
        np.stack([bot_base + block_idx * k + src, bot_base + block_idx * k + dst], axis=1)
        for src, dst in trans_ops
    ]

    layers = []
    for targets in stage_targets:
        rr, cc = np.nonzero(targets)
        if rr.size == 0:
            continue
        strip = strip_of[rr]
        stamp = stamp_of[strip, targets[rr, cc]]
        # each walk row visits every nonzero value once, so every entry is
        # taken at exactly one stamp
        assert np.count_nonzero(stamp >= 0) == np.count_nonzero(targets), "walk left entries unconsumed"
        # the entries of one (stamp, strip) class, in row-major order, are
        # coloured into matchings; a class repeating no row and no column is
        # one matching already (rows ascend within a class, columns are
        # sorted per class first).  The repeated classes of the stage are
        # coloured in one call.
        cls = stamp * k + strip
        order = _stable_order(cls, period * k)
        first = np.r_[True, np.diff(cls[order]) != 0]
        ncls = int(np.count_nonzero(first))
        cid = np.empty_like(order)
        cid[order] = np.cumsum(first) - 1
        repeated = np.zeros(ncls, dtype=bool)
        repeated[cid[order[1:]][~first[1:] & (np.diff(rr[order]) == 0)]] = True
        by_col = _stable_order(cid * j_blocks + cc, ncls * j_blocks)
        same = (np.diff(cid[by_col]) == 0) & (np.diff(cc[by_col]) == 0)
        repeated[cid[by_col[1:]][same]] = True
        e = order[repeated[cid[order]]]
        rnd = np.zeros(rr.size, dtype=np.int64)
        rnd[e] = color_edges(
            row_in_strip[rr[e]], cc[e], int(strip_sizes.max()), j_blocks, (np.cumsum(repeated) - 1)[cid[e]]
        )
        # per stamp: its transition layers, then one layer per round
        width = int(rnd.max()) + 1
        gates = np.stack([bot_base + cc * k + strip, top_base + rr], axis=1)
        key = stamp * width + rnd
        chunks = np.split(
            gates[_stable_order(key, period * width)],
            np.cumsum(np.bincount(key, minlength=period * width))[:-1],
        )
        for t in range(period):
            layers.extend(trans_layers)
            layers.extend(c for c in chunks[t * width : (t + 1) * width] if c.size)
    return layers


def _elim_upper_layers(u: F2Matrix, base: int, seed: int, leaves: list, blocks: list, depth: int = 0) -> None:
    """Collect the leaves of the recursion, as (first wire, block) pairs,
    and the traverse layers of its inner nodes by recursion depth:
    ``blocks[d]`` lists those of the nodes at depth d, left to right."""
    m = u.rows
    if m <= _BASE_SIZE:
        leaves.append((base, u))
        return
    if len(blocks) == depth:
        blocks.append([])
    k = max(1, (m.bit_length() - 1) // 2)
    h2 = k * ((m // 2) // k)
    h1 = m - h2
    m1 = u.submatrix(0, h1, 0, h1)
    _elim_upper_layers(m1, base, 2 * seed + 1, leaves, blocks, depth + 1)
    _elim_upper_layers(u.submatrix(h1, m, h1, m), base + h1, 2 * seed + 2, leaves, blocks, depth + 1)
    x = _solve_unit_upper(m1, u.submatrix(0, h1, h1, m))
    blocks[depth].append(_traverse_block(x, base, base + h1, k, m, seed))


def _dnc_upper_layers(u: F2Matrix, seed: int) -> list:
    """The divide-and-conquer reduction of the unit upper triangular u,
    which simulates u^-1, as one gate sequence: every base-case staircase
    in lock step, then the traverse blocks in lock step by recursion depth,
    deepest first.  The blocks of one depth lie on disjoint wire ranges,
    so their i-th arrays are concatenated into one, in block order; a
    block's arrays are dropped once concatenated.  A wire's traverses sit
    at distinct depths, so each wire sees its gates in the order of the
    recursion, children before parents.  Levelling, as soon as possible or
    by commutation, places a gate by the gates on its two wires alone, so
    it puts every gate on the level it would take were the blocks emitted
    one after another in post-order, from about half as many arrays."""
    leaves, blocks = [], []
    _elim_upper_layers(u, 0, seed, leaves, blocks)
    layers = _staircase_upper_layers(leaves)
    while blocks:
        same = [block[::-1] for block in blocks.pop() if block]
        while same:
            layers.append(np.concatenate([block.pop() for block in same]))
            same = [block for block in same if block]
    return layers


# ----------------------------------------------------------------------
# full synthesis pipelines
# ----------------------------------------------------------------------


def synth_simple(m: F2Matrix) -> Circuit:
    """Ancilla-free synthesis with depth at most 4n.

    PLU-factors the input, clears each triangular factor with a staircase
    sweep (depth <= 2n-3 each) and the permutation with <= 6 layers, then
    reverses the whole reduction so the result simulates ``m`` itself.  The
    reversed reduction is levelled as one gate sequence, so the stages
    overlap wherever their wires allow.
    """
    plu = plu_decompose(m)
    layers = [l.pairs for l in permutation_layers(_invert_perm(plu.perm)).layers]
    layers.extend(_staircase_lower_layers([(0, plu.lower)]))
    layers.extend(_staircase_upper_layers([(0, plu.upper)]))
    layers.reverse()
    return levelled_circuit(layers, m.rows, m.rows)


def synth_dnc(m: F2Matrix, seed: int = 0) -> Circuit:
    """Ancilla-free synthesis with depth O(n / log n).

    Same PLU skeleton as synth_simple, but both triangular factors are
    cleared by the divide-and-conquer parallel elimination (the lower one
    through its transpose).  The reversed reduction is levelled by
    commutation as one gate sequence (circuit.level_commuting), so the
    stages overlap wherever their wires allow and a gate passes the
    earlier gates it commutes with.
    """
    plu = plu_decompose(m)
    layers = [l.pairs for l in permutation_layers(_invert_perm(plu.perm)).layers]
    layers.extend(_flip_reverse(_dnc_upper_layers(plu.lower.transpose(), seed)))
    layers.extend(_dnc_upper_layers(plu.upper, seed + 1))
    layers.reverse()
    return levelled_circuit(layers, m.rows, m.rows, level_commuting)
