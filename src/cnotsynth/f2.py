"""Dense GF(2) linear algebra on bit-packed matrices.

Rows are packed little-endian into uint64 words, so a row operation is a
word-wide XOR.  Elimination and multiplication both work on blocks of
eight columns (method of four Russians): the pivots of a block are found
on its bits alone, and every other row then takes one lookup in the table
of all sums of the pivot rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

_WORD = 64


def _nwords(cols: int) -> int:
    return (cols + _WORD - 1) >> 6


def _tail_mask(cols: int) -> int:
    rem = cols & 63
    return (1 << rem) - 1 if rem else (1 << 64) - 1


class F2Matrix:
    """Immutable dense matrix over GF(2).

    Attributes:
        rows: Number of rows (>= 1).
        cols: Number of columns (>= 1).
        words: uint64 array of shape (rows, ceil(cols/64)); bit j of row i
            is ``(words[i, j >> 6] >> (j & 63)) & 1``.  Padding bits past
            ``cols`` must be zero.  It is a read-only view of the array
            passed in, which the caller should not write to afterwards.
    """

    __slots__ = ("rows", "cols", "words")

    def __init__(self, rows: int, cols: int, words: np.ndarray):
        if rows < 1 or cols < 1:
            raise DimensionMismatch(f"bad shape {rows}x{cols}")
        if words.shape != (rows, _nwords(cols)) or words.dtype != np.uint64:
            raise DimensionMismatch("packed storage does not match shape")
        if cols & 63 and (words[:, -1] >> np.uint64(cols & 63)).any():
            raise DimensionMismatch(f"padding bits past column {cols} are set")
        self.rows = rows
        self.cols = cols
        self.words = words.view()  # read-only without freezing the caller's array
        self.words.setflags(write=False)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "F2Matrix":
        return cls(rows, cols, np.zeros((rows, _nwords(cols)), dtype=np.uint64))

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        w = np.zeros((n, _nwords(n)), dtype=np.uint64)
        i = np.arange(n)
        w[i, i >> 6] = np.uint64(1) << (i & 63).astype(np.uint64)
        return cls(n, n, w)

    @classmethod
    def from_dense(cls, arr) -> "F2Matrix":
        """Pack a 2-D 0/1 array."""
        a = np.asarray(arr, dtype=np.uint8) & 1
        if a.ndim != 2:
            raise DimensionMismatch("expected a 2-D array")
        rows, cols = a.shape
        nb = _nwords(cols) * 8
        packed = np.packbits(a, axis=1, bitorder="little")
        if packed.shape[1] < nb:
            packed = np.pad(packed, ((0, 0), (0, nb - packed.shape[1])))
        return cls(rows, cols, np.ascontiguousarray(packed).view(np.uint64).copy())

    @classmethod
    def from_rows(cls, rows_bits, cols: int) -> "F2Matrix":
        """Build from a sequence of per-row integer bitmasks; bits at or
        past ``cols`` are dropped."""
        out = np.zeros((len(rows_bits), _nwords(cols)), dtype=np.uint64)
        keep = (1 << cols) - 1
        for i, bits in enumerate(rows_bits):
            bits &= keep
            w = 0
            while bits:
                out[i, w] = np.uint64(bits & 0xFFFFFFFFFFFFFFFF)
                bits >>= 64
                w += 1
        return cls(len(rows_bits), cols, out)

    def to_dense(self) -> np.ndarray:
        """Unpack to a uint8 array of shape (rows, cols)."""
        b = np.unpackbits(self.words.view(np.uint8), axis=1, bitorder="little")
        return b[:, : self.cols]

    # ------------------------------------------------------------------
    # element access and comparison
    # ------------------------------------------------------------------

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return int(self.words[i, j >> 6] >> np.uint64(j & 63)) & 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, F2Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.words, other.words)
        )

    __hash__ = None  # equality is by value

    def __repr__(self) -> str:
        return f"F2Matrix({self.rows}x{self.cols})"

    # ------------------------------------------------------------------
    # structure helpers
    # ------------------------------------------------------------------

    def transpose(self) -> "F2Matrix":
        return F2Matrix.from_dense(self.to_dense().T)

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "F2Matrix":
        if not (0 <= r0 < r1 <= self.rows and 0 <= c0 < c1 <= self.cols):
            raise DimensionMismatch("block out of range")
        return F2Matrix(r1 - r0, c1 - c0, _extract_cols(self.words[r0:r1], c0, c1))

    def row_weights(self) -> np.ndarray:
        return _popcount_rows(self.words)

    def col_weights(self) -> np.ndarray:
        return self.transpose().row_weights()

    def is_unit_lower_triangular(self) -> bool:
        if self.rows != self.cols:
            return False
        d = self.to_dense()
        return bool(np.all(np.diag(d) == 1) and not np.triu(d, 1).any())

    def is_unit_upper_triangular(self) -> bool:
        if self.rows != self.cols:
            return False
        d = self.to_dense()
        return bool(np.all(np.diag(d) == 1) and not np.tril(d, -1).any())


def _popcount_rows(words: np.ndarray) -> np.ndarray:
    b = words.view(np.uint8)
    return np.unpackbits(b, axis=1).sum(axis=1)


def _extract_cols(words: np.ndarray, c0: int, c1: int) -> np.ndarray:
    """Packed column slice [c0, c1) of packed rows, vectorised bit shifting."""
    ncols = c1 - c0
    nw_out = _nwords(ncols)
    w0, sh = c0 >> 6, c0 & 63
    src = words[:, w0 : w0 + nw_out + 1]
    if src.shape[1] < nw_out + 1:
        src = np.pad(src, ((0, 0), (0, nw_out + 1 - src.shape[1])))
    if sh == 0:
        out = src[:, :nw_out].copy()
    else:
        lo = src[:, :nw_out] >> np.uint64(sh)
        hi = src[:, 1 : nw_out + 1] << np.uint64(64 - sh)
        out = lo | hi
    out[:, -1] &= np.uint64(_tail_mask(ncols))
    return out


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------


def mat_mul(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    """Product over GF(2).

    Uses an 8-bit combination table over groups of rows of ``b`` so the
    cost is roughly rows*cols/8 row XORs.  Reference algebra that tests
    check synthesis against; no synthesiser calls it.
    """
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.cols} != {b.rows}")
    abytes = a.words.view(np.uint8)[:, : (a.cols + 7) >> 3]
    acc = np.zeros((a.rows, b.words.shape[1]), dtype=np.uint64)
    rows = np.zeros((8, b.words.shape[1]), dtype=np.uint64)
    for g in range(abytes.shape[1]):
        group = b.words[g * 8 : g * 8 + 8]
        rows[: group.shape[0]] = group
        rows[group.shape[0] :] = 0
        acc ^= _span_table(rows)[abytes[:, g]]
    return F2Matrix(a.rows, b.cols, acc)


def rank(m: F2Matrix) -> int:
    """GF(2) rank by elimination over blocks of eight columns (method of
    four Russians).

    Per block, a basis of the rows' block bytes is grown greedily, taking
    one row per distinct byte in row order; every other row then clears
    the block with one lookup in the table of all sums of those pivot
    rows, and the pivot rows drop out.  Cleared words are dropped too.
    """
    w = m.words
    r = 0
    for c0 in range(0, m.cols, 8):
        if w.shape[0] == 0:
            break
        if c0 and not c0 & 63:
            w = w[:, 1:]
        width = min(8, m.cols - c0)
        byte = _block_bytes(w[:, 0], c0, width)
        row_of = np.zeros(256, dtype=np.int64)
        row_of[byte] = np.arange(byte.size)
        present = np.flatnonzero(np.bincount(byte, minlength=256)[1:]) + 1
        # echelon basis: red[j] has pivot bit piv_bit[j], which every later
        # basis element lacks; mask[j] says which pivot rows sum to it
        piv, piv_bit, red, mask = [], [], [], []
        for v in present[np.argsort(row_of[present])].tolist():
            x, mx = v, 1 << len(piv)
            for bj, rj, mj in zip(piv_bit, red, mask):
                if (x >> bj) & 1:
                    x ^= rj
                    mx ^= mj
            if x:
                piv.append(int(row_of[v]))
                piv_bit.append((x & -x).bit_length() - 1)
                red.append(x)
                mask.append(mx)
                if len(piv) == width:
                    break
        if not piv:
            continue
        # reduced form: clear each pivot bit from the earlier elements too
        for j, bj in enumerate(piv_bit):
            for i in range(j):
                if (red[i] >> bj) & 1:
                    red[i] ^= red[j]
                    mask[i] ^= mask[j]
        # a row with block byte v adds the reduced elements of v's pivot
        # bits: the pivot rows in lookup[v]
        by_bit = np.zeros((width, 1), dtype=np.uint64)
        by_bit[piv_bit, 0] = mask
        lookup = _span_table(by_bit)[:, 0].astype(np.int64)
        table = _span_table(w[piv])
        keep = np.ones(w.shape[0], dtype=bool)
        keep[piv] = False
        w = w[keep]
        w ^= np.take(table, lookup[byte[keep]], axis=0)
        r += len(piv)
    return r


def invert(m: F2Matrix) -> F2Matrix:
    """Inverse over GF(2); raises SingularMatrix."""
    if m.rows != m.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    return solve_left(m, F2Matrix.identity(m.rows))


# ----------------------------------------------------------------------
# blocked elimination: columns in blocks of eight, one table lookup per row
# and block instead of one row operation per row and column
# ----------------------------------------------------------------------


def _block_bytes(col_words: np.ndarray, c0: int, width: int) -> np.ndarray:
    """Bits c0 .. c0+width-1 (one word, c0 a multiple of 8) of each row."""
    mask = np.uint64((1 << width) - 1)
    return ((col_words >> np.uint64(c0 & 63)) & mask).astype(np.int64)


def _span_table(rows: np.ndarray) -> np.ndarray:
    """All 2^q subset sums of q packed rows: entry s sums the rows whose
    bit is set in s."""
    table = np.zeros((1 << rows.shape[0], rows.shape[1]), dtype=np.uint64)
    for j in range(rows.shape[0]):
        table[1 << j : 2 << j] = table[: 1 << j] ^ rows[j]
    return table


def _block_pivots(byte: np.ndarray, c0: int, width: int) -> tuple:
    """Partial pivoting over one block, on the block bits alone.

    Per column, the first row at or below the diagonal that holds the bit
    (after the earlier columns' eliminations) becomes the pivot and swaps
    up, and every row below it holding the bit adds it.  Returns the new
    row order and, per row, the mask of the block's pivots it added.

    A row's block byte after the eliminations so far depends only on its
    byte at the start of the block, so the work per column is on tables
    indexed by that byte, apart from one scan for the pivot.
    """
    byte = byte.copy()
    order = np.arange(byte.size)
    red = np.arange(256)  # current byte of a row that started the block at v
    added = np.zeros(256, dtype=np.int64)  # the pivots such a row has added
    piv_masks = []
    for b in range(width):
        has = ((red >> b) & 1).astype(bool)
        p = b + int(np.argmax(has[byte[b:]]))
        if not has[byte[p]]:
            raise SingularMatrix(f"no pivot in column {c0 + b}")
        byte[[b, p]] = byte[[p, b]]
        order[[b, p]] = order[[p, b]]
        v = byte[b]
        piv_masks.append(added[v])
        red[has] ^= red[v]
        added[has] |= 1 << b
    masks = added[byte]
    masks[:width] = piv_masks
    return order, masks


def _forward_rows(src: np.ndarray, masks: np.ndarray, width: int) -> np.ndarray:
    """Rows after a block's forward elimination: row i is src[i] plus the
    pivot rows named in masks[i], each pivot as it stood when chosen."""
    table = np.zeros((1 << width, src.shape[1]), dtype=np.uint64)
    for j in range(width):
        table[1 << j : 2 << j] = table[: 1 << j] ^ (src[j] ^ table[masks[j]])
    return src ^ table[masks]


def _unit_upper_inverse(byte) -> list:
    """Rows of U^-1 as bit masks, for the unit upper triangular block U
    whose row j has the bits byte[j]."""
    inv = [0] * len(byte)
    for j in reversed(range(len(byte))):
        inv[j] = 1 << j
        for i in range(j + 1, len(byte)):
            if (byte[j] >> i) & 1:
                inv[j] ^= inv[i]
    return inv


def solve_left(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    """Return a^-1 * b by Gauss-Jordan on the augmented system.

    Unit upper triangular systems skip pivot search and sweep columns
    high-to-low against the rows above the diagonal only.
    """
    if a.rows != a.cols or a.rows != b.rows:
        raise DimensionMismatch("solve_left shape mismatch")
    n = a.rows
    if a.is_unit_upper_triangular():
        return _solve_unit_upper(a, b)
    nwa = a.words.shape[1]
    aug = np.concatenate([a.words, b.words], axis=1)
    for c0 in range(0, n, 8):
        width = min(8, n - c0)
        wi = c0 >> 6
        order, masks = _block_pivots(_block_bytes(aug[c0:, wi], c0, width), c0, width)
        rows = _forward_rows(aug[c0 + order, wi:], masks, width)
        # pivot j keeps only bit j of the block; rows above clear the block
        inv = _unit_upper_inverse(_block_bytes(rows[:width, 0], c0, width).tolist())
        rows[:width] = _span_table(rows[:width])[inv]
        aug[c0:, wi:] = rows
        table = _span_table(rows[:width])
        aug[:c0, wi:] ^= table[_block_bytes(aug[:c0, wi], c0, width)]
    return F2Matrix(n, b.cols, aug[:, nwa:].copy())


def _solve_unit_upper(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    """Back-substitution a^-1 * b for unit upper triangular ``a`` (the
    caller vouches for the shape), a block of eight rows at a time."""
    n = a.rows
    aw = a.words
    x = b.words.copy()
    for c0 in reversed(range(0, n, 8)):
        c1 = min(c0 + 8, n)
        col = aw[:c1, c0 >> 6]
        inv = _unit_upper_inverse(_block_bytes(col[c0:c1], c0, c1 - c0).tolist())
        x[c0:c1] = _span_table(x[c0:c1])[inv]
        if c0:
            x[:c0] ^= _span_table(x[c0:c1])[_block_bytes(col[:c0], c0, c1 - c0)]
    return F2Matrix(n, b.cols, x)


@dataclass(frozen=True)
class PluFactors:
    """PM = LU bookkeeping: ``m[perm[i], :] == (lower @ upper)[i, :]``."""

    perm: tuple
    lower: F2Matrix
    upper: F2Matrix


def plu_decompose(m: F2Matrix) -> PluFactors:
    """Factor an invertible matrix as a row permutation times L times U.

    Pivoting is partial: each column takes the first row at or below the
    diagonal that holds it.

    Returns:
        PluFactors with unit lower/upper triangular factors such that
        scattering row i of ``lower @ upper`` to row ``perm[i]`` rebuilds
        the input.

    Raises:
        SingularMatrix: if some column has no pivot.
    """
    if m.rows != m.cols:
        raise DimensionMismatch("PLU of a non-square matrix")
    n = m.rows
    u = m.words.copy()
    lw = np.zeros_like(u)
    perm = np.arange(n)
    for c0 in range(0, n, 8):
        width = min(8, n - c0)
        wi = c0 >> 6
        order, masks = _block_pivots(_block_bytes(u[c0:, wi], c0, width), c0, width)
        u[c0:, wi:] = _forward_rows(u[c0 + order, wi:], masks, width)
        lw[c0:] = lw[c0 + order]
        lw[c0:, wi] |= masks.astype(np.uint64) << np.uint64(c0 & 63)
        perm[c0:] = perm[c0 + order]
    i = np.arange(n)
    lw[i, i >> 6] |= np.uint64(1) << (i & 63).astype(np.uint64)
    return PluFactors(tuple(int(x) for x in perm), F2Matrix(n, n, lw), F2Matrix(n, n, u))


def permutation_matrix(perm) -> F2Matrix:
    """Matrix P with P[perm[i], i] = 1 (value at index i moves to perm[i]).

    Reference algebra that tests check synthesis against; no synthesiser
    calls it.
    """
    n = len(perm)
    d = np.zeros((n, n), dtype=np.uint8)
    d[np.asarray(perm), np.arange(n)] = 1
    return F2Matrix.from_dense(d)


def random_gl(n: int, seed: int) -> F2Matrix:
    """Seeded uniform sample from GL(n, 2) by rejection.

    The acceptance probability exceeds 0.28 for every n, so the expected
    number of draws is below four.
    """
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    rng = np.random.default_rng(seed)
    while True:
        m = F2Matrix.from_dense(rng.integers(0, 2, size=(n, n), dtype=np.uint8))
        if rank(m) == n:
            return m


# ----------------------------------------------------------------------
# text format: "<rows> <cols>" then one 0/1 string per row
# ----------------------------------------------------------------------


def format_matrix(m: F2Matrix) -> str:
    """Header "rows cols", then one line of '0'/'1' characters per row."""
    text = np.empty((m.rows, m.cols + 1), dtype=np.uint8)
    np.add(m.to_dense(), ord("0"), out=text[:, :-1])
    text[:, -1] = ord("\n")
    return f"{m.rows} {m.cols}\n" + text.tobytes().decode("ascii")


def parse_matrix(text: str) -> F2Matrix:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header: {lines[0]!r}")
    rows, cols = int(head[0]), int(head[1])
    body = lines[1:]
    if len(body) != rows:
        raise ValueError(f"expected {rows} rows, found {len(body)}")
    bad = np.fromiter(map(len, body), dtype=np.int64, count=rows) != cols
    if not bad.any():
        # non-ASCII characters become '?', which is not a bit either
        d = np.frombuffer("".join(body).encode("ascii", "replace"), dtype=np.uint8) - ord("0")
        bad = (d.reshape(rows, cols) > 1).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"bad row {i}: {body[i]!r}")
    return F2Matrix.from_dense(d.reshape(rows, cols))
