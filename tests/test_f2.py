import numpy as np
import pytest

from cnotsynth import (
    DimensionMismatch,
    F2Matrix,
    SingularMatrix,
    format_matrix,
    invert,
    mat_mul,
    parse_matrix,
    permutation_matrix,
    plu_decompose,
    random_gl,
    rank,
)


def naive_mul(a, b):
    return (a.to_dense().astype(int) @ b.to_dense().astype(int)) % 2


def loop_plu(d):
    """Reference PLU, one column at a time: the first row at or below the
    diagonal holding the column's bit is the pivot."""
    u = d.astype(np.uint8).copy()
    n = u.shape[0]
    low = np.eye(n, dtype=np.uint8)
    perm = list(range(n))
    for c in range(n):
        p = c + int(np.flatnonzero(u[c:, c])[0])
        u[[c, p]] = u[[p, c]]
        low[[c, p], :c] = low[[p, c], :c]
        perm[c], perm[p] = perm[p], perm[c]
        for r in range(c + 1, n):
            if u[r, c]:
                u[r] ^= u[c]
                low[r, c] = 1
    return tuple(perm), low, u


def loop_rank(d):
    """Reference rank, one column at a time."""
    w = d.astype(np.uint8).copy()
    r = 0
    for c in range(w.shape[1]):
        hit = np.flatnonzero(w[r:, c])
        if hit.size == 0:
            continue
        p = r + int(hit[0])
        w[[r, p]] = w[[p, r]]
        for i in range(w.shape[0]):
            if i != r and w[i, c]:
                w[i] ^= w[r]
        r += 1
        if r == w.shape[0]:
            break
    return r


class TestMatMul:
    def test_identity(self):
        i3 = F2Matrix.identity(3)
        assert mat_mul(i3, i3) == i3

    def test_row_elimination_squares_to_identity(self):
        r = F2Matrix.from_dense([[1, 0], [1, 1]])
        assert mat_mul(r, r) == F2Matrix.identity(2)

    def test_against_naive_triple_loop(self):
        rng = np.random.default_rng(7)
        a = F2Matrix.from_dense(rng.integers(0, 2, (5, 5)))
        b = F2Matrix.from_dense(rng.integers(0, 2, (5, 5)))
        ref = np.zeros((5, 5), dtype=int)
        ad, bd = a.to_dense(), b.to_dense()
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    ref[i, j] ^= ad[i, k] & bd[k, j]
        assert np.array_equal(mat_mul(a, b).to_dense(), ref)

    def test_rectangular_shapes(self):
        rng = np.random.default_rng(3)
        a = F2Matrix.from_dense(rng.integers(0, 2, (9, 130)))
        b = F2Matrix.from_dense(rng.integers(0, 2, (130, 17)))
        assert np.array_equal(mat_mul(a, b).to_dense(), naive_mul(a, b))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_mul(F2Matrix.identity(3), F2Matrix.identity(4))


class TestPlu:
    def test_identity(self):
        plu = plu_decompose(F2Matrix.identity(4))
        assert plu.perm == tuple(range(4))
        assert plu.lower == F2Matrix.identity(4)
        assert plu.upper == F2Matrix.identity(4)

    def test_swap_matrix(self):
        m = F2Matrix.from_dense([[0, 1], [1, 0]])
        plu = plu_decompose(m)
        assert sorted(plu.perm) == [0, 1] and plu.perm != (0, 1)
        recon = mat_mul(permutation_matrix(plu.perm), mat_mul(plu.lower, plu.upper))
        assert recon == m

    @pytest.mark.parametrize("n", [2, 3, 8, 30, 128])
    def test_seeded_reconstruction(self, n):
        for seed in range(20 if n == 8 else 5):
            m = random_gl(n, seed)
            plu = plu_decompose(m)
            assert plu.lower.is_unit_lower_triangular()
            assert plu.upper.is_unit_upper_triangular()
            recon = mat_mul(permutation_matrix(plu.perm), mat_mul(plu.lower, plu.upper))
            assert recon == m
            # the perm applies to rows of L*U
            lu = mat_mul(plu.lower, plu.upper).to_dense()
            scattered = np.empty_like(lu)
            scattered[list(plu.perm)] = lu
            assert np.array_equal(scattered, m.to_dense())

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            plu_decompose(F2Matrix.zeros(3, 3))


class TestBlockedElimination:
    """The blocked (eight columns at a time) eliminations against per-column
    loops, across block and word boundaries."""

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 130])
    def test_plu_matches_column_loop(self, n):
        for seed in range(3):
            m = random_gl(n, seed)
            plu = plu_decompose(m)
            perm, low, up = loop_plu(m.to_dense())
            assert plu.perm == perm
            assert np.array_equal(plu.lower.to_dense(), low)
            assert np.array_equal(plu.upper.to_dense(), up)

    def test_rank_matches_column_loop(self):
        rng = np.random.default_rng(11)
        for trial in range(60):
            r, c = (int(x) for x in rng.integers(1, 140, 2))
            q = int(rng.integers(1, min(r, c) + 1))
            low_rank = (rng.integers(0, 2, (r, q)) @ rng.integers(0, 2, (q, c))) % 2
            sparse = (rng.random((r, c)) < 0.02).astype(np.uint8)
            for d in (rng.integers(0, 2, (r, c)), low_rank, sparse):
                assert rank(F2Matrix.from_dense(d)) == loop_rank(d), (trial, r, c)

    def test_singular_column_reported(self):
        d = np.eye(20, dtype=np.uint8)
        d[:, 11] = d[:, 3]
        for f in (plu_decompose, invert):
            with pytest.raises(SingularMatrix, match="column 11"):
                f(F2Matrix.from_dense(d))


class TestInvert:
    def test_identity(self):
        assert invert(F2Matrix.identity(6)) == F2Matrix.identity(6)

    def test_involution(self):
        r = F2Matrix.from_dense([[1, 0], [1, 1]])
        assert invert(r) == r

    @pytest.mark.parametrize("n", [1, 16, 100, 512])
    def test_product_is_identity(self, n):
        m = random_gl(n, n)
        assert mat_mul(m, invert(m)) == F2Matrix.identity(n)

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            invert(F2Matrix.from_dense([[1, 1], [1, 1]]))


class TestRandomGl:
    def test_n1_is_unique_member(self):
        for seed in (0, 3, 99):
            assert random_gl(1, seed) == F2Matrix.from_dense([[1]])

    def test_gl2_hits_exactly_six_matrices(self):
        seen = set()
        for seed in range(10_000):
            m = random_gl(2, seed)
            assert rank(m) == 2
            seen.add(m.to_dense().tobytes())
        assert len(seen) == 6

    def test_deterministic(self):
        assert random_gl(64, 7) == random_gl(64, 7)

    def test_full_rank_sampled(self):
        for n in (2, 5, 33, 128):
            for seed in (0, 1):
                assert rank(random_gl(n, seed)) == n


def format_matrix_ref(m):
    """The per-element writer format_matrix replaced."""
    lines = [f"{m.rows} {m.cols}"]
    lines.extend("".join("1" if x else "0" for x in row) for row in m.to_dense())
    return "\n".join(lines) + "\n"


class TestTextFormat:
    def test_round_trip(self):
        m = random_gl(19, 2)
        assert parse_matrix(format_matrix(m)) == m

    def test_text_matches_reference(self):
        rng = np.random.default_rng(4)
        mats = [random_gl(n, n) for n in (1, 2, 63, 64, 65, 130)]
        mats += [F2Matrix.identity(7), F2Matrix.zeros(3, 70)]
        shapes = ((5, 129), (200, 3), (1, 1))
        mats += [F2Matrix.from_dense(rng.integers(0, 2, shape)) for shape in shapes]
        for m in mats:
            assert format_matrix(m) == format_matrix_ref(m)

    def test_comments_ignored(self):
        text = "# a matrix\n2 2\n10\n# interlude\n11\n"
        assert parse_matrix(text) == F2Matrix.from_dense([[1, 0], [1, 1]])

    def test_bad_row_rejected(self):
        with pytest.raises(ValueError):
            parse_matrix("2 2\n10\n2x\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 2\n10\n", "expected 2 rows, found 1"),
            ("2 2\n10\n11\n01\n", "expected 2 rows, found 3"),
            ("3 2\n10\n110\n01\n", "bad row 1: '110'"),
            ("3 2\n10\n11\n0\n", "bad row 2: '0'"),
            ("2 2\n10\n1x\n", "bad row 1: '1x'"),
            ("2 2\n1\u00e9\n11\n", "bad row 0: '1\u00e9'"),
            ("2 2\n1 \n11\n", "bad row 0: '1'"),
        ],
    )
    def test_errors_name_the_row(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_matrix(text)

    def test_crlf_and_padding_spaces(self):
        text = "2 3\r\n  101 \r\n011\t\r\n"
        assert parse_matrix(text) == F2Matrix.from_dense([[1, 0, 1], [0, 1, 1]])


class TestStorage:
    def test_padding_bits_zero(self):
        m = F2Matrix.from_dense(np.ones((3, 65), dtype=np.uint8))
        assert m.words[:, 1].max() == 1  # only bit 64 set in the second word

    def test_caller_array_stays_writable(self):
        w = np.zeros((2, 1), dtype=np.uint64)
        m = F2Matrix(2, 3, w)
        assert w.flags.writeable
        with pytest.raises(ValueError):
            m.words[0, 0] = 1

    def test_set_padding_bits_rejected(self):
        with pytest.raises(DimensionMismatch):
            F2Matrix(1, 3, np.array([[0b1111]], dtype=np.uint64))
        with pytest.raises(DimensionMismatch):
            F2Matrix(2, 65, np.array([[0, 0], [0, 2]], dtype=np.uint64))
        full = F2Matrix(1, 3, np.array([[0b111]], dtype=np.uint64))
        assert full == F2Matrix.from_dense([[1, 1, 1]])
        assert F2Matrix(1, 64, np.full((1, 1), 2**64 - 1, dtype=np.uint64)).row_weights()[0] == 64

    def test_unhashable(self):
        with pytest.raises(TypeError, match="unhashable type"):
            hash(F2Matrix.identity(2))

    def test_from_rows_drops_bits_past_cols(self):
        assert F2Matrix.from_rows([0b111], 2) == F2Matrix.from_dense([[1, 1]])
        wide = F2Matrix.from_rows([(1 << 200) | (1 << 64) | 1, 1 << 70], 65)
        assert wide == F2Matrix.from_dense([[1] + [0] * 63 + [1], [0] * 65])

    def test_get(self):
        m = F2Matrix.from_dense([[0, 1], [1, 0]])
        assert (m.get(0, 1), m.get(1, 0), m.get(0, 0)) == (1, 1, 0)

    def test_transpose_submatrix(self):
        rng = np.random.default_rng(0)
        m = F2Matrix.from_dense(rng.integers(0, 2, (70, 130)))
        assert np.array_equal(m.transpose().to_dense(), m.to_dense().T)
        sub = m.submatrix(5, 40, 63, 100)
        assert np.array_equal(sub.to_dense(), m.to_dense()[5:40, 63:100])

    @pytest.mark.parametrize("n", [2, 17, 64, 128])
    def test_plu_many_seeds(self, n):
        # reconstruction is bit-exact across a spread of seeds
        for seed in range(25):
            m = random_gl(n, seed * 31 + n)
            plu = plu_decompose(m)
            recon = mat_mul(permutation_matrix(plu.perm), mat_mul(plu.lower, plu.upper))
            assert recon == m
