import numpy as np
import pytest

from cnotsynth import CnotTree, F2Matrix


def rand_unit_lower(n, seed):
    rng = np.random.default_rng(seed)
    d = np.tril(rng.integers(0, 2, (n, n), dtype=np.uint8), -1) + np.eye(n, dtype=np.uint8)
    return F2Matrix.from_dense(d)


def rand_unit_upper(n, seed):
    rng = np.random.default_rng(seed)
    d = np.triu(rng.integers(0, 2, (n, n), dtype=np.uint8), 1) + np.eye(n, dtype=np.uint8)
    return F2Matrix.from_dense(d)


def rand_tree(n, seed):
    """Uniform-ish proper binary tree: repeatedly join two random roots."""
    rng = np.random.default_rng(seed)
    forest = [int(x) for x in rng.permutation(n)]
    while len(forest) > 1:
        a = forest.pop(int(rng.integers(len(forest))))
        b = forest.pop(int(rng.integers(len(forest))))
        forest.append(("L" if rng.integers(2) else "R", a, b))
    return CnotTree.build(forest[0])


def left_prefix_tree(n):
    """Path tree with all labels L whose sequential gates are
    (0->1), (1->2), ..., i.e. the prefix-XOR chain."""
    nested = 0
    for j in range(1, n):
        nested = ("L", j, nested)
    return CnotTree.build(nested)


def all_ones_lower(n):
    return F2Matrix.from_dense(np.tril(np.ones((n, n), dtype=np.uint8)))


def half_block(n):
    """Identity with the top-right n/2 x n/2 block all ones."""
    d = np.eye(n, dtype=np.uint8)
    d[: n // 2, n // 2 :] = 1
    return F2Matrix.from_dense(d)


@pytest.fixture(scope="session")
def gl3_members():
    """All 168 members of GL(3,2), via exhaustive enumeration."""
    import itertools

    from cnotsynth import rank

    out = []
    for bits in itertools.product((0, 1), repeat=9):
        m = F2Matrix.from_dense(np.asarray(bits, dtype=np.uint8).reshape(3, 3))
        if rank(m) == 3:
            out.append(m)
    assert len(out) == 168
    return out


def repeated_row(n):
    """I + 1 v^T for a seeded v of even weight, so invertible: every row
    is the same vector v plus its own unit vector."""
    v = np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8)
    v[0] ^= v.sum() & 1
    return F2Matrix.from_dense(np.eye(n, dtype=np.uint8) ^ v[None, :])


def repeated_col(n):
    """The transpose of repeated_row(n): every column is the same vector
    plus its own unit vector."""
    return repeated_row(n).transpose()
