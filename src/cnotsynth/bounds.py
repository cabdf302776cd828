"""Depth lower bounds and an exact small-instance optimum.

Counting bound: a depth-d circuit on N wires is a product of d parallel
row-elimination matrices, so layer_count(N)^d must reach #GL(n,2) before
depth d can cover the worst case.  Light-cone bound: one layer at most
doubles the number of inputs an output depends on, so a row (or column) of
Hamming weight w forces depth >= ceil(log2 w).  The BFS oracle walks
GL(n,2) for n <= 4, one parallel layer per step, and is the reference the
synthesisers are sandwiched against in tests.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import SingularMatrix, TooLarge
from .f2 import F2Matrix, rank

_BFS_LIMIT = 4
_LN2 = math.log(2.0)
# float error of the log-domain ratio is ~1e-15 relative; anything within
# this of an integer is decided exactly
_RATIO_TOL = 1e-9


def _product(values: list) -> int:
    """Product of integers by a balanced tree, so the big multiplications
    pair operands of similar size."""
    while len(values) > 1:
        pairs = [values[i] * values[i + 1] for i in range(0, len(values) - 1, 2)]
        if len(values) & 1:
            pairs.append(values[-1])
        values = pairs
    return values[0]


def gl_count(n: int) -> int:
    """#GL(n,2) = prod_{i<n} (2^n - 2^i) = 2^(n(n-1)/2) prod_{1<=j<=n} (2^j - 1),
    exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _product([(1 << j) - 1 for j in range(1, n + 1)]) << (n * (n - 1) // 2)


def layer_count(wires: int) -> int:
    """Number of distinct parallel row-elimination matrices on the given
    wires: sum over t of the ways to choose 2t wires, pair them and orient
    each pair.  Wire N is idle or paired with one of the N-1 others in
    either direction, so a(N) = a(N-1) + 2(N-1) a(N-2)."""
    if wires < 1:
        raise ValueError("wires must be >= 1")
    prev, cur = 1, 1  # a(0), a(1)
    for k in range(2, wires + 1):
        prev, cur = cur, cur + 2 * (k - 1) * prev
    return cur


def _log2_gl_count(n: int) -> float:
    """log2 #GL(n,2) = n^2 + sum_{1<=i<=n} log2(1 - 2^-i)."""
    return n * n + math.fsum(math.log1p(-(2.0 ** -i)) for i in range(1, n + 1)) / _LN2


def _log2_layer_count(wires: int) -> float:
    """log2 layer_count(wires) as a log-sum-exp over t of the natural logs
    of wires! / ((wires-2t)! t!)."""
    top = math.lgamma(wires + 1)
    terms = [top - math.lgamma(wires - 2 * t + 1) - math.lgamma(t + 1)
             for t in range(wires // 2 + 1)]
    peak = max(terms)
    return (peak + math.log(math.fsum(math.exp(x - peak) for x in terms))) / _LN2


def _confirm_depth(k: int, n: int, wires: int) -> int:
    """Exact choice between depth k and k+1, for a log-domain ratio that
    lies too close to the integer k to trust its rounding."""
    return k if layer_count(wires) ** k >= gl_count(n) else k + 1


def counting_depth_bound(n: int, m: int) -> int:
    """Smallest d with layer_count(n+m)^d >= gl_count(n): a lower bound on
    the worst-case depth of exact CNOT circuits with m ancillae.

    d = ceil(log2 gl_count / log2 layer_count), computed in floating
    point; a ratio within _RATIO_TOL (relative) of an integer is settled
    with exact integers.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1, m >= 0")
    if n + m == 1:  # one wire, one matrix: no layer needed
        return 0
    ratio = _log2_gl_count(n) / _log2_layer_count(n + m)
    k = round(ratio)
    if abs(ratio - k) <= _RATIO_TOL * max(1.0, ratio):
        return _confirm_depth(k, n, n + m)
    return math.ceil(ratio)


def fanin_depth_bound(m: F2Matrix) -> int:
    """Light-cone bound: max over rows and columns of ceil(log2 weight).

    Any exact circuit for m, with any number of ancillae, has at least
    this depth.
    """
    if m.rows != m.cols:
        raise ValueError("square matrix expected")
    w = max(int(m.row_weights().max()), int(m.col_weights().max()))
    return (max(w, 1) - 1).bit_length()


# ----------------------------------------------------------------------
# exact oracle
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _all_layers(wires: int) -> tuple:
    """Every nonempty parallel row-elimination layer on the given wires,
    as tuples of (control, target) pairs."""
    out = []

    def rec(avail: tuple, acc: tuple):
        if len(avail) < 2:
            if acc:
                out.append(acc)
            return
        a = avail[0]
        rest = avail[1:]
        rec(rest, acc)  # leave wire a idle
        for i, b in enumerate(rest):
            nxt = rest[:i] + rest[i + 1 :]
            rec(nxt, acc + ((a, b),))
            rec(nxt, acc + ((b, a),))

    rec(tuple(range(wires)), ())
    return tuple(out)


@lru_cache(maxsize=None)
def _depth_table(n: int) -> dict:
    """Exact minimum ancilla-free depth for every member of GL(n,2), by
    breadth-first search from I, one parallel layer per step."""
    layers = _all_layers(n)
    ident = tuple(1 << i for i in range(n))
    table = {ident: 0}
    frontier = [ident]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for state in frontier:
            for layer in layers:
                new = list(state)
                for c, t in layer:
                    new[t] ^= state[c]
                key = tuple(new)
                if key not in table:
                    table[key] = d
                    nxt.append(key)
        frontier = nxt
    return table


def bfs_optimal_depth(m: F2Matrix) -> int:
    """Exact minimum ancilla-free depth of m in GL(n,2), n <= 4.

    Raises:
        TooLarge: for n > 4 (the state space stops being a toy).
        SingularMatrix: if m is not invertible.
    """
    n = m.rows
    if m.cols != n:
        raise ValueError("square matrix expected")
    if n > _BFS_LIMIT:
        raise TooLarge(f"exact oracle limited to n <= {_BFS_LIMIT}")
    if rank(m) != n:
        raise SingularMatrix("oracle defined on GL(n,2) only")
    d = m.to_dense().astype(np.int64)
    key = tuple(int(x) for x in (d << np.arange(n)).sum(axis=1))
    return _depth_table(n)[key]
