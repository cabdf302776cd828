"""Lock-step emission of the dnc traverse blocks, and dnc's levelling by
commutation.

_dnc_upper_layers emits the traverse blocks of one recursion depth in
lock step, deepest depth first.  Every wire keeps the gate order of the
post-order emission kept here as a reference builder, so both
levellings must put every gate of synth_dnc's sequence on the same level
either way.  Levelled by commutation, dnc must be much shallower than
as soon as possible on the same gates, and never deeper on any
structured family.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cnotsynth import F2Matrix, plu_decompose, random_gl, synth_dnc, verify_implements  # noqa: E402
from cnotsynth.circuit import level_asap, level_commuting, levelled_circuit  # noqa: E402
from cnotsynth.f2 import _solve_unit_upper  # noqa: E402
from cnotsynth.synth_free import (  # noqa: E402
    _BASE_SIZE,
    _dnc_upper_layers,
    _flip_reverse,
    _invert_perm,
    _staircase_upper_layers,
    _traverse_block,
    permutation_layers,
)
from conftest import repeated_col, repeated_row  # noqa: E402
from test_corpus import STRUCTURED  # noqa: E402

FAMILIES = {**STRUCTURED, "repeated_row": repeated_row, "repeated_col": repeated_col}


def post_order_upper_layers(u: F2Matrix, seed: int) -> list:
    """The reduction of _dnc_upper_layers with its traverse blocks emitted
    one after another, children before parents (post-order)."""
    leaves, blocks = [], []

    def walk(u, base, seed):
        m = u.rows
        if m <= _BASE_SIZE:
            leaves.append((base, u))
            return
        k = max(1, (m.bit_length() - 1) // 2)
        h1 = m - k * ((m // 2) // k)
        m1 = u.submatrix(0, h1, 0, h1)
        walk(m1, base, 2 * seed + 1)
        walk(u.submatrix(h1, m, h1, m), base + h1, 2 * seed + 2)
        x = _solve_unit_upper(m1, u.submatrix(0, h1, h1, m))
        blocks.extend(_traverse_block(x, base, base + h1, k, m, seed))

    walk(u, 0, seed)
    return _staircase_upper_layers(leaves) + blocks


def dnc_sequence(m: F2Matrix, seed: int, upper_layers=_dnc_upper_layers) -> list:
    """synth_dnc's gate sequence before levelling, its factors reduced by
    ``upper_layers``."""
    plu = plu_decompose(m)
    layers = [l.pairs for l in permutation_layers(_invert_perm(plu.perm)).layers]
    layers.extend(_flip_reverse(upper_layers(plu.lower.transpose(), seed)))
    layers.extend(upper_layers(plu.upper, seed + 1))
    layers.reverse()
    return layers


def depths(m: F2Matrix, seed: int) -> tuple:
    """synth_dnc's circuit, and the depth of its gate sequence levelled as
    soon as possible."""
    c = synth_dnc(m, seed=seed)
    asap = levelled_circuit(dnc_sequence(m, seed), m.rows, m.rows, level_asap)
    assert asap.size == c.size
    return c, asap.depth


@st.composite
def cases(draw):
    n = draw(st.sampled_from([65, 127, 129, 300, 700]))
    family = draw(st.sampled_from(sorted(FAMILIES) + ["random"]))
    seed = draw(st.integers(0, 2**16))
    m = random_gl(n, seed) if family == "random" else FAMILIES[family](n)
    return family, n, seed, m


@settings(max_examples=32, deadline=None, derandomize=True, database=None)
@given(cases())
def test_lock_step_keeps_every_gate_on_its_level(case):
    family, n, seed, m = case
    lock_step = dnc_sequence(m, seed)
    post_order = dnc_sequence(m, seed, post_order_upper_layers)
    for level in (level_asap, level_commuting):
        got = levelled_circuit(list(lock_step), n, n, level)
        assert got == levelled_circuit(list(post_order), n, n, level), (level.__name__, family, n)
    assert got == synth_dnc(m, seed=seed)
    assert verify_implements(got, m).ok, (family, n)


# the largest depth synth_dnc(random_gl(n, seed), seed=seed) may take, as a
# share of the depth of the same gates levelled as soon as possible
# (measured 0.74-0.75 at n=256 and 0.69-0.72 at n=512 and 1024)
COMMUTING_SHARE = {(256, 0): 0.8, (256, 1): 0.8, (256, 2): 0.8, (512, 100): 0.75, (1024, 1): 0.75}


@pytest.mark.parametrize("n,seed", sorted(COMMUTING_SHARE))
def test_commuting_depth_below_asap(n, seed):
    m = random_gl(n, seed)
    c, asap_depth = depths(m, seed)
    assert verify_implements(c, m).ok
    assert c.depth <= COMMUTING_SHARE[n, seed] * asap_depth, (c.depth, asap_depth)


@pytest.mark.parametrize("n", [65, 127, 129, 300, 1024])
def test_no_structured_family_deeper_than_asap(n):
    names = sorted(FAMILIES) if n < 1024 else ["repeated_col", "repeated_row"]
    for family in names:
        m = FAMILIES[family](n)
        c, asap_depth = depths(m, 0)
        assert verify_implements(c, m).ok, family
        assert c.depth <= asap_depth, (family, c.depth, asap_depth)
