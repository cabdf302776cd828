"""Property test of the ancilla-free synthesisers over structured and random
matrices: for every drawn (family, n), synth_simple and synth_dnc emit
circuits on the n data wires alone that verify, and synth_simple's depth
stays within 4n."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cnotsynth import random_gl, synth_dnc, synth_simple, verify_implements  # noqa: E402
from test_corpus import STRUCTURED  # noqa: E402

FAMILIES = sorted(STRUCTURED) + ["random"]


@st.composite
def cases(draw):
    n = draw(st.integers(1, 300))
    family = draw(st.sampled_from(FAMILIES))
    seed = draw(st.integers(0, 2**16))
    m = random_gl(n, seed) if family == "random" else STRUCTURED[family](n)
    return family, n, seed, m


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cases())
def test_simple_and_dnc_verify_without_ancillae(case):
    family, n, seed, m = case
    simple = synth_simple(m)
    for name, c in (("simple", simple), ("dnc", synth_dnc(m, seed=seed))):
        rep = verify_implements(c, m)
        assert rep.ok and c.wires == n and c.ancillae == 0, (name, family, n)
    assert simple.depth <= 4 * n, (family, n)
