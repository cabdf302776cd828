"""Property test of the ancilla construction over structured and random
matrices: every drawn (family, n, s) verifies with its (3s+1)n ancillae
restored, and the stack layout (_layout) fits them."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cnotsynth import max_scale, random_gl, synth_with_ancillae, verify_implements  # noqa: E402
from cnotsynth.synth_ancilla import _copy_rows, _layout, _pick_k  # noqa: E402
from test_corpus import STRUCTURED  # noqa: E402

FAMILIES = sorted(STRUCTURED) + ["random"]


@st.composite
def cases(draw):
    n = draw(st.integers(1, 300))
    s = draw(st.integers(1, max_scale(n)))
    family = draw(st.sampled_from(FAMILIES))
    m = random_gl(n, draw(st.integers(0, 2**16))) if family == "random" else STRUCTURED[family](n)
    return family, n, s, m


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cases())
def test_synth_with_ancillae_verifies_and_fits(case):
    family, n, s, m = case
    c = synth_with_ancillae(m, s)
    rep = verify_implements(c, m)
    assert rep.ok and rep.ancilla_restored, (family, n, s)
    assert c.ancillae == (3 * s + 1) * n
    pk = (1 << _pick_k(n)) - 1
    stacks = _layout(n, s)
    sizes = [n * (i > 0) + 2 * w * pk + c for i, (w, r, c) in enumerate(stacks)]
    assert len(stacks) == s and max(sizes) <= 3 * n and sum(sizes) <= 3 * s * n
    for w, r, c in stacks:
        assert w + r <= 64 and c >= _copy_rows(w, r, n)
