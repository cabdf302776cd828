"""Property test of commutation-aware levelling (circuit.level_commuting)
over random gate sequences: wire-disjoint arrays whose wires repeat from
one array to the next, levelled with the full window and with narrow ones,
so that gates also meet the bottom of their window.

The levelled circuit must keep the sequence's matrix, give wire-disjoint
levels, keep the order of every pair of gates where the target of one is
the control of the other, be no deeper than level_asap on the same
sequence and be left as it is by level_asap; bad wires raise the errors
level_asap raises."""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cnotsynth import Circuit, Layer, MalformedLayer, TooLarge, simulate_to_matrix  # noqa: E402
from cnotsynth import circuit  # noqa: E402
from cnotsynth.circuit import level_asap, level_commuting, trusted_layer  # noqa: E402
from test_levelling import wire_sequences  # noqa: E402


@st.composite
def sequences(draw):
    """(wires, arrays): each array a random matching, each gate pointing
    either way; about half the arrays hold at most one gate, so that the
    levels have gaps for later gates to drop into."""
    wires = draw(st.integers(2, 12))
    seq = []
    for _ in range(draw(st.integers(0, 40))):
        perm = draw(st.permutations(range(wires)))
        k = draw(st.integers(0, draw(st.sampled_from([1, wires // 2]))))
        seq.append(np.array(perm[: 2 * k], dtype=np.int64).reshape(k, 2))
    return wires, seq


def levelled(level, seq, wires):
    out = [a.copy() for a in seq]
    level(out, wires)
    return out


def role_runs(layers):
    """Per wire, its gates cut into maximal runs of one role (control or
    target), as rows (wire, run, control, target) sorted within each run:
    gates within a run commute, gates of neighbouring runs do not."""
    rows = wire_sequences(layers)
    wire, role = rows[:, 0], rows[:, 1] == rows[:, 0]
    new = np.r_[True, (wire[1:] != wire[:-1]) | (role[1:] != role[:-1])]
    out = np.column_stack([wire, np.cumsum(new), rows[:, 1:]])
    return out[np.lexsort((out[:, 3], out[:, 2], out[:, 1]))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sequences(), st.sampled_from([1, 2, 3, 5, circuit._WINDOW]))
def test_level_commuting_keeps_the_matrix_and_the_dependent_order(case, window):
    wires, seq = case
    with mock.patch.object(circuit, "_WINDOW", window):
        out = levelled(level_commuting, seq, wires)
    asap = levelled(level_asap, seq, wires)
    if not sum(map(len, seq)):
        assert out == []
        return
    assert all(len(a) and a.dtype == np.int32 for a in out)
    for a in out:
        Layer(a)  # the checking constructor: wire-disjoint
    before = Circuit(wires, wires, [trusted_layer(a) for a in seq])
    after = Circuit(wires, wires, [trusted_layer(a) for a in out])
    assert simulate_to_matrix(after) == simulate_to_matrix(before)
    assert np.array_equal(role_runs(out), role_runs(seq))
    assert len(out) <= len(asap)
    again = levelled(level_asap, out, wires)
    assert len(again) == len(out) and all(map(np.array_equal, again, out))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sequences(), st.data())
def test_level_commuting_rejects_what_level_asap_rejects(case, data):
    wires, seq = case
    bad = data.draw(st.sampled_from([-1, -wires, wires, wires + 5]))
    at = data.draw(st.integers(0, len(seq)))
    seq = seq[:at] + [np.array([[0, bad]] if data.draw(st.booleans()) else [[bad, 0]])] + seq[at:]
    for level in (level_asap, level_commuting):
        with pytest.raises(MalformedLayer):
            levelled(level, seq, wires)
        for huge in (1 << 31, 1 << 40):
            with pytest.raises(TooLarge):
                levelled(level, seq, huge)
