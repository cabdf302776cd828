import numpy as np
import pytest

from cnotsynth import (
    Circuit,
    DimensionMismatch,
    F2Matrix,
    Layer,
    MalformedLayer,
    TooLarge,
    apply_to_bits,
    format_circuit,
    invert_circuit,
    mat_mul,
    parse_circuit,
    random_gl,
    simulate_to_matrix,
    synth_simple,
    verify_implements,
)
from cnotsynth.circuit import level_asap, levelled_circuit, trusted_layer


def format_circuit_ref(c):
    """The text format written one gate at a time."""
    lines = [f"CNOTC v1 wires={c.wires} data={c.data}"]
    for layer in c.layers:
        lines.append(" ".join(f"{ctl}>{tgt}" for ctl, tgt in layer.canonical()))
    return "\n".join(lines) + "\n"


def random_circuit(wires, depth, seed):
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(depth):
        perm = rng.permutation(wires)
        t = int(rng.integers(1, wires // 2 + 1))
        layers.append(np.stack([perm[:t], perm[t : 2 * t]], axis=1))
    return Circuit(wires, wires, layers)


class TestLayer:
    def test_disjointness_enforced(self):
        with pytest.raises(MalformedLayer):
            Layer([(0, 1), (1, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(MalformedLayer):
            Layer([(3, 3)])

    def test_gate_order_canonical(self):
        assert Layer([(4, 5), (0, 1)]) == Layer([(0, 1), (4, 5)])

    def test_empty_layers_dropped(self):
        c = Circuit(3, 3, [[], [(0, 1)], []])
        assert c.depth == 1

    @pytest.mark.parametrize("bad", [[-1, 0], [0, -2], [3, 0], [0, 5]])
    def test_circuit_rejects_trusted_wires_out_of_range(self, bad):
        # simulation would wrap a negative wire: -1 -> 0 verifies as 2 -> 0
        with pytest.raises(MalformedLayer):
            Circuit(3, 3, [trusted_layer(np.array([bad]))])


class TestSimulate:
    def test_empty_is_identity(self):
        assert simulate_to_matrix(Circuit(3, 3)) == F2Matrix.identity(3)

    def test_single_gate_matrix(self):
        c = Circuit(2, 2, [[(0, 1)]])
        assert simulate_to_matrix(c).to_dense().tolist() == [[1, 0], [1, 1]]

    def test_two_sequential_gates(self):
        # R(1,0) . R(0,1) computed by hand over GF(2)
        c = Circuit(2, 2, [[(0, 1)], [(1, 0)]])
        assert simulate_to_matrix(c).to_dense().tolist() == [[0, 1], [1, 1]]

    def test_concat_is_left_multiplication(self):
        for seed in range(5):
            a = random_circuit(10, 4, seed)
            b = random_circuit(10, 3, seed + 50)
            whole = a.concat(b)
            prod = mat_mul(simulate_to_matrix(b), simulate_to_matrix(a))
            assert simulate_to_matrix(whole) == prod


class TestInvertCircuit:
    def test_empty(self):
        assert invert_circuit(Circuit(2, 2)).depth == 0

    def test_single_layer_self_inverse(self):
        c = Circuit(4, 4, [[(0, 1), (2, 3)]])
        inv = invert_circuit(c)
        assert inv.layers == c.layers
        assert simulate_to_matrix(c.concat(inv)) == F2Matrix.identity(4)

    def test_random_circuit_composes_to_identity(self):
        c = random_circuit(12, 10, 3)
        comp = c.concat(invert_circuit(c))
        assert simulate_to_matrix(comp) == F2Matrix.identity(12)


class TestVerifyImplements:
    def test_empty_vs_identity(self):
        rep = verify_implements(Circuit(3, 3), F2Matrix.identity(3))
        assert rep.ok and rep.top_left_match and rep.ancilla_restored

    def test_round_trip_via_synth(self):
        m = random_gl(32, 9)
        assert verify_implements(synth_simple(m), m).ok

    def test_unrestored_ancilla_flagged(self):
        c = Circuit(4, 3, [[(0, 3)]])  # data wire 0 into ancilla 3
        rep = verify_implements(c, F2Matrix.identity(3))
        assert not rep.ancilla_restored and not rep.ok and rep.top_left_match

    def test_vector_simulation_agrees(self):
        m = random_gl(16, 4)
        c = synth_simple(m)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.integers(0, 2, 16, dtype=np.uint8)
            out = apply_to_bits(c, x)
            expect = (m.to_dense().astype(int) @ x.astype(int)) % 2
            assert np.array_equal(out, expect)


class TestInt32Gates:
    """Levelled circuits hold int32 gate arrays; everything reads them as it
    reads int64 ones."""

    @staticmethod
    def both(c):
        return [
            Circuit(c.wires, c.data, [trusted_layer(l.pairs.astype(dt)) for l in c.layers])
            for dt in (np.int32, np.int64)
        ]

    def test_trusted_layer_keeps_int32(self):
        arr = np.array([[0, 1], [2, 3]], dtype=np.int32)
        layer = trusted_layer(arr)
        assert layer.pairs is arr and layer.pairs.dtype == np.int32
        assert not layer.pairs.flags.writeable
        assert trusted_layer(arr.astype(np.int16)).pairs.dtype == np.int64

    def test_layer_equality_across_dtypes(self):
        a = trusted_layer(np.array([[4, 5], [0, 1]], dtype=np.int32))
        assert a == Layer([(0, 1), (4, 5)])
        assert Layer([(0, 1), (4, 5)]) == a
        assert a != Layer([(0, 1), (4, 6)])

    def test_text_round_trip_same_as_int64(self):
        c32, c64 = self.both(random_circuit(300, 20, 5))
        text = format_circuit(c32)
        assert text == format_circuit(c64) == format_circuit_ref(c64)
        assert parse_circuit(text) == c32 == c64

    def test_simulation_and_verification_agree(self):
        m = random_gl(40, 6)
        c32, c64 = self.both(synth_simple(m))
        assert simulate_to_matrix(c32) == simulate_to_matrix(c64) == m
        assert verify_implements(c32, m) == verify_implements(c64, m)
        assert verify_implements(c32, m).ok
        x = np.random.default_rng(1).integers(0, 2, 40, dtype=np.uint8)
        assert np.array_equal(apply_to_bits(c32, x), apply_to_bits(c64, x))

    def test_level_asap_rejects_wires_past_int32(self, monkeypatch):
        import cnotsynth.circuit as circuit

        # any numpy call would fail here instead of allocating per wire
        monkeypatch.setattr(circuit, "np", None)
        for wires in (1 << 31, 1 << 40):
            with pytest.raises(TooLarge):
                level_asap([], wires)

    @pytest.mark.parametrize("bad", [[-1, 2], [0, -3], [4, 0], [1, 9]])
    def test_levelled_circuit_rejects_wires_out_of_range(self, bad):
        # a negative index would wrap in the levelling's per-wire table, one
        # past the end would index out of it
        layers = [np.array([[0, 1]]), np.array([[2, 3], bad])]
        with pytest.raises(MalformedLayer):
            levelled_circuit(layers, 4, 4)

    def test_levelled_circuit_keeps_wire_counts(self):
        c = levelled_circuit([np.array([[0, 1], [2, 3]]), np.array([[1, 2]])], 5, 4)
        assert (c.wires, c.data, c.depth, c.size) == (5, 4, 2, 3)
        assert all(l.pairs.dtype == np.int32 for l in c.layers)


class TestTextFormat:
    def test_round_trip_exact(self):
        c = random_circuit(14, 9, 1)
        assert parse_circuit(format_circuit(c)) == c

    def test_comments_and_blanks_ignored(self):
        text = "CNOTC v1 wires=3 data=2\n\n# comment\n0>1 \n"
        c = parse_circuit(text)
        assert c.wires == 3 and c.data == 2 and c.depth == 1

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_circuit("CNOTC v2 wires=3 data=2\n")

    @pytest.mark.parametrize("counts", ["wires=0 data=0", "wires=3 data=0", "wires=3 data=4"])
    def test_bad_header_wire_counts(self, counts):
        with pytest.raises(DimensionMismatch):
            parse_circuit(f"CNOTC v1 {counts}\n")

    @pytest.mark.parametrize("wires, depth", [(12000, 8), (20000, 5), (100, 3000), (2, 3)])
    def test_round_trip_many_chunks(self, wires, depth):
        # 5-digit wire indices, and more gates (or layers) than one chunk holds
        c = random_circuit(wires, depth, wires)
        text = format_circuit(c)
        assert text == format_circuit_ref(c)
        assert parse_circuit(text) == c

    def test_round_trip_huge_wire_indices(self):
        big = 1 << 40
        c = Circuit(big, big, [[(big - 1, 0), (7, 5)], [(3, 123456789012)]])
        text = format_circuit(c)
        assert text == format_circuit_ref(c)
        assert parse_circuit(text) == c

    def test_shared_wire_found_for_any_wire_count(self):
        head = f"CNOTC v1 wires={1 << 62} data=2\n"
        body = "0>1\n1>0 5>4\n123456789012345678>0\n"
        c = parse_circuit(head + body)
        assert c.depth == 3 and c.layers[2].pairs.tolist() == [[123456789012345678, 0]]
        with pytest.raises(MalformedLayer):
            parse_circuit(head + body + "0>1 1>3\n")

    def test_line_endings_and_padding(self):
        text = "# head\r\nCNOTC v1 wires=4 data=4\r\n\r\n  # c\r\n0>1 2>3  \r\n\t3>0\t1>2 \n\n"
        c = parse_circuit(text)
        assert c == Circuit(4, 4, [[(0, 1), (2, 3)], [(3, 0), (1, 2)]])
        assert parse_circuit("CNOTC v1 wires=3 data=3\n0>0001\n-0>2\n") == Circuit(3, 3, [[(0, 1)], [(0, 2)]])

    @pytest.mark.parametrize(
        "body",
        ["0>1 1>2", "1>1", "-1>2", "0>4", "3>99999999999999999999999", "0>1\n2>3 3>2"],
    )
    def test_malformed_layer(self, body):
        with pytest.raises(MalformedLayer):
            parse_circuit("CNOTC v1 wires=4 data=4\n" + body + "\n")

    @pytest.mark.parametrize(
        "body",
        ["0>x", "01", "1>2>3", ">1", "1>", "0> 1", "0>1 - 2>3", "0-1", "0>1#", "+1>2", "1_0>2",
         "\uff11>2", "0>1 2>3\n0>1 caf\u00e9"],
    )
    def test_bad_token(self, body):
        with pytest.raises(ValueError, match="bad gate"):
            parse_circuit("CNOTC v1 wires=4 data=4\n" + body + "\n")
