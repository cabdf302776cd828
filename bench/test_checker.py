"""Tests of the benchmark's independent checker, tracer and harness.

Each corruption case starts from a circuit the program made and verified,
breaks it one way, and expects the checker to reject it.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import checker as ck
import run
import tracer
from cnotsynth import (
    Circuit,
    MalformedLayer,
    bounds,
    cli,
    counting_depth_bound,
    fanin_depth_bound,
    format_circuit,
    format_matrix,
    gl_count,
    layer_count,
    parse_circuit,
    random_gl,
    simulate_to_matrix,
    synth_dnc,
    synth_simple,
    synth_with_ancillae,
    verify_implements,
)
from cnotsynth.circuit import trusted_layer
from cnotsynth.synth_free import color_edges

# the smallest sizes where s=2 is not clamped: n / log2(n)^2 >= 2
N = 128


def _layers(c):
    return [np.array(l.pairs) for l in c.layers]


@pytest.fixture(scope="module")
def case():
    m = random_gl(N, 7)
    circuits = {
        ("simple", 0): synth_simple(m),
        ("dnc", 0): synth_dnc(m, seed=7),
        ("ancilla", 1): synth_with_ancillae(m, 1, seed=7),
        ("ancilla", 2): synth_with_ancillae(m, 2, seed=7),
    }
    for c in circuits.values():
        assert verify_implements(c, m).ok
    return m, m.to_dense(), circuits


def test_program_circuits_pass(case):
    _, dense, circuits = case
    for (method, s), c in circuits.items():
        ck.check_circuit(c.wires, c.data, _layers(c), dense, seed=1)
        ck.check_method(method, s, c.wires, c.data, c.depth, dense)


def test_swapped_control_and_target(case):
    _, dense, circuits = case
    c = circuits[("simple", 0)]
    layers = _layers(c)
    layers[len(layers) // 2][0] = layers[len(layers) // 2][0][::-1]
    with pytest.raises(ck.CheckError, match="M·X"):
        ck.check_circuit(c.wires, c.data, layers, dense, seed=1)


@pytest.mark.parametrize("key", [("dnc", 0), ("ancilla", 1)])
def test_dropped_layer(case, key):
    _, dense, circuits = case
    c = circuits[key]
    layers = _layers(c)
    del layers[len(layers) // 3]
    with pytest.raises(ck.CheckError, match="M·X|ancilla"):
        ck.check_circuit(c.wires, c.data, layers, dense, seed=1)


def test_dirty_ancilla(case):
    _, dense, circuits = case
    c = circuits[("ancilla", 1)]
    layers = _layers(c) + [np.array([[0, N]])]
    with pytest.raises(ck.CheckError, match="ancilla is not back at 0"):
        ck.check_circuit(c.wires, c.data, layers, dense, seed=1)


def test_wire_out_of_range(case):
    _, dense, circuits = case
    c = circuits[("simple", 0)]
    layers = _layers(c) + [np.array([[0, c.wires]])]
    with pytest.raises(ck.CheckError, match="outside"):
        ck.check_circuit(c.wires, c.data, layers, dense, seed=1)


@pytest.mark.parametrize("gates", [[[0, 1], [1, 2]], [[0, 1], [0, 1]]],
                         ids=["chained", "duplicated"])
def test_overlapping_trusted_layer(gates):
    """verify_implements accepts these layers against their own simulated
    matrix; the text reader and the checker do not."""
    c = Circuit(3, 3, [trusted_layer(np.array(gates))])
    m = simulate_to_matrix(c)
    assert verify_implements(c, m).ok
    with pytest.raises(MalformedLayer):
        parse_circuit(format_circuit(c))
    with pytest.raises(ck.CheckError, match="uses a wire twice"):
        ck.check_circuit(3, 3, _layers(c), m.to_dense(), seed=1)


def test_method_properties(case):
    _, dense, circuits = case
    c = circuits[("ancilla", 1)]
    with pytest.raises(ck.CheckError, match="ancillae"):
        ck.check_method("ancilla", 2, c.wires, c.data, c.depth, dense)
    with pytest.raises(ck.CheckError, match="4n"):
        ck.check_method("simple", 0, N, N, 4 * N + 1, dense)
    with pytest.raises(ck.CheckError, match="light-cone"):
        ck.check_method("dnc", 0, N, N, ck.light_cone_bound(dense) - 1, dense)


def _cli_synth(tmp_path, m, method, s):
    mat, out = tmp_path / "m.mat", tmp_path / "c.cnotc"
    mat.write_text(format_matrix(m))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["synth", "--in", str(mat), "--out", str(out), "--method", method,
                       "--ancilla-scale", str(max(s, 1)), "--verify"])
    assert rc == 0
    return ck.parse_summary(buf.getvalue()), ck.read_cnotc(out.read_text())


@pytest.mark.parametrize("key", ["counting_bound", "fanin_bound", "depth"])
def test_wrong_printed_value(case, tmp_path, key):
    m, dense, _ = case
    summary, (wires, data, layers) = _cli_synth(tmp_path, m, "ancilla", 1)
    ck.check_summary(summary, wires, data, layers, dense)
    summary[key] = str(int(summary[key]) + 1)
    with pytest.raises(ck.CheckError, match=key):
        ck.check_summary(summary, wires, data, layers, dense)


def test_reader_matches_program_text(case):
    m, dense, circuits = case
    for c in circuits.values():
        wires, data, layers = ck.read_cnotc(format_circuit(c))
        assert (wires, data) == (c.wires, c.data)
        assert all(np.array_equal(a, l.canonical()) for a, l in zip(layers, c.layers))
        assert len(layers) == c.depth
    assert np.array_equal(ck.read_matrix(format_matrix(m)), dense)


def test_light_cone_matches_program():
    for n, seed in [(1, 0), (2, 1), (5, 2), (33, 3), (64, 4)]:
        m = random_gl(n, seed)
        assert ck.light_cone_bound(m.to_dense()) == fanin_depth_bound(m)


def _bound_by_definition(n, m):
    target, per_layer = ck.gl_exact(n), ck.layers_exact(n + m)
    d, acc = 0, 1
    while acc < target:
        acc, d = acc * per_layer, d + 1
    return d


def test_exact_counts_match_program_and_enumeration():
    for n in range(1, 30):
        assert ck.gl_exact(n) == gl_count(n)
        assert ck.layers_exact(n) == layer_count(n)
    # wires 3: idle, or one of 3 pairs in 2 orientations
    assert ck.layers_exact(3) == 7
    assert [ck.gl_exact(n) for n in (1, 2, 3)] == [1, 6, 168]


def test_log_domain_bound_matches_integers():
    for n in range(1, 25):
        for m in list(range(0, 25)) + [3 * n, 7 * n]:
            want = _bound_by_definition(n, m)
            assert ck.counting_bound(n, m) == want, (n, m)
            # tol=1 takes the integer confirmation on every (n, m)
            assert ck.counting_bound(n, m, tol=1.0) == want, (n, m)
            assert counting_depth_bound(n, m) == want, (n, m)


@pytest.mark.parametrize("n, m, want", [(1024, 4096, 35), (1024, 7168, 21), (4096, 0, 707)])
def test_log_domain_bound_at_scale(n, m, want):
    assert ck.counting_bound(n, m) == want


def test_tracer_nests_and_restores():
    import cnotsynth
    import cnotsynth.synth_free as sf

    labels, counters = run._tracer_hooks()
    t = tracer.Tracer(labels, counters)
    t.install("cnotsynth", run.TRACED_MODULES)
    try:
        assert sf.color_edges is not color_edges
        c = cnotsynth.synth_dnc(random_gl(256, 1), seed=1)
        cnotsynth.synth_with_ancillae(random_gl(N, 1), 2, seed=1)
    finally:
        t.uninstall()
    assert sf.color_edges is color_edges and bounds.gl_count is gl_count
    tree = t.take()
    assert "synth_free.synth_dnc/f2.plu_decompose" in tree
    assert any(p.startswith("synth_free.synth_dnc/") and p.endswith("matching.color_edges")
               for p in tree)
    assert "synth_ancilla.synth_with_ancillae.s2/f2.invert" in tree
    per_fn = tracer.by_function(tree)
    dnc = per_fn["synth_free.synth_dnc"]
    assert dnc.calls == 1 and dnc.counters["depth"] == c.depth
    assert 0 < dnc.self_s < dnc.s
    assert per_fn["matching.color_edges"].counters["edges"] > 0


def test_benchmark_json_matches_harness():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [w for w in run.WORKLOADS
                                                      if w != "roundtrip-4096"]
    assert {e["name"]: e["unit"] for e in spec["end_to_end"]} == run.END_TO_END
    assert {e["name"]: e["unit"] for e in spec["per_layer"]} == {
        name: unit for name, (_, unit) in run.PER_LAYER.items()}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "tiny-cli", (N, 1, "cli"))
    monkeypatch.setitem(run.WORKLOADS, "tiny-memory", (N, 1, "memory"))
    return tmp_path


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["tiny-cli", "tiny-memory"])
@pytest.mark.parametrize("trace", [0, 1])
def test_harness_runs_clean(tiny, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = _last_json(capsys)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 4 * run.WORKLOADS[workload][1]
    names = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(names)
    if trace:
        assert (tiny / f"trace-{workload}-seed3.json").is_file()
        assert result["metrics"]["synth_free.synth_dnc.depth"]["value"] > 0
    else:
        assert result["metrics"]["depth.ancilla_s2"]["value"] > 0


def test_harness_counts_a_corrupt_output_as_failed(tiny, capsys, monkeypatch):
    import cnotsynth

    def corrupt(m):
        c = synth_simple(m)
        return Circuit(c.wires, c.data, c.layers[1:])

    monkeypatch.setattr(cnotsynth, "synth_simple", corrupt)
    assert run.main(["--workload", "tiny-memory", "--seed", "3", "--seconds", "0"]) == 0
    result = _last_json(capsys)
    assert (result["attempted"], result["failed"]) == (4, 1)


def test_harness_flags_an_output_that_changes_between_passes(tiny, monkeypatch):
    import cnotsynth

    calls = []

    def drifting(m):
        c = synth_simple(m)
        calls.append(1)
        # a gate applied twice is the identity, so both versions are correct
        extra = [np.array([[0, 1]])] * 2 if len(calls) > 1 else []
        return Circuit(c.wires, c.data, list(c.layers) + extra)

    monkeypatch.setattr(cnotsynth, "synth_simple", drifting)
    bench = run.Bench(cnotsynth, cli, ck, run.SpeedProbe(), "tiny-memory", 3)
    bench.setup()
    bench.run_pass()
    assert bench.deterministic
    bench.run_pass()
    assert not bench.deterministic and bench.failed == 0
    assert len(bench.case_times(0)) == len(bench.case_times(1)) == 1
