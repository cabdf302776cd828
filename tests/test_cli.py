import csv
import io
import math
import time
from dataclasses import fields

import numpy as np
import pytest

from cnotsynth import (
    F2Matrix,
    contract_tree,
    format_matrix,
    gl_count,
    layer_count,
    parse_circuit,
    random_gl,
    verify_implements,
)
from cnotsynth.cli import _TREE_METHODS, BenchRecord, bench_records, emit_csv, main


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "id8.mat").write_text(format_matrix(F2Matrix.identity(8)))
    (tmp_path / "id3.mat").write_text(format_matrix(F2Matrix.identity(3)))
    (tmp_path / "m32.mat").write_text(format_matrix(random_gl(32, 5)))
    (tmp_path / "t.sexp").write_text("(L 3 (L 2 (L 1 0)))\n")
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def parse_csv(text):
    """BenchRecords from the CSV that emit_csv writes, each field cast to
    its declared type."""
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == [f.name for f in fields(BenchRecord)]
    cast = {"str": str, "int": int, "float": float}
    return [BenchRecord(*(cast[f.type](v) for f, v in zip(fields(BenchRecord), row)))
            for row in rows[1:]]


class TestSynth:
    def test_identity_simple(self, workdir, capsys):
        rc = run(["synth", "--method", "simple", "--in", workdir / "id8.mat",
                  "--out", workdir / "c.cnotc", "--verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "depth=0" in out and "verified=ok" in out

    @pytest.mark.parametrize("method", ["simple", "dnc"])
    def test_verified_round_trip(self, workdir, capsys, method):
        rc = run(["synth", "--method", method, "--in", workdir / "m32.mat",
                  "--out", workdir / "c.cnotc", "--verify"])
        assert rc == 0
        assert "verified=ok" in capsys.readouterr().out
        c = parse_circuit((workdir / "c.cnotc").read_text())
        m = random_gl(32, 5)
        assert verify_implements(c, m).ok

    def test_ancilla_count_reported(self, workdir, capsys):
        # scale 2 clamps to max_scale(32) = 1, so (3*1+1)*32 ancillae
        with pytest.warns(UserWarning, match="ancilla scale 2 clamped to 1"):
            rc = run(["synth", "--method", "ancilla", "--ancilla-scale", 2,
                      "--in", workdir / "m32.mat", "--verify"])
        assert rc == 0
        assert "ancillae=128" in capsys.readouterr().out

    def test_ancilla_scale_honoured_above_clamp(self, tmp_path, capsys):
        (tmp_path / "m256.mat").write_text(format_matrix(random_gl(256, 1)))
        rc = run(["synth", "--method", "ancilla", "--ancilla-scale", 2,
                  "--in", tmp_path / "m256.mat", "--verify"])
        assert rc == 0
        assert "ancillae=1792" in capsys.readouterr().out  # (3*2+1)*256

    def test_missing_file_exit_1(self, workdir):
        assert run(["synth", "--in", workdir / "nope.mat"]) == 1

    def test_singular_exit_2(self, workdir):
        (workdir / "sing.mat").write_text("2 2\n11\n11\n")
        assert run(["synth", "--in", workdir / "sing.mat"]) == 2

    def test_non_square_exit_1(self, workdir, capsys):
        (workdir / "wide.mat").write_text("2 3\n100\n010\n")
        assert run(["synth", "--in", workdir / "wide.mat"]) == 1
        assert "error: PLU of a non-square matrix" in capsys.readouterr().err

    def test_tree_methods(self, workdir, capsys):
        rc = run(["synth", "--method", "tree-contract", "--in", workdir / "t.sexp",
                  "--out", workdir / "t.cnotc"])
        assert rc == 0
        assert "depth=" in capsys.readouterr().out

    def test_tree_mismatch_exit_3(self, workdir, capsys, monkeypatch):
        # a contraction that drops its last layer no longer matches the
        # sequential circuit
        def short(tree):
            c = contract_tree(tree)
            c.layers = c.layers[:-1]
            return c

        monkeypatch.setitem(_TREE_METHODS, "tree-contract", short)
        rc = run(["synth", "--in", workdir / "t.sexp", "--method", "tree-contract", "--verify"])
        assert rc == 3
        assert "verified=FAIL" in capsys.readouterr().out


class TestVerify:
    def test_ok_and_fail(self, workdir, capsys):
        run(["synth", "--method", "simple", "--in", workdir / "m32.mat",
             "--out", workdir / "c.cnotc"])
        assert run(["verify", "--circuit", workdir / "c.cnotc",
                    "--in", workdir / "m32.mat"]) == 0
        assert run(["verify", "--circuit", workdir / "c.cnotc",
                    "--in", workdir / "id8.mat"]) in (1, 3)


class TestBoundsOracleRandomTree:
    def test_bounds_gl2(self, capsys):
        assert run(["bounds", "--n", 2, "--m", 0]) == 0
        assert "gl_count=6" in capsys.readouterr().out

    @pytest.mark.parametrize("n,m", [(120, 0), (4096, 28672)])
    def test_bounds_any_n_fast(self, capsys, n, m):
        t0 = time.perf_counter()
        assert run(["bounds", "--n", n, "--m", m]) == 0
        assert time.perf_counter() - t0 < 1.0
        fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
        assert "gl_count" not in fields
        assert float(fields["log2_gl_count"]) == pytest.approx(n * n - 1.7919, abs=1e-3)
        assert int(fields["counting_bound"]) == {120: 37, 4096: 71}[n]

    def test_bounds_prints_counts_that_fit(self, capsys):
        # 119 gives 4292 digits, under Python's default limit of 4300
        assert run(["bounds", "--n", 119, "--m", 2490]) == 0
        fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
        assert int(fields["gl_count"]) == gl_count(119)
        assert int(fields["layer_count"]) == layer_count(2609)
        log2_layers = math.log2(layer_count(2609))
        assert float(fields["log2_layer_count"]) == pytest.approx(log2_layers, abs=1e-3)
        assert run(["bounds", "--n", 119, "--m", 2491]) == 0
        assert "layer_count=" not in capsys.readouterr().out.replace("log2_layer_count=", "")

    def test_oracle_identity(self, workdir, capsys):
        assert run(["oracle", "--in", workdir / "id3.mat"]) == 0
        assert "optimal_depth=0" in capsys.readouterr().out

    def test_oracle_too_large_exit_2(self, workdir):
        assert run(["oracle", "--in", workdir / "id8.mat"]) == 2

    def test_random_deterministic(self, workdir):
        a = workdir / "a.mat"
        b = workdir / "b.mat"
        run(["random", "--n", 12, "--seed", 9, "--out", a])
        run(["random", "--n", 12, "--seed", 9, "--out", b])
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("text", ["(L 0 1", "("])
    def test_truncated_tree_exit_1(self, workdir, capsys, text):
        (workdir / "cut.sexp").write_text(text)
        assert run(["synth", "--in", workdir / "cut.sexp", "--method", "tree-contract"]) == 1
        assert "error: unexpected end of tree expression" in capsys.readouterr().err

    def test_tree_contract_verified(self, workdir, capsys):
        rc = run(["synth", "--in", workdir / "t.sexp", "--method", "tree-contract",
                  "--out", workdir / "tc.cnotc", "--verify"])
        assert rc == 0
        assert "verified=ok" in capsys.readouterr().out
        assert run(["tree", "--in", workdir / "t.sexp"]) == 1  # the subcommand is gone


class TestBench:
    def test_single_row(self, workdir, capsys):
        rc = run(["bench", "--sizes", 16, "--methods", "simple", "--seeds", 1,
                  "--csv", workdir / "out.csv"])
        assert rc == 0
        rows = parse_csv((workdir / "out.csv").read_text())
        assert len(rows) == 1
        assert rows[0].method == "simple" and rows[0].n == 16

    def test_csv_round_trip(self):
        recs = bench_records([8, 16], ["simple", "dnc"], [1, 2], [1])
        assert len(recs) == 8
        assert parse_csv(emit_csv(recs)) == recs

    def test_depth_at_least_bounds(self):
        for r in bench_records([16], ["simple", "dnc", "ancilla"], [3], [1]):
            assert r.depth >= r.fanin_bound
            assert r.depth >= min(r.counting_bound, r.depth)

    def test_deterministic_given_seed(self):
        a = emit_csv(bench_records([16], ["dnc"], [7], [1]))
        b = emit_csv(bench_records([16], ["dnc"], [7], [1]))
        # wall-clock column differs; compare all other fields
        strip = lambda text: [",".join(r.split(",")[:8]) for r in text.splitlines()]
        assert strip(a) == strip(b)

    def test_bad_flags_exit_1(self):
        assert run(["bench", "--sizes", "16", "--methods", "warp"]) == 1

    def test_ancilla_scale_recorded_as_built(self, workdir, capsys):
        # max_scale(64) = 1: scale 2 is clamped to 1, which is built and
        # recorded once, and scale 0 is rejected instead of running as 1
        with pytest.warns(UserWarning, match="ancilla scale 2 clamped to 1"):
            rc = run(["bench", "--sizes", 64, "--methods", "ancilla", "--scale", "1,2",
                      "--csv", workdir / "out.csv"])
        assert rc == 0
        rows = parse_csv((workdir / "out.csv").read_text())
        assert [(r.s, r.ancillae) for r in rows] == [(1, 4 * 64)]
        assert run(["bench", "--sizes", 64, "--methods", "ancilla", "--scale", "0,2"]) == 1
        assert "error: need n >= 1 and s >= 1" in capsys.readouterr().err
