"""cnotsynth benchmark: seeded round trips and CLI file runs, every output
checked by an independent checker.

    python3 bench/run.py --workload roundtrip-1024 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nowhere else.  One process, one thread, one client
in a closed loop: each operation starts when the previous one has finished
and has been checked.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
program's public functions are wrapped from outside (``tracer.py``) and the
metrics are the per-layer ones.  Result and trace files go to
``bench/out/``.
"""

import time

_T0 = time.perf_counter()

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# (metric key, CLI method, ancilla scale s); the same four methods the
# round-trip acceptance criterion runs
METHODS = (
    ("simple", "simple", 0),
    ("dnc", "dnc", 0),
    ("ancilla_s1", "ancilla", 1),
    ("ancilla_s2", "ancilla", 2),
)

# name -> (n, matrices per round, path).  A run makes whole passes over the
# same seeded matrices until --seconds of timed work are done, so the depth
# and gate means are exact for a seed whatever the machine's speed.  dnc's
# cost and gate count vary by up to 10 % from one random matrix to the
# next, so a round holds several matrices.  roundtrip-4096 is for runs by
# hand: one pass costs about 33 s, which leaves no room to average over
# matrices or repeats, and BENCHMARK.json leaves it out.
WORKLOADS = {
    "roundtrip-1024": (1024, 12, "memory"),
    "cli-files-512": (512, 2, "cli"),
    "roundtrip-4096": (4096, 1, "memory"),
}

END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_p50_s": "s",
    "peak_rss_mb": "MB",
    **{f"depth.{key}": "layers" for key, _, _ in METHODS},
    **{f"gates.{key}": "gates" for key, _, _ in METHODS},
}

# name -> (phase, unit).  "<function>.s" is inclusive and "<function>.self_s"
# exclusive seconds, both per case; "depth" is the mean over calls; any other
# quantity is a counter summed per case.  random_gl runs only in set-up.
PER_LAYER = {
    "f2.random_gl.s": ("setup", "s"),
    "f2.plu_decompose.s": ("case", "s/case"),
    "f2.invert.s": ("case", "s/case"),
    "f2.parse_matrix.s": ("case", "s/case"),
    "matching.color_edges.s": ("case", "s/case"),
    "matching.color_edges.edges": ("case", "edges/case"),
    "synth_free.synth_simple.self_s": ("case", "s/case"),
    "synth_free.synth_simple.depth": ("case", "layers"),
    "synth_free.synth_dnc.self_s": ("case", "s/case"),
    "synth_free.synth_dnc.depth": ("case", "layers"),
    "synth_ancilla.synth_with_ancillae.s1.self_s": ("case", "s/case"),
    "synth_ancilla.synth_with_ancillae.s1.depth": ("case", "layers"),
    "synth_ancilla.synth_with_ancillae.s2.self_s": ("case", "s/case"),
    "synth_ancilla.synth_with_ancillae.s2.depth": ("case", "layers"),
    "circuit.verify_implements.s": ("case", "s/case"),
    "circuit.verify_implements.gates": ("case", "gates/case"),
    "circuit.format_circuit.s": ("case", "s/case"),
    "circuit.format_circuit.bytes": ("case", "bytes/case"),
    "circuit.parse_circuit.s": ("case", "s/case"),
    "bounds.counting_depth_bound.s": ("case", "s/case"),
    "bounds.gl_count.s": ("case", "s/case"),
    "bounds.layer_count.s": ("case", "s/case"),
    "bounds.fanin_depth_bound.s": ("case", "s/case"),
    "cli.main.self_s": ("case", "s/case"),
}

TRACED_MODULES = ("f2", "matching", "synth_free", "synth_ancilla", "circuit", "bounds", "cli")


def _process_age() -> float:
    """Seconds since this process started, from the kernel's start time
    where /proc has it, else since the first statement of this file."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start = int(fh.read().rsplit(")", 1)[1].split()[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def _load_program():
    src = ROOT / "src"
    if not (src / "cnotsynth" / "__init__.py").is_file():
        raise SystemExit(f"error: no cnotsynth sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import cnotsynth
    from cnotsynth import cli

    if Path(cnotsynth.__file__).resolve().parent != src / "cnotsynth":
        raise SystemExit(f"error: imported cnotsynth from {cnotsynth.__file__}, not {src}")
    return cnotsynth, cli


def _tracer_hooks():
    def scale(args, kwargs):
        return f"s{kwargs.get('s', args[1] if len(args) > 1 else None)}"

    def depth(args, kwargs, circuit):
        return {"depth": circuit.depth}

    labels = {"synth_ancilla.synth_with_ancillae": scale}
    counters = {
        "matching.color_edges": lambda a, k, r: {"edges": len(a[0])},
        "circuit.verify_implements": lambda a, k, r: {"gates": a[0].size},
        "circuit.format_circuit": lambda a, k, r: {"bytes": len(r)},
        "synth_free.synth_simple": depth,
        "synth_free.synth_dnc": depth,
        "synth_ancilla.synth_with_ancillae": depth,
    }
    return labels, counters


class SpeedProbe:
    """A fixed piece of reference work, timed between operations.

    On a shared virtual machine the CPU speed switches between levels about
    1.6x apart, for spells from a fraction of a second to minutes, so raw
    seconds of the same work spread by 20 % from run to run.  The probe does
    the kinds of work the program does (numpy gathers and XORs, big-integer
    products, a Python loop) and takes about ``REF_S`` seconds at the speed
    the README's figures were taken at.  An operation's time scaled by
    ``REF_S / probe time`` around it is its time at that speed.
    """

    REF_S = 0.0130

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        self.words = rng.integers(0, 1 << 63, size=1 << 16, dtype=np.uint64)
        self.index = rng.integers(0, 1 << 16, size=(150, 1 << 12))
        self.samples = []

    def sample(self) -> float:
        words = self.words
        t0 = time.perf_counter()
        for row in self.index:
            words[row[1::2]] ^= words[row[::2]]
        x = 1
        for i in range(1, 1500):
            x *= 2 * i + 1
        acc = 0
        for i in range(100000):
            acc += i & 7
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt


class Bench:
    """One run of one workload: set-up, then whole passes over the round.

    Each operation (one method on one matrix) runs once per pass.  Its time
    is the mean over passes of its seconds scaled to the probe's reference
    speed (``SpeedProbe``), with the probe timed just before and just after
    it.  The first output of each operation is checked in full; a later
    pass must give the same bytes, or it is checked again and the run is
    marked not correct.
    """

    def __init__(self, cs, cli, checker, probe, workload: str, seed: int):
        self.cs, self.cli, self.ck, self.probe = cs, cli, checker, probe
        self.n, size, self.path = WORKLOADS[workload]
        self.seeds = [seed * 100 + i for i in range(size)]
        self.work = OUT / "work" / workload
        self.matrices = []
        self.dense = {}
        self.passes = 0
        self.failed = 0
        self.attempted = 0
        self.deterministic = True
        self.times = {}  # (matrix index, method key) -> [(raw s, scaled s)] per pass
        self.seen = {}  # (matrix index, method key) -> (digest, depth, gates)

    def setup(self) -> None:
        """Seeded inputs: random_gl matrices, and their .mat files for the
        CLI path."""
        if self.path == "cli":
            shutil.rmtree(self.work, ignore_errors=True)
            self.work.mkdir(parents=True)
        for seed in self.seeds:
            m = self.cs.random_gl(self.n, seed)
            if self.path == "cli":
                mat = self.work / f"m{seed}.mat"
                mat.write_text(self.cs.format_matrix(m), encoding="ascii")
                m = mat
            self.matrices.append(m)

    def cleanup(self) -> None:
        shutil.rmtree(OUT / "work", ignore_errors=True)

    def _dense(self, i: int):
        """The matrix as the checker reads it; built outside timed work."""
        if i not in self.dense:
            m = self.matrices[i]
            if self.path == "cli":
                self.dense[i] = self.ck.read_matrix(m.read_text(encoding="ascii"))
            else:
                self.dense[i] = m.to_dense()
        return self.dense[i]

    def run_pass(self) -> float:
        """Every method on every matrix once; the timed seconds.  Outputs
        are checked after each clock stops."""
        self.passes += 1
        spent = 0.0
        op = self._memory_op if self.path == "memory" else self._cli_op
        before = self.probe.sample()
        for i in range(len(self.matrices)):
            for j, (key, method, s) in enumerate(METHODS):
                self.attempted += 1
                try:
                    dt, digest, check = op(i, method, s)
                    after = self.probe.sample()
                    scaled = dt * self.probe.REF_S * 2 / (before + after)
                    before = after
                    spent += dt
                    first = self.seen.get((i, key))
                    if first is None or first[0] != digest:
                        self.deterministic &= first is None
                        depth, gates = check(self._dense(i), lane_seed=self.seeds[i] * 8 + j)
                        self.seen.setdefault((i, key), (digest, depth, gates))
                except Exception as exc:  # one failed operation must not end the run
                    self.failed += 1
                    print(f"FAILED {key} on matrix seed {self.seeds[i]}: "
                          f"{type(exc).__name__}: {exc}", file=sys.stderr)
                    before = self.probe.sample()
                    continue
                self.times.setdefault((i, key), []).append((dt, scaled))
        return spent

    def _memory_op(self, i, method, s):
        m, seed = self.matrices[i], self.seeds[i]
        t0 = time.perf_counter()
        if method == "simple":
            c = self.cs.synth_simple(m)
        elif method == "dnc":
            c = self.cs.synth_dnc(m, seed=seed)
        else:
            c = self.cs.synth_with_ancillae(m, s, seed=seed)
        report = self.cs.verify_implements(c, m)
        dt = time.perf_counter() - t0
        layers = [l.pairs for l in c.layers]
        digest = hashlib.blake2b(repr((c.wires, c.data, report)).encode())
        for g in layers:
            digest.update(g.tobytes() + b";")

        def check(dense, lane_seed):
            if not report.ok:
                raise self.ck.CheckError(f"verify_implements reported {report}")
            self.ck.check_circuit(c.wires, c.data, layers, dense, lane_seed)
            self.ck.check_method(method, s, c.wires, c.data, len(layers), dense)
            return len(layers), sum(len(g) for g in layers)

        return dt, digest.digest(), check

    def _cli_op(self, i, method, s):
        mat = str(self.matrices[i])
        out = str(self.work / f"c{self.seeds[i]}-{method}{s}.cnotc")
        argv = ["synth", "--in", mat, "--out", out, "--method", method,
                "--seed", str(self.seeds[i]), "--verify"]
        if method == "ancilla":
            argv += ["--ancilla-scale", str(s)]
        synth_out, verify_out = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(synth_out):
            rc_synth = self.cli.main(argv)
        with contextlib.redirect_stdout(verify_out):
            rc_verify = self.cli.main(["verify", "--circuit", out, "--in", mat])
        dt = time.perf_counter() - t0
        with open(out, "rb") as fh:
            text = fh.read()
        digest = hashlib.blake2b(repr((rc_synth, rc_verify, synth_out.getvalue(),
                                       verify_out.getvalue())).encode() + text)

        def check(dense, lane_seed):
            if rc_synth != 0 or rc_verify != 0:
                raise self.ck.CheckError(f"exit codes synth={rc_synth} verify={rc_verify}")
            if self.ck.parse_summary(verify_out.getvalue()).get("ok") != "True":
                raise self.ck.CheckError(f"verify printed {verify_out.getvalue().strip()!r}")
            wires, data, layers = self.ck.read_cnotc(text.decode("ascii"))
            self.ck.check_circuit(wires, data, layers, dense, lane_seed)
            self.ck.check_method(method, s, wires, data, len(layers), dense)
            self.ck.check_summary(self.ck.parse_summary(synth_out.getvalue()),
                                  wires, data, layers, dense)
            return len(layers), sum(len(g) for g in layers)

        return dt, digest.digest(), check

    def measure(self, seconds: float) -> None:
        """Whole passes until ``seconds`` of timed work are done."""
        spent = self.run_pass()
        while spent < seconds:
            spent += self.run_pass()

    def case_times(self, column: int) -> list:
        """Per matrix, the sum over methods of each operation's mean time
        over passes: raw seconds (column 0) or scaled (column 1)."""
        out = []
        for k in range(len(self.matrices)):
            ops = [v for (i, _), v in self.times.items() if i == k]
            if ops:
                out.append(sum(statistics.fmean(t[column] for t in v) for v in ops))
        return out

    def shape_means(self) -> dict:
        out = {}
        for key, _, _ in METHODS:
            got = [v[1:] for (_, k), v in sorted(self.seen.items()) if k == key]
            out[f"depth.{key}"] = statistics.fmean(d for d, _ in got) if got else 0.0
            out[f"gates.{key}"] = statistics.fmean(g for _, g in got) if got else 0.0
        return out


def _per_layer(setup_tree, case_tree, cases: int) -> dict:
    phases = {"setup": tracer.by_function(setup_tree), "case": tracer.by_function(case_tree)}
    out = {}
    for name, (phase, _) in PER_LAYER.items():
        fn, quantity = name.rsplit(".", 1)
        node = phases[phase].get(fn)
        if node is None or not node.calls:
            out[name] = 0.0
        elif quantity in ("s", "self_s"):
            out[name] = getattr(node, quantity) / (cases if phase == "case" else 1)
        elif quantity == "depth":
            out[name] = node.counters[quantity] / node.calls
        else:
            out[name] = node.counters[quantity] / cases
    return out


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    # one thread: numpy's BLAS would otherwise start one per CPU for the
    # checker's float32 products
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    cs, cli = _load_program()
    import checker

    trace = None
    if args.trace:
        labels, counters = _tracer_hooks()
        trace = tracer.Tracer(labels, counters)
        trace.install("cnotsynth", TRACED_MODULES)
    probe = SpeedProbe()
    bench = Bench(cs, cli, checker, probe, args.workload, args.seed)
    try:
        bench.setup()
        setup_raw = _process_age()
        setup_tree = trace.take() if trace else None
        setup_s = setup_raw * probe.REF_S / statistics.median(probe.sample() for _ in range(3))
        bench.measure(args.seconds)
        case_tree = trace.take() if trace else None
    finally:
        if trace:
            trace.uninstall()
        bench.cleanup()

    tag = f"{args.workload}-seed{args.seed}"
    times, raw_times = bench.case_times(1), bench.case_times(0)
    raw = {"setup_s": setup_raw, "case_p50_s": statistics.median(raw_times),
           "cases_per_s": len(raw_times) / sum(raw_times),
           "probe_p50_s": statistics.median(probe.samples)}
    if trace:
        cases_run = bench.passes * len(bench.matrices)
        values = _per_layer(setup_tree, case_tree, cases_run)
        units = {name: unit for name, (_, unit) in PER_LAYER.items()}
        _write_json(OUT / f"trace-{tag}.json", {
            "workload": args.workload, "seed": args.seed, "passes": bench.passes,
            "cases_run": cases_run, "case_p50_s": statistics.median(times), "raw": raw,
            "setup": tracer.tree_to_json(setup_tree), "cases": tracer.tree_to_json(case_tree),
        })
    else:
        values = {
            "setup_s": setup_s,
            "cases_per_s": len(times) / sum(times),
            "case_p50_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **bench.shape_means(),
        }
        units = END_TO_END
    result = {
        "correct": bench.deterministic,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    _write_json(OUT / f"result-{tag}-trace{args.trace}.json", {**result, "raw": raw})
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print("unscaled " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    print(f"matrices {len(bench.matrices)}  passes {bench.passes}  "
          f"attempted {bench.attempted}  failed {bench.failed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
