"""Command-line front end: synthesis, verification, bounds, benchmarks.

Summary lines are machine-greppable key=value pairs.  Exit codes: 1 for
I/O, parse or flag errors; 2 for singular matrices (or an oversized oracle
instance); 3 for verification failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import time
from dataclasses import dataclass, fields

from . import bounds as bounds_mod
from .circuit import format_circuit, parse_circuit, simulate_to_matrix, verify_implements
from .errors import CnotSynthError, SingularMatrix, TooLarge
from .f2 import F2Matrix, format_matrix, parse_matrix, random_gl
from .synth_ancilla import max_scale, synth_with_ancillae
from .synth_free import synth_dnc, synth_simple
from .trees import contract_tree, parse_tree, tree_to_circuit_sequential

# method name -> synthesiser, of (matrix, ancilla scale, seed) or of a tree
_MATRIX_METHODS = {
    "simple": lambda m, scale, seed: synth_simple(m),
    "dnc": lambda m, scale, seed: synth_dnc(m, seed=seed),
    "ancilla": lambda m, scale, seed: synth_with_ancillae(m, scale, seed=seed),
}
_TREE_METHODS = {"tree-seq": tree_to_circuit_sequential, "tree-contract": contract_tree}


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _summary(**kv) -> None:
    print(" ".join(f"{k}={v}" for k, v in kv.items()))


def _synthesise(method: str, m: F2Matrix, scale: int, seed: int):
    if method not in _MATRIX_METHODS:
        raise ValueError(f"unknown method {method!r}")
    return _MATRIX_METHODS[method](m, scale, seed)


def cmd_synth(args) -> int:
    """Synthesise; ``--verify`` checks a matrix method with verify_implements
    and a tree method against the tree's sequential circuit."""
    source = None
    if args.method in _TREE_METHODS:
        tree = parse_tree(_read(args.infile))
        circuit = _TREE_METHODS[args.method](tree)
    else:
        source = parse_matrix(_read(args.infile))
        circuit = _synthesise(args.method, source, args.ancilla_scale, args.seed)
    if args.out:
        _write(args.out, format_circuit(circuit))
    verified = "skipped"
    if args.verify:
        if source is not None:
            ok = verify_implements(circuit, source).ok
        else:
            ok = simulate_to_matrix(circuit) == simulate_to_matrix(tree_to_circuit_sequential(tree))
        verified = "ok" if ok else "FAIL"
    n = circuit.data
    _summary(
        method=args.method,
        n=n,
        wires=circuit.wires,
        ancillae=circuit.ancillae,
        depth=circuit.depth,
        size=circuit.size,
        counting_bound=bounds_mod.counting_depth_bound(n, circuit.ancillae),
        fanin_bound=bounds_mod.fanin_depth_bound(source) if source is not None else 0,
        verified=verified,
    )
    if verified == "FAIL":
        return 3
    return 0


def cmd_verify(args) -> int:
    circuit = parse_circuit(_read(args.circuit))
    m = parse_matrix(_read(args.infile))
    report = verify_implements(circuit, m)
    _summary(
        ok=report.ok,
        top_left_match=report.top_left_match,
        ancilla_restored=report.ancilla_restored,
    )
    return 0 if report.ok else 3


def _fits_text(log2_value: float) -> bool:
    """Whether an integer with this base-2 logarithm converts to decimal
    text within Python's digit limit, decided without building it; a value
    within 1e-9 of a power of ten counts as having the longer digit count."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return limit == 0 or math.floor(log2_value * math.log10(2) + 1e-9) + 1 <= limit


def cmd_bounds(args) -> int:
    """The counting bound with the base-2 logarithms of both counts; the
    exact counts too, where Python can print them."""
    bound = bounds_mod.counting_depth_bound(args.n, args.m)
    log2_gl = bounds_mod._log2_gl_count(args.n)
    log2_layers = bounds_mod._log2_layer_count(args.n + args.m)
    out = {}
    if _fits_text(log2_gl):
        out["gl_count"] = bounds_mod.gl_count(args.n)
    if _fits_text(log2_layers):
        out["layer_count"] = bounds_mod.layer_count(args.n + args.m)
    out["log2_gl_count"] = f"{log2_gl:.3f}"
    out["log2_layer_count"] = f"{log2_layers:.3f}"
    out["counting_bound"] = bound
    if args.infile:
        out["fanin_bound"] = bounds_mod.fanin_depth_bound(parse_matrix(_read(args.infile)))
    _summary(**out)
    return 0


def cmd_oracle(args) -> int:
    m = parse_matrix(_read(args.infile))
    depth = bounds_mod.bfs_optimal_depth(m)
    _summary(optimal_depth=depth)
    return 0


def cmd_random(args) -> int:
    m = random_gl(args.n, args.seed)
    text = format_matrix(m)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# ----------------------------------------------------------------------
# benchmark
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BenchRecord:
    method: str
    n: int
    s: int
    ancillae: int
    depth: int
    size: int
    counting_bound: int
    fanin_bound: int
    ms: float
    seed: int


def bench_records(sizes, methods, seeds, scales) -> list:
    records = []
    for n in sizes:
        for seed in seeds:
            m = random_gl(n, seed)
            fanin = bounds_mod.fanin_depth_bound(m)
            # one build per scale as clamped, asked for with its largest
            # request, so a clamped request still warns
            clamped = {min(s, max_scale(n)): s for s in sorted(scales)}
            for method in methods:
                for s in clamped.values() if method == "ancilla" else (0,):
                    t0 = time.perf_counter()
                    c = _synthesise(method, m, s, seed)
                    ms = (time.perf_counter() - t0) * 1e3
                    if not verify_implements(c, m).ok:
                        raise CnotSynthError(f"{method} failed verification at n={n}")
                    records.append(
                        BenchRecord(
                            method=method,
                            n=n,
                            s=c.ancillae // (3 * n),  # as built: (3s+1)n ancillae
                            ancillae=c.ancillae,
                            depth=c.depth,
                            size=c.size,
                            counting_bound=bounds_mod.counting_depth_bound(n, c.ancillae),
                            fanin_bound=fanin,
                            ms=round(ms, 3),
                            seed=seed,
                        )
                    )
    records.sort(key=lambda r: (r.method, r.n, r.s, r.seed))
    return records


def emit_csv(records) -> str:
    buf = io.StringIO()
    names = [f.name for f in fields(BenchRecord)]
    writer = csv.writer(buf)
    writer.writerow(names)
    for r in records:
        writer.writerow([getattr(r, name) for name in names])
    return buf.getvalue()


def cmd_bench(args) -> int:
    sizes = [int(x) for x in args.sizes.split(",")]
    methods = args.methods.split(",")
    seeds = [int(x) for x in args.seeds.split(",")]
    scales = [int(x) for x in args.scale.split(",")]
    for m in methods:
        if m not in _MATRIX_METHODS:
            raise ValueError(f"unknown bench method {m!r}")
    records = bench_records(sizes, methods, seeds, scales)
    text = emit_csv(records)
    if args.csv:
        _write(args.csv, text)
    else:
        sys.stdout.write(text)
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cnotsynth", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="synthesise a circuit from a matrix or tree")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--method", default="simple",
                    choices=(*_MATRIX_METHODS, *_TREE_METHODS))
    sp.add_argument("--ancilla-scale", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--verify", action="store_true")
    sp.set_defaults(fn=cmd_synth)

    vp = sub.add_parser("verify", help="check a circuit file against a matrix file")
    vp.add_argument("--circuit", required=True)
    vp.add_argument("--in", dest="infile", required=True)
    vp.set_defaults(fn=cmd_verify)

    bp = sub.add_parser("bounds", help="counting and light-cone lower bounds")
    bp.add_argument("--n", type=int, required=True)
    bp.add_argument("--m", type=int, default=0)
    bp.add_argument("--in", dest="infile", default=None)
    bp.set_defaults(fn=cmd_bounds)

    op = sub.add_parser("oracle", help="exact minimum depth (n <= 4)")
    op.add_argument("--in", dest="infile", required=True)
    op.set_defaults(fn=cmd_oracle)

    rp = sub.add_parser("random", help="sample a seeded member of GL(n,2)")
    rp.add_argument("--n", type=int, required=True)
    rp.add_argument("--seed", type=int, default=0)
    rp.add_argument("--out", default=None)
    rp.set_defaults(fn=cmd_random)

    np_ = sub.add_parser("bench", help="benchmark synthesisers to CSV")
    np_.add_argument("--sizes", required=True)
    np_.add_argument("--methods", default="simple")
    np_.add_argument("--seeds", default="0")
    np_.add_argument("--scale", default="1")
    np_.add_argument("--csv", default=None)
    np_.set_defaults(fn=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except (SingularMatrix, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, CnotSynthError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
