"""Output checks that share no code with cnotsynth.

Everything here is written from the definitions alone and imports only
numpy and the standard library:

* a reader for the ``.cnotc`` circuit text and the ``.mat`` matrix text;
* wire range and per-layer disjointness of every layer;
* bit-lane simulation: 64 seeded random data inputs, one XOR per gate,
  against the product M·X computed here, with every ancilla back at 0;
* per-method properties: depth >= light-cone bound, simple depth <= 4n,
  ancillae = (3s+1)n for the ancilla method;
* the counting bound in the log domain, confirmed with integers when the
  depth ratio is within float error of an integer.

Every check raises ``CheckError`` on the first property that fails.
"""

from __future__ import annotations

import math

import numpy as np

LANES = 64
_LN2 = math.log(2.0)


class CheckError(Exception):
    """An output violates a property the checker asserts."""


# ----------------------------------------------------------------------
# readers
# ----------------------------------------------------------------------


def _content_lines(text: str) -> list:
    """Stripped lines, without blank lines and ``#`` comments."""
    lines = [ln.strip() for ln in text.splitlines()]
    return [ln for ln in lines if ln and not ln.startswith("#")]


def read_cnotc(text: str):
    """Parse ``CNOTC v1 wires=W data=D`` then one ``c>t c>t ...`` line per
    layer.  Returns (wires, data, layers) with each layer an (k, 2) int64
    array."""
    lines = _content_lines(text)
    if not lines:
        raise CheckError("empty circuit text")
    head = lines[0].split()
    if head[:2] != ["CNOTC", "v1"]:
        raise CheckError(f"bad circuit header {lines[0]!r}")
    fields = dict(part.split("=", 1) for part in head[2:] if "=" in part)
    try:
        wires, data = int(fields["wires"]), int(fields["data"])
    except (KeyError, ValueError):
        raise CheckError(f"bad circuit header {lines[0]!r}") from None
    layers = []
    for ln in lines[1:]:
        toks = ln.replace(">", " ").split()
        if len(toks) % 2 or ln.count(">") * 2 != len(toks):
            raise CheckError(f"bad layer line {ln[:60]!r}")
        try:
            layers.append(np.array(toks, dtype=np.int64).reshape(-1, 2))
        except ValueError:
            raise CheckError(f"bad layer line {ln[:60]!r}") from None
    return wires, data, layers


def read_matrix(text: str) -> np.ndarray:
    """Parse ``<rows> <cols>`` then one 0/1 string per row into a dense
    uint8 array."""
    lines = _content_lines(text)
    try:
        rows, cols = (int(x) for x in lines[0].split())
    except (IndexError, ValueError):
        raise CheckError("bad matrix header") from None
    body = lines[1:]
    if len(body) != rows or any(len(ln) != cols for ln in body):
        raise CheckError("matrix text does not match its header")
    dense = np.frombuffer("".join(body).encode("ascii"), dtype=np.uint8) - ord("0")
    if (dense > 1).any():
        raise CheckError("matrix text holds a symbol other than 0/1")
    return dense.reshape(rows, cols)


def parse_summary(text: str) -> dict:
    """The last ``key=value key=value`` line printed by the CLI."""
    lines = [ln for ln in text.splitlines() if "=" in ln]
    if not lines:
        raise CheckError("no summary line printed")
    return dict(tok.split("=", 1) for tok in lines[-1].split())


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------


def light_cone_bound(m: np.ndarray) -> int:
    """ceil(log2 w) for the largest row or column weight w: one layer at
    most doubles the inputs an output depends on, and the outputs an input
    reaches."""
    w = int(max(m.sum(axis=1, dtype=np.int64).max(), m.sum(axis=0, dtype=np.int64).max()))
    return (max(w, 1) - 1).bit_length()


def log2_gl(n: int) -> float:
    """log2 #GL(n,2) = n^2 + sum_{j=1..n} log2(1 - 2^-j)."""
    return n * n + math.fsum(math.log1p(-(2.0 ** -j)) for j in range(1, n + 1)) / _LN2


def log2_layers(wires: int) -> float:
    """log2 of the number of parallel CNOT layers on ``wires`` wires,
    sum_t wires! / ((wires-2t)! t!), by an lgamma log-sum-exp."""
    top = math.lgamma(wires + 1)
    terms = [top - math.lgamma(wires - 2 * t + 1) - math.lgamma(t + 1) for t in range(wires // 2 + 1)]
    peak = max(terms)
    return (peak + math.log(math.fsum(math.exp(x - peak) for x in terms))) / _LN2


def _product(values: list) -> int:
    while len(values) > 1:
        values = [values[i] * values[i + 1] if i + 1 < len(values) else values[i]
                  for i in range(0, len(values), 2)]
    return values[0] if values else 1


def gl_exact(n: int) -> int:
    """#GL(n,2) = 2^(n(n-1)/2) * prod_{j=1..n} (2^j - 1), by a product tree."""
    return _product([(1 << j) - 1 for j in range(1, n + 1)]) << (n * (n - 1) // 2)


def layers_exact(wires: int) -> int:
    """sum_t wires! / ((wires-2t)! t!), term by term as integers."""
    total, term = 0, 1
    for t in range(wires // 2 + 1):
        total += term
        term = term * (wires - 2 * t) * (wires - 2 * t - 1) // (t + 1)
    return total


def counting_bound(n: int, ancillae: int, tol: float = 1e-9) -> int:
    """Smallest d with layers(n+ancillae)^d >= #GL(n,2).

    d = ceil(log2 #GL / log2 layers) in floating point.  When that ratio is
    within ``tol`` (relative) of an integer k, d is decided exactly with
    integers between k and k+1.
    """
    per_layer = log2_layers(n + ancillae)
    if per_layer == 0.0:  # one wire: #GL(1,2) = 1 needs no layer
        return 0
    ratio = log2_gl(n) / per_layer
    k = round(ratio)
    if abs(ratio - k) <= tol * max(1.0, ratio):
        return k if layers_exact(n + ancillae) ** k >= gl_exact(n) else k + 1
    return math.ceil(ratio)


# ----------------------------------------------------------------------
# circuit checks
# ----------------------------------------------------------------------


def _pack(bits: np.ndarray) -> np.ndarray:
    """(rows, 64) 0/1 array to one uint64 per row, lane j in bit j."""
    return (bits.astype(np.uint64) << np.arange(LANES, dtype=np.uint64)).sum(axis=1, dtype=np.uint64)


def expected_outputs(m: np.ndarray, x: np.ndarray, block: int = 512) -> np.ndarray:
    """M·X over GF(2) for X given as one uint64 of lanes per data wire.

    Computed with float32 products of 0/1 matrices in row blocks; every
    partial sum is an integer below 2^24, so the products are exact.
    """
    xb = ((x[:, None] >> np.arange(LANES, dtype=np.uint64)) & np.uint64(1)).astype(np.float32)
    out = np.empty(m.shape[0], dtype=np.uint64)
    for r0 in range(0, m.shape[0], block):
        prod = m[r0:r0 + block].astype(np.float32) @ xb
        out[r0:r0 + block] = _pack(prod.astype(np.int64) & 1)
    return out


def check_circuit(wires: int, data: int, layers, m: np.ndarray, seed: int) -> None:
    """Every layer in range with pairwise-disjoint wires, and the circuit
    maps 64 random data inputs X to M·X with every ancilla back at 0."""
    n = m.shape[0]
    if m.shape != (n, n) or data != n:
        raise CheckError(f"data wires {data} do not match the {m.shape} matrix")
    if wires < data:
        raise CheckError(f"{wires} wires for {data} data wires")
    x = np.random.default_rng(seed).integers(0, np.iinfo(np.uint64).max, size=n,
                                           dtype=np.uint64, endpoint=True)
    state = np.zeros(wires, dtype=np.uint64)
    state[:n] = x
    slot = np.full(wires, -1, dtype=np.int64)
    order = np.arange(2 * max((len(g) for g in layers), default=0), dtype=np.int64)
    for i, g in enumerate(layers):
        if g.ndim != 2 or g.shape[1] != 2:
            raise CheckError(f"layer {i} is not a list of (control, target) pairs")
        if not g.size:
            continue
        flat = g.ravel()
        if flat.min() < 0 or flat.max() >= wires:
            raise CheckError(f"layer {i} has a wire outside 0..{wires - 1}")
        # a wire used twice keeps only its last slot, so the read-back differs
        slot[flat] = order[:flat.size]
        if not np.array_equal(slot[flat], order[:flat.size]):
            raise CheckError(f"layer {i} uses a wire twice")
        state[g[:, 1]] ^= state[g[:, 0]]
    if not np.array_equal(state[:n], expected_outputs(m, x)):
        raise CheckError("data wires do not hold M·X")
    if state[n:].any():
        raise CheckError("an ancilla is not back at 0")


def check_method(method: str, s: int, wires: int, data: int, depth: int, m: np.ndarray) -> None:
    """Depth and wire-count properties each method promises."""
    n = m.shape[0]
    lc = light_cone_bound(m)
    if depth < lc:
        raise CheckError(f"{method}: depth {depth} below the light-cone bound {lc}")
    if method == "simple" and depth > 4 * n:
        raise CheckError(f"simple: depth {depth} above 4n = {4 * n}")
    want = (3 * s + 1) * n if method == "ancilla" else 0
    if wires - data != want:
        raise CheckError(f"{method} s={s}: {wires - data} ancillae, expected {want}")


def check_summary(summary: dict, wires: int, data: int, layers, m: np.ndarray) -> None:
    """The CLI's synth summary agrees with the written circuit and with the
    checker's own bounds."""
    want = {
        "n": data,
        "wires": wires,
        "ancillae": wires - data,
        "depth": len(layers),
        "size": sum(len(g) for g in layers),
        "counting_bound": counting_bound(data, wires - data),
        "fanin_bound": light_cone_bound(m),
    }
    for key, value in want.items():
        if summary.get(key) != str(value):
            raise CheckError(f"CLI printed {key}={summary.get(key)}, checker has {value}")
    if summary.get("verified") != "ok":
        raise CheckError(f"CLI printed verified={summary.get('verified')}")
