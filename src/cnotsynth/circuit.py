"""Layered CNOT circuits: representation, simulation, verification, levelling.

Conventions used everywhere:
  * wire indices are 0-based;
  * layer i of a circuit is the i-th linear map applied, so the circuit's
    matrix is R_d ... R_2 R_1 (left-multiplication);
  * a gate (c, t) adds row c to row t, i.e. the map I + 1_{t,c};
  * ancillae are the wires past ``data``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, MalformedLayer, TooLarge
from .f2 import F2Matrix, _extract_cols, _nwords


class CnotGate(NamedTuple):
    control: int
    target: int


class Layer:
    """One parallel step: a set of CNOT gates on pairwise-disjoint wires.

    ``pairs`` keeps construction order; comparisons and text output use a
    lazily computed canonical (control, target)-sorted form.
    """

    __slots__ = ("pairs", "_canon")

    def __init__(self, gates, _trusted: np.ndarray | None = None):
        self._canon = None
        if _trusted is not None:
            self.pairs = _trusted
            return
        arr = np.asarray(list(gates) if not isinstance(gates, np.ndarray) else gates,
                         dtype=np.int64).reshape(-1, 2)
        if arr.size:
            if (arr < 0).any():
                raise MalformedLayer("negative wire index")
            if (arr[:, 0] == arr[:, 1]).any():
                raise MalformedLayer("gate with control == target")
            flat = arr.ravel()
            if np.unique(flat).size != flat.size:
                raise MalformedLayer("gates share a wire")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self.pairs = arr

    def canonical(self) -> np.ndarray:
        if self._canon is None:
            arr = self.pairs
            order = np.lexsort((arr[:, 1], arr[:, 0]))
            if np.array_equal(order, np.arange(arr.shape[0])):
                self._canon = arr
            else:
                self._canon = np.ascontiguousarray(arr[order])
        return self._canon

    @property
    def gates(self) -> tuple[CnotGate, ...]:
        return tuple(CnotGate(int(c), int(t)) for c, t in self.canonical())

    def wires(self) -> np.ndarray:
        return self.pairs.ravel()

    def transposed(self) -> "Layer":
        return Layer(self.pairs[:, ::-1])

    def __len__(self) -> int:
        return self.pairs.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, Layer) and np.array_equal(self.canonical(), other.canonical())

    def __repr__(self) -> str:
        return "Layer(" + " ".join(f"{c}>{t}" for c, t in self.canonical()) + ")"


def trusted_layer(arr: np.ndarray) -> Layer:
    """Layer from a gate array the builder already knows to be disjoint
    (simulation-level verification still guards against builder bugs).
    int32 and int64 arrays are kept as they are."""
    if arr.dtype != np.int64 and arr.dtype != np.int32:
        arr = arr.astype(np.int64)
    arr.setflags(write=False)
    return Layer((), _trusted=arr)


def _as_layers(layers: Iterable) -> tuple[Layer, ...]:
    out = []
    for l in layers:
        if not isinstance(l, Layer):
            l = Layer(l)
        if len(l):
            out.append(l)
    return tuple(out)


class Circuit:
    """Ordered list of layers over ``wires`` wires, the first ``data`` of
    which are data wires; the rest are ancillae required to restore to 0."""

    __slots__ = ("wires", "data", "layers")

    def __init__(self, wires: int, data: int, layers: Iterable = ()):
        if wires < 1 or not (1 <= data <= wires):
            raise DimensionMismatch(f"bad wire counts {wires}/{data}")
        self.wires = wires
        self.data = data
        self.layers = _as_layers(layers)
        for l in self.layers:
            if len(l) and int(l.pairs.max()) >= wires:
                raise MalformedLayer("gate outside wire range")

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def size(self) -> int:
        return sum(len(l) for l in self.layers)

    @property
    def ancillae(self) -> int:
        return self.wires - self.data

    def concat(self, other: "Circuit") -> "Circuit":
        if other.wires != self.wires or other.data != self.data:
            raise DimensionMismatch("concat over different wire counts")
        return Circuit(self.wires, self.data, self.layers + other.layers)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Circuit)
            and self.wires == other.wires
            and self.data == other.data
            and self.layers == other.layers
        )

    def __repr__(self) -> str:
        return f"Circuit(wires={self.wires}, data={self.data}, depth={self.depth}, size={self.size})"


# ----------------------------------------------------------------------
# simulation
# ----------------------------------------------------------------------


def _xor_rows(w: np.ndarray, ctrl: np.ndarray, tgt: np.ndarray) -> None:
    """w[tgt] ^= w[ctrl] as one buffered step (every read before any
    write); np.take gathers rows faster than fancy indexing does."""
    w[tgt] = np.take(w, ctrl, axis=0) ^ np.take(w, tgt, axis=0)


def simulate_to_matrix(c: Circuit) -> F2Matrix:
    """The circuit as an element of GL(wires, 2).

    Applies each gate as "add row control to row target" to the identity,
    layer by layer, which realises the product R_d ... R_1.
    """
    n = c.wires
    w = F2Matrix.identity(n).words.copy()
    for layer in c.layers:
        _xor_rows(w, layer.pairs[:, 0], layer.pairs[:, 1])
    return F2Matrix(n, n, w)


def apply_to_bits(c: Circuit, bits) -> np.ndarray:
    """Run the circuit on one assignment of wire values (vector simulation)."""
    v = np.asarray(bits, dtype=np.uint8).copy()
    if v.shape != (c.wires,):
        raise DimensionMismatch("bit vector length != wires")
    for layer in c.layers:
        _xor_rows(v, layer.pairs[:, 0], layer.pairs[:, 1])
    return v


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    top_left_match: bool
    ancilla_restored: bool


def verify_implements(c: Circuit, m: F2Matrix) -> VerifyReport:
    """Check that the circuit implements ``m`` on its data wires.

    ok iff the top-left data block of the simulated matrix equals ``m`` and
    the bottom-left block is zero (ancillae restored for every data input).
    The remaining blocks are unconstrained, so only the first n columns of
    the circuit matrix are simulated.
    """
    n = m.rows
    if m.cols != n or c.data != n:
        raise DimensionMismatch("matrix size does not match data wire count")
    w = np.zeros((c.wires, _nwords(n)), dtype=np.uint64)
    w[:n] = F2Matrix.identity(n).words
    for layer in c.layers:
        _xor_rows(w, layer.pairs[:, 0], layer.pairs[:, 1])
    top_left = np.array_equal(w[:n], m.words)
    restored = not w[n:].any()
    return VerifyReport(top_left and restored, top_left, restored)


# ----------------------------------------------------------------------
# schedule algebra
# ----------------------------------------------------------------------


def invert_circuit(c: Circuit) -> Circuit:
    """Reverse the layer order; each layer is an involution so this is the
    inverse circuit."""
    return Circuit(c.wires, c.data, tuple(reversed(c.layers)))


def _stable_order(keys: np.ndarray, nkeys: int) -> np.ndarray:
    """Stable argsort of integer keys in [0, nkeys): least significant
    digit first radix sort over 16-bit digits (numpy radix-sorts 16-bit
    integers, which beats its merge sort on wider ones)."""
    order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    shift = 16
    while (nkeys - 1) >> shift > 0:
        digit = ((keys[order] >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def level_asap(layers: list, wires: int) -> None:
    """Relayer a gate sequence as soon as possible, in place.

    ``layers`` holds (control, target) arrays in the order they are
    applied; the gates of one array share no wire.  Each gate goes one
    level past the last level that touched either of its wires.  Every
    wire keeps its sequence of gates, and gates on disjoint wires commute,
    so the circuit's matrix is unchanged; the depth is the longest chain
    of gates linked by shared wires, which no schedule that keeps each
    wire's sequence can beat.

    ``layers`` ends up holding one int32 array per level, in level order,
    with the gates of a level in sequence order.  Each input array is
    dropped from the list once its gates are moved, so the gates are held
    about once, not twice, in half the bytes of int64.

    Raises:
        TooLarge: if ``wires`` >= 2^31, past what int32 indices hold.
    """
    if wires >= 1 << 31:
        raise TooLarge(f"{wires} wires exceed the int32 wire indices of a levelled circuit")
    sizes = [len(arr) for arr in layers]
    total = sum(sizes)
    last = np.zeros(wires, dtype=np.int32)  # level of the latest gate per wire
    level = np.empty(total, dtype=np.int32)
    at = 0
    for arr, k in zip(layers, sizes):
        if k:
            ends = last[arr]
            lv = np.maximum(ends[:, 0], ends[:, 1], out=level[at : at + k])
            lv += 1
            last[arr] = lv[:, None]
            at += k
    depth = int(last.max(initial=0))
    # one array per level, filled a group of input layers at a time: the
    # group's gates are sorted by level and each run copied to its array
    out = [np.empty((k, 2), dtype=np.int32) for k in np.bincount(level)[1:].tolist()]
    fill = [0] * depth
    at = 0
    for group in _chunks(range(len(layers)), sizes.__getitem__, _CHUNK_GATES):
        part = np.concatenate([layers[i] for i in group], dtype=np.int32)
        for i in group:
            layers[i] = None
        lv = level[at : at + len(part)]
        order = _stable_order(lv, depth + 1)
        part = np.take(part, order, axis=0)
        lv = lv[order]
        starts = np.flatnonzero(np.diff(lv, prepend=0))  # levels start at 1
        bounds = starts.tolist() + [len(part)]
        for dst, lo, hi in zip((lv[starts] - 1).tolist(), bounds, bounds[1:]):
            out[dst][fill[dst] : fill[dst] + hi - lo] = part[lo:hi]
            fill[dst] += hi - lo
        at += len(part)
    layers[:] = out


def _pairs(ctrl: np.ndarray, tgt) -> np.ndarray:
    """(control, target) gate array of the control wires and the target
    wires broadcast to their shape."""
    out = np.empty(ctrl.shape + (2,), dtype=np.int64)
    out[..., 0], out[..., 1] = ctrl, tgt
    return out.reshape(-1, 2)


def _fold_layers(sources, target) -> list:
    """Add the XOR of ``sources`` into ``target`` and leave the sources as
    they were: a balanced tree combines source i + stride into source i,
    source 0 is added to the target, and the tree is undone.  Each source
    is a wire, or an array of wires parallel to the target's.  The first
    half of the returned arrays is the combine, the middle one the add."""
    src = np.asarray(sources, dtype=np.int64).reshape(len(sources), -1)
    combine = []
    stride = 1
    while stride < len(src):
        combine.append(_pairs(src[stride :: 2 * stride], src[: len(src) - stride : 2 * stride]))
        stride *= 2
    return combine + [_pairs(src[0], target)] + combine[::-1]


def levelled_circuit(layers: list, wires: int, data: int) -> Circuit:
    """The circuit of a gate sequence levelled as soon as possible.

    ``layers`` holds (control, target) arrays in the order the gates are
    applied, the gates of one array on disjoint wires; it is consumed."""
    level_asap(layers, wires)
    return Circuit(wires, data, [trusted_layer(a) for a in layers])


# ----------------------------------------------------------------------
# text format: header then one "c>t c>t ..." line per layer
# ----------------------------------------------------------------------

# Both directions work on whole groups of layers at a time, about this many
# gates (or this many bytes of layer text) per group, so the temporary
# arrays stay small next to the circuit itself.
_CHUNK_GATES = 1 << 15
_CHUNK_BYTES = 1 << 18

# byte classes of layer text: blank (str.isspace within ASCII), digit, '>',
# '-' and anything else; _FOLLOWS[5 * a + b] says whether class b may come
# right after class a, so a line's tokens read ([-]digits '>')* [-]digits
_BLANK, _DIGIT, _ARROW, _MINUS, _OTHER = range(5)
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = _BLANK
_BYTE_CLASS[48:58] = _DIGIT
_BYTE_CLASS[ord(">")] = _ARROW
_BYTE_CLASS[ord("-")] = _MINUS
_FOLLOWS = np.zeros(25, dtype=bool)
_FOLLOWS[[5 * a + b for a, b in ((_BLANK, _BLANK), (_BLANK, _DIGIT), (_BLANK, _MINUS),
                                 (_DIGIT, _BLANK), (_DIGIT, _DIGIT), (_DIGIT, _ARROW),
                                 (_ARROW, _DIGIT), (_ARROW, _MINUS), (_MINUS, _DIGIT))]] = True
# decimal digits that fit an int64 sum; parse takes a longer nonzero index
# as out of range
_MAX_DIGITS = 18


def _chunks(items, size, limit: int):
    """Consecutive runs of ``items`` whose ``size`` adds up to about ``limit``."""
    group, total = [], 0
    for item in items:
        group.append(item)
        total += size(item)
        if total >= limit:
            yield group
            group, total = [], 0
    if group:
        yield group


def _format_layers(layers, wires: int) -> str:
    """Text lines of nonempty layers: every wire index is written as its
    digits and a separator ('>' after a control, ' ' or '\\n' after a
    target) into one row of a byte table, and the unused leading digit
    cells are masked out."""
    counts = np.fromiter(map(len, layers), dtype=np.int64, count=len(layers))
    pairs = np.concatenate([l.pairs for l in layers])
    layer_of = np.repeat(np.arange(len(layers), dtype=np.int64), counts)
    if len(layers) * wires * wires < 1 << 63:  # (layer, control, target) as one exact key
        order = np.argsort((layer_of * wires + pairs[:, 0]) * wires + pairs[:, 1])
    else:
        order = np.lexsort((pairs[:, 1], pairs[:, 0], layer_of))
    v = pairs[order].ravel().astype(np.uint32 if wires <= 1 << 32 else np.uint64)
    ndig = len(str(int(v.max())))
    table = np.empty((v.size, ndig + 1), dtype=np.uint8)
    q = v
    for j in range(ndig - 1, -1, -1):
        np.add(q % 10, ord("0"), out=table[:, j], casting="unsafe")
        q = q // 10
    sep = table[:, ndig]
    sep[0::2] = ord(">")
    sep[1::2] = ord(" ")
    sep[2 * np.cumsum(counts) - 1] = ord("\n")
    keep = np.ones(table.shape, dtype=bool)
    keep[:, : ndig - 1] = v[:, None] >= 10 ** np.arange(ndig - 1, 0, -1, dtype=np.uint64)
    return table[keep].tobytes().decode("ascii")


def format_circuit(c: Circuit) -> str:
    parts = [f"CNOTC v1 wires={c.wires} data={c.data}\n"]
    for group in _chunks(c.layers, len, _CHUNK_GATES):
        parts.append(_format_layers(group, c.wires))
    return "".join(parts)


def _bad_token(buf: np.ndarray, at: int, first_layer: int) -> ValueError:
    """The error for the gate token that holds byte ``at`` of ``buf``."""
    blank = np.flatnonzero(np.take(_BYTE_CLASS, buf) == _BLANK)
    k = np.searchsorted(blank, at)
    lo = int(blank[k - 1]) + 1 if k else 0
    hi = int(blank[k]) if k < blank.size else buf.size
    tok = buf[lo:hi].tobytes().decode("utf-8", "replace")
    layer = first_layer + int(np.count_nonzero(buf[:lo] == ord("\n")))
    return ValueError(f"bad gate {tok!r} in layer {layer}")


def _parse_layers(lines: list, wires: int, first_layer: int) -> list:
    """Layers from their text lines (stripped, nonempty, not comments).

    Each token must read [-]digits>[-]digits.  The byte classes are checked
    pairwise, then the digit runs must end alternately in '>' and in a
    blank, so every token holds exactly two runs: one gate.  The runs are
    summed by place value.
    """
    buf = np.frombuffer("\n".join(lines).encode("utf-8"), dtype=np.uint8)
    cls = np.zeros(buf.size + 2, dtype=np.uint8)  # blank before and after
    np.take(_BYTE_CLASS, buf, out=cls[1:-1])
    bad = ~np.take(_FOLLOWS, 5 * cls[:-1] + cls[1:])
    if bad.any():
        i = int(np.argmax(bad))  # the pair (byte i-1, byte i)
        raise _bad_token(buf, i if i < buf.size and cls[i + 1] != _BLANK else i - 1, first_layer)
    edge = np.diff((cls == _DIGIT).view(np.int8))
    starts = np.flatnonzero(edge == 1)  # byte index of each run's first digit
    ends = np.flatnonzero(edge == -1)  # byte index just past each run
    after = cls[ends + 1]
    wrong = np.empty(starts.size, dtype=bool)
    wrong[0::2] = after[0::2] != _ARROW
    wrong[1::2] = after[1::2] != _BLANK
    if wrong.any():
        raise _bad_token(buf, int(starts[np.argmax(wrong)]), first_layer)

    length = ends - starts
    vals = np.zeros(starts.size, dtype=np.int64)
    huge = np.zeros(starts.size, dtype=bool)
    for k in range(int(length.max())):
        digit = np.where(length > k, buf[np.maximum(ends - 1 - k, starts)] - ord("0"), 0)
        if k < _MAX_DIGITS:
            vals += digit.astype(np.int64) * 10**k
        else:
            huge |= digit != 0
    if ((starts > 0) & (buf[starts - 1] == ord("-")) & ((vals != 0) | huge)).any():
        raise MalformedLayer("negative wire index")
    if huge.any() or (vals >= wires).any():
        raise MalformedLayer("gate outside wire range")
    pairs = vals.reshape(-1, 2)
    if (pairs[:, 0] == pairs[:, 1]).any():
        raise MalformedLayer("gate with control == target")
    # gates before each line break, then the gate count of each line
    cuts = np.searchsorted(starts[0::2], np.flatnonzero(buf == ord("\n")))
    counts = np.diff(cuts, prepend=0, append=pairs.shape[0])
    line_of = np.repeat(np.arange(len(lines), dtype=np.int64), 2 * counts)
    if len(lines) * wires < 1 << 63:  # (line, wire) as one exact key
        keys = np.sort(line_of * wires + vals)
        shared = keys[1:] == keys[:-1]
    else:
        order = np.lexsort((vals, line_of))
        shared = (vals[order[1:]] == vals[order[:-1]]) & (line_of[order[1:]] == line_of[order[:-1]])
    if shared.any():
        raise MalformedLayer("gates share a wire")
    stops = np.cumsum(counts).tolist()
    return [trusted_layer(pairs[e - k : e]) for k, e in zip(counts.tolist(), stops)]


def parse_circuit(text: str) -> Circuit:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty circuit file")
    head = lines[0].split()
    if len(head) < 3 or head[0] != "CNOTC" or head[1] != "v1":
        raise ValueError(f"bad header: {lines[0]!r}")
    fields = {}
    for part in head[2:]:
        k, _, v = part.partition("=")
        fields[k] = v
    if "wires" not in fields or "data" not in fields:
        raise ValueError(f"bad header: {lines[0]!r}")
    wires, data = int(fields["wires"]), int(fields["data"])
    layers = []
    for group in _chunks(lines[1:], len, _CHUNK_BYTES):
        layers.extend(_parse_layers(group, wires, len(layers)))
    return Circuit(wires, data, layers)
