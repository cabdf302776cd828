"""Tree-shaped CNOT circuits and their O(log^2 n)-depth parallelisation.

A proper binary tree with uniquely labelled leaves defines one gate per
internal node in postorder: an L node targets its left child's wire, an R
node its right child's, the other child controlling.  Wire i(v) then holds
the subtree XOR of v, so contraction can fire a node as soon as both
children are finished.

contract_tree alternates two moves per round: parents of two finished
children fire directly (rake), and maximal chains of nodes each waiting
only on one finished child collapse through a parallel-prefix block
(compress).  Chains contribute O(log n) depth per round and the round
count is logarithmic, giving O(log^2 n) overall.  The rounds' gates form
one sequence, chain after chain, levelled once as soon as possible
(circuit.levelled_circuit), so chains on disjoint wires share layers and
a round starts wherever the previous one has freed its wires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Layer, _fold_layers, levelled_circuit, trusted_layer
from .errors import MalformedTree

_LEAF = "leaf"


@dataclass(frozen=True)
class CnotTree:
    """Node arena: entry ("leaf", label) or (side, left_id, right_id) with
    side in {"L", "R"}; ``root`` indexes the arena."""

    nodes: tuple
    root: int

    def __post_init__(self):
        labels = []
        seen = set()
        stack = [self.root]
        while stack:
            v = stack.pop()
            if v in seen:
                raise MalformedTree("node shared between branches")
            seen.add(v)
            node = self.nodes[v]
            if node[0] == _LEAF and len(node) == 2:
                labels.append(node[1])
            else:
                side, left, right = node
                if side not in ("L", "R"):
                    raise MalformedTree(f"bad internal label {side!r}")
                stack.extend((left, right))
        n = len(labels)
        if sorted(labels) != list(range(n)):
            raise MalformedTree("leaf labels must be exactly 0..n-1")

    @property
    def n_leaves(self) -> int:
        return sum(1 for node in self.nodes if node[0] == _LEAF)

    @classmethod
    def build(cls, nested) -> "CnotTree":
        """From nested tuples: leaf = ("leaf", label) or plain int,
        internal = (side, left_nested, right_nested).  Nodes enter the
        arena in postorder, left subtree first."""
        arena: list = []
        done: list = []  # arena ids of the finished subtrees, innermost last
        stack = [(nested, False)]
        while stack:
            node, expanded = stack.pop()
            if isinstance(node, int) or node[0] == _LEAF:
                arena.append((_LEAF, node if isinstance(node, int) else int(node[1])))
            elif expanded:
                right = done.pop()
                arena.append((node[0], done.pop(), right))
            else:
                stack += [(node, True), (node[2], False), (node[1], False)]
                continue
            done.append(len(arena) - 1)
        return cls(tuple(arena), done[0])


# ----------------------------------------------------------------------
# s-expression format: leaf = decimal label, internal = (L <t> <t>)
# ----------------------------------------------------------------------


def parse_tree(text: str) -> CnotTree:
    """Tree from its s-expression; the arena is in postorder, left subtree
    first, as CnotTree.build makes it.  The walk keeps its own stack, so
    depth is not limited by Python's recursion limit."""
    text = "\n".join(
        ln for ln in text.splitlines() if not ln.strip().startswith("#")
    )
    toks = iter(text.replace("(", " ( ").replace(")", " ) ").split())

    def take() -> str:
        tok = next(toks, None)
        if tok is None:
            raise ValueError("unexpected end of tree expression")
        return tok

    arena: list = []
    stack: list = []  # (side, child ids) of every open node, innermost last
    while True:
        tok = take()
        if tok == "(":
            stack.append((take(), []))
            continue
        if tok == ")":
            raise ValueError("unexpected ')'")
        arena.append((_LEAF, int(tok)))
        while stack:  # attach the finished node; close its parents if full
            side, kids = stack[-1]
            kids.append(len(arena) - 1)
            if len(kids) < 2:
                break
            if take() != ")":
                raise ValueError("expected ')'")
            stack.pop()
            arena.append((side, *kids))
        else:
            break
    if next(toks, None) is not None:
        raise ValueError("trailing tokens in tree expression")
    return CnotTree(tuple(arena), len(arena) - 1)


def format_tree(t: CnotTree) -> str:
    out, stack = [], [t.root]  # node ids and literal text, next item last
    while stack:
        v = stack.pop()
        if isinstance(v, str):
            out.append(v)
        elif t.nodes[v][0] == _LEAF:
            out.append(str(t.nodes[v][1]))
        else:
            side, left, right = t.nodes[v]
            stack += [")", right, " ", left, f"({side} "]
    return "".join(out) + "\n"


# ----------------------------------------------------------------------
# semantics
# ----------------------------------------------------------------------


def _postorder_internal(t: CnotTree) -> list:
    order = []
    stack = [(t.root, False)]
    while stack:
        v, expanded = stack.pop()
        node = t.nodes[v]
        if node[0] == _LEAF:
            continue
        if expanded:
            order.append(v)
        else:
            stack.append((v, True))
            stack.append((node[2], False))
            stack.append((node[1], False))
    return order


def tree_to_circuit_sequential(t: CnotTree) -> Circuit:
    """One gate per internal node in postorder, one gate per layer."""
    n = t.n_leaves
    qidx = {}
    layers = []
    for v, node in enumerate(t.nodes):
        if node[0] == _LEAF:
            qidx[v] = node[1]
    for v in _postorder_internal(t):
        side, left, right = t.nodes[v]
        ql, qr = qidx[left], qidx[right]
        if side == "L":
            layers.append([(qr, ql)])
            qidx[v] = ql
        else:
            layers.append([(ql, qr)])
            qidx[v] = qr
    return Circuit(max(n, 1), max(n, 1), [Layer(g) for g in layers])


# ----------------------------------------------------------------------
# parallel-prefix block
# ----------------------------------------------------------------------


def _prefix_layer_arrays(ws: list) -> list:
    """Brent-Kung prefix-XOR network over the listed wires, in list order:
    wire ws[p] ends holding ws[0] xor ... xor ws[p]."""
    m = len(ws)
    if m <= 1:
        return []
    w = np.asarray(ws, dtype=np.int64)
    height = math.ceil(math.log2(m))
    layers = []
    for j in range(1, height + 1):
        tgt = np.arange((1 << j) - 1, m, 1 << j)
        gates = np.stack([w[tgt - (1 << (j - 1))], w[tgt]], axis=1)
        if gates.size:
            layers.append(gates)
    for j in range(height - 1, 0, -1):
        tgt = np.arange((1 << j) + (1 << (j - 1)) - 1, m, 1 << j)
        gates = np.stack([w[tgt - (1 << (j - 1))], w[tgt]], axis=1)
        if gates.size:
            layers.append(gates)
    return layers


def prefix_circuit(n: int) -> Circuit:
    """Depth-(2 ceil(log2 n) - 1) circuit for the all-ones lower-triangular
    map (wire p ends holding x_0 xor ... xor x_p).

    Reference for acceptance criterion 3; no synthesiser calls it.
    """
    if n < 1:
        raise MalformedTree("n must be >= 1")
    return Circuit(n, n, [trusted_layer(a) for a in _prefix_layer_arrays(list(range(n)))])


# ----------------------------------------------------------------------
# contraction
# ----------------------------------------------------------------------


def _chain_layers(sites: list, collect: dict) -> list:
    """Emit one chain: fold each site's collected control values into it,
    keeping the controls intact, then a prefix block over the site wires in
    chain order.  The folds run side by side: every site's combine, then
    the adds, then the combines undone in reverse, an order that fixes the
    order of the gates within each level."""
    folds = [_fold_layers(collect[site], site) for site in sites if collect.get(site)]
    combine = [arr for fold in folds for arr in fold[: len(fold) // 2]]
    adds = np.concatenate([fold[len(fold) // 2] for fold in folds])
    return combine + [adds] + combine[::-1] + _prefix_layer_arrays(sites)


def contract_tree(t: CnotTree) -> Circuit:
    """Equivalent circuit of depth O(log^2 n) via rake/compress rounds.

    Per round, every pending node whose children are both finished anchors
    a maximal chain of ancestors each waiting only on one finished child;
    the chain's gates form a prefix structure over the wires where the
    accumulator moves, plus per-site folds where it stays.  The chains'
    gates are levelled once, as one sequence.
    """
    n = t.n_leaves
    nodes = t.nodes
    parent = {}
    for v, node in enumerate(nodes):
        if node[0] != _LEAF:
            parent[node[1]] = v
            parent[node[2]] = v
    reach = set()
    stack = [t.root]
    while stack:
        v = stack.pop()
        reach.add(v)
        if nodes[v][0] != _LEAF:
            stack.extend(nodes[v][1:])
    done = {}
    pending = set()
    for v in reach:
        if nodes[v][0] == _LEAF:
            done[v] = nodes[v][1]
        else:
            pending.add(v)
    layers: list = []
    while pending:
        ready = [
            v for v in pending if nodes[v][1] in done and nodes[v][2] in done
        ]
        assert ready, "no contractible node in a proper tree"
        new_done = {}  # committed only after the round: chains may not
        # consume siblings finished in the same round
        for v1 in sorted(ready):
            chain = [v1]
            cur = v1
            while True:
                p = parent.get(cur)
                if p is None or p not in pending or p in done:
                    break
                side, left, right = nodes[p]
                other = right if left == cur else left
                if other not in done:
                    break
                chain.append(p)
                cur = p
            # walk the chain, tracking where the accumulator sits
            side, left, right = nodes[v1]
            site = done[left] if side == "L" else done[right]
            first_ctl = done[right] if side == "L" else done[left]
            sites = [site]
            collect = {site: [first_ctl]}
            below = v1
            for v in chain[1:]:
                side, left, right = nodes[v]
                chain_child = left if left == below else right
                other = right if left == below else left
                tgt = left if side == "L" else right
                if tgt == chain_child:
                    collect[site].append(done[other])  # accumulator stays
                else:
                    site = done[other]  # accumulator moves onto the leaf
                    sites.append(site)
                    collect[site] = []
                below = v
            layers.extend(_chain_layers(sites, collect))
            for v in chain:
                pending.discard(v)
            new_done[chain[-1]] = site
        done.update(new_done)
    return levelled_circuit(layers, max(n, 1), max(n, 1))
