"""Byte-level regression guard for the synthesisers.

One digest per method covers the matrix text and that method's
``format_circuit`` text over a fixed (n, seed) corpus.  A change meant to
keep a method's circuits as they are must keep its digest; a change meant
to alter them updates that digest alone and says so.

A second set, again one digest per method, covers structured matrices,
and a third covers the tree contraction.
"""

import hashlib
import warnings

import numpy as np

from cnotsynth import (
    F2Matrix,
    contract_tree,
    format_circuit,
    format_matrix,
    format_tree,
    permutation_matrix,
    random_gl,
    synth_dnc,
    synth_simple,
    synth_with_ancillae,
    verify_implements,
)
from conftest import half_block, rand_tree

METHODS = {
    "simple": lambda m, seed: synth_simple(m),
    "dnc": lambda m, seed: synth_dnc(m, seed=seed),
    "ancilla_s1": lambda m, seed: synth_with_ancillae(m, 1, seed=seed),
    "ancilla_s2": lambda m, seed: synth_with_ancillae(m, 2, seed=seed),
}

# Each method's digest was re-pinned when it began levelling its whole gate
# sequence as soon as possible: the same gates in fewer layers.  The
# simple and ancilla digests equal those of the overlaid circuits they
# replace, levelled afterwards.  ancilla_s2 was re-pinned again when each
# column group's first stack began pasting straight into the target rows:
# fewer gates, the same matrices.  dnc was re-pinned when its blocks began
# taking the layby only past four times the cap (twice before): the digest
# is that of the previous source with only that threshold changed, so
# colouring every class of a stage in one call left the bytes as they were.
# Both ancilla digests were re-pinned when the random-salt paste colours
# gave way to the deterministic runs-of-2k greedy (_paste_colours): other
# gates and layers, the same matrices.  They were re-pinned again when the
# P blocks began to be built by a doubling subset-sum tree without scratch
# rows (_p_template), which also lets n = 64..71 take k = 3, and again
# when consecutive column groups began building their P rows in two
# alternating machinery regions (_stack_layers): the same gates in other
# wires and fewer layers.  ancilla_s2 alone was re-pinned when the work
# region began to be carved by need (_stack_sizes) and a partial stack with
# room to spare began alternating its copy rows: the same gates in other
# wires and fewer layers; s = 1 keeps every byte.  Both ancilla digests
# were re-pinned again when the work region began to be laid out per
# (n, s) (_layout): a wider stack 0 whose runs stay 2k, narrower partial
# stacks with shorter runs and more copy rows, and copies alternating by
# group parity wherever they fit in half their rows: other gates (copies)
# and fewer layers, the same matrices.  Both ancilla digests were re-pinned
# again when synth_with_ancillae began levelling its gate sequence by
# commutation (circuit.level_commuting), not as soon as possible: the same
# gates, other levels, fewer layers.  dnc was re-pinned when synth_dnc
# began levelling by commutation too, its same-depth traverse blocks
# emitted in lock step: the same gates, other levels, fewer layers (the
# lock step alone, levelled as soon as possible, kept every byte).
# Recipe for a re-pin:
# with the new source, run
# ``PYTHONPATH=src python -m pytest -q tests/test_corpus.py`` and copy each
# changed method's new hex digest from the failing assertion's "!=" lines
# into CORPUS_SHA256 or STRUCTURED_SHA256; any other digest that moves
# means the change reached a method it was not meant to.
CORPUS_SHA256 = {
    "simple": "cf99b441326976c8172dc5aa5d622e7f938d8928d7cf53aeefab3ff309decf1f",
    "dnc": "b13b298e49d39d3fc1ca5170e175abf1a51f9b9019caaaeb2e2f81dbd961c5bd",
    "ancilla_s1": "18dd2ae24572d4ec45bbbd85476904ecdc6cf92024bfcdff85e9b7bc43a5c8eb",
    "ancilla_s2": "66ef1e5e7a3d5910c7e5624d91d928ab6be86b5f0bb10f7016d7d5ba5492ba73",
}


def test_circuit_bytes_unchanged():
    digests = {name: hashlib.sha256() for name in METHODS}
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="ancilla scale")
        for n in (4, 16, 64, 100, 256):
            for seed in range(6):
                m = random_gl(n, seed)
                text = format_matrix(m).encode()
                for name, synth in METHODS.items():
                    c = synth(m, seed)
                    assert verify_implements(c, m).ok, (name, n, seed)
                    digests[name].update(text)
                    digests[name].update(format_circuit(c).encode())
    assert {name: h.hexdigest() for name, h in digests.items()} == CORPUS_SHA256


def _ones_upper(n):
    return F2Matrix.from_dense(np.triu(np.ones((n, n), dtype=np.uint8)))


def _dense_upper(n, density):
    d = np.triu((np.random.default_rng(n).random((n, n)) < density).astype(np.uint8), 1)
    d[np.arange(n), np.arange(n)] = 1
    return F2Matrix.from_dense(d)


STRUCTURED = {
    "ones_upper": _ones_upper,
    "ones_lower": lambda n: _ones_upper(n).transpose(),
    "half_block": half_block,
    "random_perm": lambda n: permutation_matrix(np.random.default_rng(n).permutation(n)),
    "reversal": lambda n: permutation_matrix(np.arange(n)[::-1]),
    "upper_1pct": lambda n: _dense_upper(n, 0.01),
    "upper_99pct": lambda n: _dense_upper(n, 0.99),
}

# One digest per method, seed 0, on the structured families at sizes around
# the dnc base case and its first splits.  Each covers the matrix text and
# that method's circuit text, as CORPUS_SHA256 does.  dnc was re-pinned
# with the layby threshold, and both ancilla digests with the runs-of-2k
# paste colours, the subset-sum P blocks and the alternating P regions,
# ancilla_s2 alone with the carved work region, and both ancilla digests
# with the per-(n, s) stack layout and with the levelling by commutation,
# and dnc again with its levelling by commutation, the same way as there.
STRUCTURED_SHA256 = {
    "simple": "df7a6ffd66b20a9c9d727366ee3ec8d00f702148d3def802fae891e47e9a8481",
    "dnc": "3912a9691cdc6f95ac95c38e3d781be67167c3925c7826387f3ba289a9483b3e",
    "ancilla_s1": "323209bca1c9d8debb4bcd752a695cb9dcd39ebc90f9be9c76568191bb6efb4f",
    "ancilla_s2": "fc2588ea44f02d062a8c2758956e1d2ae8ec698aba502324fd979b77baa443bd",
}


def test_structured_circuit_bytes_unchanged():
    digests = {name: hashlib.sha256() for name in METHODS}
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="ancilla scale")
        for n in (65, 127, 129, 300):
            for family, make in STRUCTURED.items():
                m = make(n)
                text = format_matrix(m).encode()
                for name, synth in METHODS.items():
                    c = synth(m, 0)
                    assert verify_implements(c, m).ok, (name, family, n)
                    digests[name].update(text)
                    digests[name].update(format_circuit(c).encode())
    assert {name: h.hexdigest() for name, h in digests.items()} == STRUCTURED_SHA256


# The first 20 trees of acceptance criterion 11, each covered by its tree
# text and its contract_tree circuit text.  Depth ceilings alone guard the
# contraction otherwise, and it shares circuit._fold_layers with the
# ancilla fan-in.
TREE_SHA256 = "e4670af273d1e09b62bb2c84330b917a78d4d58bb62cafbc077b535a9d1f8b81"


def test_contract_tree_bytes_unchanged():
    rng = np.random.default_rng(6)
    digest = hashlib.sha256()
    for trial in range(20):
        t = rand_tree(int(rng.integers(8, 1025)), trial)
        digest.update(format_tree(t).encode())
        digest.update(format_circuit(contract_tree(t)).encode())
    assert digest.hexdigest() == TREE_SHA256
