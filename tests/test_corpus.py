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
# gates and layers, the same matrices.
CORPUS_SHA256 = {
    "simple": "cf99b441326976c8172dc5aa5d622e7f938d8928d7cf53aeefab3ff309decf1f",
    "dnc": "b3db0b6c445acd92a7c01f1e586a462422334e84bcaccca6aecfedb974aefdb0",
    "ancilla_s1": "92205a771ecea3706025cde29642b5161b6be1c7cb51aac7b2980c1cefd0b7eb",
    "ancilla_s2": "44a207c77ad6a976545033ccedb507563c440abf5abadbb0b1d3fe263006fd51",
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
# paste colours, the same way as there.
STRUCTURED_SHA256 = {
    "simple": "df7a6ffd66b20a9c9d727366ee3ec8d00f702148d3def802fae891e47e9a8481",
    "dnc": "26932af9c1fed0f35d4819f46722460a77c1ae62bdb5079f82a1e71125c41c0d",
    "ancilla_s1": "bae89c0215b251f20e3a0db8fac4e191fa284e5c5260bce8e853e652a04f9498",
    "ancilla_s2": "d4b5dd44c5346947657e22a12533313ad72b87793e0acd33c6c5c96cec98b787",
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
