"""Byte-level regression guard for the synthesisers.

One digest per method covers the matrix text and that method's
``format_circuit`` text over a fixed (n, seed) corpus.  A change meant to
keep a method's circuits as they are must keep its digest; a change meant
to alter them updates that digest alone and says so.
"""

import hashlib
import warnings

from cnotsynth import (
    format_circuit,
    format_matrix,
    random_gl,
    synth_dnc,
    synth_simple,
    synth_with_ancillae,
    verify_implements,
)

METHODS = {
    "simple": lambda m, seed: synth_simple(m),
    "dnc": lambda m, seed: synth_dnc(m, seed=seed),
    "ancilla_s1": lambda m, seed: synth_with_ancillae(m, 1, seed=seed),
    "ancilla_s2": lambda m, seed: synth_with_ancillae(m, 2, seed=seed),
}

CORPUS_SHA256 = {
    "simple": "7f12f9c75f327b5921d2d886d85a7f141749ac7111640d82ec0e47ba34b5e2a4",
    # re-pinned when dnc began levelling its whole gate sequence as soon as
    # possible: the same gates in fewer layers
    "dnc": "320fc7a868143ab3613d0de0a255aeb4e42a3d0650ce144fac0ca07110fdaf83",
    "ancilla_s1": "30a3453c6a930eb2b4fcaeaadaea8a7c5a83aa09f325158bcd4025e631d1bca2",
    "ancilla_s2": "3ed065b7b5359a25d7fd89219e40fcf284060e42b58ca3faf1d38269da470bfb",
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
