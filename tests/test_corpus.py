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

# Each method's digest was re-pinned when it began levelling its whole gate
# sequence as soon as possible: the same gates in fewer layers.  The
# simple and ancilla digests equal those of the overlaid circuits they
# replace, levelled afterwards.  ancilla_s2 was re-pinned again when each
# column group's first stack began pasting straight into the target rows:
# fewer gates, the same matrices.
CORPUS_SHA256 = {
    "simple": "cf99b441326976c8172dc5aa5d622e7f938d8928d7cf53aeefab3ff309decf1f",
    "dnc": "320fc7a868143ab3613d0de0a255aeb4e42a3d0650ce144fac0ca07110fdaf83",
    "ancilla_s1": "613d5e1abb45c31deb23c02d6ed86abee0cb7885852c5d9fe6ecd67873c1df5a",
    "ancilla_s2": "1dd39f4b5a4b82c9f70e3f206674ff921b9f07c48be46d324cec83cfe3a99a5c",
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
