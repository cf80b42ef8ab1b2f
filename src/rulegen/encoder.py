"""Input-description tokenization, its two reserved tokens, and the
shortcut-connection CNN stack shared by every convolutional module.

The stack follows the layer recurrence
    y_i(l) = ReLU(c(l) * y_i(l-2) + W(l) [window of y(l-1) at i])
with c(l) = 1 on even layers and 0 on odd layers, zero padding at the
sequence boundaries, and layer 0 the input embeddings. The shortcut is
position-aligned.
"""
from __future__ import annotations

import string

from . import autodiff as ad

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

_PUNCT_TABLE = str.maketrans({ch: " " for ch in string.punctuation})


def tokenize(description: str) -> list:
    """Lowercase, punctuation to spaces, split on whitespace runs."""
    toks = description.lower().translate(_PUNCT_TABLE).split()
    return toks if toks else [PAD_TOKEN]


def shortcut_cnn(store, prefix, y0, layers, window, lengths=None):
    """Run the shortcut CNN stack over embedded positions.

    ``store[prefix + "conv{l}"]`` holds W(l) of shape (window*d, d).
    With ``lengths``, y0 packs consecutive sequences of those lengths and
    each is convolved as if alone (the convolutions have no bias, so a
    boundary pads with zeros like the ends of a sequence do).
    Returns the top layer; layer l reads ``conv{l}``, so a call with
    ``layers=l`` gives the output of layer l of a deeper stack.
    """
    weights = [store[f"{prefix}conv{layer}"] for layer in range(1, layers + 1)]
    return ad.conv_stack(y0, weights, window, lengths)
