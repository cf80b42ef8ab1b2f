"""Input-description tokenization, the token vocabulary, and the
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


class TokenVocab:
    """Dense token -> index map with reserved PAD=0 and UNK=1."""

    def __init__(self, tokens=()):
        self._index = {PAD_TOKEN: 0, UNK_TOKEN: 1}
        for t in tokens:
            if t not in self._index:
                self._index[t] = len(self._index)

    @classmethod
    def build(cls, descriptions) -> "TokenVocab":
        return cls(t for d in descriptions for t in tokenize(d))

    def __len__(self):
        return len(self._index)

    def index(self, token) -> int:
        return self._index.get(token, 1)

    def indices(self, tokens) -> list:
        return [self.index(t) for t in tokens]

    def tokens(self) -> list:
        return list(self._index)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for t in self._index:
                f.write(t + "\n")


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
