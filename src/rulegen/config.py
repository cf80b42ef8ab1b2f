"""Run configuration: architecture dims, training schedule, and the
ablation toggles. The JSON form round-trips losslessly and unknown keys
are rejected so a typo cannot silently fall back to a default. Each value
must have its field's type: an int field takes no bool, a float field
also takes an int (kept as given, so the config hash does not change),
and a bool field takes only a bool. A float field's value must be finite
and within the float range."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass


class ConfigError(ValueError):
    pass


ABLATION_TOGGLES = (
    "no_rule_cnn",
    "no_preorder_cnn",
    "no_tree_conv",
    "no_treepath_cnn",
    "attention_to_maxpool",
    "no_scope",
    "extra_treeconv_pool",
    "share_heads",
    "no_copy",
)

# accepted value types per annotated field type
_TYPES = {"int": int, "float": (int, float), "bool": bool}


@dataclass
class RunConfig:
    # architecture
    layers: int = 21
    window: int = 2
    dim: int = 128
    mlp_hidden: int = 128
    # training
    epochs: int = 100
    accumulation_window: int = 16
    dropout: float = 0.5
    word_dropout: float = 0.0
    l2: float = 1e-4
    lr: float = 1e-3
    seed: int = 0
    eval_interval: int = 50          # epochs between dev evaluations
    patience: int = 10               # early-stop patience, in dev evals
    max_updates: int = 0             # 0 = no cap
    stop_at_train_acc: float = 0.0   # 0 = never; 1.0 = stop at memorization
    # inference
    beam_size: int = 5
    max_decode_steps: int = 800
    # ablations
    no_rule_cnn: bool = False
    no_preorder_cnn: bool = False
    no_tree_conv: bool = False
    no_treepath_cnn: bool = False
    attention_to_maxpool: bool = False
    no_scope: bool = False
    extra_treeconv_pool: bool = False
    share_heads: bool = False
    no_copy: bool = False

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if (not isinstance(value, _TYPES[f.type])
                    or (isinstance(value, bool) and f.type != "bool")):
                raise ConfigError(f"{f.name} must be of type {f.type}, "
                                  f"got {value!r}")
            # NaN fails the comparison; an int past the float range would
            # overflow where training turns it into a float
            if f.type == "float" and not abs(value) <= sys.float_info.max:
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        for name in ("layers", "window", "dim", "mlp_hidden", "epochs",
                     "accumulation_window", "eval_interval", "patience",
                     "beam_size", "max_decode_steps"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        for name in ("seed", "max_updates"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, "
                                  f"got {getattr(self, name)}")
        if not 0.0 <= self.stop_at_train_acc <= 1.0:
            raise ConfigError("stop_at_train_acc must lie in [0, 1]")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if not 0.0 <= self.word_dropout < 1.0:
            raise ConfigError("word_dropout must lie in [0, 1)")
        if self.l2 < 0 or self.lr <= 0:
            raise ConfigError("bad regularization or learning rate")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ConfigError("config is nested too deeply") from None
        except ValueError as e:  # also an integer too long to convert
            raise ConfigError(f"config is not valid JSON: {e}") from e
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**doc)

    def hash(self) -> str:
        canon = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()
