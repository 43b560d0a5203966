"""The configuration of the registration network and of training. The
network's fixed shape is a set of constants in `registration`; a caller sets
only the image strides."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ModelConfig:
    image_strides: tuple = ((2, 2), (2, 2), (2, 2))


def desk_config() -> ModelConfig:
    """The network's configuration; a caller may change fields on the instance."""
    return ModelConfig()


@dataclass
class TrainConfig:
    lr: float = 1e-3
    lr_decay: float = 0.01       # multiplicative (1 - decay) per epoch
    batch_size: int = 8
    epochs: int = 50
    seed: int = 0
    dropout: float = 0.5
    clip_norm: float = 10.0
    holdout_frac: float = 0.1
    eval_every: int = 1          # holdout evaluation cadence, in epochs

    def __post_init__(self):
        for name in ("lr", "clip_norm"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive")
        if not (0.0 < self.lr_decay < 1.0):
            raise ValueError("lr_decay must lie in (0, 1)")
        for name in ("epochs", "batch_size", "eval_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("holdout_frac", "dropout"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.seed < 0:  # np.random.default_rng refuses it
            raise ValueError("seed must be non-negative")


def parse_kv_file(path) -> dict:
    """Flat key=value config text; '#' starts a comment."""
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def apply_overrides(cfg: TrainConfig, overrides: dict) -> TrainConfig:
    fields = {f: getattr(cfg, f) for f in cfg.__dataclass_fields__}
    for key, val in overrides.items():
        if key not in fields:
            raise KeyError(f"unknown TrainConfig field {key!r}")
        fields[key] = type(fields[key])(val)
    return TrainConfig(**fields)
