"""The configuration of the registration network the program runs, sized for
synthetic desk-scale scenes (32x64 images, ~512 points), and of training."""

from __future__ import annotations

from dataclasses import dataclass, field

from .cost_volume import MixtureSpec
from .geometry import SphericalConfig
from .sampling import GroupingSpec


@dataclass
class ModelConfig:
    spherical: SphericalConfig = field(
        default_factory=lambda: SphericalConfig(16, 256, 22.0, 22.0, frame="camera"))
    image_channels: tuple = ((8, 16), (16, 32), (32, 32))
    image_strides: tuple = ((2, 2), (2, 2), (2, 2))
    point_dims: tuple = ((16, 16), (16, 32), (32, 32), (32, 64))
    # kernels widen with the cumulative stride lattice so each level
    # still sees a 3x5 window of surviving candidates
    point_groupings: tuple = field(default_factory=lambda: (
        GroupingSpec(8, (3, 5), 1.0, (2, 2)),
        GroupingSpec(8, (5, 9), 2.0, (2, 1)),
        GroupingSpec(8, (9, 9), 4.0, (1, 2)),
        GroupingSpec(8, (9, 17), 8.0, (2, 1)),
    ))
    coarse_mixture: MixtureSpec = field(
        default_factory=lambda: MixtureSpec("knn", k=16, k2=4, lst_dist=2.0))
    fine_mixture: MixtureSpec = field(
        default_factory=lambda: MixtureSpec("knn", k=16, k2=4, lst_dist=2.0))
    ic_dims: tuple = (32, 32)
    sal_dims: tuple = (32, 32)
    pos_dim: int = 16
    lst_dims: tuple = (32, 32)
    context_dims: tuple = (32, 32)
    context_grouping: GroupingSpec = field(
        default_factory=lambda: GroupingSpec(8, (17, 17), 8.0))
    upsample_grouping: GroupingSpec = field(
        default_factory=lambda: GroupingSpec(8, (17, 17), 8.0))
    upsample_mlp_dims: tuple = (32, 32)
    upsample_out: int = 32
    oe_dims: tuple = (32, 32)
    mask_dims: tuple = (32, 32)
    middle_dim: int = 64
    dropout: float = 0.5


def desk_config() -> ModelConfig:
    """The network's configuration; a caller may change fields on the instance."""
    return ModelConfig()


@dataclass
class TrainConfig:
    lr: float = 1e-3
    betas: tuple = (0.9, 0.999)
    lr_decay: float = 0.01       # multiplicative (1 - decay) per epoch
    batch_size: int = 8
    epochs: int = 50
    seed: int = 0
    dropout: float = 0.5
    alpha3: float = 0.8
    alpha4: float = 1.6
    sq_init: float = -2.5
    st_init: float = 0.0
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
        if len(self.betas) != 2:
            raise ValueError("betas needs two values")


def parse_kv_file(path) -> dict:
    """Flat key=value config text; '#' starts a comment."""
    out = {}
    with open(path) as f:
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
        cur = fields[key]
        if isinstance(cur, int):
            fields[key] = int(val)
        elif isinstance(cur, float):
            fields[key] = float(val)
        else:
            fields[key] = tuple(float(x) for x in val.split(","))
    return TrainConfig(**fields)
