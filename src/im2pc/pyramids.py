"""Hierarchical feature extraction: image pyramid, point pyramid, context
gathering, and the coarse-to-fine upsampling layers.

The point-side sampling and searches depend on the points alone, so the
layers here learn only: `sample_levels` finds every point level's centers
and groups once per scene, and the layers take the neighbour rows they
group over as an argument. One group-and-pool layer, `GroupPool`, serves
every point level, the context gather and the upsampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import EmptyLevel, IndexMismatch, ShapeMismatch
from .geometry import CameraIntrinsics, SphericalConfig
from .nn_blocks import ConvBlock, Linear, SharedMlp
from .params import Module
from .sampling import PointCloud, cell_sample, projection_aware_knn


@dataclass
class FeatureImage:
    features: Tensor            # (H, W, C)
    pixel_coords: np.ndarray    # (H, W, 2), original pixel units (u, v)
    intrinsics: CameraIntrinsics
    level: int

    @property
    def pixel_count(self) -> int:
        return self.features.shape[0] * self.features.shape[1]


def cell_centers(h: int, w: int, stride: int) -> np.ndarray:
    """Original-pixel-plane centers of stride x stride receptive cells."""
    off = (stride - 1) / 2.0
    u = np.arange(w) * stride + off
    v = np.arange(h) * stride + off
    coords = np.empty((h, w, 2))
    coords[:, :, 0] = u[None, :]
    coords[:, :, 1] = v[:, None]
    return coords


class ImagePyramid(Module):
    """Three conv-block layers with per-layer pooling strides."""

    def __init__(self, name, in_ch, layer_channels, layer_strides, rng):
        self.layer_strides = [tuple(s) for s in layer_strides]
        self.layers = []
        c = in_ch
        for li, (channels, stride) in enumerate(zip(layer_channels, self.layer_strides)):
            blocks = []
            for bi, out in enumerate(channels):
                # the layer's pooling stride sits on its first block
                s = stride if bi == 0 else (1, 1)
                blocks.append(ConvBlock(f"{name}.l{li}.b{bi}", c, out, s, rng))
                c = out
            self.layers.append(_BlockList(blocks))

    def level_grids(self, h: int, w: int) -> list:
        """Pixel coordinates of each level's cells for an h x w input; they
        depend only on the image shape, so a scene's geometry can hold them."""
        grids = []
        cum = 1
        for sh, sw in self.layer_strides:
            if sh != sw:
                raise ShapeMismatch((sh, sw), (sh, sh), "anisotropic image strides unsupported")
            cum *= sh
            grids.append(cell_centers(h // cum, w // cum, cum))
        return grids

    def __call__(self, image: Tensor, intrinsics: CameraIntrinsics, train: bool):
        grids = self.level_grids(image.shape[0], image.shape[1])
        levels = []
        x = image
        for li, layer in enumerate(self.layers):
            for block in layer.blocks:
                x = block(x, train)
            levels.append(FeatureImage(x, grids[li], intrinsics, li + 1))
        return levels


class _BlockList(Module):
    def __init__(self, blocks):
        self.blocks = blocks


def gather_group(features: Tensor, positions: np.ndarray, idx: np.ndarray,
                 center_positions: np.ndarray):
    """Neighbor features concatenated with relative position offsets."""
    C = features.shape[1]
    out = np.empty(idx.shape + (C + 3,))                           # (M, K, C + 3)
    out[:, :, :C] = features.data[idx]
    np.subtract(positions[idx], center_positions[:, None, :], out=out[:, :, C:])

    def backward(g):
        features._accum(ad.scatter_rows(idx, g[:, :, :C], features.shape[0]))

    return Tensor._make(out, (features,), backward)


@dataclass
class LevelGeometry:
    """One point level's fixed sampling and grouping."""
    centers: PointCloud       # the level's points; their features are placeholders
    idx: np.ndarray           # (M, k) each center's neighbour rows in the level below


def sample_levels(cloud: PointCloud, specs, cfg: SphericalConfig) -> list:
    """Every point level's LevelGeometry, from the input cloud alone: per
    GroupingSpec, the centers cell_sample keeps and their projection-aware
    KNN groups in the level below."""
    out = []
    cum_h, cum_w = 1, 1
    for spec in specs:
        # spherical coordinates stay in level-0 cells, so cell quantization
        # needs the product of the strides applied so far
        sh, sw = spec.strides
        cum_h *= sh
        cum_w *= sw
        centers_idx = cell_sample(cloud, (cum_h, cum_w))
        if centers_idx.size == 0:
            raise EmptyLevel(f"stride sampling left no points at level {cloud.level + 1}")
        centers = PointCloud(cloud.positions[centers_idx], np.zeros((centers_idx.size, 1)),
                             spherical=cloud.spherical[centers_idx], level=cloud.level + 1)
        idx, _mask = projection_aware_knn(centers, cloud, spec, cfg)
        out.append(LevelGeometry(centers, idx))
        cloud = centers
    return out


class GroupPool(Module):
    """PointNet++ set abstraction: group each center's neighbours with their
    offsets, run a shared MLP, max-pool over the group."""

    def __init__(self, name, in_dim, dims, rng):
        self.mlp = SharedMlp(name, in_dim + 3, dims, rng)

    def __call__(self, features: Tensor, positions: np.ndarray, idx: np.ndarray,
                 centers: np.ndarray, train: bool) -> Tensor:
        if features.shape[0] != positions.shape[0] or idx.shape[0] != centers.shape[0]:
            raise IndexMismatch(f"{features.shape[0]} feature rows over {positions.shape[0]} "
                                f"points, {idx.shape[0]} groups over {centers.shape[0]} centers")
        grouped = gather_group(features, positions, idx, centers)
        return self.mlp(grouped, train).max(axis=1)


class PointPyramid(Module):
    """One GroupPool per point level, each over the level below."""

    def __init__(self, name, in_dim, level_dims, rng):
        self.levels = []
        d = in_dim
        for li, dims in enumerate(level_dims):
            self.levels.append(GroupPool(f"{name}.l{li + 1}", d, dims, rng))
            d = dims[-1]

    def __call__(self, cloud: PointCloud, geometry: list, train: bool):
        out = [cloud]
        for pool, geo in zip(self.levels, geometry, strict=True):
            below, centers = out[-1], geo.centers
            pooled = pool(below.features, below.positions, geo.idx, centers.positions, train)
            out.append(PointCloud(centers.positions, pooled, spherical=centers.spherical,
                                  level=centers.level))
        return out


class ContextGather(GroupPool):
    """Set abstraction over the coarse cost volumes, centers kept in place."""

    def __call__(self, cv: Tensor, cloud: PointCloud, idx: np.ndarray, train: bool):
        return super().__call__(cv, cloud.positions, idx, cloud.positions, train)


class Upsample(Module):
    """Propagate coarse per-point vectors to the fine level:
    FC(f_fine (+) MaxPool(MLP({coarse (+) offset})))."""

    def __init__(self, name, coarse_dim, fine_dim, mlp_dims, out_dim, rng):
        self.pool = GroupPool(f"{name}.mlp", coarse_dim, mlp_dims, rng)
        self.fc = Linear(f"{name}.fc", fine_dim + mlp_dims[-1], out_dim, rng)

    def __call__(self, coarse_vals: Tensor, coarse_cloud: PointCloud,
                 fine_cloud: PointCloud, fine_feats: Tensor, idx: np.ndarray,
                 train: bool):
        pooled = self.pool(coarse_vals, coarse_cloud.positions, idx, fine_cloud.positions, train)
        return self.fc(ad.concat([fine_feats, pooled], axis=1))
