"""Hierarchical feature extraction: image pyramid, point pyramid with set
abstraction, context gathering, and the coarse-to-fine upsampling layers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import EmptyLevel, IndexMismatch, ShapeMismatch
from .geometry import CameraIntrinsics, SphericalConfig
from .nn_blocks import ConvBlock, Linear, SharedMlp
from .params import Module
from .sampling import (GroupingSpec, PointCloud, brute_force_knn, cell_sample,
                       farthest_point_sample, projection_aware_knn)


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

    def __call__(self, image: Tensor, intrinsics: CameraIntrinsics, train: bool):
        levels = []
        x = image
        cum = 1
        for li, layer in enumerate(self.layers):
            for block in layer.blocks:
                x = block(x, train)
            sh, sw = self.layer_strides[li]
            if sh != sw:
                raise ShapeMismatch((sh, sw), (sh, sh), "anisotropic image strides unsupported")
            cum *= sh
            h, w = x.shape[0], x.shape[1]
            levels.append(FeatureImage(x, cell_centers(h, w, cum), intrinsics, li + 1))
        return levels


class _BlockList(Module):
    def __init__(self, blocks):
        self.blocks = blocks


def gather_group(features: Tensor, positions: np.ndarray, idx: np.ndarray,
                 center_positions: np.ndarray):
    """Neighbor features concatenated with relative position offsets."""
    C = features.shape[1]
    offsets = positions[idx] - center_positions[:, None, :]        # (M, K, 3)
    out = np.concatenate([features.data[idx], offsets], axis=2)    # (M, K, C + 3)

    def backward(g):
        features._accum(ad.scatter_rows(idx, g[:, :, :C], features.shape[0]))

    return Tensor._make(out, (features,), backward)


def knn_group(centers: PointCloud, candidates: PointCloud, spec: GroupingSpec,
              cfg: SphericalConfig):
    """Projection-aware KNN on the spherical grid, or brute-force KNN when
    neither cloud carries spherical coordinates (the FPS strategy)."""
    if centers.spherical is None and candidates.spherical is None:
        return brute_force_knn(centers.positions, candidates.positions,
                               spec.k, spec.max_dist)
    return projection_aware_knn(centers, candidates, spec, cfg)


class SetAbstraction(Module):
    """Group -> shared MLP -> per-group max-pool (one pyramid level)."""

    def __init__(self, name, in_dim, dims, spec: GroupingSpec, rng):
        self.spec = spec
        self.mlp = SharedMlp(name, in_dim + 3, dims, rng)

    def __call__(self, cloud: PointCloud, cfg: SphericalConfig, train: bool,
                 strides: tuple | None = None):
        if cloud.spherical is None:
            sh, sw = self.spec.strides   # per-level reduction ratio
            m = max(1, cloud.count // (sh * sw))
            # seeded by the level index, so each level starts elsewhere
            centers_idx = farthest_point_sample(cloud, m, cloud.level)
        else:
            centers_idx = cell_sample(
                cloud, self.spec.strides if strides is None else strides)
        if centers_idx.size == 0:
            raise EmptyLevel(f"stride sampling left no points at level {cloud.level + 1}")
        center_pos = cloud.positions[centers_idx]
        center_sph = None if cloud.spherical is None else cloud.spherical[centers_idx]
        centers = PointCloud(center_pos, np.zeros((centers_idx.size, 1)),
                             spherical=center_sph, level=cloud.level + 1)
        idx, _mask = knn_group(centers, cloud, self.spec, cfg)
        grouped = gather_group(cloud.features, cloud.positions, idx, center_pos)
        pooled = self.mlp(grouped, train).max(axis=1)
        out = PointCloud(center_pos, pooled, spherical=center_sph, level=cloud.level + 1)
        return out, centers_idx, idx


class PointPyramid(Module):
    def __init__(self, name, in_dim, level_dims, level_specs, rng):
        self.levels = []
        d = in_dim
        for li, (dims, spec) in enumerate(zip(level_dims, level_specs)):
            self.levels.append(SetAbstraction(f"{name}.l{li + 1}", d, dims, spec, rng))
            d = dims[-1]

    def __call__(self, cloud: PointCloud, cfg: SphericalConfig, train: bool):
        out = [cloud]
        cum_h, cum_w = 1, 1
        for li, level in enumerate(self.levels):
            # spherical coordinates stay in level-0 cells, so cell
            # quantization needs the product of the strides applied so far
            sh, sw = level.spec.strides
            cum_h *= sh
            cum_w *= sw
            nxt, _, _ = level(out[-1], cfg, train, strides=(cum_h, cum_w))
            out.append(nxt)
        return out


class ContextGather(Module):
    """Set abstraction over the coarse cost volumes, centers kept in place."""

    def __init__(self, name, in_dim, dims, spec: GroupingSpec, rng):
        self.spec = spec
        self.mlp = SharedMlp(name, in_dim + 3, dims, rng)

    def __call__(self, cv: Tensor, cloud: PointCloud, cfg: SphericalConfig, train: bool):
        if cv.shape[0] != cloud.count:
            raise IndexMismatch(f"{cv.shape[0]} cost volumes vs {cloud.count} points")
        idx, _ = knn_group(cloud, cloud, self.spec, cfg)
        grouped = gather_group(cv, cloud.positions, idx, cloud.positions)
        return self.mlp(grouped, train).max(axis=1)


class Upsample(Module):
    """Propagate coarse per-point vectors to the fine level:
    FC(f_fine (+) MaxPool(MLP({coarse (+) offset})))."""

    def __init__(self, name, coarse_dim, fine_dim, mlp_dims, out_dim,
                 spec: GroupingSpec, rng):
        self.spec = spec
        self.mlp = SharedMlp(f"{name}.mlp", coarse_dim + 3, mlp_dims, rng)
        self.fc = Linear(f"{name}.fc", fine_dim + mlp_dims[-1], out_dim, rng)

    def __call__(self, coarse_vals: Tensor, coarse_cloud: PointCloud,
                 fine_cloud: PointCloud, fine_feats: Tensor,
                 cfg: SphericalConfig, train: bool):
        if coarse_vals.shape[0] != coarse_cloud.count:
            raise IndexMismatch("coarse values misaligned with coarse points")
        idx, _ = knn_group(fine_cloud, coarse_cloud, self.spec, cfg)
        grouped = gather_group(coarse_vals, coarse_cloud.positions, idx,
                               fine_cloud.positions)
        pooled = self.mlp(grouped, train).max(axis=1)
        return self.fc(ad.concat([fine_feats, pooled], axis=1))
