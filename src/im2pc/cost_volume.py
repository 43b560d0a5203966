"""2D-3D cost volume: implicit-correspondence generation on the normalized
camera plane (all-to-all or KNN point-pixel mixtures) followed by local
spatial transformation embedding over point neighborhoods."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import IndexMismatch, NoCandidates
from .geometry import CameraIntrinsics, SphericalConfig
from .nn_blocks import Linear, SharedMlp
from .params import Module
from .pyramids import FeatureImage
from .sampling import GroupingSpec, PointCloud, _knn_select, projection_aware_knn

SIGMA_FLOOR = 1e-8
MASK_NEG = -1e30
Z_MIN = 1e-3              # depth clamp of normalized_points


@dataclass(frozen=True)
class MixtureSpec:
    mode: str                 # "all" or "knn"
    k: int = 32               # pixel candidates per point (knn mode)
    k2: int = 4               # LST point neighbors
    lst_kernel: tuple = (3, 5)
    lst_dist: float = 4.5

    def __post_init__(self):
        if self.mode not in ("all", "knn"):
            raise ValueError(f"unknown mixture mode {self.mode!r}")
        if self.k < 1 or self.k2 < 1:
            raise ValueError("neighbor counts must be >= 1")


@dataclass
class StageNeighbours:
    """A stage's fixed searches: pixel candidates on the normalized plane and
    the LST neighbours of each point."""
    pixels: Optional[np.ndarray]   # (N, k) pixel rows; None in "all" mode
    lst_idx: np.ndarray            # (N, k2) neighbour rows
    lst_mask: np.ndarray           # (N, k2) True on valid slots


@dataclass
class CostVolume:
    entries: Tensor           # (N, C)
    level: int
    point_ref: PointCloud


def standardize(x: Tensor) -> Tensor:
    """Per-vector standardization over the channel (last) axis, as one node.

    Population sigma, floored at SIGMA_FLOOR; a constant vector maps to 0.
    Layer norm's backward, without its z term on rows at the floor.
    """
    n = float(x.shape[-1])
    centered = x.data - x.data.sum(axis=-1, keepdims=True) / n
    var = (centered * centered).sum(axis=-1, keepdims=True) / n
    # floor the variance, not sigma: the same forward, as sqrt(fl(a * a)) == a
    sigma = np.sqrt(np.maximum(var, SIGMA_FLOOR * SIGMA_FLOOR))
    z = centered / sigma

    def backward(g):
        gz = (g * z).sum(axis=-1, keepdims=True) / n * (var > SIGMA_FLOOR * SIGMA_FLOOR)
        x._accum((g - g.sum(axis=-1, keepdims=True) / n - z * gz) / sigma)

    return Tensor._make(z, (x,), backward)


def lst_offsets(pos: Tensor, idx: np.ndarray) -> Tensor:
    """(p_i, p_m, p_m - p_i, |p_m - p_i|) for each point i and each of its
    (N, k2) neighbour rows `idx`, as one (N, k2, 10) node. The offset's
    gradient reaches p_i as a sum over the k2 slots and p_m as a scatter."""
    N, k2 = idx.shape
    p_m = pos.data[idx]
    p_i = np.broadcast_to(pos.data.reshape(N, 1, 3), (N, k2, 3))
    rel = p_m - p_i
    dist = np.sqrt((rel * rel).sum(axis=2, keepdims=True) + 1e-24)

    def backward(g):
        g_rel = g[..., 6:9] + g[..., 9:] / dist * rel
        pos._accum((g[..., :3] - g_rel).sum(axis=1) +
                   ad.scatter_rows(idx, g[..., 3:6] + g_rel, N))

    return Tensor._make(np.concatenate([p_i, p_m, rel, dist], axis=2), (pos,), backward)


def inverse_similarity(point_feats: Tensor, pixel_feats: Tensor) -> Tensor:
    """Per-pixel channel-wise max over all points of f (*) g (raw features)."""
    prod = point_feats.reshape(point_feats.shape[0], 1, -1) * \
        pixel_feats.reshape(1, pixel_feats.shape[0], -1)
    return prod.max(axis=0)           # (M, C)


def normalized_pixels(pixel_coords: np.ndarray, K: CameraIntrinsics) -> np.ndarray:
    """(M, 2) pixel coordinates, (H, W, 2) before flattening, inverse-projected
    onto the normalized plane."""
    coords = pixel_coords.reshape(-1, 2)
    return np.stack([(coords[:, 0] - K.cx) / K.fx, (coords[:, 1] - K.cy) / K.fy], axis=1)


def normalized_points(positions: np.ndarray) -> np.ndarray:
    """Project points to the normalized plane, clamping z at Z_MIN.

    The clamp keeps behind-camera points queryable for candidate search;
    the outlier mask is expected to down-weight them.
    """
    z = np.maximum(positions[:, 2], Z_MIN)
    return positions[:, :2] / z[:, None]


def knn_pixel_candidates(pbar: np.ndarray, pixel_plane: np.ndarray, k: int) -> np.ndarray:
    """k nearest pixels per point on the normalized plane, ties to lower index."""
    if k > pixel_plane.shape[0]:
        raise NoCandidates(f"k={k} exceeds pixel count {pixel_plane.shape[0]}")
    return _knn_select(pbar, pixel_plane, k, np.inf)[0]


class CostVolumeModule(Module):
    """IC generation + LST embedding for one registration stage."""

    def __init__(self, name, point_dim, image_dim, spec: MixtureSpec,
                 ic_dims, sal_dims, pos_dim, lst_dims, rng):
        self.spec = spec
        self.image_dim = image_dim
        self.align = None
        if point_dim != image_dim:
            # similarity needs equal channel widths; project point features
            self.align = Linear(f"{name}.align", point_dim, image_dim, rng)
        sim_dim = image_dim
        extra = image_dim if spec.mode == "all" else 0
        self.ic_mlp = SharedMlp(f"{name}.ic", sim_dim + extra + 2 + 3, ic_dims, rng)
        self.pos_fc = Linear(f"{name}.pos", 5, pos_dim, rng)
        self.sal_mlp = SharedMlp(f"{name}.sal", ic_dims[-1] + pos_dim, sal_dims, rng,
                                 final_linear=True)
        self.b_fc = Linear(f"{name}.lst_pos", 10, pos_dim, rng)
        self.lst_mlp = SharedMlp(f"{name}.lst", point_dim + pos_dim + ic_dims[-1],
                                 lst_dims, rng, final_linear=True)
        if sal_dims[-1] != ic_dims[-1] or lst_dims[-1] != ic_dims[-1]:
            raise ValueError("salience/LST weight widths must match the IC width")

    # -- fixed searches -----------------------------------------------------

    def neighbours(self, positions: np.ndarray, spherical: np.ndarray,
                   pixel_plane: np.ndarray, cfg: SphericalConfig) -> StageNeighbours:
        """The searches of IC generation and LST embedding: the k nearest
        pixels of each point on the normalized plane ("knn" mode), and its
        projection-aware LST neighbours."""
        pixels = None
        if self.spec.mode == "knn":
            pixels = knn_pixel_candidates(normalized_points(positions),
                                          pixel_plane, self.spec.k)
        N = positions.shape[0]
        k2 = min(self.spec.k2, N)
        cloud = PointCloud(positions, np.zeros((N, 1)), spherical=spherical)
        gspec = GroupingSpec(k2, self.spec.lst_kernel, self.spec.lst_dist)
        idx, mask = projection_aware_knn(cloud, cloud, gspec, cfg)
        return StageNeighbours(pixels, idx, mask)

    # -- IC generation ------------------------------------------------------

    def ic_generate(self, pos_t: Tensor, f: Tensor, img: FeatureImage,
                    train: bool, pixels: Optional[np.ndarray] = None) -> Tensor:
        """Implicit correspondences; "knn" mode mixes the (N, k) candidate
        `pixels` found by `neighbours`, "all" mode every pixel."""
        M = img.pixel_count
        if M == 0:
            raise NoCandidates("image level has no pixels")
        N = pos_t.shape[0]
        g = img.features.reshape(M, self.image_dim)
        obar = Tensor(normalized_pixels(img.pixel_coords, img.intrinsics))  # (M, 2) constant
        fa = self.align(f) if self.align is not None else f
        zf = standardize(fa)
        zg = standardize(g)

        if self.spec.mode == "all":
            k1 = M
            s = zf.reshape(N, 1, -1) * zg.reshape(1, M, -1)
            hhat = inverse_similarity(fa, g)                 # (M, C)
            parts = [s, hhat.reshape(1, M, -1).broadcast_to((N, M, self.image_dim))]
            o_cand = obar.reshape(1, M, 2).broadcast_to((N, M, 2))
        else:
            if pixels is None:
                raise IndexMismatch("knn mode needs the pixel candidates of `neighbours`")
            k1 = self.spec.k
            s = zf.reshape(N, 1, -1) * zg.gather(pixels)
            parts = [s]
            o_cand = obar.gather(pixels)
        p_cand = pos_t.reshape(N, 1, 3).broadcast_to((N, k1, 3))
        h = self.ic_mlp(ad.concat(parts + [o_cand, p_cand], axis=2), train)
        r = self.pos_fc(ad.concat([p_cand, o_cand], axis=2))
        logits = self.sal_mlp(ad.concat([h, r], axis=2), train)
        w = logits.softmax(axis=1)
        return (h * w).sum(axis=1)                           # (N, ic_dim)

    # -- LST embedding ------------------------------------------------------

    def lst_embed(self, pos_t: Tensor, f: Tensor, ic: Tensor, idx: np.ndarray,
                  mask: np.ndarray, train: bool) -> Tensor:
        """Mix each point's neighbours' ICs over its (N, k2) LST neighbour
        rows `idx`; slots where `mask` is False take no weight."""
        N = pos_t.shape[0]
        if idx.shape[0] != N:
            raise IndexMismatch(f"{idx.shape[0]} LST groups vs {N} points")
        k2 = idx.shape[1]
        b = self.b_fc(lst_offsets(pos_t, idx))
        ic_m = ic.gather(idx)
        f_i = f.reshape(N, 1, -1).broadcast_to((N, k2, f.shape[-1]))
        logits = self.lst_mlp(ad.concat([f_i, b, ic_m], axis=2), train)
        # padded slots must not contribute to the weighted sum
        logits = logits + Tensor(np.where(mask, 0.0, MASK_NEG)[:, :, None])
        w = logits.softmax(axis=1)
        return (ic_m * w).sum(axis=1)

    def __call__(self, pos_t: Tensor, spherical: np.ndarray, f: Tensor,
                 img: FeatureImage, cfg: SphericalConfig, train: bool,
                 level: int, point_ref: PointCloud,
                 neighbours: Optional[StageNeighbours] = None) -> CostVolume:
        """IC generation then LST embedding. Without `neighbours` (a scene
        geometry's, for the coarse stage) the searches run on `pos_t` now,
        as the fine stage's must: its points move with the coarse pose."""
        if neighbours is None:
            neighbours = self.neighbours(pos_t.data, spherical,
                                         normalized_pixels(img.pixel_coords, img.intrinsics), cfg)
        ic = self.ic_generate(pos_t, f, img, train, pixels=neighbours.pixels)
        e = self.lst_embed(pos_t, f, ic, neighbours.lst_idx, neighbours.lst_mask, train)
        return CostVolume(e, level, point_ref)
