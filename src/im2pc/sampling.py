"""Point-set downsampling and neighborhood queries.

cell_sample and projection-aware KNN follow the spherical-grid scheme:
the azimuth axis wraps modulo W, elevation clamps. The numba kernels in
_kernels.py accelerate the inner loops; IM2PC_BACKEND=numpy selects the
pure numpy path, which pads k > candidate count exactly as the kernel does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .autodiff import Tensor
from .errors import EmptyLevel, MissingSpherical, TooFewPoints
from .geometry import SphericalConfig


@dataclass
class PointCloud:
    positions: np.ndarray                  # (N, 3)
    features: Tensor                       # (N, C)
    spherical: Optional[np.ndarray] = None  # (N, 2) int (u_s, v_s)
    level: int = 0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        if not isinstance(self.features, Tensor):
            self.features = Tensor(self.features)
        if self.positions.shape[0] != self.features.shape[0]:
            raise ValueError("positions and features disagree on point count")
        if self.spherical is not None:
            self.spherical = np.asarray(self.spherical, dtype=np.int64).reshape(-1, 2)

    @property
    def count(self) -> int:
        return self.positions.shape[0]


@dataclass
class GroupingSpec:
    k: int
    kernel: tuple = (3, 3)       # (kh, kw)
    max_dist: float = np.inf
    strides: tuple = (1, 1)      # (s_h, s_w)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.kernel[0] % 2 == 0 or self.kernel[1] % 2 == 0:
            raise ValueError("kernel dims must be odd")
        if self.max_dist <= 0:
            raise ValueError("max_dist must be positive")


def cell_sample(cloud: PointCloud, strides: tuple) -> np.ndarray:
    """First-in-order representative per sh x sw cell of the spherical grid.

    Every occupied coarse cell keeps one point, so the result is never empty
    for a non-empty cloud.
    """
    if cloud.spherical is None:
        raise MissingSpherical("cell_sample needs spherical coordinates")
    sh, sw = strides
    u, v = cloud.spherical[:, 0], cloud.spherical[:, 1]
    cells = {}
    keep = []
    for i in range(len(u)):
        cell = (u[i] // sw, v[i] // sh)
        if cell not in cells:
            cells[cell] = True
            keep.append(i)
    return np.asarray(keep, dtype=np.int64)


def _window_mask(c_sph, cand_sph, kernel, W):
    kh, kw = kernel
    du = np.abs(c_sph[:, None, 0] - cand_sph[None, :, 0])
    du = np.minimum(du, W - du)  # azimuth wraps
    dv = np.abs(c_sph[:, None, 1] - cand_sph[None, :, 1])
    return (du <= kw // 2) & (dv <= kh // 2)


def _knn_select_numpy(centers, candidates, window_ok, k, max_sq):
    M, N = window_ok.shape
    d = ((centers[:, None, :] - candidates[None, :, :]) ** 2).sum(axis=2)
    valid = window_ok & (d <= max_sq)
    order = np.argsort(np.where(valid, d, np.inf), axis=1, kind="stable")
    idx = order[:, :k]
    if N < k:  # widen to k columns; the extra slots are all padding
        idx = np.pad(idx, ((0, 0), (0, k - N)))
    nvalid = np.minimum(valid.sum(axis=1), k)
    mask = np.arange(k)[None, :] < nvalid[:, None]
    # pad: repeat the nearest valid index, or the global nearest when none
    fallback = np.argmin(d, axis=1)
    first = np.where(nvalid > 0, idx[:, 0], fallback)
    idx = np.where(mask, idx, first[:, None])
    return idx.astype(np.int64), mask


def brute_force_knn(centers: np.ndarray, candidates: np.ndarray, k: int,
                    max_dist: float = np.inf):
    """Exact k-nearest by 3D distance; ties break to the lower index."""
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    candidates = np.asarray(candidates, dtype=np.float64).reshape(-1, 3)
    if candidates.shape[0] == 0:
        raise EmptyLevel("no candidate points")
    window = np.ones((centers.shape[0], candidates.shape[0]), dtype=bool)
    max_sq = max_dist * max_dist
    if _kernels.backend() == "numba":
        return _kernels.knn_select(centers, candidates, window, k, max_sq)
    return _knn_select_numpy(centers, candidates, window, k, max_sq)


def projection_aware_knn(centers: PointCloud, candidates: PointCloud,
                         spec: GroupingSpec, cfg: SphericalConfig):
    """3D KNN restricted to a 2D kernel window on the spherical grid."""
    if centers.spherical is None or candidates.spherical is None:
        raise MissingSpherical("projection-aware grouping needs spherical coordinates")
    if candidates.count == 0:
        raise EmptyLevel("no candidate points")
    window = _window_mask(centers.spherical, candidates.spherical, spec.kernel, cfg.W)
    max_sq = spec.max_dist * spec.max_dist
    if _kernels.backend() == "numba":
        return _kernels.knn_select(centers.positions, candidates.positions, window,
                                   spec.k, max_sq)
    return _knn_select_numpy(centers.positions, candidates.positions, window,
                             spec.k, max_sq)


def farthest_point_sample(cloud: PointCloud, m: int, seed: int) -> np.ndarray:
    """Deterministic FPS; the first pick is a seeded random index."""
    n = cloud.count
    if m > n:
        raise TooFewPoints(f"asked for {m} of {n} points")
    start = int(np.random.default_rng(seed).integers(n))
    if _kernels.backend() == "numba":
        return _kernels.fps_select(cloud.positions, m, start)
    chosen = np.empty(m, dtype=np.int64)
    chosen[0] = start
    min_d = np.full(n, np.inf)
    for step in range(1, m):
        d = ((cloud.positions - cloud.positions[chosen[step - 1]]) ** 2).sum(axis=1)
        min_d = np.minimum(min_d, d)
        chosen[step] = int(np.argmax(min_d))  # argmax ties to the lowest index
    return chosen
