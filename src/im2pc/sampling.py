"""Point-set downsampling and neighborhood queries, in vectorized numpy.

cell_sample and projection-aware KNN follow the spherical-grid scheme:
the azimuth axis wraps modulo W, elevation clamps. Projection-aware KNN
visits only the cells of each center's kernel window; brute-force KNN
searches every candidate. Both order neighbours by (distance, index), pad
k > candidate count with the nearest valid index, and take centers in row
chunks of at most _CHUNK_PAIRS center-candidate pairs, so a search's
working memory is bounded by that constant, not by M * N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import Tensor
from .errors import EmptyLevel, MissingSpherical
from .geometry import SphericalConfig

# center-candidate pairs in one row chunk of a KNN search, ~25 bytes each
_CHUNK_PAIRS = 1 << 20


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


@dataclass(frozen=True)
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
    cu = cloud.spherical[:, 0] // sw
    cu = cu - cu.min(initial=0)
    key = (cloud.spherical[:, 1] // sh) * (cu.max(initial=0) + 1) + cu
    _, first = np.unique(key, return_index=True)  # first occurrence of each cell
    return np.sort(first)


def _sq_dist(a, b):
    """Squared distances between points given coordinate-major: `a` and `b`
    each yield one array per coordinate, broadcasting against each other.

    Sums one coordinate at a time, left to right, as numpy sums a short last
    axis, so it is bitwise ((c - x) ** 2).sum(axis=-1) for coordinate-last
    c and x; gathering and subtracting one coordinate at a time is faster.
    """
    out = None
    for aj, bj in zip(a, b):
        d = aj - bj
        d *= d
        if out is None:
            out = d
        else:
            out += d
    return out


def _row_chunks(m, width):
    """Slices of m rows, `width` pairs a row, at most _CHUNK_PAIRS pairs a slice."""
    step = max(1, _CHUNK_PAIRS // max(width, 1))
    return [slice(i, i + step) for i in range(0, m, step)]


def _knn_select(centers, candidates, block, k, max_sq):
    """Per-center k-nearest among its row of `block` within sqrt(max_sq).

    block is (M, L) candidate indices, -1 marking empty slots, or one (1, N)
    row shared by every center. Neighbours are ordered by (distance, index).
    Slots past the last valid neighbour repeat the nearest valid index, or
    the globally nearest candidate when nothing is valid. Rows are
    independent, so a search wider than one _row_chunks slice runs per slice.
    """
    chunks = _row_chunks(centers.shape[0], block.shape[1])
    if len(chunks) > 1:
        parts = [_knn_select(centers[r], candidates, block if len(block) == 1 else block[r],
                             k, max_sq) for r in chunks]
        return tuple(np.concatenate(p) for p in zip(*parts))
    n = candidates.shape[0]
    d = _sq_dist(centers.T[:, :, None], (c[block] for c in candidates.T))
    keep = (d <= max_sq) & (block >= 0)
    M, L = d.shape
    if L > k:  # only the k nearest and the ties of the k-th can be selected
        kth = np.partition(np.where(keep, d, np.inf), k - 1, axis=1)[:, k - 1:k]
        keep &= d <= kth
    # compact the kept pairs to the left of a (M, >= k) block, then order
    # each row by (distance, index)
    rows, cols = np.nonzero(keep)
    count = np.bincount(rows, minlength=M)
    slots = np.arange(max(count.max(initial=0), k)) < count[:, None]
    dist = np.full(slots.shape, np.inf)
    idx = np.full(slots.shape, n)
    dist[slots] = d[rows, cols]
    idx[slots] = np.broadcast_to(block, d.shape)[rows, cols]
    order = np.lexsort((idx, dist))[:, :k]
    idx = idx[np.arange(M)[:, None], order]
    mask = slots[:, :k]
    first = idx[:, 0]
    empty = np.flatnonzero(count == 0)
    for r in _row_chunks(len(empty), n):  # brute force over all candidates, for these rows only
        e = empty[r]
        first[e] = np.argmin(_sq_dist(centers[e].T[:, :, None], candidates.T[:, None, :]), axis=1)
    return np.where(mask, idx, first[:, None]), mask


def brute_force_knn(centers: np.ndarray, candidates: np.ndarray, k: int,
                    max_dist: float = np.inf):
    """Exact k-nearest by 3D distance; ties break to the lower index."""
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    candidates = np.asarray(candidates, dtype=np.float64).reshape(-1, 3)
    if candidates.shape[0] == 0:
        raise EmptyLevel("no candidate points")
    return _knn_select(centers, candidates, np.arange(candidates.shape[0])[None], k,
                       max_dist * max_dist)


def projection_aware_knn(centers: PointCloud, candidates: PointCloud,
                         spec: GroupingSpec, cfg: SphericalConfig):
    """3D KNN restricted to a 2D kernel window on the spherical grid.

    A candidate is in a center's window when its row is within kh // 2 of
    the center's and its column within kw // 2, azimuth wrapping modulo W.
    Candidates are sorted once by cell key v * W + u; each window row is
    then at most two non-empty key ranges, found by binary search, so the
    cost grows with the window population, not with M * N. Centers go in
    _row_chunks slices, first of their window bounds, then of their padded
    windows, so memory stays bounded however large the windows. Spherical
    coordinates must lie on the grid (0 <= u < W), as
    spherical_project_many makes them.
    """
    if centers.spherical is None or candidates.spherical is None:
        raise MissingSpherical("projection-aware grouping needs spherical coordinates")
    n = candidates.count
    if n == 0:
        raise EmptyLevel("no candidate points")
    W = cfg.W
    key = candidates.spherical[:, 1] * W + candidates.spherical[:, 0]
    order = np.argsort(key)  # order within a cell is free: ties sort by index later
    key = key[order]
    vlo, vhi = key[0] // W, key[-1] // W
    R = min(spec.kernel[0], vhi - vlo + 1)  # window rows inside the candidates' rows
    max_sq = spec.max_dist * spec.max_dist
    parts = []
    for r in _row_chunks(max(centers.count, 1), 3 * R):  # one empty slice for no centers
        pos = centers.positions[r]
        start, count = _window_ranges(key, centers.spherical[r], spec.kernel, W, vlo, R)
        total = count.sum(axis=1)
        for s in _row_chunks(len(total), total.max()):
            block = _window_block(order, start[s], count[s], total[s])
            parts.append(_knn_select(pos[s], candidates.positions, block, spec.k, max_sq))
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _window_ranges(key, sph, kernel, W, vlo, R):
    """(m, 3R) start and length, in the sorted `key`, of the ranges that make
    up each center's window: R window rows, clipped to the candidates' rows
    from vlo on, of up to three column ranges each."""
    kh, kw = kernel
    hh, hw = kh // 2, kw // 2
    cu, cv = sph[:, :1], sph[:, 1:]
    rows = np.maximum(cv - hh, vlo) + np.arange(R)  # (m, R)
    if kw < W:
        ulo, uhi = cu - hw, cu + hw + 1
    else:  # the window spans the whole ring
        ulo, uhi = np.zeros_like(cu), np.full_like(cu, W)
    # columns [ulo, uhi) as up to three ranges inside [0, W): the unwrapped
    # part and the parts that wrap past either end; (m, R, 3) key bounds
    shift = np.array([-W, 0, W])
    base = rows[:, :, None] * W
    lo = base + np.minimum(np.maximum(ulo[:, :, None] + shift, 0), W)
    hi = base + np.minimum(np.maximum(uhi[:, :, None] + shift, 0), W)
    hi = np.where(rows[:, :, None] <= cv[:, :, None] + hh, hi, lo)
    start = np.searchsorted(key, lo.reshape(len(lo), -1))
    return start, np.searchsorted(key, hi.reshape(len(hi), -1)) - start


def _window_block(order, start, count, total):
    """Each center's window candidates gathered into a padded (m, max total)
    block of candidate rows, -1 in the empty slots."""
    count = count.ravel()
    skip = start.ravel() - (np.cumsum(count) - count)  # range start minus its output offset
    src = np.arange(total.sum()) + np.repeat(skip, count)
    block = np.full((len(total), total.max()), -1)
    block[np.arange(block.shape[1]) < total[:, None]] = order[src]
    return block
