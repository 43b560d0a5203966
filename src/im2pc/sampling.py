"""Point-set downsampling and neighborhood queries, in vectorized numpy.

cell_sample and projection-aware KNN follow the spherical-grid scheme:
the azimuth axis wraps modulo W, elevation clamps. cell_sample keeps the
first point of each cell through a table indexed by cell key, without
sorting the keys. Projection-aware KNN refuses coordinates off the H x W
grid, and brute-force KNN searches every candidate. Every search orders
neighbours by (distance, index) and pads k > candidate count with the
nearest valid index, on one of two paths chosen by its M * N
center-candidate pairs:

- a search of at most _DIRECT_PAIRS pairs (_DIRECT_BRUTE_PAIRS for brute
  force) takes every pair's distance at once, out-of-window pairs set to
  NaN, and sorts each row with a stable argsort. At this size numpy's
  per-call overhead, not the pairs, sets the cost, and this path makes the
  fewest calls.
- a larger one takes centers in row chunks of at most _CHUNK_PAIRS pairs,
  written into preallocated (M, k) outputs; projection-aware KNN then
  visits only the cells of each center's kernel window. So a search's
  working memory is that constant plus its outputs, not M * N, and the
  constant is small enough that a chunk's passes run in cache.

Both paths give bitwise the same indices and masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import Tensor
from .errors import EmptyLevel, MissingSpherical, OffGrid
from .geometry import SphericalConfig

# center-candidate pairs in one row chunk of a KNN search, ~25 bytes each over
# the chunk's distance, gate, partition and compaction passes: 2^15 keeps them
# near 1 MB, inside one core's L2 cache (2 MB on the Xeon it was tuned on). A
# 16,384-point cloud's level-1 search (~200k pairs) ran ~1.4x faster than in
# one piece; at 2^13 per-chunk overhead made it slower again.
_CHUNK_PAIRS = 1 << 15
# center-candidate pairs up to which a search takes the direct path, whose
# stable sort of every pair costs ~10-50 ns a pair. In a warm loop on the
# same Xeon it beat the windowed path ~2x up to 3.4k pairs and by 5-30% at
# 5.4k-9.1k, and lost from 12.8k pairs on. Brute force's single chunk costs
# less than the window lookup, so its crossover comes sooner: the direct path
# won at 0.5k-2k pairs of 32 candidates a row, tied at 2k pairs of 64, and
# took 1.9x the chunk's time at 4k pairs of 128.
_DIRECT_PAIRS = 1 << 13
_DIRECT_BRUTE_PAIRS = 1 << 11


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
    for a non-empty cloud. The table of first occurrences spans the cell keys
    from the lowest to the highest, one entry per coarse cell of the grid
    for on-grid coordinates.
    """
    if cloud.spherical is None:
        raise MissingSpherical("cell_sample needs spherical coordinates")
    sh, sw = strides
    cu = cloud.spherical[:, 0] // sw
    cu = cu - cu.min(initial=0)
    key = (cloud.spherical[:, 1] // sh) * (cu.max(initial=0) + 1) + cu
    key -= key.min(initial=0)
    # first occurrence of each cell, over a table as long as the key span
    n = len(key)
    first = np.full(key.max(initial=-1) + 1, n)
    np.minimum.at(first, key, np.arange(n))
    return np.sort(first[first < n])


def _sq_dist(centers, coords, block):
    """Squared distances from each of the (m, dim) centers to its row of
    `block`, columns of the coordinate-major (dim, n) `coords`; block is
    (m, L), or one (1, L) row shared by every center.

    Sums one coordinate at a time, left to right, as numpy sums a short last
    axis, so it is bitwise ((c - x) ** 2).sum(axis=-1) for coordinate-last
    c and x. Each coordinate is gathered with np.take and, for a block of
    its own per center, worked on in place: ~2.5x faster than fancy
    indexing into fresh temporaries.
    """
    out = None
    for cj, xj in zip(centers.T, coords):
        d = np.take(xj, block)
        d = np.subtract(cj[:, None], d, out=d if len(d) == len(cj) else None)
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


def _knn_select(centers, candidates, k, max_sq):
    """Per-center k-nearest among every candidate within sqrt(max_sq), in
    _row_chunks slices written into (M, k) index and mask outputs, or on the
    direct path for a search of at most _DIRECT_BRUTE_PAIRS pairs."""
    if centers.shape[0] * candidates.shape[0] <= _DIRECT_BRUTE_PAIRS:
        return _direct_select(centers, candidates, k, max_sq, None)
    idx = np.empty((centers.shape[0], k), dtype=np.intp)
    mask = np.empty((centers.shape[0], k), dtype=bool)
    block = np.arange(candidates.shape[0])[None]
    for r in _row_chunks(centers.shape[0], candidates.shape[0]):
        _select_chunk(idx[r], mask[r], centers[r], candidates.T, block, None, k, max_sq)
    _pad(idx, mask, centers, candidates)
    return idx, mask


def _direct_select(centers, candidates, k, max_sq, outside):
    """_knn_select in one piece: every (M, N) distance, the pairs of the
    boolean `outside` (None: no pair) set to NaN, then one stable argsort a
    row. A stable sort breaks distance ties by column, which is the
    candidate index, and sorts NaN last, so each row comes out in
    _select_chunk's (distance, index) order."""
    n = candidates.shape[0]
    d = _sq_dist(centers, candidates.T, np.arange(n)[None])
    if outside is not None:
        np.copyto(d, np.nan, where=outside)
    idx = np.zeros((len(d), k), dtype=np.intp)
    idx[:, :n] = np.argsort(d, axis=1, kind="stable")[:, :k]
    # a row's kept pairs sort before the rest
    mask = np.arange(k) < np.count_nonzero(d <= max_sq, axis=1)[:, None]
    _pad(idx, mask, centers, candidates)
    return idx, mask


def _select_chunk(out_idx, out_mask, centers, coords, block, index, k, max_sq):
    """Each center's k-nearest among its row of `block` within sqrt(max_sq),
    ordered by (distance, index), written into the (m, k) views out_idx and
    out_mask. The slots past a row's last neighbour are left for _pad.

    block is (m, L) columns of the coordinate-major `coords`, or one (1, N)
    row shared by every center; `index` maps a column to its candidate index
    (None: the column is the index). A column whose coordinates are NaN
    fails every distance test, so it can fill the empty slots of a row.
    """
    d = _sq_dist(centers, coords, block)
    M, L = d.shape
    bound = max_sq
    if L > k:  # only the k nearest and the ties of the k-th can be selected;
        # NaN sorts last, and fmin keeps max_sq for rows short of k columns
        bound = np.fmin(np.partition(d, k - 1, axis=1)[:, k - 1:k], max_sq)
    # compact the kept pairs to the left of a (M, >= k) block, then order
    # each row by (distance, index)
    rows, cols = np.nonzero(d <= bound)
    count = np.bincount(rows, minlength=M)
    slots = np.arange(max(count.max(initial=0), k)) < count[:, None]
    dist = np.full(slots.shape, np.inf)
    idx = np.zeros(slots.shape, dtype=np.intp)
    dist[slots] = d[rows, cols]
    kept = np.broadcast_to(block, d.shape)[rows, cols]
    idx[slots] = kept if index is None else index[kept]
    order = np.lexsort((idx, dist))[:, :k]
    out_idx[...] = idx[np.arange(M)[:, None], order]
    out_mask[...] = slots[:, :k]


def _pad(idx, mask, centers, candidates):
    """Fill the slots past each row's last valid neighbour with its nearest
    valid index, or with the globally nearest candidate when the row has
    none, found by brute force for those rows only."""
    first = idx[:, 0].copy()
    empty = np.flatnonzero(~mask[:, 0])
    everyone = np.arange(candidates.shape[0])[None]
    for r in _row_chunks(len(empty), candidates.shape[0]):
        e = empty[r]
        first[e] = np.argmin(_sq_dist(centers[e], candidates.T, everyone), axis=1)
    np.copyto(idx, first[:, None], where=~mask)


def brute_force_knn(centers: np.ndarray, candidates: np.ndarray, k: int,
                    max_dist: float = np.inf):
    """Exact k-nearest by 3D distance; ties break to the lower index."""
    if k < 1:
        raise ValueError("k must be >= 1")
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    candidates = np.asarray(candidates, dtype=np.float64).reshape(-1, 3)
    if candidates.shape[0] == 0:
        raise EmptyLevel("no candidate points")
    return _knn_select(centers, candidates, k, max_dist * max_dist)


def projection_aware_knn(centers: PointCloud, candidates: PointCloud,
                         spec: GroupingSpec, cfg: SphericalConfig):
    """3D KNN restricted to a 2D kernel window on the spherical grid.

    A candidate is in a center's window when its row is within kh // 2 of
    the center's and its column within kw // 2, azimuth wrapping modulo W.
    Spherical coordinates must lie on the grid (0 <= u < W, 0 <= v < H), as
    spherical_project_many makes them; others raise OffGrid.

    A search of at most _DIRECT_PAIRS pairs tests every pair against the
    window. A larger one sorts the candidates once by cell key v * W + u,
    coordinates included; each window row is then at most two key ranges,
    looked up in a table of each cell's first position, so the cost grows
    with the window population, not with M * N. Centers go in _row_chunks
    slices, first of their window bounds, then of their padded windows, so
    memory stays bounded however large the windows.
    """
    if centers.spherical is None or candidates.spherical is None:
        raise MissingSpherical("projection-aware grouping needs spherical coordinates")
    n = candidates.count
    if n == 0:
        raise EmptyLevel("no candidate points")
    _check_on_grid(candidates.spherical, cfg, "candidate")
    if centers is not candidates:
        _check_on_grid(centers.spherical, cfg, "center")
    max_sq = spec.max_dist * spec.max_dist
    if centers.count * n <= _DIRECT_PAIRS:
        return _direct_select(centers.positions, candidates.positions, spec.k, max_sq,
                              _outside_window(centers.spherical, candidates.spherical,
                                              spec.kernel, cfg.W))
    W = cfg.W
    key = candidates.spherical[:, 1] * W + candidates.spherical[:, 0]
    order = np.argsort(key)  # order within a cell is free: ties sort by index later
    # the candidates' coordinates in key order, so each window range is one
    # contiguous run, and a NaN column n, which the empty slots read
    coords = np.empty((3, n + 1))
    coords[:, n] = np.nan
    for j in range(3):  # one coordinate at a time gathers ~4x faster than rows
        coords[j, :n] = candidates.positions[:, j][order]
    vlo, vhi = key[order[0]] // W, key[order[-1]] // W
    R = min(spec.kernel[0], vhi - vlo + 1)  # window rows inside the candidates' rows
    # cell key c's candidates are first[c]:first[c + 1] in key order
    first = np.zeros((vhi + 1) * W + 1, dtype=np.intp)
    np.cumsum(np.bincount(key, minlength=(vhi + 1) * W), out=first[1:])
    idx = np.empty((centers.count, spec.k), dtype=np.intp)
    mask = np.empty((centers.count, spec.k), dtype=bool)
    for r in _row_chunks(centers.count, 2 * R):
        pos, out_idx, out_mask = centers.positions[r], idx[r], mask[r]
        start, count = _window_ranges(first, centers.spherical[r], spec.kernel, W, vlo, R)
        total = count.sum(axis=1)
        for s in _row_chunks(len(total), total.max()):
            block = _window_block(start[s], count[s], total[s], n)
            _select_chunk(out_idx[s], out_mask[s], pos[s], coords, block, order, spec.k, max_sq)
    _pad(idx, mask, centers.positions, candidates.positions)
    return idx, mask


def _check_on_grid(sph, cfg, what):
    u = sph.astype(np.uint64)  # a negative coordinate wraps past every bound
    if u[:, 0].max(initial=0) >= cfg.W or u[:, 1].max(initial=0) >= cfg.H:
        raise OffGrid(f"{what} spherical coordinates off the {cfg.H} x {cfg.W} grid")


def _outside_window(csph, sph, kernel, W):
    """(M, N) mask of the center-candidate pairs outside the kernel window."""
    kh, kw = kernel
    out = np.abs(csph[:, 1:] - sph[:, 1]) > kh // 2
    if kw < W:  # else the window spans the whole ring
        du = np.abs(csph[:, :1] - sph[:, 0])
        out |= np.minimum(du, W - du) > kw // 2
    return out


def _window_ranges(first, sph, kernel, W, vlo, R):
    """(m, 2R) start and length, in key order, of the ranges that make up
    each center's window: R window rows, clipped to the candidates' rows
    from vlo on, of up to two column ranges each."""
    kh, kw = kernel
    hh, hw = kh // 2, kw // 2
    cu, cv = sph[:, :1], sph[:, 1:]
    rows = np.maximum(cv - hh, vlo) + np.arange(R)  # (m, R)
    if kw < W:
        ulo, uhi = cu - hw, cu + hw + 1
    else:  # the window spans the whole ring
        ulo, uhi = np.zeros_like(cu), np.full_like(cu, W)
    # columns [ulo, uhi) as two ranges inside [0, W): the part inside, and
    # the part past one end, which wraps to the other (kw < W, so not both
    # ends); (m, R, 2) key bounds, cut to the keys that first covers
    wraps = ulo < 0
    clo = np.concatenate([np.maximum(ulo, 0), np.where(wraps, ulo + W, 0)], axis=1)
    chi = np.concatenate([np.minimum(uhi, W), np.where(wraps, W, np.maximum(uhi - W, 0))], axis=1)
    base = rows[:, :, None] * W
    end = len(first) - 1
    lo = base + clo[:, None]
    np.minimum(lo, end, out=lo)
    hi = base + chi[:, None]
    np.minimum(hi, end, out=hi)
    np.copyto(hi, lo, where=rows[:, :, None] > cv[:, :, None] + hh)  # rows past the window
    start = np.take(first, lo).reshape(len(lo), -1)
    count = np.take(first, hi).reshape(len(hi), -1)
    count -= start
    return start, count


def _window_block(start, count, total, pad):
    """Each center's window gathered into a padded (m, max total) block of
    positions in the key order, `pad` in the empty slots."""
    L = total.max()
    # each row's ranges, then one run of L - total slots from `pad` on,
    # which the minimum folds to `pad`
    count = np.concatenate([count, (L - total)[:, None]], axis=1).ravel()
    start = np.concatenate([start, np.full((len(total), 1), pad)], axis=1).ravel()
    skip = start - (np.cumsum(count) - count)  # range start minus its output offset
    block = np.repeat(skip, count)
    block += np.arange(len(block))
    return np.minimum(block, pad, out=block).reshape(len(total), L)
