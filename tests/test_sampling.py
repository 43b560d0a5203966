"""Grouping and downsampling against slow reference implementations."""

import math
import tracemalloc

import numpy as np
import pytest

import im2pc.cost_volume as CV
import im2pc.sampling as S
import test_acceptance
from im2pc.cli import MODE_CFG, main as cli_main
from im2pc.config import desk_config
from im2pc.data import SceneConfig, synth_scene
from im2pc.errors import EmptyLevel, MissingSpherical, NoCandidates, OffGrid
from im2pc.geometry import SphericalConfig, spherical_project_many
from im2pc.registration import POINT_GROUPINGS, SPHERICAL, RegistrationNet


CFG = SphericalConfig(H=16, W=64, f_up=30.0, f_down=30.0)


def set_direct(monkeypatch, on):
    """Every search on the direct path (on), or on the windowed and chunked
    paths however small."""
    for name in ("_DIRECT_PAIRS", "_DIRECT_BRUTE_PAIRS"):
        monkeypatch.setattr(S, name, 1 << 62 if on else -1)


@pytest.fixture
def windowed(monkeypatch):
    """Tests of the windowed and chunked paths must not pass on the direct one."""
    set_direct(monkeypatch, False)


def both_paths(monkeypatch, search):
    """search() on the direct path, then on the windowed or chunked one."""
    out = []
    for on in (True, False):
        set_direct(monkeypatch, on)
        out.append(search())
    return out


def make_cloud(rng, n, with_sph=True):
    pos = rng.normal(size=(n, 3)) * 2.0
    pos[np.linalg.norm(pos, axis=1) < 1e-3] += 1.0
    sph = spherical_project_many(pos, CFG) if with_sph else None
    return S.PointCloud(pos, np.zeros((n, 1)), spherical=sph)


def window_mask(c_sph, cand_sph, kernel, W):
    """Dense (M, N) window gate, the oracle for the windowed search."""
    kh, kw = kernel
    du = np.abs(c_sph[:, None, 0] - cand_sph[None, :, 0])
    du = np.minimum(du, W - du)  # azimuth wraps
    dv = np.abs(c_sph[:, None, 1] - cand_sph[None, :, 1])
    return (du <= kw // 2) & (dv <= kh // 2)


def loop_cell_sample(sph, strides):
    """Oracle: the first point, in input order, of each sh x sw cell."""
    sh, sw = strides
    seen = set()
    keep = []
    for i, (u, v) in enumerate(sph.tolist()):
        if (u // sw, v // sh) not in seen:
            seen.add((u // sw, v // sh))
            keep.append(i)
    return np.asarray(keep, dtype=np.int64)


def reference_knn(centers, candidates, window_ok, k, max_sq):
    """Slow python oracle: sort by (distance, index), window+radius gated."""
    M = centers.shape[0]
    idx = np.zeros((M, k), dtype=np.int64)
    mask = np.zeros((M, k), dtype=bool)
    for i in range(M):
        pairs = []
        for j in range(candidates.shape[0]):
            d = float(((centers[i] - candidates[j]) ** 2).sum())
            if window_ok[i, j] and d <= max_sq:
                pairs.append((d, j))
        pairs.sort()
        nv = min(len(pairs), k)
        for s in range(nv):
            idx[i, s] = pairs[s][1]
            mask[i, s] = True
        if nv == 0:
            dall = ((centers[i] - candidates) ** 2).sum(axis=1)
            pad = int(np.argmin(dall))
        else:
            pad = idx[i, 0]
        idx[i, nv:] = pad
    return idx, mask


def argsort_knn(centers, candidates, window_ok, k, max_sq):
    """Vectorized oracle: distances as ((c - x) ** 2).sum(axis=-1), then a
    stable argsort, window and radius gated, padded like reference_knn."""
    d = ((centers[:, None, :] - candidates[None, :, :]) ** 2).sum(axis=-1)
    ok = window_ok & (d <= max_sq)
    order = np.argsort(np.where(ok, d, np.inf), axis=1, kind="stable")
    order = np.pad(order, ((0, 0), (0, max(0, k - order.shape[1]))))[:, :k]
    mask = np.arange(k) < ok.sum(axis=1, keepdims=True)
    pad = np.where(mask[:, 0], order[:, 0], np.argmin(d, axis=1))
    return np.where(mask, order, pad[:, None]), mask


KERNELS = {"full": lambda cfg: (2 * cfg.H + 1, 2 * cfg.W + 1),
           "half": lambda cfg: (cfg.H | 1, (cfg.W // 2) | 1)}


def bench_knn_cloud():
    """bench-knn's n = 8000 cloud (seed 0): uniform on the front half of
    its 64 x 256 grid."""
    rng = np.random.default_rng(0)
    n, cfg = 8000, SphericalConfig(64, 256, 30.0, 30.0)
    az = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, n)
    el = np.radians(rng.uniform(-29.0, 29.0, n))
    pos = rng.uniform(5.0, 15.0, n)[:, None] * np.stack(
        [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=1)
    return S.PointCloud(pos, np.zeros((n, 1)), spherical=spherical_project_many(pos, cfg)), cfg


def traced_self_search(cloud, cfg, kernel, k=16):
    """The cloud's projection-aware KNN in itself, and its tracemalloc peak."""
    tracemalloc.start()
    try:
        out = S.projection_aware_knn(cloud, cloud, S.GroupingSpec(k, kernel), cfg)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSquaredDistance:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_last_axis_sum(self, dim):
        rng = np.random.default_rng(30 + dim)
        # coordinates of very different magnitudes, so summation order shows
        scale = 10.0 ** rng.uniform(-4, 4, size=dim)
        c = rng.normal(size=(50, dim)) * scale
        x = rng.normal(size=(80, dim)) * scale
        ref = ((c[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)
        every = np.arange(80)[None]  # one row of columns shared by every center
        np.testing.assert_array_equal(S._sq_dist(c, x.T, every), ref)
        # a block of columns per center, and one point against a cloud
        block = rng.integers(0, 80, size=(50, 7))
        ref_block = ((c[:, None, :] - x[block]) ** 2).sum(axis=-1)
        np.testing.assert_array_equal(S._sq_dist(c, x.T, block), ref_block)
        np.testing.assert_array_equal(S._sq_dist(c[3:4], x.T, every)[0],
                                      ((x - c[3]) ** 2).sum(axis=-1))
        if dim == 3:  # a right-to-left sum would round differently here
            sq = (c[:, None, :] - x[None, :, :]) ** 2
            assert ((sq[..., 2] + sq[..., 1] + sq[..., 0]) != ref).any()

    def test_knn_matches_last_axis_sum_with_ties(self):
        rng = np.random.default_rng(31)
        exact_ties = rounded_ties = 0
        for case in range(150):
            n = int(rng.integers(1, 80))
            # a 0.1 lattice, shifted off the origin: many distances tie exactly,
            # others tie in exact arithmetic but not after rounding
            pos = rng.integers(-15, 16, size=(n, 3)) * 0.1 + np.array([2.05, 0.0, 0.0])
            if case % 2:
                pos = np.round(pos)
            cloud = S.PointCloud(pos, np.zeros((n, 1)),
                                 spherical=spherical_project_many(pos, CFG))
            k = int(rng.integers(1, 12))
            max_dist = float(rng.choice([np.inf, 0.45, 1.0]))
            spec = S.GroupingSpec(k=k, kernel=(3, 5), max_dist=max_dist)
            window = window_mask(cloud.spherical, cloud.spherical, spec.kernel, CFG.W)
            for got, ok in ((S.projection_aware_knn(cloud, cloud, spec, CFG), window),
                            (S.brute_force_knn(pos, pos, k, max_dist), np.ones_like(window))):
                ref = argsort_knn(pos, pos, ok, k, max_dist ** 2)
                np.testing.assert_array_equal(got[0], ref[0], err_msg=f"case {case}")
                np.testing.assert_array_equal(got[1], ref[1], err_msg=f"case {case}")
            d = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=-1)
            exact = np.round(d, 6)
            same = exact[:, :, None] == exact[:, None, :]
            exact_ties += int((same & (d[:, :, None] == d[:, None, :])).sum() > n * n)
            rounded_ties += int((same & (d[:, :, None] != d[:, None, :])).any())
        assert exact_ties > 50 and rounded_ties > 20


class TestStrideSample:
    def test_cell_sample_one_per_coarse_cell(self):
        sph = np.array([[0, 0], [1, 1], [2, 0], [3, 3], [5, 1], [4, 0]])
        cloud = S.PointCloud(np.zeros((6, 3)), np.zeros((6, 1)), spherical=sph)
        idx = S.cell_sample(cloud, (2, 2))
        # cells (u//2, v//2): (0,0) first at 0, (1,0) at 2, (1,1) at 3, (2,0) at 4
        assert idx.tolist() == [0, 2, 3, 4]

    def test_cell_sample_never_empty(self):
        sph = np.array([[7, 13]])
        cloud = S.PointCloud(np.zeros((1, 3)), np.zeros((1, 1)), spherical=sph)
        assert S.cell_sample(cloud, (16, 16)).tolist() == [0]

    def test_requires_spherical(self):
        cloud = make_cloud(np.random.default_rng(0), 4, with_sph=False)
        with pytest.raises(MissingSpherical):
            S.cell_sample(cloud, (2, 2))

    def test_cell_sample_matches_loop(self):
        rng = np.random.default_rng(14)
        for trial in range(300):
            n = int(rng.integers(0, 80))
            # negative and far-off-grid coordinates too: the cell key must
            # stay one-to-one wherever the points fall
            lo = int(rng.integers(-40, 1))
            sph = rng.integers(lo, int(rng.integers(1, 300)), size=(n, 2))
            strides = (int(rng.integers(1, 9)), int(rng.integers(1, 17)))
            cloud = S.PointCloud(np.ones((n, 3)), np.zeros((n, 1)), spherical=sph)
            idx = S.cell_sample(cloud, strides)
            assert np.array_equal(idx, loop_cell_sample(sph, strides)), f"trial {trial}"


class TestProjectionAwareKnn:
    def test_matches_reference_many_clouds(self):
        rng = np.random.default_rng(7)
        spec = S.GroupingSpec(k=6, kernel=(5, 9), max_dist=3.0)
        for trial in range(100):
            centers = make_cloud(rng, int(rng.integers(3, 20)))
            cands = make_cloud(rng, int(rng.integers(6, 40)))
            idx, mask = S.projection_aware_knn(centers, cands, spec, CFG)
            window = window_mask(centers.spherical, cands.spherical, spec.kernel, CFG.W)
            ref_idx, ref_mask = reference_knn(centers.positions, cands.positions,
                                              window, spec.k, spec.max_dist ** 2)
            assert np.array_equal(idx, ref_idx), f"trial {trial}"
            assert np.array_equal(mask, ref_mask), f"trial {trial}"

    def test_k_above_candidate_count_matches_reference(self):
        # fewer candidates than k: every slot past the last valid neighbour
        # repeats the nearest valid index, or the globally nearest candidate
        # for a row with nothing valid
        rng = np.random.default_rng(12)
        empty_rows = 0
        for trial in range(60):
            n = int(rng.integers(1, 6))
            k = n + int(rng.integers(1, 6))
            spec = S.GroupingSpec(k=k, kernel=(3, 5), max_dist=float(rng.uniform(0.5, 3.0)))
            centers = make_cloud(rng, int(rng.integers(1, 10)))
            cands = make_cloud(rng, n)
            window = window_mask(centers.spherical, cands.spherical, spec.kernel, CFG.W)
            max_sq = spec.max_dist ** 2
            ref_idx, ref_mask = reference_knn(centers.positions, cands.positions,
                                              window, k, max_sq)
            idx, mask = S.projection_aware_knn(centers, cands, spec, CFG)
            assert np.array_equal(idx, ref_idx), f"trial {trial}"
            assert np.array_equal(mask, ref_mask), f"trial {trial}"
            full = np.ones_like(window)
            bref_idx, bref_mask = reference_knn(centers.positions, cands.positions,
                                                full, k, max_sq)
            bidx, bmask = S.brute_force_knn(centers.positions, cands.positions, k,
                                            max_dist=spec.max_dist)
            assert np.array_equal(bidx, bref_idx), f"trial {trial}"
            assert np.array_equal(bmask, bref_mask), f"trial {trial}"
            empty_rows += int((~ref_mask.any(axis=1)).sum())
        assert empty_rows > 0  # the no-valid-candidate fallback was exercised

    @pytest.mark.usefixtures("windowed")
    def test_windowed_search_matches_reference(self):
        # small grids on which windows wrap, span the whole ring (kw >= W)
        # or every row (kh > 2H); lattice positions with duplicates give
        # distance ties; few candidates give k above the window count
        rng = np.random.default_rng(15)
        seen = dict(wrap=0, ring=0, rows=0, short=0, empty=0, ties=0)
        for trial in range(400):
            H, W = int(rng.integers(1, 6)), int(rng.integers(1, 13))
            cfg = SphericalConfig(H=H, W=W, f_up=30.0, f_down=30.0)
            kernel = (2 * int(rng.integers(0, H + 2)) + 1,
                      2 * int(rng.integers(0, W // 2 + 2)) + 1)
            k = int(rng.integers(1, 10))
            max_dist = np.inf if trial % 4 == 0 else float(rng.uniform(0.5, 4.0))
            n = int(rng.integers(1, 40))
            if trial % 2:
                pos = rng.integers(-3, 4, size=(n, 3)).astype(np.float64)
            else:
                pos = rng.normal(size=(n, 3)) * 2.0
            dup = rng.integers(0, n, size=n // 3)
            pos[n - dup.size:] = pos[dup]
            sph = np.stack([rng.integers(0, W, n), rng.integers(0, H, n)], axis=1)
            cands = S.PointCloud(pos, np.zeros((n, 1)), spherical=sph)
            if trial % 3 == 0:
                centers = cands
            else:
                m = int(rng.integers(1, 15))
                csph = np.stack([rng.integers(0, W, m), rng.integers(0, H, m)], axis=1)
                csph[0, 0], csph[-1, 0] = 0, W - 1
                centers = S.PointCloud(rng.integers(-3, 4, size=(m, 3)) * 1.0,
                                       np.zeros((m, 1)), spherical=csph)
            spec = S.GroupingSpec(k=k, kernel=kernel, max_dist=max_dist)
            window = window_mask(centers.spherical, cands.spherical, kernel, W)
            ref_idx, ref_mask = reference_knn(centers.positions, cands.positions,
                                              window, k, max_dist ** 2)
            idx, mask = S.projection_aware_knn(centers, cands, spec, cfg)
            assert idx.dtype == np.int64 and mask.dtype == bool
            assert np.array_equal(idx, ref_idx), f"trial {trial}"
            assert np.array_equal(mask, ref_mask), f"trial {trial}"
            seen["wrap"] += kernel[1] < W and 1 < kernel[1]
            seen["ring"] += kernel[1] >= W > 1
            seen["rows"] += kernel[0] > 2 * H
            seen["short"] += int((window.sum(axis=1) < k).sum())
            seen["empty"] += int((~ref_mask.any(axis=1)).sum())
            d = ((centers.positions[:, None] - cands.positions[None]) ** 2).sum(axis=2)
            for i in range(centers.count):
                picked = d[i, ref_idx[i, ref_mask[i]]]
                seen["ties"] += int(np.any(picked[1:] == picked[:-1]))
        assert all(v > 0 for v in seen.values()), seen

    @pytest.mark.usefixtures("windowed")
    def test_windowed_search_allocates_no_m_by_n_array(self):
        cfg = SphericalConfig(H=16, W=256, f_up=30.0, f_down=30.0)
        rng = np.random.default_rng(16)
        n, m = 20000, 500
        pos = rng.normal(size=(n, 3))
        cands = S.PointCloud(pos, np.zeros((n, 1)),
                             spherical=spherical_project_many(pos, cfg))
        centers = S.PointCloud(pos[:m], np.zeros((m, 1)),
                               spherical=cands.spherical[:m])
        spec = S.GroupingSpec(k=8, kernel=(3, 5), max_dist=1.0)
        tracemalloc.start()
        try:
            S.projection_aware_knn(centers, cands, spec, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * n  # less than one byte per (center, candidate) pair

    @pytest.mark.usefixtures("windowed")
    def test_brute_force_peak_memory_is_bounded_by_the_chunk(self):
        rng = np.random.default_rng(17)
        m, n = 2048, 8192
        centers, cands = rng.normal(size=(m, 3)), rng.normal(size=(n, 3))
        tracemalloc.start()
        try:
            S.brute_force_knn(centers, cands, 16, max_dist=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # in one piece the search would take ~25 bytes a pair, 420 MB here;
        # at a cache-sized chunk the (M, k) outputs weigh as much as the chunk
        out = 2048 * 16 * (8 + 1)  # idx and mask
        assert peak < 40 * S._CHUNK_PAIRS + 2 * out  # 1.9 MB

    @pytest.mark.parametrize("kernel", ["full", "half"])
    @pytest.mark.usefixtures("windowed")
    def test_windowed_peak_memory_is_bounded_by_the_chunk(self, kernel):
        cloud, cfg = bench_knn_cloud()
        (idx, mask), peak = traced_self_search(cloud, cfg, KERNELS[kernel](cfg))
        # with every center's window bounds and padded window built at once,
        # the search peaks at 83 MB (full) and 1,243 MB (half); at a
        # cache-sized chunk the (M, k) outputs are a third of the peak
        assert peak < 64 * S._CHUNK_PAIRS + 2 * (idx.nbytes + mask.nbytes)  # 4.4 MB

    @pytest.mark.usefixtures("windowed")
    def test_window_bounds_are_built_per_chunk(self, monkeypatch):
        # at a small chunk the (M, 2 * kh) window bounds of all 8000 centers
        # (~37 MB) would dominate; only the output still grows with M
        monkeypatch.setattr(S, "_CHUNK_PAIRS", 1 << 16)
        cloud, cfg = bench_knn_cloud()
        (idx, mask), peak = traced_self_search(cloud, cfg, KERNELS["half"](cfg))
        assert peak < 64 * S._CHUNK_PAIRS + 2 * (idx.nbytes + mask.nbytes)  # 6.5 MB

    @pytest.mark.usefixtures("windowed")
    def test_many_chunks_match_reference(self, monkeypatch):
        # chunks of one to a few rows; windows of one row wider than a chunk,
        # rows with nothing in radius, and k above the candidate count
        rng = np.random.default_rng(18)
        empty_rows = short_rows = 0
        for trial in range(40):
            monkeypatch.setattr(S, "_CHUNK_PAIRS", int(rng.integers(1, 40)))
            centers = make_cloud(rng, int(rng.integers(1, 25)))
            cands = make_cloud(rng, int(rng.integers(1, 30)))
            k = int(rng.integers(1, 12))
            spec = S.GroupingSpec(k=k, kernel=(3, 9), max_dist=float(rng.uniform(0.3, 3.0)))
            window = window_mask(centers.spherical, cands.spherical, spec.kernel, CFG.W)
            max_sq = spec.max_dist ** 2
            for got, ok in ((S.projection_aware_knn(centers, cands, spec, CFG), window),
                            (S.brute_force_knn(centers.positions, cands.positions, k,
                                               spec.max_dist), np.ones_like(window))):
                ref = reference_knn(centers.positions, cands.positions, ok, k, max_sq)
                np.testing.assert_array_equal(got[0], ref[0], err_msg=f"trial {trial}")
                np.testing.assert_array_equal(got[1], ref[1], err_msg=f"trial {trial}")
                empty_rows += int((~ref[1].any(axis=1)).sum())
                short_rows += int((~ref[1].all(axis=1)).sum())
        assert empty_rows > 0 and short_rows > 0

    @pytest.mark.usefixtures("windowed")
    def test_full_window_equals_brute_force(self, monkeypatch):
        # windows that hold every candidate are still gathered window by
        # window, so this comparison checks the windowed search
        blocks = []
        window_block = S._window_block
        monkeypatch.setattr(S, "_window_block", lambda *a: blocks.append(1) or window_block(*a))
        rng = np.random.default_rng(8)
        centers = make_cloud(rng, 12)
        cands = make_cloud(rng, 30)
        spec = S.GroupingSpec(k=5, kernel=(2 * CFG.H + 1, 2 * CFG.W + 1),
                              max_dist=np.inf)
        idx, mask = S.projection_aware_knn(centers, cands, spec, CFG)
        bidx, bmask = S.brute_force_knn(centers.positions, cands.positions, 5)
        assert np.array_equal(idx, bidx)
        assert np.array_equal(mask, bmask)
        assert blocks

    def test_neighbors_respect_window_and_radius(self):
        rng = np.random.default_rng(9)
        centers = make_cloud(rng, 10)
        cands = make_cloud(rng, 50)
        spec = S.GroupingSpec(k=4, kernel=(3, 5), max_dist=1.5)
        idx, mask = S.projection_aware_knn(centers, cands, spec, CFG)
        window = window_mask(centers.spherical, cands.spherical, spec.kernel, CFG.W)
        for i in range(10):
            for s in range(4):
                if mask[i, s]:
                    j = idx[i, s]
                    assert window[i, j]
                    d = np.linalg.norm(centers.positions[i] - cands.positions[j])
                    assert d <= spec.max_dist + 1e-12

    def test_tie_breaks_to_lower_index(self):
        centers = np.array([[0.0, 0.0, 0.0]])
        cands = np.array([[1.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        idx, mask = S.brute_force_knn(centers, cands, 2)
        assert idx[0].tolist() == [0, 1]
        assert mask[0].all()

    def test_padding_repeats_nearest(self):
        centers = np.array([[0.0, 0.0, 0.0]])
        cands = np.array([[0.5, 0, 0], [9.0, 0, 0]])
        idx, mask = S.brute_force_knn(centers, cands, 4, max_dist=1.0)
        assert idx[0].tolist() == [0, 0, 0, 0]
        assert mask[0].tolist() == [True, False, False, False]


class TestDirectPath:
    """The direct path of small searches, with the windowed and chunked
    paths as its oracle."""

    def test_both_paths_agree(self, monkeypatch):
        # small grids on which windows wrap or span the whole ring, lattice
        # positions with distance ties, NaN positions, empty center sets and
        # k above the candidate count
        rng = np.random.default_rng(19)
        seen = dict(wrap=0, ring=0, ties=0, short=0, radius=0, nan=0, no_centers=0)
        for trial in range(600):
            H, W = int(rng.integers(1, 8)), int(rng.integers(1, 20))
            cfg = SphericalConfig(H=H, W=W, f_up=30.0, f_down=30.0)
            kernel = (2 * int(rng.integers(0, H + 2)) + 1,
                      2 * int(rng.integers(0, W // 2 + 2)) + 1)
            k = int(rng.integers(1, 12))
            max_dist = np.inf if trial % 3 == 0 else float(rng.uniform(0.3, 4.0))
            n, m = int(rng.integers(1, 50)), int(rng.integers(0, 30))
            if trial % 2:
                pos = rng.integers(-3, 4, size=(n, 3)).astype(np.float64)
            else:
                pos = rng.normal(size=(n, 3)) * 2.0
            if trial % 5 == 0:
                pos[rng.integers(0, n, size=max(1, n // 5))] = np.nan
            sph = np.stack([rng.integers(0, W, n), rng.integers(0, H, n)], axis=1)
            cands = S.PointCloud(pos, np.zeros((n, 1)), spherical=sph)
            if trial % 4 == 0:
                centers = cands
            else:
                csph = np.stack([rng.integers(0, W, m), rng.integers(0, H, m)], axis=1)
                centers = S.PointCloud(rng.integers(-3, 4, size=(m, 3)) * 1.0,
                                       np.zeros((m, 1)), spherical=csph)
            spec = S.GroupingSpec(k, kernel, max_dist)
            searches = (lambda: S.projection_aware_knn(centers, cands, spec, cfg),
                        lambda: S.brute_force_knn(centers.positions, pos, k, max_dist))
            for search in searches:
                (idx, mask), (ref_idx, ref_mask) = both_paths(monkeypatch, search)
                assert idx.dtype == ref_idx.dtype and idx.shape == (centers.count, k)
                np.testing.assert_array_equal(idx, ref_idx, err_msg=f"trial {trial}")
                np.testing.assert_array_equal(mask, ref_mask, err_msg=f"trial {trial}")
            d = ((centers.positions[:, None] - pos[None]) ** 2).sum(axis=2)
            picked = np.take_along_axis(d, ref_idx, axis=1)
            seen["wrap"] += 1 < kernel[1] < W
            seen["ring"] += kernel[1] >= W > 1
            seen["ties"] += int((mask[:, 1:] & (picked[:, 1:] == picked[:, :-1])).any())
            seen["short"] += k > n
            seen["radius"] += bool((d > max_dist ** 2).any())
            seen["nan"] += int(np.isnan(pos).any())
            seen["no_centers"] += centers.count == 0
        assert all(v > 0 for v in seen.values()), seen

    def test_pixel_candidates_agree(self, monkeypatch):
        rng = np.random.default_rng(20)
        for trial in range(50):
            pbar = rng.normal(size=(int(rng.integers(0, 40)), 2))
            plane = np.round(rng.normal(size=(int(rng.integers(16, 80)), 2)), 1)
            search = lambda: CV.knn_pixel_candidates(pbar, plane, 16)
            direct, chunked = both_paths(monkeypatch, search)
            np.testing.assert_array_equal(direct, chunked, err_msg=f"trial {trial}")

    def test_desk_searches_take_the_direct_path(self, monkeypatch):
        # every search of a desk forward but those of the two finest levels
        calls = []
        direct, ranges = S._direct_select, S._window_ranges
        monkeypatch.setattr(S, "_direct_select", lambda *a: calls.append("direct") or direct(*a))
        monkeypatch.setattr(S, "_window_ranges", lambda *a: calls.append("windowed") or ranges(*a))
        scene = synth_scene(3, SceneConfig(n_points=512, **MODE_CFG["coarse"]))
        RegistrationNet(desk_config())(scene.cloud, scene.image, scene.K)
        # the windowed searches take one row chunk each
        assert calls.count("direct") == 8 and calls.count("windowed") == 2

    def test_a2_and_bench_knn_reach_the_windowed_path(self, monkeypatch, capsys):
        # both check the windowed search against brute force; centers each
        # path searched, counted where the paths split
        centers = {"direct": 0, "windowed": 0}
        direct, ranges = S._direct_select, S._window_ranges

        def count_direct(c, x, k, max_sq, outside):
            centers["direct"] += len(c) if outside is not None else 0
            return direct(c, x, k, max_sq, outside)

        def count_windowed(first, sph, *a):
            centers["windowed"] += len(sph)
            return ranges(first, sph, *a)

        monkeypatch.setattr(S, "_direct_select", count_direct)
        monkeypatch.setattr(S, "_window_ranges", count_windowed)
        test_acceptance.test_a2_grouping_exactness(capsys)
        assert centers["windowed"] > 0.9 * (centers["windowed"] + centers["direct"])
        centers.update(direct=0, windowed=0)
        assert cli_main(["bench-knn", "--n", "400", "--trials", "2", "--k", "8"]) == 0
        capsys.readouterr()
        assert centers == {"direct": 0, "windowed": 2 * 2 * 400}


class TestRefusals:
    @pytest.mark.parametrize("path", ["direct", "windowed"])
    @pytest.mark.parametrize("which,u,v", [
        ("candidates", CFG.W, 0), ("candidates", -1, 0), ("candidates", 0, -1),
        ("candidates", 0, CFG.H), ("centers", CFG.W, 0), ("centers", 0, -2),
        ("centers", 0, CFG.H)])
    def test_off_grid_coordinates(self, monkeypatch, path, which, u, v):
        set_direct(monkeypatch, path == "direct")
        rng = np.random.default_rng(21)
        clouds = {"centers": make_cloud(rng, 5), "candidates": make_cloud(rng, 30)}
        clouds[which].spherical[2] = (u, v)
        with pytest.raises(OffGrid):
            S.projection_aware_knn(clouds["centers"], clouds["candidates"],
                                   S.GroupingSpec(4, (3, 5)), CFG)

    @pytest.mark.parametrize("path", ["direct", "windowed"])
    def test_missing_and_empty_inputs(self, monkeypatch, path):
        set_direct(monkeypatch, path == "direct")
        rng = np.random.default_rng(22)
        spec = S.GroupingSpec(4, (3, 5))
        with pytest.raises(MissingSpherical):
            S.projection_aware_knn(make_cloud(rng, 3), make_cloud(rng, 4, False), spec, CFG)
        with pytest.raises(EmptyLevel):
            S.projection_aware_knn(make_cloud(rng, 3), make_cloud(rng, 0), spec, CFG)
        with pytest.raises(NoCandidates):
            CV.knn_pixel_candidates(rng.normal(size=(3, 2)), rng.normal(size=(4, 2)), 5)

    @pytest.mark.parametrize("k", [0, -1])
    def test_brute_force_refuses_k_below_one(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            S.brute_force_knn(np.zeros((2, 3)), np.ones((3, 3)), k)


@pytest.mark.usefixtures("windowed")
class TestDenseScale:
    """The level-1 sampling and search of a 16,384-point scene, as the dense
    benchmark runs them, against other chunk sizes and the sort-based
    cell_sample."""

    @pytest.fixture(scope="class")
    def level1(self):
        scene = synth_scene(20_000, SceneConfig(n_points=16384, **MODE_CFG["coarse"]))
        sph = spherical_project_many(scene.cloud.positions, SPHERICAL)
        cloud = S.PointCloud(scene.cloud.positions, np.zeros((len(sph), 1)), spherical=sph)
        return cloud, POINT_GROUPINGS[0]

    def test_cell_sample_matches_unique(self, level1):
        cloud, spec = level1
        sh, sw = spec.strides
        u = cloud.spherical[:, 0] // sw
        key = (cloud.spherical[:, 1] // sh) * (u.max() + 1) + u
        expected = np.sort(np.unique(key, return_index=True)[1])
        assert expected.size > 200
        assert np.array_equal(S.cell_sample(cloud, spec.strides), expected)

    def test_knn_is_bitwise_across_chunk_sizes(self, level1, monkeypatch):
        cloud, spec = level1
        first = S.cell_sample(cloud, spec.strides)
        centers = S.PointCloud(cloud.positions[first], np.zeros((first.size, 1)),
                               spherical=cloud.spherical[first])
        idx, mask = S.projection_aware_knn(centers, cloud, spec, SPHERICAL)
        assert mask.all()
        some = slice(None, None, 4)  # the dense oracle, for a quarter of the centers
        window = window_mask(centers.spherical[some], cloud.spherical, spec.kernel, SPHERICAL.W)
        ref = argsort_knn(centers.positions[some], cloud.positions, window, spec.k,
                          spec.max_dist ** 2)
        assert np.array_equal(idx[some], ref[0]) and np.array_equal(mask[some], ref[1])
        for chunk in (1 << 20, 1 << 10):
            monkeypatch.setattr(S, "_CHUNK_PAIRS", chunk)
            other = S.projection_aware_knn(centers, cloud, spec, SPHERICAL)
            assert np.array_equal(other[0], idx) and np.array_equal(other[1], mask), chunk
