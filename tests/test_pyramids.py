"""Pyramid shapes, receptive-cell centers, and gradient flow."""

import numpy as np
import pytest

import im2pc.pyramids as P
from im2pc import autodiff as ad
from im2pc.autodiff import Tensor
from im2pc.errors import EmptyLevel, IndexMismatch
from im2pc.geometry import CameraIntrinsics, SphericalConfig, spherical_project_many
from im2pc.sampling import GroupingSpec, PointCloud
from util import finite_diff, rel_err


CFG = SphericalConfig(H=16, W=64, f_up=30.0, f_down=30.0)
K = CameraIntrinsics(fx=40.0, fy=40.0, cx=32.0, cy=16.0)


def make_cloud(rng, n, c=4):
    pos = rng.normal(size=(n, 3)) + np.array([3.0, 0, 0])
    sph = spherical_project_many(pos, CFG)
    return PointCloud(pos, rng.normal(size=(n, c)), spherical=sph)


class TestCellCenters:
    def test_stride_one_is_pixel_centers(self):
        c = P.cell_centers(2, 3, 1)
        np.testing.assert_array_equal(c[0, 0], [0.0, 0.0])
        np.testing.assert_array_equal(c[1, 2], [2.0, 1.0])

    def test_stride_two(self):
        c = P.cell_centers(2, 2, 2)
        # a 2x2 receptive cell over pixels {0,1} is centered at 0.5
        np.testing.assert_array_equal(c[0, 0], [0.5, 0.5])
        np.testing.assert_array_equal(c[1, 1], [2.5, 2.5])

    def test_stride_four(self):
        c = P.cell_centers(1, 2, 4)
        np.testing.assert_array_equal(c[0, 1], [5.5, 1.5])


class TestImagePyramid:
    def test_desk_shapes_and_coords(self):
        rng = np.random.default_rng(0)
        pyr = P.ImagePyramid("img", 3, ((4, 4), (4, 8), (8, 8)),
                             ((2, 2), (2, 2), (2, 2)), rng)
        levels = pyr(Tensor(rng.normal(size=(32, 64, 3))), K, train=False)
        assert [lv.features.shape for lv in levels] == [
            (16, 32, 4), (8, 16, 8), (4, 8, 8)]
        np.testing.assert_array_equal(levels[0].pixel_coords[0, 0], [0.5, 0.5])
        np.testing.assert_array_equal(levels[1].pixel_coords[0, 0], [1.5, 1.5])
        np.testing.assert_array_equal(levels[2].pixel_coords[0, 0], [3.5, 3.5])
        assert levels[2].pixel_coords[-1, -1].tolist() == [59.5, 27.5]
        assert [lv.level for lv in levels] == [1, 2, 3]

    def test_gradient_reaches_input(self):
        rng = np.random.default_rng(1)
        pyr = P.ImagePyramid("img", 1, ((2,),), ((2, 2),), rng)
        x = Tensor(rng.normal(size=(4, 4, 1)), requires_grad=True)
        pyr(x, K, train=False)[0].features.sum().backward()
        assert x.grad is not None and np.abs(x.grad).sum() > 0


class TestSetAbstraction:
    """One point level: a one-level PointPyramid over its GroupPool."""

    def test_stride_path_counts_and_level(self):
        rng = np.random.default_rng(2)
        cloud = make_cloud(rng, 200)
        pyr = P.PointPyramid("sa", 4, ((8, 8),), rng)
        (geo,) = P.sample_levels(cloud, [GroupingSpec(4, (3, 5), 5.0, (2, 2))], CFG)
        out = pyr(cloud, [geo], train=False)[1]
        assert out.level == 1
        assert out.count == geo.centers.count
        assert out.features.shape == (out.count, 8)
        # one center per occupied 2x2 cell: the first point in scan order
        u, v = cloud.spherical[:, 0], cloud.spherical[:, 1]
        cells = {}
        for i in range(cloud.count):
            cells.setdefault((u[i] // 2, v[i] // 2), i)
        assert sorted(map(tuple, out.positions)) == \
            sorted(map(tuple, cloud.positions[list(cells.values())]))
        assert geo.idx.shape == (out.count, 4)

    def test_pooled_feature_is_group_max(self):
        rng = np.random.default_rng(4)
        cloud = make_cloud(rng, 30)
        pyr = P.PointPyramid("sa", 4, ((6,),), rng)
        (geo,) = P.sample_levels(cloud, [GroupingSpec(5, (33, 129), 1e6, (1, 1))], CFG)
        out = pyr(cloud, [geo], train=False)[1]
        grouped = P.gather_group(cloud.features, cloud.positions, geo.idx,
                                 geo.centers.positions)
        manual = pyr.levels[0].mlp(grouped, train=False).data.max(axis=1)
        np.testing.assert_array_equal(out.features.data, manual)

    def test_gather_group_matches_composed_ops(self):
        rng = np.random.default_rng(12)
        feats = rng.normal(size=(15, 4))
        positions = rng.normal(size=(15, 3))
        centers = rng.normal(size=(6, 3))
        idx = rng.integers(0, 15, size=(6, 5))   # repeated rows accumulate
        weights = rng.normal(size=(6, 5, 7))
        t = Tensor(feats, requires_grad=True)
        out = P.gather_group(t, positions, idx, centers)
        assert out._parents == (t,)   # one node straight on the features
        (out * Tensor(weights)).sum().backward()
        # oracle: a gather node, then a concat with the constant offsets
        t_ref = Tensor(feats, requires_grad=True)
        ref = ad.concat([t_ref.gather(idx), Tensor(positions[idx] - centers[:, None, :])],
                        axis=2)
        (ref * Tensor(weights)).sum().backward()
        np.testing.assert_array_equal(out.data, ref.data)
        np.testing.assert_array_equal(t.grad, t_ref.grad)

    def test_gather_group_backward_matches_add_at(self):
        rng = np.random.default_rng(13)
        feats = rng.normal(size=(12, 5))
        positions = rng.normal(size=(12, 3))
        centers = rng.normal(size=(7, 3))
        idx = rng.integers(0, 10, size=(7, 6))   # repeated rows; rows 10, 11 never taken
        g = rng.normal(size=(7, 6, 8)) * 10.0 ** rng.uniform(-6, 6, size=(7, 6, 8))
        t = Tensor(feats, requires_grad=True)
        (P.gather_group(t, positions, idx, centers) * Tensor(g)).sum().backward()
        ref = np.zeros_like(feats)
        np.add.at(ref, idx, g[:, :, :5])   # the offset channels carry no gradient
        np.testing.assert_array_equal(t.grad, ref)
        rev = np.zeros_like(feats)
        np.add.at(rev, idx.ravel()[::-1], g[:, :, :5].reshape(-1, 5)[::-1])
        assert (rev != ref).any()   # the order of the sums shows in the rounding


class TestPointPyramid:
    def test_four_levels(self):
        rng = np.random.default_rng(5)
        cloud = make_cloud(rng, 400)
        specs = [GroupingSpec(4, (3, 5), 8.0, (2, 2)) for _ in range(3)]
        specs.append(GroupingSpec(4, (3, 5), 8.0, (1, 2)))
        pyr = P.PointPyramid("pt", 4, ((8,), (8,), (16,), (16,)), rng)
        levels = pyr(cloud, P.sample_levels(cloud, specs, CFG), train=False)
        assert len(levels) == 5
        assert levels[0] is cloud
        assert [lv.level for lv in levels] == [0, 1, 2, 3, 4]
        counts = [lv.count for lv in levels]
        assert all(counts[i] >= counts[i + 1] for i in range(4))
        assert levels[4].features.shape[1] == 16

    def test_levels_sample_cells_of_the_cumulative_strides(self):
        rng = np.random.default_rng(14)
        cloud = make_cloud(rng, 400)
        specs = [GroupingSpec(4, (3, 5), 8.0, (2, 1)), GroupingSpec(4, (3, 5), 8.0, (1, 2))]
        lv1, lv2 = P.sample_levels(cloud, specs, CFG)
        np.testing.assert_array_equal(lv1.centers.positions,
                                      cloud.positions[P.cell_sample(cloud, (2, 1))])
        # level 2 keeps one level-1 center per 2x2 cell of the level-0 grid
        np.testing.assert_array_equal(lv2.centers.positions,
                                      lv1.centers.positions[P.cell_sample(lv1.centers, (2, 2))])
        assert [lv1.centers.level, lv2.centers.level] == [1, 2]
        assert lv2.idx.max() < lv1.centers.count

    def test_empty_cloud_is_an_empty_level(self):
        empty = make_cloud(np.random.default_rng(15), 0)
        with pytest.raises(EmptyLevel, match="level 1"):
            P.sample_levels(empty, [GroupingSpec(4)], CFG)


class TestContextGather:
    def test_shape_and_mismatch(self):
        rng = np.random.default_rng(6)
        cloud = make_cloud(rng, 20)
        cg = P.ContextGather("cg", 4, (8, 8), rng)
        idx = P.projection_aware_knn(cloud, cloud, GroupingSpec(4, (5, 9), 50.0), CFG)[0]
        out = cg(cloud.features, cloud, idx, train=False)
        assert out.shape == (20, 8)
        with pytest.raises(IndexMismatch):
            cg(Tensor(np.zeros((19, 4))), cloud, idx, train=False)
        with pytest.raises(IndexMismatch):
            cg(cloud.features, cloud, idx[:19], train=False)


class TestUpsample:
    def test_shape_and_gradient(self):
        rng = np.random.default_rng(7)
        coarse = make_cloud(rng, 6, c=3)
        fine = make_cloud(rng, 15, c=5)
        up = P.Upsample("up", 3, 5, (8,), 7, rng)
        cv = rng.normal(size=(6, 3))
        idx = P.projection_aware_knn(fine, coarse, GroupingSpec(3, (33, 129), 1e6), CFG)[0]

        def run(arr):
            return up(Tensor(arr), coarse, fine, fine.features, idx, train=False)

        out = run(cv)
        assert out.shape == (15, 7)
        t = Tensor(cv, requires_grad=True)
        up(t, coarse, fine, fine.features, idx, train=False).sum().backward()
        num = finite_diff(lambda: float(run(cv).data.sum()), cv)
        assert rel_err(t.grad, num) < 1e-5

    def test_mismatch_and_parameter_names(self):
        rng = np.random.default_rng(16)
        coarse = make_cloud(rng, 6, c=3)
        fine = make_cloud(rng, 15, c=5)
        up = P.Upsample("up", 3, 5, (8,), 7, rng)
        # the names a checkpoint stores: the pooled MLP's, then the FC's
        assert [p.name for p in up.named_parameters()] == [
            "up.mlp.lin0.weight", "up.mlp.lin0.bias", "up.mlp.norm0.gamma",
            "up.mlp.norm0.beta", "up.fc.weight", "up.fc.bias"]
        idx = P.projection_aware_knn(fine, coarse, GroupingSpec(3, (33, 129), 1e6), CFG)[0]
        with pytest.raises(IndexMismatch):
            up(Tensor(np.zeros((5, 3))), coarse, fine, fine.features, idx, train=False)
        with pytest.raises(IndexMismatch):
            up(Tensor(np.zeros((6, 3))), coarse, fine, fine.features, idx[:14], train=False)
