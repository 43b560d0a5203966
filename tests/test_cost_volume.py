"""Cost volume construction: similarity algebra, candidate selection,
salience/LST invariances, and finite-difference gradient checks."""

import numpy as np
import pytest

import im2pc.cost_volume as CV
from im2pc.autodiff import Tensor
from im2pc.errors import NoCandidates
from im2pc.geometry import CameraIntrinsics, SphericalConfig, spherical_project_many
from im2pc.pyramids import FeatureImage, cell_centers
from im2pc.sampling import PointCloud
from util import finite_diff, rel_err


CFG = SphericalConfig(H=16, W=64, f_up=30.0, f_down=30.0)
K = CameraIntrinsics(fx=8.0, fy=8.0, cx=2.0, cy=1.5)


def make_image(rng, h=3, w=4, c=6):
    return FeatureImage(Tensor(rng.normal(size=(h, w, c))),
                        cell_centers(h, w, 1), K, level=1)


def make_module(rng, mode="all", point_dim=6, image_dim=6, k=4, k2=2):
    spec = CV.MixtureSpec(mode, k=k, k2=k2, lst_kernel=(3, 5), lst_dist=10.0)
    return CV.CostVolumeModule("cv", point_dim, image_dim, spec,
                               ic_dims=(8, 5), sal_dims=(8, 5), pos_dim=4,
                               lst_dims=(8, 5), rng=rng)


def frustum_points(rng, n):
    # z > 0 so the normalized projection is well posed
    p = rng.normal(size=(n, 3))
    p[:, 2] = np.abs(p[:, 2]) + 1.0
    return p


class TestStandardize:
    def test_zero_mean_unit_power(self):
        x = Tensor(np.random.default_rng(0).normal(size=(7, 5)) * 3 + 2)
        z = CV.standardize(x).data
        np.testing.assert_allclose(z.mean(axis=1), 0.0, atol=1e-12)
        # population sigma: sum of squares equals the channel count
        np.testing.assert_allclose((z ** 2).sum(axis=1), 5.0, atol=1e-9)

    def test_constant_vector_maps_to_zero(self):
        z = CV.standardize(Tensor(np.full((2, 4), 3.7))).data
        np.testing.assert_array_equal(z, 0.0)

    def test_constant_vector_has_a_finite_gradient(self):
        # a 1-point cloud's norms output exactly beta, so every row is constant
        x = np.full((2, 4), 3.7)
        x[1] = np.arange(4.0)
        w = np.arange(8.0).reshape(2, 4)
        t = Tensor(x, requires_grad=True)
        (CV.standardize(t) * Tensor(w)).sum().backward()
        assert np.isfinite(t.grad).all()
        # with sigma at its floor the row is centered, then divided by it
        np.testing.assert_allclose(t.grad[0], (w[0] - w[0].mean()) / CV.SIGMA_FLOOR)

    def test_one_node_matches_the_composed_numpy(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 9)) * 3 + 2
        x[2] = 0.75   # a constant row
        want = (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(
            np.maximum(x.var(axis=-1, keepdims=True), CV.SIGMA_FLOOR ** 2))
        assert CV.standardize(Tensor(x)).data.tobytes() == want.tobytes()
        grouped = x.reshape(2, 3, 9)
        assert CV.standardize(Tensor(grouped)).data.tobytes() == want.reshape(2, 3, 9).tobytes()

    def test_gradient_matches_finite_difference(self):
        # ordinary rows, constant ones and one whose variance is below the
        # floor yet whose z is not 0: a step of 2**-33 keeps those rows at
        # the floor and is exact on their values
        rng = np.random.default_rng(4)
        x = np.vstack([rng.normal(size=(3, 8)) * 2 + 1, np.full((2, 8), 0.5),
                       0.5 + np.arange(8.0) * 2.0 ** -34])
        w = rng.normal(size=x.shape)
        t = Tensor(x, requires_grad=True)
        (CV.standardize(t) * Tensor(w)).sum().backward()

        def loss():
            return float((CV.standardize(Tensor(x)).data * w).sum())

        num = np.vstack([finite_diff(loss, x[:3]), finite_diff(loss, x[3:], h=2.0 ** -33)])
        assert rel_err(t.grad[:3], num[:3]) < 1e-7
        assert rel_err(t.grad[3:], num[3:]) < 1e-7

    def test_positive_affine_invariance(self):
        # so the point-pixel similarity standardize(f) * standardize(g) does
        # not depend on the scale or offset of either feature vector
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 5))
        a, b = rng.uniform(0.1, 10, size=(3, 1)), rng.normal(size=(3, 1))
        np.testing.assert_allclose(CV.standardize(Tensor(a * x + b)).data,
                                   CV.standardize(Tensor(x)).data, rtol=0, atol=1e-12)


class TestLstOffsets:
    # rows 0 and 3 are padded: their last slots repeat a neighbour; row 2
    # lists itself, so its offset is zero and its distance 1e-12
    IDX = np.array([[1, 4, 4], [2, 0, 3], [2, 4, 1], [1, 1, 1], [0, 3, 2]])

    def test_one_node_matches_the_composed_numpy(self):
        pos = np.random.default_rng(12).normal(size=(5, 3)) * 2.0
        want = np.empty((5, 3, 10))
        for i in range(5):
            for j, m in enumerate(self.IDX[i]):
                rel = pos[m] + (-pos[i])
                dist = np.sqrt((rel * rel).sum() + 1e-24)
                want[i, j] = np.concatenate([pos[i], pos[m], rel, [dist]])
        got = CV.lst_offsets(Tensor(pos), self.IDX).data
        np.testing.assert_array_equal(got, want)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(13)
        pos = rng.normal(size=(5, 3)) * 2.0
        w = rng.normal(size=(5, 3, 10))
        t = Tensor(pos, requires_grad=True)
        (CV.lst_offsets(t, self.IDX) * Tensor(w)).sum().backward()

        def loss():
            return float((CV.lst_offsets(Tensor(pos), self.IDX).data * w).sum())

        assert rel_err(t.grad, finite_diff(loss, pos)) < 1e-7


class TestInverseSimilarity:
    def test_duplicating_a_point_changes_nothing(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(4, 5))
        g = Tensor(rng.normal(size=(6, 5)))
        base = CV.inverse_similarity(Tensor(f), g).data
        dup = CV.inverse_similarity(Tensor(np.vstack([f, f[2:3]])), g).data
        np.testing.assert_array_equal(base, dup)

    def test_is_channelwise_max(self):
        f = Tensor(np.array([[1.0, -1.0], [2.0, 3.0]]))
        g = Tensor(np.array([[1.0, 1.0]]))
        out = CV.inverse_similarity(f, g).data
        np.testing.assert_array_equal(out, [[2.0, 3.0]])

    def test_gradient_routes_to_argmax(self):
        f = np.array([[1.0, 5.0], [2.0, 3.0]])
        g = np.array([[1.0, 1.0]])
        tf = Tensor(f, requires_grad=True)
        CV.inverse_similarity(tf, Tensor(g)).sum().backward()
        np.testing.assert_array_equal(tf.grad, [[0.0, 1.0], [1.0, 0.0]])


class TestCandidates:
    def test_grid_inverse_projection(self):
        img = make_image(np.random.default_rng(3), h=2, w=2)
        grid = CV.normalized_pixels(img.pixel_coords, img.intrinsics)
        np.testing.assert_allclose(grid[0], [(0 - 2.0) / 8.0, (0 - 1.5) / 8.0])
        np.testing.assert_allclose(grid[3], [(1 - 2.0) / 8.0, (1 - 1.5) / 8.0])

    def test_knn_matches_sorted_oracle(self):
        rng = np.random.default_rng(4)
        pbar = rng.normal(size=(10, 2))
        plane = rng.normal(size=(25, 2))
        idx = CV.knn_pixel_candidates(pbar, plane, 6)
        for i in range(10):
            d = ((pbar[i] - plane) ** 2).sum(axis=1)
            ref = sorted(range(25), key=lambda j: (d[j], j))[:6]
            assert idx[i].tolist() == ref

    def test_knn_matches_argsort_oracle_with_ties(self):
        rng = np.random.default_rng(14)
        ties = 0
        for case in range(300):
            n, m = int(rng.integers(1, 30)), int(rng.integers(1, 60))
            k = int(rng.integers(1, m + 1))
            if case % 3 == 0:  # points and pixels on a coarse lattice: tied distances
                pbar = rng.integers(-3, 4, size=(n, 2)) * 0.5
                plane = rng.integers(-3, 4, size=(m, 2)) * 0.5
            else:
                pbar, plane = rng.normal(size=(n, 2)), rng.normal(size=(m, 2))
            d = ((pbar[:, None, :] - plane[None, :, :]) ** 2).sum(axis=2)
            ref = np.argsort(d, axis=1, kind="stable")[:, :k]
            idx = CV.knn_pixel_candidates(pbar, plane, k)
            assert idx.dtype == np.int64
            np.testing.assert_array_equal(idx, ref)
            srt = np.sort(d, axis=1)
            ties += int((srt[:, :k] == srt[:, 1:k + 1]).any()) if k < m else 0
        assert ties > 50

    def test_too_many_candidates(self):
        with pytest.raises(NoCandidates):
            CV.knn_pixel_candidates(np.zeros((1, 2)), np.zeros((3, 2)), 4)

    def test_behind_camera_clamp(self):
        p = np.array([[1.0, 2.0, -5.0]])
        out = CV.normalized_points(p)
        np.testing.assert_allclose(out, [[1000.0, 2000.0]])


class TestModuleInvariances:
    def test_salience_shift_invariance(self):
        # adding a constant to the salience head bias shifts every
        # candidate's logit equally, so the softmax mixture is unchanged
        rng = np.random.default_rng(5)
        mod = make_module(rng, mode="all")
        img = make_image(rng)
        pos = frustum_points(rng, 5)
        f = Tensor(rng.normal(size=(5, 6)))
        base = mod.ic_generate(Tensor(pos), f, img, train=False).data
        mod.sal_mlp.layers[-1].bias.data[...] += 7.3
        shifted = mod.ic_generate(Tensor(pos), f, img, train=False).data
        np.testing.assert_allclose(shifted, base, atol=1e-9)

    def test_lst_k1_self_neighbor_identity(self):
        # one neighbor per point means the neighbor is the point itself
        # and the softmax weight is exactly one, so the embedding is the IC
        rng = np.random.default_rng(6)
        mod = make_module(rng, mode="all", k2=1)
        pos = frustum_points(rng, 6)
        sph = spherical_project_many(pos, CFG)
        ic = Tensor(rng.normal(size=(6, 5)))
        f = Tensor(rng.normal(size=(6, 6)))
        nb = mod.neighbours(pos, sph, np.zeros((1, 2)), CFG)
        out = mod.lst_embed(Tensor(pos), f, ic, nb.lst_idx, nb.lst_mask, train=False)
        np.testing.assert_allclose(out.data, ic.data, atol=1e-12)

    def test_lst_shift_invariance(self):
        rng = np.random.default_rng(7)
        mod = make_module(rng, mode="all", k2=3)
        pos = frustum_points(rng, 8)
        sph = spherical_project_many(pos, CFG)
        ic = Tensor(rng.normal(size=(8, 5)))
        f = Tensor(rng.normal(size=(8, 6)))
        nb = mod.neighbours(pos, sph, np.zeros((1, 2)), CFG)
        base = mod.lst_embed(Tensor(pos), f, ic, nb.lst_idx, nb.lst_mask, train=False).data
        mod.lst_mlp.layers[-1].bias.data[...] -= 3.1
        shifted = mod.lst_embed(Tensor(pos), f, ic, nb.lst_idx, nb.lst_mask,
                                train=False).data
        np.testing.assert_allclose(shifted, base, atol=1e-9)

    def test_point_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        mod = make_module(rng, mode="all")
        img = make_image(rng)
        pos = frustum_points(rng, 7)
        f = rng.normal(size=(7, 6))
        base = mod.ic_generate(Tensor(pos), Tensor(f), img, train=False).data
        perm = rng.permutation(7)
        out = mod.ic_generate(Tensor(pos[perm]), Tensor(f[perm]), img, train=False).data
        np.testing.assert_allclose(out, base[perm], atol=1e-11)

    def test_align_projects_mismatched_widths(self):
        rng = np.random.default_rng(10)
        mod = make_module(rng, mode="all", point_dim=9, image_dim=6)
        assert mod.align is not None
        img = make_image(rng)
        pos = frustum_points(rng, 4)
        out = mod.ic_generate(Tensor(pos), Tensor(rng.normal(size=(4, 9))),
                              img, train=False)
        assert out.shape == (4, 5)


class TestGradients:
    @pytest.mark.parametrize("mode", ["all", "knn"])
    def test_full_cost_volume_gradient(self, mode):
        rng = np.random.default_rng(11)
        mod = make_module(rng, mode=mode, k=4, k2=2)
        img = make_image(rng, h=3, w=4)        # 12 pixels
        pos = frustum_points(rng, 10)          # 10 points
        sph = spherical_project_many(pos, CFG)
        cloud = PointCloud(pos, np.zeros((10, 1)), spherical=sph)
        f = rng.normal(size=(10, 6))

        def total(feats_arr, img_arr):
            im = FeatureImage(Tensor(img_arr), img.pixel_coords, K, level=1)
            cv = mod(Tensor(pos), sph, Tensor(feats_arr), im, CFG,
                     train=False, level=1, point_ref=cloud)
            return float((cv.entries.data ** 2).sum())

        tf = Tensor(f, requires_grad=True)
        ti = Tensor(img.features.data, requires_grad=True)
        im = FeatureImage(ti, img.pixel_coords, K, level=1)
        cv = mod(Tensor(pos), sph, tf, im, CFG, train=False, level=1,
                 point_ref=cloud)
        (cv.entries * cv.entries).sum().backward()
        ia = img.features.data
        nf = finite_diff(lambda: total(f, ia), f)
        ni = finite_diff(lambda: total(f, ia), ia)
        assert rel_err(tf.grad, nf) < 1e-4
        assert rel_err(ti.grad, ni) < 1e-4
