import math

import numpy as np
import pytest

from im2pc import geometry as G
from im2pc.cost_volume import Z_MIN, normalized_pixels, normalized_points
from im2pc.errors import NotARotation, ZeroNoise, ZeroRange


def random_pose(rng):
    return G.PoseQT(rng.normal(size=4), rng.normal(size=3))


class TestPoseQT:
    def test_normalized_and_canonical(self):
        p = G.PoseQT([-2.0, 0.0, 0.0, 0.0], [1, 2, 3])
        assert np.allclose(p.q, [1, 0, 0, 0])
        assert abs(np.linalg.norm(p.q) - 1.0) < 1e-9

    def test_zero_w_sign_rule(self):
        p = G.PoseQT([0.0, -1.0, 0.0, 0.0], np.zeros(3))
        assert p.q[1] == 1.0

    def test_compose_identity(self):
        rng = np.random.default_rng(3)
        p = random_pose(rng)
        out = G.pose_compose(G.PoseQT.identity(), p)
        assert np.allclose(out.q, p.q, atol=1e-12)
        assert np.allclose(out.t, p.t, atol=1e-12)

    def test_compose_inverse(self):
        rng = np.random.default_rng(4)
        p = random_pose(rng)
        out = G.pose_compose(p, p.inverse())
        assert np.allclose(out.q, [1, 0, 0, 0], atol=1e-9)
        assert np.allclose(out.t, 0, atol=1e-9)

    def test_compose_yaw(self):
        # yaw 30 then yaw 60 is yaw 90; oracle: rotation matrix product
        a = G.PoseQT.from_axis_angle([0, 0, 1], math.radians(60))
        b = G.PoseQT.from_axis_angle([0, 0, 1], math.radians(30))
        out = G.pose_compose(a, b)
        expect = G.PoseQT.from_axis_angle([0, 0, 1], math.radians(90))
        assert np.allclose(out.q, expect.q, atol=1e-12)
        assert np.allclose(out.t, 0)

    def test_apply_examples(self):
        p = G.PoseQT.from_axis_angle([0, 0, 1], math.pi / 2)
        assert np.allclose(G.pose_apply(p, [1, 0, 0]), [0, 1, 0], atol=1e-9)
        ident = G.PoseQT(np.array([1.0, 0, 0, 0]), [1, 2, 3])
        assert np.allclose(G.pose_apply(ident, [0, 0, 0]), [1, 2, 3])

    def test_apply_matches_matrix_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_pose(rng)
            pts = rng.normal(size=(10, 3))
            T = G.pose_to_matrix(p)
            assert np.allclose(G.pose_apply(p, pts), pts @ T.R.T + T.t, atol=1e-9)


class TestMatrixConversion:
    def test_identity(self):
        T = G.pose_to_matrix(G.PoseQT.identity())
        assert np.allclose(T.R, np.eye(3))

    def test_quarter_turn(self):
        s = math.sqrt(0.5)
        T = G.pose_to_matrix(G.PoseQT([s, 0, 0, s], np.zeros(3)))
        assert np.allclose(T.R, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)

    def test_round_trip_1000(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(1000):
            p = random_pose(rng)
            back = G.matrix_to_pose(G.pose_to_matrix(p))
            worst = max(worst, np.abs(back.q - p.q).max(), np.abs(back.t - p.t).max())
        assert worst < 1e-9

    def test_rejects_non_rotation(self):
        with pytest.raises(NotARotation):
            G.matrix_to_pose(G.RigidTransform(np.eye(3) * 1.1, np.zeros(3)))

    def test_homomorphism(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b = random_pose(rng), random_pose(rng)
            left = G.pose_to_matrix(G.pose_compose(a, b))
            right = G.pose_to_matrix(a).compose(G.pose_to_matrix(b))
            assert np.allclose(left.R, right.R, atol=1e-9)
            assert np.allclose(left.t, right.t, atol=1e-9)

    def test_compose_associative(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a, b, c = (random_pose(rng) for _ in range(3))
            l = G.pose_compose(G.pose_compose(a, b), c)
            r = G.pose_compose(a, G.pose_compose(b, c))
            assert np.allclose(l.q, r.q, atol=1e-9)
            assert np.allclose(l.t, r.t, atol=1e-9)


class TestSpherical:
    CFG = G.SphericalConfig(64, 1800, 2.0, 24.8)

    def project(self, p):
        """(u, v) of one point."""
        return tuple(G.spherical_project_many(np.array([p], dtype=np.float64), self.CFG)[0])

    def test_forward_axis(self):
        u, v = self.project([1, 0, 0])
        assert u == 900

    def test_backward_axis_wraps_to_zero(self):
        u, _ = self.project([-1.0, 1e-12, 0.0])
        assert u == 0

    def test_top_of_fov_is_row_zero(self):
        # elevation exactly f_up
        z = math.sin(math.radians(2.0))
        x = math.cos(math.radians(2.0))
        _, v = self.project([x, 0, z])
        assert v == 0

    def test_bounds(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(500, 3)) * 10
        sph = G.spherical_project_many(pts, self.CFG)
        assert (sph[:, 0] >= 0).all() and (sph[:, 0] < self.CFG.W).all()
        assert (sph[:, 1] >= 0).all() and (sph[:, 1] < self.CFG.H).all()

    def test_zero_range(self):
        with pytest.raises(ZeroRange):
            self.project([0, 0, 0])


class TestPlaneProjections:
    """The normalized-plane projections the cost volume uses: points by
    `normalized_points`, pixels by `normalized_pixels`."""

    def test_optical_axis(self):
        np.testing.assert_array_equal(normalized_points(np.array([[0.0, 0.0, 5.0]])),
                                      [[0.0, 0.0]])

    def test_hand_case(self):
        np.testing.assert_array_equal(normalized_points(np.array([[2.0, -1.0, 2.0]])),
                                      [[1.0, -0.5]])

    def test_behind_camera(self):
        # z at or below Z_MIN is clamped to Z_MIN, so the point stays queryable
        p = np.array([[1.0, -2.0, Z_MIN], [1.0, -2.0, -3.0], [1.0, -2.0, 0.5]])
        out = normalized_points(p)
        np.testing.assert_array_equal(out[0], out[1])
        np.testing.assert_allclose(out[0], [1.0 / Z_MIN, -2.0 / Z_MIN])
        np.testing.assert_array_equal(out[2], [2.0, -4.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(10)
        p = rng.normal(size=(100, 3))
        p[:, 2] = np.abs(p[:, 2]) + 0.1
        lam = rng.uniform(0.1, 10, size=(100, 1))
        np.testing.assert_allclose(normalized_points(p), normalized_points(lam * p),
                                   rtol=0, atol=1e-12)

    def test_inverse_project(self):
        K = G.CameraIntrinsics(100.0, 100.0, 0.0, 0.0)
        coords = np.array([[[50.0, -20.0], [K.cx, K.cy]]])   # a (1, 2, 2) pixel grid
        np.testing.assert_array_equal(normalized_pixels(coords, K), [[0.5, -0.2], [0.0, 0.0]])

    def test_project_inverse_round_trip(self):
        K = G.CameraIntrinsics(80.0, 120.0, 32.0, 24.0)
        rng = np.random.default_rng(11)
        p = rng.normal(size=(100, 3))
        p[:, 2] = np.abs(p[:, 2]) + 0.5
        pbar = normalized_points(p)
        pixels = np.stack([K.fx * pbar[:, 0] + K.cx, K.fy * pbar[:, 1] + K.cy], axis=1)
        back = normalized_pixels(pixels.reshape(1, -1, 2), K)
        np.testing.assert_allclose(back, pbar, rtol=0, atol=1e-12)


class TestMetrics:
    def test_rre_rte_zero(self):
        rng = np.random.default_rng(12)
        p = random_pose(rng)
        rre, rte = G.rre_rte(p, p)
        assert rre < 1e-9 and rte == 0.0

    def test_rre_single_axis(self):
        gt = G.PoseQT.identity()
        pred = G.PoseQT.from_axis_angle([0, 0, 1], math.radians(5))
        rre, rte = G.rre_rte(pred, gt)
        assert abs(rre - 5.0) < 1e-6
        assert rte == 0.0

    def test_rte_hand_case(self):
        gt = G.PoseQT(np.array([1.0, 0, 0, 0]), [0, 0, 0])
        pred = G.PoseQT(np.array([1.0, 0, 0, 0]), [3, 4, 0])
        assert G.rre_rte(pred, gt)[1] == 5.0

    def test_se3_distance(self):
        a = G.RigidTransform.identity()
        assert G.se3_distance(a, a) == 0.0
        b = G.RigidTransform(np.eye(3), [1, 0, 0])
        assert abs(G.se3_distance(b, a) - 1.0) < 1e-12
        c = G.pose_to_matrix(G.PoseQT.from_axis_angle([0, 0, 1], 0.2))
        assert abs(G.se3_distance(c, a) - 0.2) < 1e-12

    def test_se3_near_pi(self):
        c = G.pose_to_matrix(G.PoseQT.from_axis_angle([0, 1, 0], math.pi - 1e-9))
        d = G.se3_distance(c, G.RigidTransform.identity())
        assert abs(d - (math.pi - 1e-9)) < 1e-6

    def test_msee_mrr(self):
        msee, mrr = G.msee_mrr([0.1, 0.3], [0.2, 0.6])
        assert abs(msee - 0.2) < 1e-15
        assert abs(mrr - 0.5) < 1e-15
        msee, mrr = G.msee_mrr([0.0, 0.0], [1.0, 2.0])
        assert msee == 0.0 and mrr == 1.0
        _, mrr = G.msee_mrr([0.5, 0.25], [0.5, 0.25])
        assert mrr == 0.0

    def test_msee_rejects_zero_noise(self):
        with pytest.raises(ZeroNoise):
            G.msee_mrr([0.1], [0.0])
