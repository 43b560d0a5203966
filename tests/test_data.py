"""Synthetic scene generation and the on-disk formats."""

import math

import numpy as np
import pytest

import im2pc.data as D
import im2pc.geometry as G
from im2pc.errors import MalformedFile


class TestPerturbation:
    def test_large_mode_is_yaw_plus_ground_plane(self):
        cfg = D.SceneConfig(rot_range=(30.0, 30.0, 30.0), transl_range=(1.0, 1.0, 1.0),
                            mode="large")
        for seed in range(50):
            pose = D.sample_perturbation(cfg, np.random.default_rng(seed))
            a, b, c = G.euler_xyz(G.pose_to_matrix(pose).R)
            assert abs(a) < 1e-12 and abs(b) < 1e-12   # no roll/pitch
            assert pose.t[2] == 0.0                    # no vertical motion
            assert abs(math.degrees(c)) <= 30.0

    def test_coarse_mode_respects_ranges(self):
        cfg = D.SceneConfig(rot_range=(5.0, 10.0, 15.0), transl_range=(0.1, 0.2, 0.3),
                            mode="coarse")
        for seed in range(50):
            pose = D.sample_perturbation(cfg, np.random.default_rng(seed))
            R = G.pose_to_matrix(pose).R
            # the perturbation composes Rz(c) @ Ry(b) @ Rx(a); invert that order
            a = math.degrees(math.atan2(R[2, 1], R[2, 2]))
            b = math.degrees(-math.asin(R[2, 0]))
            c = math.degrees(math.atan2(R[1, 0], R[0, 0]))
            assert abs(a) <= 5.0 + 1e-9
            assert abs(b) <= 10.0 + 1e-9
            assert abs(c) <= 15.0 + 1e-9
            assert np.all(np.abs(pose.t) <= [0.1, 0.2, 0.3])

    def test_decalib_is_inverse_of_coarse(self):
        ranges = dict(rot_range=(5.0, 5.0, 5.0), transl_range=(0.5, 0.5, 0.5))
        for seed in range(20):
            fwd = D.sample_perturbation(D.SceneConfig(**ranges, mode="coarse"),
                                        np.random.default_rng(seed))
            inv = D.sample_perturbation(D.SceneConfig(**ranges, mode="decalib"),
                                        np.random.default_rng(seed))
            comp = G.pose_compose(fwd, inv)
            np.testing.assert_allclose(comp.q, [1, 0, 0, 0], atol=1e-12)
            np.testing.assert_allclose(comp.t, 0.0, atol=1e-12)

    def test_negative_range_rejected(self):
        with pytest.raises(ValueError):
            D.SceneConfig(rot_range=(-1.0, 0, 0))
        with pytest.raises(ValueError):
            D.SceneConfig(transl_range=(0, -0.5, 0))

    def test_yaw_uniformity(self):
        # 3-sigma band for the mean of U(-30, 30) over 400 draws
        cfg = D.SceneConfig(rot_range=(0.0, 0.0, 30.0), transl_range=(0, 0, 0), mode="large")
        yaws = []
        rng = np.random.default_rng(99)
        for _ in range(400):
            pose = D.sample_perturbation(cfg, rng)
            yaws.append(math.degrees(G.euler_xyz(G.pose_to_matrix(pose).R)[2]))
        sigma_mean = (60.0 / math.sqrt(12.0)) / math.sqrt(400)
        assert abs(np.mean(yaws)) < 3 * sigma_mean


class TestSynthScene:
    def test_points_project_inside_image(self):
        cfg = D.SceneConfig(n_points=256)
        scene = D.synth_scene(5, cfg)
        target = scene.gt_pose.inverse()
        cam = G.pose_apply(target, scene.cloud.positions)
        assert np.all(cam[:, 2] >= cfg.depth_range[0] - 1e-9)
        u = cam[:, 0] / cam[:, 2] * scene.K.fx + scene.K.cx
        v = cam[:, 1] / cam[:, 2] * scene.K.fy + scene.K.cy
        assert np.all((u >= 0) & (u < cfg.width))
        assert np.all((v >= 0) & (v < cfg.height))

    def test_rendered_pixels_match_point_colors(self):
        cfg = D.SceneConfig(n_points=64)
        scene = D.synth_scene(6, cfg)
        cam = G.pose_apply(scene.gt_pose.inverse(), scene.cloud.positions)
        colors = D._point_colors(cam)
        u = (cam[:, 0] / cam[:, 2] * scene.K.fx + scene.K.cx).astype(int)
        v = (cam[:, 1] / cam[:, 2] * scene.K.fy + scene.K.cy).astype(int)
        hits = 0
        for i in range(64):
            if np.allclose(scene.image[v[i], u[i]], colors[i], atol=1e-9):
                hits += 1
        # every pixel owned by its nearest point; most points win their pixel
        assert hits > 32

    def test_deterministic(self):
        a = D.synth_scene(7, D.SceneConfig(n_points=128))
        b = D.synth_scene(7, D.SceneConfig(n_points=128))
        np.testing.assert_array_equal(a.cloud.positions, b.cloud.positions)
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.gt_pose.q, b.gt_pose.q)

    @pytest.mark.parametrize("cfg", [
        D.SceneConfig(n_points=64, height=4, width=6),
        D.SceneConfig(n_points=64, height=4, width=6, depth_range=(3.0, 3.0)),
        D.SceneConfig(n_points=512),
        D.SceneConfig(n_points=1),
        D.SceneConfig(n_points=16384),
    ], ids=["crowded", "equal_depths", "desk", "one_point", "dense"])
    def test_image_matches_the_z_buffer_loop(self, cfg):
        for seed in range(20):
            # synth_scene's draws and colours, then a per-point z-buffer
            rng = np.random.default_rng(seed)
            H, W, K = cfg.height, cfg.width, cfg.intrinsics()
            u = rng.uniform(0, W, cfg.n_points)
            v = rng.uniform(0, H, cfg.n_points)
            z = rng.uniform(*cfg.depth_range, cfg.n_points)
            colors = D._point_colors(np.stack(
                [(u - K.cx) / K.fx * z, (v - K.cy) / K.fy * z, z], axis=1))
            image = rng.random((H, W, 3))
            zbuf = np.full((H, W), np.inf)
            ui = np.clip(u.astype(int), 0, W - 1)
            vi = np.clip(v.astype(int), 0, H - 1)
            for i in range(cfg.n_points):  # the nearest wins, then the lowest index
                if z[i] < zbuf[vi[i], ui[i]]:
                    zbuf[vi[i], ui[i]] = z[i]
                    image[vi[i], ui[i]] = colors[i]
            np.testing.assert_array_equal(D.synth_scene(seed, cfg).image, image)

    def test_decalib_mode_records_noise(self):
        scene = D.synth_scene(8, D.SceneConfig(n_points=32, mode="decalib"))
        assert scene.meta["noise"] > 0.0


class TestFormats:
    def test_point_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        pos = rng.normal(size=(10, 3)).astype("<f4").astype(np.float64)
        inten = rng.random(10).astype("<f4").astype(np.float64)
        path = tmp_path / "c.bin"
        D.save_kitti_bin(path, pos, inten)
        cloud = D.load_kitti_bin(path)
        np.testing.assert_array_equal(cloud.positions, pos)
        np.testing.assert_array_equal(cloud.features.data[:, 3], inten)

    def test_point_file_size_check(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(MalformedFile):
            D.load_kitti_bin(path)

    def test_point_file_finite_check(self, tmp_path):
        path = tmp_path / "nan.bin"
        D.save_kitti_bin(path, np.array([[1.0, np.nan, 2.0]]), np.array([0.5]))
        with pytest.raises(MalformedFile):
            D.load_kitti_bin(path)

    def test_image_round_trip(self, tmp_path):
        img = np.random.default_rng(10).random((6, 5, 3))
        quantized = np.round(img * 255.0) / 255.0
        path = tmp_path / "i.ppm"
        D.write_ppm(path, img)
        back = D.read_ppm(path)
        np.testing.assert_allclose(back, quantized, atol=1e-12)

    def test_image_magic_check(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(MalformedFile):
            D.read_ppm(path)

    def test_image_16_bit_rejected(self, tmp_path):
        # two bytes per sample: read as 8-bit it would load as a wrong image
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + b"\x00" * 6)
        with pytest.raises(MalformedFile):
            D.read_ppm(path)

    def test_scene_round_trip(self, tmp_path):
        scene = D.synth_scene(11, D.SceneConfig(n_points=32, mode="decalib"))
        D.write_scene(tmp_path / "s", scene)
        back = D.read_scene(tmp_path / "s")
        np.testing.assert_array_equal(back.gt_pose.q, scene.gt_pose.q)
        np.testing.assert_array_equal(back.gt_pose.t, scene.gt_pose.t)
        assert back.K == scene.K
        assert back.meta["noise"] == scene.meta["noise"]
        # positions survive at float32 precision
        np.testing.assert_allclose(back.cloud.positions, scene.cloud.positions,
                                   atol=1e-6)

    def test_checksum_tracks_content(self, tmp_path):
        D.write_scene(tmp_path / "s", D.synth_scene(12, D.SceneConfig(n_points=16)))
        h1 = D.dataset_checksum(tmp_path)
        h2 = D.dataset_checksum(tmp_path)
        assert h1 == h2
        (tmp_path / "s" / "meta.txt").write_text("altered\n")
        assert D.dataset_checksum(tmp_path) != h1
