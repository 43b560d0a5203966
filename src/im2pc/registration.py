"""Coarse and fine registration stages: outlier mask prediction, masked pose
regression, pose warping, cost-volume/mask optimization, and refinement."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .cost_volume import CostVolumeModule, StageNeighbours, normalized_pixels
from .errors import DegenerateQuaternion, IndexMismatch, ShapeMismatch
from .geometry import (CameraIntrinsics, PoseQT, canonical_sign, quat_mul, quat_rotate,
                       spherical_project_many)
from .nn_blocks import Linear, SharedMlp
from .params import Module
from .pyramids import ContextGather, ImagePyramid, PointPyramid, Upsample
from .sampling import PointCloud

IMAGE_CHANNELS = 3      # RGB, as read_ppm and synth_scene give it
POINT_FEATURES = 4      # per-point input width of load_kitti_bin and synth_scene


def quat_normalize_t(q: Tensor) -> Tensor:
    n = (q * q).sum().sqrt()
    if float(n.data) < 1e-12:
        raise DegenerateQuaternion("quaternion norm below 1e-12")
    q = q / n
    # canonical sign is piecewise constant, so a data-derived factor is safe
    return q * canonical_sign(q.data)


@dataclass
class SceneGeometry:
    """Everything a forward needs that depends only on the cloud, K and the
    image shape, none of it learned: each point level's centers and groups,
    the context and upsample groups, and the coarse stage's pixel candidates
    and LST neighbours. RegistrationNet.geometry builds it; every forward on
    the same scene can reuse it. The fine stage's searches follow the coarse
    pose, so each forward runs them."""
    positions: np.ndarray       # (N, 3) the cloud it was built from
    image_shape: tuple          # (H, W)
    K: CameraIntrinsics
    levels: list                # pyramids.LevelGeometry per point level
    context: np.ndarray         # (N4, k) level-4 rows grouped around each level-4 point
    upsample: np.ndarray        # (N3, k) level-4 rows around each level-3 point
    coarse: StageNeighbours

    def check(self, cloud: PointCloud, image, K: CameraIntrinsics):
        """Refuse a geometry built from another cloud, image shape or camera."""
        if cloud.count != self.positions.shape[0] or not (
                cloud.positions is self.positions
                or np.array_equal(cloud.positions, self.positions)):
            raise IndexMismatch(f"geometry of a {self.positions.shape[0]}-point cloud "
                                f"used with another {cloud.count}-point cloud")
        if tuple(image.shape[:2]) != self.image_shape or K != self.K:
            raise IndexMismatch("geometry built for another image shape or camera")


@dataclass
class StageOutput:
    pose: PoseQT
    q_t: Tensor               # (4,) differentiable pose pieces
    t_t: Tensor               # (3,)
    cost_volume: Tensor       # (N, C) — E4_new (coarse) or OE3 (fine)
    mask_logits: Tensor       # (N, C)


class PoseRegressor(Module):
    def __init__(self, name, in_dim, middle_dim, rng):
        self.middle = Linear(f"{name}.middle", in_dim, middle_dim, rng)
        self.q_head = Linear(f"{name}.q", middle_dim, 4, rng)
        self.t_head = Linear(f"{name}.t", middle_dim, 3, rng)
        # start at the identity pose: small head weights, identity quaternion
        # bias, so the fine stage begins as a no-op refinement
        self.q_head.weight.tensor.data *= 0.01
        self.t_head.weight.tensor.data *= 0.01
        self.q_head.bias.tensor.data[...] = np.array([1.0, 0.0, 0.0, 0.0])

    def __call__(self, cv: Tensor, mask_logits: Tensor, dropout_p: float,
                 train: bool, rng: Optional[np.random.Generator]):
        if cv.shape != mask_logits.shape:
            raise ShapeMismatch(cv.shape, mask_logits.shape, "cost volume vs mask")
        mw = mask_logits.softmax(axis=0)          # normalized over the point axis
        glob = (cv * mw).sum(axis=0)
        mid = self.middle(glob)
        if train and dropout_p > 0.0:
            mid = ad.dropout(mid, dropout_p, rng)
        q = quat_normalize_t(self.q_head(mid))
        t = self.t_head(mid)
        return q, t


class RegistrationNet(Module):
    """The full two-stage network."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.image_pyramid = ImagePyramid("img", IMAGE_CHANNELS, cfg.image_channels,
                                          cfg.image_strides, rng)
        self.point_pyramid = PointPyramid("pts", POINT_FEATURES, cfg.point_dims,
                                          cfg.point_groupings, rng)
        img_dim = cfg.image_channels[2][-1]
        f4_dim = cfg.point_dims[3][-1]
        f3_dim = cfg.point_dims[2][-1]
        self.cv_coarse = CostVolumeModule("coarse.cv", f4_dim, img_dim,
                                          cfg.coarse_mixture, cfg.ic_dims,
                                          cfg.sal_dims, cfg.pos_dim, cfg.lst_dims, rng)
        self.context = ContextGather("coarse.ctx", cfg.ic_dims[-1], cfg.context_dims,
                                     cfg.context_grouping, rng)
        cdim = cfg.context_dims[-1]
        self.mask_coarse = SharedMlp("coarse.mask", cdim + f4_dim, cfg.mask_dims, rng,
                                     final_linear=True)
        self.regress_coarse = PoseRegressor("coarse.pose", cdim, cfg.middle_dim, rng)
        self.cv_fine = CostVolumeModule("fine.cv", f3_dim, img_dim, cfg.fine_mixture,
                                        cfg.ic_dims, cfg.sal_dims, cfg.pos_dim,
                                        cfg.lst_dims, rng)
        self.up_e = Upsample("fine.up_e", cdim, f3_dim, cfg.upsample_mlp_dims,
                             cfg.upsample_out, cfg.upsample_grouping, rng)
        self.up_m = Upsample("fine.up_m", cfg.mask_dims[-1], f3_dim,
                             cfg.upsample_mlp_dims, cfg.upsample_out,
                             cfg.upsample_grouping, rng)
        self.oe_mlp = SharedMlp("fine.oe", cfg.ic_dims[-1] + cfg.upsample_out + f3_dim,
                                cfg.oe_dims, rng)
        self.mask_fine = SharedMlp("fine.mask",
                                   cfg.oe_dims[-1] + cfg.upsample_out + f3_dim,
                                   cfg.mask_dims, rng, final_linear=True)
        self.regress_fine = PoseRegressor("fine.pose", cfg.oe_dims[-1],
                                          cfg.middle_dim, rng)
        if cfg.mask_dims[-1] != cdim or cfg.oe_dims[-1] != cfg.mask_dims[-1]:
            raise ValueError("mask width must match the cost-volume width")

    # -- stages -------------------------------------------------------------

    def geometry(self, cloud: PointCloud, image, K: CameraIntrinsics) -> SceneGeometry:
        """The scene's fixed sampling and searches, on the grid of
        cfg.spherical; spherical coordinates the cloud carries are ignored."""
        cfg = self.cfg
        sph = spherical_project_many(cloud.positions, cfg.spherical)
        base = PointCloud(cloud.positions, cloud.features, spherical=sph, level=cloud.level)
        levels = self.point_pyramid.sample(base, cfg.spherical)
        cloud3, cloud4 = levels[2].centers, levels[3].centers
        grid = self.image_pyramid.level_grids(image.shape[0], image.shape[1])[2]
        coarse = self.cv_coarse.neighbours(cloud4.positions, cloud4.spherical,
                                           normalized_pixels(grid, K), cfg.spherical)
        # up_e and up_m are built from one spec, so they share one search
        return SceneGeometry(cloud.positions, tuple(image.shape[:2]), K, levels,
                             self.context.group(cloud4, cfg.spherical),
                             self.up_e.group(cloud3, cloud4, cfg.spherical), coarse)

    def extract(self, cloud: PointCloud, image, K: CameraIntrinsics,
                geometry: SceneGeometry, train: bool):
        """Image and point pyramids over the scene's geometry."""
        geometry.check(cloud, image, K)
        img_levels = self.image_pyramid(ad.as_tensor(image), K, train)
        point_levels = self.point_pyramid(cloud, geometry.levels, train)
        return img_levels, point_levels

    def run_coarse(self, img_levels, point_levels, geometry: SceneGeometry, train: bool,
                   rng: Optional[np.random.Generator] = None) -> StageOutput:
        cfg = self.cfg
        cloud4 = point_levels[4]
        pos4 = Tensor(cloud4.positions)
        cv4 = self.cv_coarse(pos4, cloud4.spherical, cloud4.features, img_levels[2],
                             cfg.spherical, train, level=4, point_ref=cloud4,
                             neighbours=geometry.coarse)
        e4new = self.context(cv4.entries, cloud4, geometry.context, train)
        m4 = self.mask_coarse(ad.concat([e4new, cloud4.features], axis=1), train)
        q4, t4 = self.regress_coarse(e4new, m4, cfg.dropout, train, rng)
        return StageOutput(PoseQT(q4.data, t4.data), q4, t4, e4new, m4)

    def run_fine(self, img_levels, point_levels, coarse: StageOutput,
                 geometry: SceneGeometry, train: bool,
                 rng: Optional[np.random.Generator] = None) -> StageOutput:
        cfg = self.cfg
        cloud3 = point_levels[3]
        cloud4 = point_levels[4]
        warped = quat_rotate(coarse.q_t, Tensor(cloud3.positions)) + \
            coarse.t_t.reshape(1, 3)
        sph_w = spherical_project_many(warped.data, cfg.spherical)
        cv3 = self.cv_fine(warped, sph_w, cloud3.features, img_levels[2],
                           cfg.spherical, train, level=3, point_ref=cloud3)
        ue3 = self.up_e(coarse.cost_volume, cloud4, cloud3, cloud3.features,
                        geometry.upsample, train)
        um3 = self.up_m(coarse.mask_logits, cloud4, cloud3, cloud3.features,
                        geometry.upsample, train)
        oe3 = self.oe_mlp(ad.concat([cv3.entries, ue3, cloud3.features], axis=1), train)
        m3 = self.mask_fine(ad.concat([oe3, um3, cloud3.features], axis=1), train)
        dq, dt = self.regress_fine(oe3, m3, cfg.dropout, train, rng)
        q3 = quat_normalize_t(quat_mul(dq, coarse.q_t))
        t3 = quat_rotate(dq, coarse.t_t.reshape(1, 3)).reshape(3) + dt
        return StageOutput(PoseQT(q3.data, t3.data), q3, t3, oe3, m3)

    def __call__(self, cloud: PointCloud, image, K: CameraIntrinsics,
                 train: bool = False, rng: Optional[np.random.Generator] = None,
                 geometry: Optional[SceneGeometry] = None):
        """Both stages. `geometry` is RegistrationNet.geometry of this cloud,
        image shape and K; without it the forward builds its own."""
        if geometry is None:
            geometry = self.geometry(cloud, image, K)
        img_levels, point_levels = self.extract(cloud, image, K, geometry, train)
        coarse = self.run_coarse(img_levels, point_levels, geometry, train, rng)
        fine = self.run_fine(img_levels, point_levels, coarse, geometry, train, rng)
        return coarse, fine
