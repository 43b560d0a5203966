"""Coarse and fine registration stages: outlier mask prediction, masked pose
regression, pose warping, cost-volume/mask optimization, and refinement.

A train forward records its whole graph. An eval forward records none: its
outputs come from autodiff.replay, which runs the stages again only when a
backward reaches them."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import pyramids
from .autodiff import Tensor
from .config import ModelConfig
from .cost_volume import CostVolumeModule, MixtureSpec, StageNeighbours, normalized_pixels
from .errors import DegenerateQuaternion, IndexMismatch, NonFiniteLoss, ShapeMismatch
from .geometry import (CameraIntrinsics, PoseQT, SphericalConfig, canonical_sign,
                       quat_conj, quat_mul, quat_rotate, spherical_project_many)
from .nn_blocks import Linear, SharedMlp
from .params import Module
from .pyramids import ContextGather, ImagePyramid, PointPyramid, Upsample
from .sampling import GroupingSpec, PointCloud

# The network's fixed shape, sized for synthetic desk-scale scenes (32x64
# images, ~512 points). Every net shares these instances, so they are frozen.
IMAGE_CHANNELS = 3      # RGB, as read_ppm and synth_scene give it
POINT_FEATURES = 4      # per-point input width of load_kitti_bin and synth_scene
SPHERICAL = SphericalConfig(16, 256, 22.0, 22.0, frame="camera")
IMAGE_WIDTHS = ((8, 16), (16, 32), (32, 32))
POINT_WIDTHS = ((16, 16), (16, 32), (32, 32), (32, 64))
# kernels widen with the cumulative stride lattice so each level still sees a
# 3x5 window of surviving candidates
POINT_GROUPINGS = (
    GroupingSpec(8, (3, 5), 1.0, (2, 2)),
    GroupingSpec(8, (5, 9), 2.0, (2, 1)),
    GroupingSpec(8, (9, 9), 4.0, (1, 2)),
    GroupingSpec(8, (9, 17), 8.0, (2, 1)),
)
MIXTURE = MixtureSpec("knn", k=16, k2=4, lst_dist=2.0)    # both stages
NEIGHBOURHOOD = GroupingSpec(8, (17, 17), 8.0)            # context and upsampling
# the ic, sal, lst, context, upsample, oe and mask stacks; the mask heads weigh
# the cost volumes, so all end at one width
HIDDEN = (32, 32)
POS_DIM = 16
MIDDLE_DIM = 64


def quat_mul_t(a: Tensor, b: Tensor) -> Tensor:
    """a * b; bilinear, so a's gradient is g * conj b and b's conj a * g."""
    def backward(g):
        if a.requires_grad:
            a._accum(quat_mul(g, quat_conj(b.data)))
        if b.requires_grad:
            b._accum(quat_mul(quat_conj(a.data), g))

    return Tensor._make(quat_mul(a.data, b.data), (a, b), backward)


def quat_rotate_t(q: Tensor, points: Tensor) -> Tensor:
    """(N, 3) points rotated by q, p + 2(w v x p + v x (v x p)): linear in p,
    whose gradient is g rotated by conj q; q's gradient holds for any q."""
    def backward(g):
        if points.requires_grad:
            points._accum(quat_rotate(quat_conj(q.data), g))
        if q.requires_grad:
            w, v, p = q.data[0], q.data[1:], points.data
            gv = w * np.cross(p, g).sum(0) + g.T @ (p @ v) + p.T @ (g @ v) - 2 * (g * p).sum() * v
            q._accum(2.0 * np.concatenate([[(g * np.cross(v, p)).sum()], gv]))

    return Tensor._make(quat_rotate(q.data, points.data), (q, points), backward)


def quat_normalize_t(q: Tensor) -> Tensor:
    """q / |q| with the canonical sign s; the gradient is (g - o (o.g)) s / |q|
    for the output o, as s is piecewise constant."""
    n = np.sqrt((q.data * q.data).sum())
    if not np.isfinite(n):
        raise NonFiniteLoss(f"non-finite quaternion norm {n}")
    if n < 1e-12:
        raise DegenerateQuaternion("quaternion norm below 1e-12")
    s = canonical_sign(q.data / n)
    out = q.data / n * s

    def backward(g):
        q._accum((g - out * (out @ g)) * (s / n))

    return Tensor._make(out, (q,), backward)


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

    def __post_init__(self):
        # the quaternion's norm was checked by quat_normalize_t
        if not np.isfinite(self.t_t.data).all():
            raise NonFiniteLoss(f"non-finite translation {self.t_t.data}")


class PoseRegressor(Module):
    def __init__(self, name, in_dim, middle_dim, rng):
        self.middle = Linear(f"{name}.middle", in_dim, middle_dim, rng)
        self.q_head = Linear(f"{name}.q", middle_dim, 4, rng)
        self.t_head = Linear(f"{name}.t", middle_dim, 3, rng)
        # start at the identity pose: small head weights, identity quaternion
        # bias, so the fine stage begins as a no-op refinement
        self.q_head.weight.data *= 0.01
        self.t_head.weight.data *= 0.01
        self.q_head.bias.data[...] = np.array([1.0, 0.0, 0.0, 0.0])

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
        self.image_pyramid = ImagePyramid("img", IMAGE_CHANNELS, IMAGE_WIDTHS,
                                          cfg.image_strides, rng)
        self.point_pyramid = PointPyramid("pts", POINT_FEATURES, POINT_WIDTHS, rng)
        img_dim = IMAGE_WIDTHS[2][-1]
        f3_dim, f4_dim = POINT_WIDTHS[2][-1], POINT_WIDTHS[3][-1]
        width = HIDDEN[-1]
        self.cv_coarse = CostVolumeModule("coarse.cv", f4_dim, img_dim, MIXTURE, HIDDEN,
                                          HIDDEN, POS_DIM, HIDDEN, rng)
        self.context = ContextGather("coarse.ctx", width, HIDDEN, rng)
        self.mask_coarse = SharedMlp("coarse.mask", width + f4_dim, HIDDEN, rng,
                                     final_linear=True)
        self.regress_coarse = PoseRegressor("coarse.pose", width, MIDDLE_DIM, rng)
        self.cv_fine = CostVolumeModule("fine.cv", f3_dim, img_dim, MIXTURE, HIDDEN,
                                        HIDDEN, POS_DIM, HIDDEN, rng)
        self.up_e = Upsample("fine.up_e", width, f3_dim, HIDDEN, width, rng)
        self.up_m = Upsample("fine.up_m", width, f3_dim, HIDDEN, width, rng)
        self.oe_mlp = SharedMlp("fine.oe", 2 * width + f3_dim, HIDDEN, rng)
        self.mask_fine = SharedMlp("fine.mask", 2 * width + f3_dim, HIDDEN, rng,
                                   final_linear=True)
        self.regress_fine = PoseRegressor("fine.pose", width, MIDDLE_DIM, rng)

    @functools.cached_property
    def _params(self):
        """The eval replay's parameter inputs, listed at the first eval
        forward: the module tree is fixed after __init__."""
        return self.named_parameters()

    # -- stages -------------------------------------------------------------

    def geometry(self, cloud: PointCloud, image, K: CameraIntrinsics) -> SceneGeometry:
        """The scene's fixed sampling and searches, on the SPHERICAL grid;
        spherical coordinates the cloud carries are ignored."""
        sph = spherical_project_many(cloud.positions, SPHERICAL)
        base = PointCloud(cloud.positions, cloud.features, spherical=sph, level=cloud.level)
        levels = pyramids.sample_levels(base, POINT_GROUPINGS, SPHERICAL)
        cloud3, cloud4 = levels[2].centers, levels[3].centers
        grid = self.image_pyramid.level_grids(image.shape[0], image.shape[1])[2]
        coarse = self.cv_coarse.neighbours(cloud4.positions, cloud4.spherical,
                                           normalized_pixels(grid, K), SPHERICAL)
        # searched by pyramids' name, as the levels are; up_e and up_m share one
        context = pyramids.projection_aware_knn(cloud4, cloud4, NEIGHBOURHOOD, SPHERICAL)[0]
        upsample = pyramids.projection_aware_knn(cloud3, cloud4, NEIGHBOURHOOD, SPHERICAL)[0]
        return SceneGeometry(cloud.positions, tuple(image.shape[:2]), K, levels,
                             context, upsample, coarse)

    def extract(self, cloud: PointCloud, image, K: CameraIntrinsics,
                geometry: SceneGeometry, train: bool):
        """Image and point pyramids over the scene's geometry."""
        geometry.check(cloud, image, K)
        img_levels = self.image_pyramid(ad.as_tensor(image), K, train)
        point_levels = self.point_pyramid(cloud, geometry.levels, train)
        return img_levels, point_levels

    def run_coarse(self, img_levels, point_levels, geometry: SceneGeometry, train: bool,
                   rng: Optional[np.random.Generator] = None,
                   dropout: float = 0.0) -> StageOutput:
        cloud4 = point_levels[4]
        pos4 = Tensor(cloud4.positions)
        cv4 = self.cv_coarse(pos4, cloud4.spherical, cloud4.features, img_levels[2],
                             SPHERICAL, train, level=4, point_ref=cloud4,
                             neighbours=geometry.coarse)
        e4new = self.context(cv4.entries, cloud4, geometry.context, train)
        m4 = self.mask_coarse(ad.concat([e4new, cloud4.features], axis=1), train)
        q4, t4 = self.regress_coarse(e4new, m4, dropout, train, rng)
        return StageOutput(PoseQT(q4.data, t4.data), q4, t4, e4new, m4)

    def run_fine(self, img_levels, point_levels, coarse: StageOutput,
                 geometry: SceneGeometry, train: bool,
                 rng: Optional[np.random.Generator] = None,
                 dropout: float = 0.0) -> StageOutput:
        cloud3 = point_levels[3]
        cloud4 = point_levels[4]
        warped = quat_rotate_t(coarse.q_t, Tensor(cloud3.positions)) + \
            coarse.t_t.reshape(1, 3)
        sph_w = spherical_project_many(warped.data, SPHERICAL)
        cv3 = self.cv_fine(warped, sph_w, cloud3.features, img_levels[2],
                           SPHERICAL, train, level=3, point_ref=cloud3)
        ue3 = self.up_e(coarse.cost_volume, cloud4, cloud3, cloud3.features,
                        geometry.upsample, train)
        um3 = self.up_m(coarse.mask_logits, cloud4, cloud3, cloud3.features,
                        geometry.upsample, train)
        oe3 = self.oe_mlp(ad.concat([cv3.entries, ue3, cloud3.features], axis=1), train)
        m3 = self.mask_fine(ad.concat([oe3, um3, cloud3.features], axis=1), train)
        dq, dt = self.regress_fine(oe3, m3, dropout, train, rng)
        q3 = quat_normalize_t(quat_mul_t(dq, coarse.q_t))
        t3 = quat_rotate_t(dq, coarse.t_t.reshape(1, 3)).reshape(3) + dt
        return StageOutput(PoseQT(q3.data, t3.data), q3, t3, oe3, m3)

    def __call__(self, cloud: PointCloud, image, K: CameraIntrinsics,
                 train: bool = False, rng: Optional[np.random.Generator] = None,
                 geometry: Optional[SceneGeometry] = None, dropout: float = 0.0):
        """Both stages. `geometry` is RegistrationNet.geometry of this cloud,
        image shape and K; without it the forward builds its own. `dropout` is
        the pose heads' drop rate in train mode.

        An eval forward (train=False) records no graph: its outputs hang off
        one autodiff.replay node, and a backward through them runs the stages
        again on the same geometry, so an inference request keeps no
        activation alive and a loss on eval outputs still differentiates."""
        if geometry is None:
            geometry = self.geometry(cloud, image, K)

        def stages():
            img_levels, point_levels = self.extract(cloud, image, K, geometry, train)
            coarse = self.run_coarse(img_levels, point_levels, geometry, train, rng, dropout)
            fine = self.run_fine(img_levels, point_levels, coarse, geometry, train, rng,
                                 dropout)
            return coarse, fine

        if train:
            return stages()
        inputs = self._params + [x for x in (image, cloud.features) if isinstance(x, Tensor)]
        out = ad.replay(lambda: [a for st in stages() for a in
                                 (st.q_t, st.t_t, st.cost_volume, st.mask_logits)], inputs)
        return tuple(StageOutput(PoseQT(q.data, t.data), q, t, cv, m)
                     for q, t, cv, m in (out[:4], out[4:]))
