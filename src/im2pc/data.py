"""Synthetic pinhole-scene generation, perturbation sampling, and file IO.

A SceneConfig describes a scene and, once, the perturbation that poses it:
per-axis rotation and translation ranges, and the mode that draws in them.

Direction convention, fixed here and asserted by tests: Scene.gt_pose maps
CAMERA-frame coordinates to the MAP frame. The network's prediction target
is the map->camera transform, i.e. gt_pose.inverse().
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedFile, ZeroRange
from .geometry import CameraIntrinsics, PoseQT, pose_apply, pose_compose
from .sampling import PointCloud


@dataclass
class SceneConfig:
    n_points: int = 512
    height: int = 32
    width: int = 64
    focal: float = 40.0
    depth_range: tuple = (2.0, 8.0)
    rot_range: tuple = (30.0, 30.0, 30.0)     # degrees per axis
    transl_range: tuple = (1.0, 1.0, 1.0)     # length units per axis
    mode: str = "coarse"                      # large | coarse | decalib

    def __post_init__(self):
        if any(r < 0 for r in self.rot_range) or any(t < 0 for t in self.transl_range):
            raise ValueError("perturbation ranges must be non-negative")

    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics(self.focal, self.focal,
                                self.width / 2.0, self.height / 2.0)


@dataclass
class Scene:
    cloud: PointCloud            # map frame
    image: np.ndarray            # (H, W, 3) in [0, 1]
    K: CameraIntrinsics
    gt_pose: PoseQT              # camera pose in the map frame
    meta: dict = field(default_factory=dict)


def sample_perturbation(cfg: SceneConfig, rng: np.random.Generator) -> PoseQT:
    """The pose the network must predict (for decalib: phi_gt = phi^-1),
    drawn within the scene config's ranges for its mode."""
    rx, ry, rz = (math.radians(r) for r in cfg.rot_range)
    tx, ty, tz = cfg.transl_range
    if cfg.mode == "large":
        # up-axis (z) rotation and ground-plane (x, y) translation only
        yaw = rng.uniform(-rz, rz)
        t = np.array([rng.uniform(-tx, tx), rng.uniform(-ty, ty), 0.0])
        return PoseQT.from_axis_angle([0, 0, 1], yaw, t)
    angles = [rng.uniform(-r, r) for r in (rx, ry, rz)]
    t = np.array([rng.uniform(-v, v) for v in (tx, ty, tz)])
    pose = PoseQT.from_axis_angle([1, 0, 0], angles[0])
    pose = pose_compose(PoseQT.from_axis_angle([0, 1, 0], angles[1]), pose)
    pose = pose_compose(PoseQT.from_axis_angle([0, 0, 1], angles[2]), pose)
    pose = PoseQT(pose.q, t)
    if cfg.mode == "decalib":
        return pose.inverse()
    return pose


def _point_colors(points: np.ndarray) -> np.ndarray:
    """Smooth procedural coloring so the image carries geometry-linked texture."""
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    r = 0.5 + 0.5 * np.sin(1.7 * x + 0.9 * y)
    g = 0.5 + 0.5 * np.sin(1.3 * y + 0.7 * z)
    b = 0.5 + 0.5 * np.sin(1.1 * z + 0.5 * x)
    return np.stack([r, g, b], axis=1)


def synth_scene(seed: int, cfg: SceneConfig) -> Scene:
    rng = np.random.default_rng(seed)
    K = cfg.intrinsics()
    H, W = cfg.height, cfg.width
    # sample camera-frame points pixel-uniformly inside the frustum
    u = rng.uniform(0, W, cfg.n_points)
    v = rng.uniform(0, H, cfg.n_points)
    z = rng.uniform(*cfg.depth_range, cfg.n_points)
    x = (u - K.cx) / K.fx * z
    y = (v - K.cy) / K.fy * z
    cam_points = np.stack([x, y, z], axis=1)
    colors = _point_colors(cam_points)
    # render with a 1-pixel splat and a nearest-wins z-buffer, as two table
    # passes: each pixel's nearest depth, then the lowest index at that depth
    image = rng.random((H, W, 3))           # unsplatted pixels get seeded noise
    pixel = np.clip(v.astype(int), 0, H - 1) * W + np.clip(u.astype(int), 0, W - 1)
    nearest = np.full(H * W, np.inf)
    np.minimum.at(nearest, pixel, z)
    at_nearest = np.flatnonzero(z == nearest[pixel])
    winner = np.full(H * W, cfg.n_points)
    np.minimum.at(winner, pixel[at_nearest], at_nearest)
    hit = winner < cfg.n_points
    image.reshape(H * W, 3)[hit] = colors[winner[hit]]
    target = sample_perturbation(cfg, rng)    # map -> camera, the net's target
    gt_pose = target.inverse()                # camera pose in the map frame
    map_points = pose_apply(gt_pose, cam_points)
    intensity = colors.mean(axis=1)
    feats = np.zeros((cfg.n_points, 4))
    feats[:, 3] = intensity
    cloud = PointCloud(map_points, feats)
    noise = None
    if cfg.mode == "decalib":
        from .geometry import RigidTransform, pose_to_matrix, se3_distance
        noise = se3_distance(pose_to_matrix(target), RigidTransform.identity())
    meta = {"seed": seed, "mode": cfg.mode}
    if noise is not None:
        meta["noise"] = noise
    return Scene(cloud, image, K, gt_pose, meta)


# -- file formats ------------------------------------------------------------

def load_kitti_bin(path) -> PointCloud:
    size = os.path.getsize(path)
    if size % 16 != 0:
        raise MalformedFile(f"{path}: size {size} not divisible by 16")
    raw = np.fromfile(path, dtype="<f4").reshape(-1, 4)
    if not np.all(np.isfinite(raw)):
        raise MalformedFile(f"{path}: non-finite coordinate or intensity")
    feats = np.zeros((raw.shape[0], 4))
    feats[:, 3] = raw[:, 3].astype(np.float64)
    return PointCloud(raw[:, :3].astype(np.float64), feats)


def save_kitti_bin(path, positions: np.ndarray, intensity: np.ndarray):
    rec = np.empty((positions.shape[0], 4), dtype="<f4")
    rec[:, :3] = positions
    rec[:, 3] = intensity
    rec.tofile(path)


def write_ppm(path, image: np.ndarray):
    H, W, _ = image.shape
    data = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{W} {H}\n255\n".encode())
        f.write(data.tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    parts = raw.split(b"\n", 3)
    if parts[0] != b"P6" or len(parts) < 4 or parts[2] != b"255":
        raise MalformedFile(f"{path}: not a binary 8-bit P6 ppm")
    try:
        W, H = (int(t) for t in parts[1].split())
    except ValueError as e:  # a comment line or a malformed size line
        raise MalformedFile(f"{path}: bad P6 ppm size line: {e}") from e
    if W < 1 or H < 1 or len(parts[3]) < H * W * 3:
        raise MalformedFile(f"{path}: {W}x{H} P6 ppm with {len(parts[3])} pixel bytes")
    data = np.frombuffer(parts[3], dtype=np.uint8, count=H * W * 3)
    return data.reshape(H, W, 3).astype(np.float64) / 255.0


def write_scene(dirname, scene: Scene):
    os.makedirs(dirname, exist_ok=True)
    save_kitti_bin(os.path.join(dirname, "cloud.bin"),
                   scene.cloud.positions, scene.cloud.features.data[:, 3])
    write_ppm(os.path.join(dirname, "image.ppm"), scene.image)
    with open(os.path.join(dirname, "meta.txt"), "w") as f:
        q, t = scene.gt_pose.q, scene.gt_pose.t
        f.write("q=" + ",".join(repr(float(c)) for c in q) + "\n")
        f.write("t=" + ",".join(repr(float(c)) for c in t) + "\n")
        K = scene.K
        f.write(f"intrinsics={K.fx!r},{K.fy!r},{K.cx!r},{K.cy!r}\n")
        for key, val in scene.meta.items():
            f.write(f"{key}={val!r}\n" if isinstance(val, float) else f"{key}={val}\n")


def _floats(text: str, n: int) -> list[float]:
    vals = [float(c) for c in text.split(",")]
    if len(vals) != n or not all(map(math.isfinite, vals)):
        raise ValueError(f"want {n} finite comma-separated numbers, got {text!r}")
    return vals


def read_scene(dirname) -> Scene:
    cloud = load_kitti_bin(os.path.join(dirname, "cloud.bin"))
    image = read_ppm(os.path.join(dirname, "image.ppm"))
    path = os.path.join(dirname, "meta.txt")
    meta = {}
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                key, _, val = line.strip().partition("=")
                meta[key] = val
        pose = PoseQT(_floats(meta.pop("q"), 4), _floats(meta.pop("t"), 3))
        K = CameraIntrinsics(*_floats(meta.pop("intrinsics"), 4))
        if "noise" in meta or meta.get("mode") == "decalib":  # decalib scores by it
            meta["noise"] = _floats(meta["noise"], 1)[0]
        if "seed" in meta:
            meta["seed"] = int(meta["seed"])
    except (KeyError, ValueError, ZeroRange) as e:  # missing key, bad number
        raise MalformedFile(f"{path}: {e!r}") from e
    return Scene(cloud, image, K, pose, meta)


def dataset_checksum(root) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()
