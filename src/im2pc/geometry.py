"""Pose algebra, camera/spherical projections, and evaluation metrics.

Quaternions are stored (w, x, y, z) and kept unit-norm with a canonical
sign (w >= 0; if w == 0, the first nonzero component is positive) so that
equal rotations compare equal numerically.

Numpy only: registration's autodiff pose ops call this algebra forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotARotation, ZeroNoise, ZeroRange


def canonical_sign(q: np.ndarray) -> float:
    """The factor (+1 or -1) that gives q the canonical sign."""
    for c in q:
        if c > 0.0:
            return 1.0
        if c < 0.0:
            return -1.0
    return 1.0


@dataclass(frozen=True)
class PoseQT:
    """Unit quaternion + translation."""

    q: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64).reshape(4)
        n = np.linalg.norm(q)
        if n == 0.0:
            raise ZeroRange("zero quaternion")
        q = q / n
        object.__setattr__(self, "q", q * canonical_sign(q))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=np.float64).reshape(3).copy())

    @staticmethod
    def identity() -> "PoseQT":
        return PoseQT(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    @staticmethod
    def from_axis_angle(axis, angle_rad: float, t=(0.0, 0.0, 0.0)) -> "PoseQT":
        axis = np.asarray(axis, dtype=np.float64)
        axis = axis / np.linalg.norm(axis)
        half = 0.5 * angle_rad
        return PoseQT(np.concatenate([[math.cos(half)], math.sin(half) * axis]), t)

    def inverse(self) -> "PoseQT":
        qc = quat_conj(self.q)
        return PoseQT(qc, -quat_rotate(qc, self.t[None, :])[0])


@dataclass(frozen=True)
class RigidTransform:
    """3x3 rotation + translation."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "R", np.asarray(self.R, dtype=np.float64).reshape(3, 3).copy())
        object.__setattr__(self, "t", np.asarray(self.t, dtype=np.float64).reshape(3).copy())

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        return RigidTransform(self.R @ other.R, self.R @ other.t + self.t)

    def inverse(self) -> "RigidTransform":
        return RigidTransform(self.R.T, -self.R.T @ self.t)


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.fx, self.fy, self.cx, self.cy))):
            raise ValueError("intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")


@dataclass(frozen=True)
class SphericalConfig:
    """Bounds and vertical field of view of the spherical grid (degrees)."""

    H: int
    W: int
    f_up: float
    f_down: float
    frame: str = "lidar"      # lidar: x fwd, z up | camera: z fwd, y down

    def __post_init__(self):
        if self.H <= 0 or self.W <= 0:
            raise ValueError("grid bounds must be positive")
        if self.f_up + self.f_down <= 0:
            raise ValueError("vertical field of view must be positive")
        if self.frame not in ("lidar", "camera"):
            raise ValueError(f"unknown sensor frame {self.frame!r}")


def quat_conj(q: np.ndarray) -> np.ndarray:
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.stack([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def quat_rotate(q: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Rotate (N, 3) points by the unit quaternion, p + 2(w(vxp) + vx(vxp))."""
    w, x, y, z = q

    def v_cross(p):
        px, py, pz = p[:, 0], p[:, 1], p[:, 2]
        return np.stack([y * pz - z * py, z * px - x * pz, x * py - y * px], axis=1)

    uv = v_cross(points)
    uuv = v_cross(uv)
    return points + 2.0 * (w * uv + uuv)


def pose_compose(outer: PoseQT, inner: PoseQT) -> PoseQT:
    """Apply `inner` first, then `outer`."""
    return PoseQT(quat_mul(outer.q, inner.q), quat_rotate(outer.q, inner.t[None, :])[0] + outer.t)


def pose_apply(pose: PoseQT, points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    squeeze = points.ndim == 1
    if squeeze:
        points = points[None, :]
    out = quat_rotate(pose.q, points) + pose.t
    return out[0] if squeeze else out


def pose_to_matrix(pose: PoseQT) -> RigidTransform:
    w, x, y, z = pose.q
    R = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    return RigidTransform(R, pose.t)


def matrix_to_pose(T: RigidTransform) -> PoseQT:
    R = T.R
    if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-6 or abs(np.linalg.det(R) - 1.0) > 1e-6:
        raise NotARotation("matrix is not a rotation within 1e-6")
    # Shepperd's method: pick the largest diagonal combination for stability
    tr = np.trace(R)
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
        )
    elif R[1, 1] > R[2, 2]:
        s = math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2
        q = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2
        q = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    return PoseQT(q, T.t)


def spherical_project_many(points: np.ndarray, cfg: SphericalConfig) -> np.ndarray:
    """Map (N, 3) points onto the integer spherical grid as (N, 2) (u, v).

    The floor is applied to the full scaled expression. Azimuth wraps
    modulo W, elevation clamps.
    """
    points = np.asarray(points, dtype=np.float64)
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    r = np.sqrt(x * x + y * y + z * z)  # np.linalg.norm's sum, without its copies
    if np.any(r == 0.0):
        raise ZeroRange("point at the origin has no spherical coordinates")
    if cfg.frame == "camera":
        # remap optical axes (x right, y down, z forward) onto the grid's
        # native frame (x forward, y left, z up)
        x, y, z = z, -x, -y
    f_down = math.radians(cfg.f_down)
    f = math.radians(cfg.f_up + cfg.f_down)
    u = np.floor(0.5 * (1.0 - np.arctan2(y, x) / math.pi) * cfg.W).astype(np.int64)
    # elevation = +f_up maps to row 0, elevation = -f_down to the bottom row
    v = np.floor((1.0 - (np.arcsin(z / r) + f_down) / f) * cfg.H).astype(np.int64)
    u = np.mod(u, cfg.W)
    v = np.clip(v, 0, cfg.H - 1)
    return np.stack([u, v], axis=1)


def euler_xyz(R: np.ndarray) -> np.ndarray:
    """Intrinsic XYZ Euler angles of R = Rx(a) Ry(b) Rz(c), radians."""
    sb = np.clip(R[0, 2], -1.0, 1.0)
    b = math.asin(sb)
    if abs(sb) > 1.0 - 1e-12:
        # gimbal lock: only a +/- c is determined; pin c = 0
        a = math.atan2(R[1, 0], R[1, 1])
        c = 0.0
    else:
        a = math.atan2(-R[1, 2], R[2, 2])
        c = math.atan2(-R[0, 1], R[0, 0])
    return np.array([a, b, c])


def rre_rte(pred: PoseQT, gt: PoseQT) -> tuple[float, float]:
    R_pred = pose_to_matrix(pred).R
    R_gt = pose_to_matrix(gt).R
    angles = euler_xyz(R_pred.T @ R_gt)
    rre = float(np.sum(np.abs(np.degrees(angles))))
    rte = float(np.linalg.norm(pred.t - gt.t))
    return rre, rte


def _so3_log(R: np.ndarray) -> np.ndarray:
    c = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    theta = math.acos(c)
    if theta < 1e-10:
        return 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if theta > math.pi - 1e-6:
        # near pi the antisymmetric part vanishes; recover the axis from the
        # symmetric part, R ~ 2 a a^T - I
        k = int(np.argmax(np.diag(R)))
        axis = np.empty(3)
        axis[k] = math.sqrt(max(R[k, k] + 1.0, 0.0) / 2.0)
        for j in range(3):
            if j != k:
                axis[j] = 0.5 * (R[k, j] + R[j, k]) / (2.0 * axis[k])
        axis = axis / np.linalg.norm(axis)
        # disambiguate the sign with the antisymmetric part when it survives
        w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
        if np.dot(w, axis) < 0:
            axis = -axis
        return theta * axis
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return theta / (2.0 * math.sin(theta)) * w


def se3_log(T: RigidTransform) -> np.ndarray:
    """6-vector (rho, phi) with phi the rotation log in radians."""
    phi = _so3_log(T.R)
    theta = np.linalg.norm(phi)
    if theta < 1e-10:
        Vinv = np.eye(3)
    else:
        a = phi / theta
        skew = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
        half = 0.5 * theta
        cot = half / math.tan(half)
        Vinv = cot * np.eye(3) + (1 - cot) * np.outer(a, a) - half * skew
    rho = Vinv @ T.t
    return np.concatenate([rho, phi])


def se3_distance(a: RigidTransform, b: RigidTransform) -> float:
    return float(np.linalg.norm(se3_log(a.compose(b.inverse()))))


def msee_mrr(errors: np.ndarray, noises: np.ndarray) -> tuple[float, float]:
    errors = np.asarray(errors, dtype=np.float64)
    noises = np.asarray(noises, dtype=np.float64)
    if errors.shape != noises.shape or errors.size == 0:
        raise ValueError("errors and noises must be same-length non-empty arrays")
    if np.any(noises <= 0):
        raise ZeroNoise("every miscalibration noise must be positive")
    msee = float(np.mean(errors))
    mrr = float(np.mean((noises - errors) / noises))
    return msee, mrr
