"""End-to-end 2D-3D image-to-point-cloud registration at desk scale."""

from .geometry import (CameraIntrinsics, PoseQT, RigidTransform, SphericalConfig,
                       matrix_to_pose, msee_mrr, pose_apply, pose_compose,
                       pose_to_matrix, rre_rte, se3_distance)
from .sampling import GroupingSpec, PointCloud

__all__ = [
    "CameraIntrinsics", "PoseQT", "RigidTransform", "SphericalConfig",
    "matrix_to_pose", "msee_mrr", "pose_apply", "pose_compose", "pose_to_matrix",
    "rre_rte", "se3_distance", "GroupingSpec", "PointCloud",
]

__version__ = "0.1.0"
