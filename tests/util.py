"""Shared test helpers: finite-difference gradient checking, a plain conv."""

import numpy as np

import im2pc.autodiff as ad
import im2pc.nn_blocks as nn


def finite_diff(fn, x: np.ndarray, h=1e-5) -> np.ndarray:
    """Central-difference gradient of scalar fn at x, elementwise."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn()
        flat[i] = orig - h
        fm = fn()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def plain_conv(x, w, b):
    """The 3x3 conv of x by w, plus b, with no norm: the layer node on x's
    im2col columns."""
    return ad.conv2d_3x3(x, w, lambda im2col: nn.layer(x, w, b, im2col=im2col))


def random_rotation(rng) -> np.ndarray:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
