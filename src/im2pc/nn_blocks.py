"""Reusable learned blocks: conv block, shared per-element MLP, FC layer.

Normalization is "feature-norm": statistics over the element axis (points,
or spatial positions for images), so batch size 1 works. Running statistics
are tracked for eval mode. Leaky-ReLU slope is 0.1.

A layer's Parameters are leaf Tensors. Each layer is one autodiff node with
a closed-form backward, whose parents are its input and its Parameters:
Linear, and feature-norm fused with its affine and the leaky ReLU that
always follows it.
A node keeps only what its backward needs: a norm keeps its input and its
(C,) statistics, in either mode, and its backward recomputes the normalised
input with the forward's operations. It reads the leaky ReLU's slope from
its own output, whose sign is the pre-activation's, so a graph holds one
buffer per norm.

On narrow (n, C) arrays numpy's axis-0 reductions and large temporaries cost
more than the arithmetic, so channel sums are `ones @ x` BLAS products (train
mean and variance, the gamma/beta and bias gradients), the train backward
reuses the gamma/beta sums, and in-place steps keep temporaries few. Eval
outputs round as the plain expressions do; train-mode sums round as BLAS.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeMismatch
from .params import Module, Parameter

LEAKY_SLOPE = 0.1
NORM_EPS = 1e-5
NORM_MOMENTUM = 0.1


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    # fan-in scaling with the leaky-ReLU gain
    gain = np.sqrt(2.0 / (1.0 + LEAKY_SLOPE**2))
    bound = gain * np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Linear(Module):
    def __init__(self, name, in_dim, out_dim, rng):
        self.in_dim = in_dim
        self.weight = Parameter(f"{name}.weight", kaiming_uniform(rng, (in_dim, out_dim), in_dim))
        self.bias = Parameter(f"{name}.bias", np.zeros(out_dim))

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_dim:
            raise ShapeMismatch(x.shape, (self.in_dim,), "linear input")
        w, b = self.weight, self.bias
        out = x.data @ w.data
        out += b.data

        def backward(g):
            # one 2-D product over every leading axis at once
            gf = g.reshape(-1, g.shape[-1])
            if w.requires_grad:
                w._accum(x.data.reshape(-1, self.in_dim).T @ gf)
            if b.requires_grad:
                b._accum(np.ones(gf.shape[0]) @ gf)
            if x.requires_grad:
                x._accum((gf @ w.data.T).reshape(x.shape))

        return Tensor._make(out, (x, w, b), backward)


class FeatureNorm(Module):
    """Normalize each channel over all element axes (everything but the last),
    then scale, shift and apply the leaky ReLU, as one graph node."""

    def __init__(self, name, dim):
        self.name = name
        self.gamma = Parameter(f"{name}.gamma", np.ones(dim))
        self.beta = Parameter(f"{name}.beta", np.zeros(dim))
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def named_buffers(self):
        return [(f"{self.name}.running_mean", self, "running_mean"),
                (f"{self.name}.running_var", self, "running_var")]

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        # in-place steps keep the large temporaries few; the rounding is that
        # of the plain expressions in the comments
        gamma, beta = self.gamma, self.beta
        flat = x.data.reshape(-1, x.shape[-1])
        if train:
            n = float(flat.shape[0])
            ones = np.ones(flat.shape[0])  # channel sums as BLAS products
            mu = ones @ flat / n
            xn = flat - mu
            var = ones @ (xn * xn) / n
            self.running_mean = (1 - NORM_MOMENTUM) * self.running_mean + NORM_MOMENTUM * mu
            self.running_var = (1 - NORM_MOMENTUM) * self.running_var + NORM_MOMENTUM * var
            std = np.sqrt(var + NORM_EPS)
            out = xn                       # z, then the output, in xn's buffer
        else:
            mu = self.running_mean
            std = np.sqrt(self.running_var + NORM_EPS)
            out = flat - mu
        out /= std
        out *= gamma.data
        out += beta.data                   # z = (x - mu) / std * gamma + beta
        np.maximum(out, out * LEAKY_SLOPE, out=out)  # bitwise z * where(z > 0, 1, LEAKY_SLOPE)
        out = out.reshape(x.shape)

        def backward(g):
            xnf = x.data.reshape(-1, g.shape[-1]) - mu  # the forward's operations again
            xnf /= std
            # max(z, z * LEAKY_SLOPE) > 0 exactly where z > 0, for every float
            gz = (out > 0) * (1 - LEAKY_SLOPE)
            gz += LEAKY_SLOPE              # the slope, exactly 1.0 or LEAKY_SLOPE
            gz *= g
            gz = gz.reshape(xnf.shape)
            ones = np.ones(gz.shape[0])
            sum_gz = ones @ gz            # beta's gradient
            sum_gzx = ones @ (gz * xnf)   # gamma's gradient
            if gamma.requires_grad:
                gamma._accum(sum_gzx)
            if beta.requires_grad:
                beta._accum(sum_gz)
            if x.requires_grad:
                if train:  # closed-form batch-norm backward through mu and var:
                    gz -= sum_gz / n      # gz - sum_gz / n - xn * sum_gzx / n
                    gz -= xnf * (sum_gzx / n)
                gz *= gamma.data / std
                x._accum(gz.reshape(x.shape))

        return Tensor._make(out, (x, gamma, beta), backward)


class SharedMlp(Module):
    """Stack of (linear -> feature-norm -> leaky ReLU) applied per element.

    With final_linear=True the last layer skips norm and activation (used
    for logit heads).
    """

    def __init__(self, name, in_dim, dims, rng, final_linear=False):
        self.layers = []
        self.norms = []
        d = in_dim
        for i, out in enumerate(dims):
            self.layers.append(Linear(f"{name}.lin{i}", d, out, rng))
            last = i == len(dims) - 1
            if not (final_linear and last):
                self.norms.append(FeatureNorm(f"{name}.norm{i}", out))
            d = out

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        for i, lin in enumerate(self.layers):
            x = lin(x)
            if i < len(self.norms):
                x = self.norms[i](x, train)
        return x


class ConvBlock(Module):
    """3x3 conv -> feature-norm -> leaky ReLU -> max-pool(stride)."""

    def __init__(self, name, in_ch, out_ch, stride, rng):
        self.stride = tuple(stride)
        self.weight = Parameter(
            f"{name}.weight", kaiming_uniform(rng, (3, 3, in_ch, out_ch), 9 * in_ch)
        )
        self.bias = Parameter(f"{name}.bias", np.zeros(out_ch))
        self.norm = FeatureNorm(f"{name}.norm", out_ch)

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        x = ad.conv2d_3x3(x, self.weight, self.bias)
        x = self.norm(x, train)
        return ad.maxpool2d(x, self.stride)
