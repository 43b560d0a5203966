"""Reusable learned blocks: conv block, shared per-element MLP, FC layer.

Normalization is "feature-norm": statistics over the element axis (points,
or spatial positions for images), so batch size 1 works. Train mode uses the
input's own statistics and updates momentum-0.1 running averages. Eval mode
uses those averages, a fixed per-channel map, which `_folded` folds into the
weights of the layer before it (Jacob et al., 2018). Leaky-ReLU slope is 0.1.

A layer's Parameters are leaf Tensors. Each layer is one autodiff node with
a closed-form backward, whose parents are its input and its Parameters:
Linear; a SharedMlp layer with its feature-norm, the norm's affine and the
leaky ReLU that always follows, in either mode; an eval ConvBlock's conv with
its norm (in train mode, a conv node and a norm node). A train norm keeps its
input and its (C,) statistics, and its backward recomputes the normalised
input with the forward's operations. A normed node reads the leaky ReLU's
slope from its own output, whose sign is the pre-activation's, so a graph
holds one buffer per normed layer.

On narrow (n, C) arrays numpy's axis-0 reductions and large temporaries cost
more than the arithmetic, so channel sums are `ones @ x` BLAS products (train
mean and variance, the gamma/beta and bias gradients), the train backward
reuses the gamma/beta sums, and in-place steps keep temporaries few. The eval
fold rounds within ~1e-13 of the unfolded norm; train-mode sums round as BLAS.
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


def _leaky(z: np.ndarray) -> np.ndarray:
    """The leaky ReLU in z's own buffer, bitwise z * where(z > 0, 1, LEAKY_SLOPE)."""
    return np.maximum(z, z * LEAKY_SLOPE, out=z)


def _leaky_grad(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g times the leaky ReLU's slope, read from the output's sign."""
    # max(z, z * LEAKY_SLOPE) > 0 exactly where z > 0, for every float
    gz = (out > 0) * (1 - LEAKY_SLOPE)
    gz += LEAKY_SLOPE                  # the slope, exactly 1.0 or LEAKY_SLOPE
    gz *= g
    return gz


class Linear(Module):
    def __init__(self, name, in_dim, out_dim, rng):
        self.in_dim = in_dim
        self.weight = Parameter(f"{name}.weight", kaiming_uniform(rng, (in_dim, out_dim), in_dim))
        self.bias = Parameter(f"{name}.bias", np.zeros(out_dim))

    def _check(self, x: Tensor):
        if x.shape[-1] != self.in_dim:
            raise ShapeMismatch(x.shape, (self.in_dim,), "linear input")

    def __call__(self, x: Tensor) -> Tensor:
        self._check(x)
        w, b = self.weight, self.bias
        out = x.data @ w.data
        out += b.data

        def backward(g):
            self._backprop(x, g.reshape(-1, g.shape[-1]))

        return Tensor._make(out, (x, w, b), backward)

    def _backprop(self, x: Tensor, gf: np.ndarray):
        """Accumulate W's, b's and x's gradients from the output's, as one
        2-D (n, out_dim) product over every leading axis at once."""
        w, b = self.weight, self.bias
        if w.requires_grad:
            w._accum(x.data.reshape(-1, self.in_dim).T @ gf)
        if b.requires_grad:
            b._accum(np.ones(gf.shape[0]) @ gf)
        if x.requires_grad:
            x._accum((gf @ w.data.T).reshape(x.shape))

    def normed(self, x: Tensor, norm: FeatureNorm, train: bool) -> Tensor:
        """This layer, then `norm`, as one node: in train mode the two
        layers' own arithmetic in turn, in eval mode the folded layer."""
        self._check(x)
        if not train:
            return _folded(x, x.data, self.weight, self.bias, norm,
                           lambda gcols: gcols.reshape(x.shape))
        w, b = self.weight, self.bias
        h = x.data @ w.data
        h += b.data
        flat = h.reshape(-1, h.shape[-1])
        out, mu, std = norm.standardize(flat)

        def backward(g):
            to_h = x.requires_grad or w.requires_grad or b.requires_grad
            gh = norm.backprop(flat, mu, std, out, g.reshape(out.shape), to_h)
            if to_h:
                self._backprop(x, gh)

        return Tensor._make(out.reshape(h.shape), (x, w, b, norm.gamma, norm.beta), backward)


class FeatureNorm(Module):
    """Normalize each channel over all element axes (everything but the last),
    then scale, shift and apply the leaky ReLU. In train mode by the input's
    own statistics, which also update the running averages; eval mode uses
    those, and folds them into the layer before (`_folded`)."""

    def __init__(self, name, dim):
        self.name = name
        self.gamma = Parameter(f"{name}.gamma", np.ones(dim))
        self.beta = Parameter(f"{name}.beta", np.zeros(dim))
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def named_buffers(self):
        return [(f"{self.name}.running_mean", self, "running_mean"),
                (f"{self.name}.running_var", self, "running_var")]

    def __call__(self, x: Tensor) -> Tensor:
        """The train-mode norm as its own node."""
        flat = x.data.reshape(-1, x.shape[-1])
        out, mu, std = self.standardize(flat)

        def backward(g):
            gx = self.backprop(flat, mu, std, out, g.reshape(out.shape), x.requires_grad)
            if x.requires_grad:
                x._accum(gx.reshape(x.shape))

        return Tensor._make(out.reshape(x.shape), (x, self.gamma, self.beta), backward)

    def standardize(self, flat: np.ndarray):
        """The train-mode output on (n, C) pre-activations, with the mean and
        std it used; updates the running averages."""
        # in-place steps keep the large temporaries few
        n = float(flat.shape[0])
        ones = np.ones(flat.shape[0])  # channel sums as BLAS products
        mu = ones @ flat / n
        out = flat - mu                # z, then the output, in one buffer
        var = ones @ (out * out) / n
        self.running_mean = (1 - NORM_MOMENTUM) * self.running_mean + NORM_MOMENTUM * mu
        self.running_var = (1 - NORM_MOMENTUM) * self.running_var + NORM_MOMENTUM * var
        std = np.sqrt(var + NORM_EPS)
        out /= std
        out *= self.gamma.data
        out += self.beta.data          # z = (x - mu) / std * gamma + beta
        return _leaky(out), mu, std

    def backprop(self, flat, mu, std, out, g, to_input: bool):
        """Accumulate gamma's and beta's gradients from the (n, C) output
        gradient g; returns the input's gradient if `to_input`."""
        gamma, beta = self.gamma, self.beta
        xnf = flat - mu                # the forward's operations again
        xnf /= std
        gz = _leaky_grad(out, g)
        ones = np.ones(gz.shape[0])
        sum_gz = ones @ gz             # beta's gradient
        sum_gzx = ones @ (gz * xnf)    # gamma's gradient
        if gamma.requires_grad:
            gamma._accum(sum_gzx)
        if beta.requires_grad:
            beta._accum(sum_gz)
        if to_input:  # closed-form batch-norm backward through mu and var:
            n = float(gz.shape[0])
            gz -= sum_gz / n           # gz - sum_gz / n - xn * sum_gzx / n
            gz -= xnf * (sum_gzx / n)
            gz *= gamma.data / std
            return gz
        return None


def _folded(x: Tensor, cols: np.ndarray, w: Tensor, b: Tensor, norm: FeatureNorm,
            cols_to_x) -> Tensor:
    """An eval-mode layer and its norm as one node:
    leaky(cols @ (W * a) + ((b - running_mean) * a + beta)), where
    a = gamma / sqrt(running_var + NORM_EPS), folded from the current values
    on every call. `cols` is x's data, or its im2col columns for a conv, and W
    is viewed as (cols width, C); `cols_to_x` maps the columns' gradient to
    x's. The backward reaches x, W, b, gamma and beta."""
    gamma, beta = norm.gamma, norm.beta
    wm = w.data.reshape(-1, b.shape[0])
    std = np.sqrt(norm.running_var + NORM_EPS)
    a = gamma.data / std
    wa = wm * a
    shift = b.data - norm.running_mean
    out = cols @ wa
    out += shift * a + beta.data
    out = _leaky(out).reshape(x.shape[:-1] + b.shape)

    def backward(g):
        gz = _leaky_grad(out, g).reshape(-1, b.shape[0])
        gc = np.ones(gz.shape[0]) @ gz  # the shift's gradient, and beta's
        if w.requires_grad or gamma.requires_grad:
            gwa = cols.reshape(-1, wm.shape[0]).T @ gz
            if w.requires_grad:
                w._accum((gwa * a).reshape(w.shape))
            if gamma.requires_grad:  # through a, in wa and in the shift
                gamma._accum((np.ones(wm.shape[0]) @ (wm * gwa) + shift * gc) / std)
        if b.requires_grad:
            b._accum(gc * a)
        if x.requires_grad:
            x._accum(cols_to_x(gz @ wa.T))
        if beta.requires_grad:
            beta._accum(gc)

    return Tensor._make(out, (x, w, b, gamma, beta), backward)


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
            x = lin.normed(x, self.norms[i], train) if i < len(self.norms) else lin(x)
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
        w, b, norm = self.weight, self.bias, self.norm
        if train:
            y = norm(ad.conv2d_3x3(x, w, b))
        else:  # one node: the columns' product with the folded weights
            y = ad.conv2d_3x3(x, w, b, lambda cols, to_x: _folded(x, cols, w, b, norm, to_x))
        return ad.maxpool2d(y, self.stride)
