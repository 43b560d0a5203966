"""Reusable learned blocks: conv block, shared per-element MLP, FC layer.

Normalization is "feature-norm": statistics over the element axis (points,
or spatial positions for images), so batch size 1 works. Train mode uses the
input's own statistics and updates momentum-0.1 running averages. Eval mode
uses those averages, a fixed per-channel map, which `layer` folds into the
weights of the layer before it (Jacob et al., 2018). Leaky-ReLU slope is 0.1.

Every learned layer is `x @ W + b` on each element's features, or on its
im2col columns for a 3x3 conv (Chellapilla et al., 2006), with or without a
feature-norm, the norm's affine and the leaky ReLU after it. `layer` builds
each one, a Linear, a SharedMlp layer or a ConvBlock's conv, in either mode,
as one autodiff node with a closed-form backward whose parents are its input
and its Parameters (leaf Tensors). A train norm keeps its input and its (C,)
statistics, and its backward recomputes the normalised input with the
forward's operations. A normed node reads the leaky ReLU's slope from its
own output, whose sign is the pre-activation's, so a graph holds one buffer
per normed layer.

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


def layer(x: Tensor, w: Tensor, b: Tensor, norm: FeatureNorm | None = None,
          train: bool = False, im2col=None) -> Tensor:
    """One learned layer as one node: `cols @ W + b`, then, with a `norm`,
    the feature-norm, its affine and the leaky ReLU.

    `cols` is x's data, or for a conv x's im2col columns: `im2col` is then
    the pair (columns, cols_to_x) from `autodiff.conv2d_3x3`. `columns()`
    builds the columns afresh on each call, so the backward builds them
    again and the graph holds no copy; `cols_to_x` maps their gradient to
    x's. W is viewed as (cols width, C). Train mode runs `norm.standardize` and
    `norm.backprop`. Eval mode folds the norm into the weights, from the
    current values: leaky(cols @ (W * a) + ((b - running_mean) * a + beta)),
    with a = gamma / sqrt(running_var + NORM_EPS). The backward reaches x, W,
    b, gamma and beta."""
    C = b.shape[0]
    wf, bias = w.data.reshape(-1, C), b.data  # what the columns meet
    fold = norm is not None and not train
    if fold:
        std = np.sqrt(norm.running_var + NORM_EPS)
        a = norm.gamma.data / std
        shift = b.data - norm.running_mean
        wf, bias = wf * a, shift * a + norm.beta.data
    out = (x.data if im2col is None else im2col[0]()) @ wf
    out += bias
    if fold:
        saved = (_leaky(out), a, shift, std)
    elif norm is not None:
        flat = out.reshape(-1, C)
        out, mu, std = norm.standardize(flat)
        saved = (flat, mu, std, out)  # norm.backprop's arguments

    def backward(g):
        # the arrays the node keeps are in `saved`, one closure cell; W is read again
        nonlocal saved
        gz = g.reshape(-1, g.shape[-1])
        wf = w.data.reshape(-1, gz.shape[1])
        if fold:
            out, a, shift, std = saved
            gz = _leaky_grad(out.reshape(gz.shape), gz)
        elif norm is not None:
            gz = norm.backprop(*saved, gz, True)
            saved = None  # drops the pre-activation: the columns come next
        gc = np.ones(gz.shape[0]) @ gz  # the added bias's gradient, and beta's
        if w.requires_grad or fold and norm.gamma.requires_grad:
            cols = x.data if im2col is None else im2col[0]()
            gw = cols.reshape(-1, wf.shape[0]).T @ gz
            if w.requires_grad:
                gw_w = gw * a if fold else gw
                # only a conv's W, (3, 3, Cin, C), needs the reshape: a view kept
                # as .grad is one more object per Parameter until the step
                w._accum(gw_w if gw_w.shape == w.shape else gw_w.reshape(w.shape))
            if fold and norm.gamma.requires_grad:  # through a, in W * a and in the shift
                norm.gamma._accum((np.ones(wf.shape[0]) @ (wf * gw) + shift * gc) / std)
        if b.requires_grad:
            b._accum(gc * a if fold else gc)
        if fold and norm.beta.requires_grad:
            norm.beta._accum(gc)
        if x.requires_grad:
            gcols = gz @ (wf * a if fold else wf).T
            x._accum(gcols.reshape(x.shape) if im2col is None else im2col[1](gcols))

    y = out if out.ndim == x.data.ndim else out.reshape(x.shape[:-1] + (C,))  # (n, C) rows
    parents = (x, w, b) if norm is None else (x, w, b, norm.gamma, norm.beta)
    return Tensor._make(y, parents, backward)


class Linear(Module):
    def __init__(self, name, in_dim, out_dim, rng):
        self.in_dim = in_dim
        self.weight = Parameter(f"{name}.weight", kaiming_uniform(rng, (in_dim, out_dim), in_dim))
        self.bias = Parameter(f"{name}.bias", np.zeros(out_dim))

    def __call__(self, x: Tensor, norm: FeatureNorm | None = None, train: bool = False) -> Tensor:
        """x @ W + b over the last axis, then `norm` if given (see `layer`)."""
        if x.shape[-1] != self.in_dim:
            raise ShapeMismatch(x.shape, (self.in_dim,), "linear input")
        return layer(x, self.weight, self.bias, norm, train)


class FeatureNorm(Module):
    """Normalize each channel over all element axes (everything but the last),
    then scale, shift and apply the leaky ReLU. In train mode by the input's
    own statistics, which also update the running averages; eval mode uses
    those, folded into the layer before (`layer`)."""

    def __init__(self, name, dim):
        self.name = name
        self.gamma = Parameter(f"{name}.gamma", np.ones(dim))
        self.beta = Parameter(f"{name}.beta", np.zeros(dim))
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def named_buffers(self):
        return [(f"{self.name}.running_mean", self, "running_mean"),
                (f"{self.name}.running_var", self, "running_var")]

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
            x = lin(x, self.norms[i] if i < len(self.norms) else None, train)
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
        y = ad.conv2d_3x3(x, self.weight,
                          lambda im2col: layer(x, self.weight, self.bias, self.norm, train, im2col))
        return ad.maxpool2d(y, self.stride)
