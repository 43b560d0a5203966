"""Minimal dense tensor with reverse-mode differentiation.

float64 throughout (gradient-check fidelity beats speed at this scale).
A graph may be traversed exactly once: backward() frees the tape and a
second call raises GraphConsumed.

backward() frees each node, with its closure and gradient, once its own
backward has run; afterwards only leaves, such as parameters, keep a `.grad`.

Inside `recording(False)` ops return plain tensors with no parents, so no
activation outlives its consumer. `replay` builds on that: it runs a function
without a graph, and only a backward through its outputs runs the function
again with recording on (the recompute trade of Chen et al., 2016, "Training
Deep Nets with Sublinear Memory Cost", applied to a whole forward).

The generic ops live here: broadcasting + and *, reshape, broadcast_to, sum,
max, softmax, gather, concat, conv, pool, dropout. A fixed formula with a
closed-form backward is one node where it is used: registration's pose ops,
cost_volume.standardize and lst_offsets, nn_blocks' normed layers, and
training.single_loss.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np

from .errors import GraphConsumed, NotScalar, ShapeMismatch

DTYPE = np.float64


class _Recording(threading.local):
    on = True  # read by Tensor._make; set only through recording()


_RECORDING = _Recording()


@contextmanager
def recording(on: bool):
    """Ops inside the block record a graph (on) or return plain tensors with
    no parents (off); the previous setting returns on exit, also on errors.
    The setting is per thread."""
    previous, _RECORDING.on = _RECORDING.on, bool(on)
    try:
        yield
    finally:
        _RECORDING.on = previous


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_spent")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self._spent = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _make(data, parents, backward):
        out = Tensor(data)
        if _RECORDING.on:
            for p in parents:
                if p.requires_grad:
                    out.requires_grad = True
                    out._parents = tuple(parents)
                    out._backward = backward
                    break
        return out

    def _accum(self, grad):
        if self.grad is None:
            # kept as handed over: a backward hands each parent an array no
            # other parent holds (__add__ copies where it would not), and a
            # node's own gradient is never read again once its backward ran:
            # backward() then drops it
            self.grad = grad if type(grad) is np.ndarray else np.array(grad, dtype=DTYPE)
        else:
            self.grad += grad

    # -- elementwise --------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.shape))
            if other.requires_grad:
                go = _unbroadcast(g, other.shape)
                # self may now hold this very array as its gradient
                other._accum(go.copy() if go is self.grad else go)

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    # -- shape --------------------------------------------------------------

    def reshape(self, *shape):
        old = self.shape

        def backward(g):
            self._accum(g.reshape(old))

        return Tensor._make(self.data.reshape(*shape), (self,), backward)

    def broadcast_to(self, shape):
        old = self.shape

        def backward(g):
            self._accum(_unbroadcast(g, old))

        return Tensor._make(np.broadcast_to(self.data, shape), (self,), backward)

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        def backward(g):
            if axis is None:
                self._accum(np.broadcast_to(g, self.shape).copy())
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                self._accum(np.broadcast_to(gg, self.shape).copy())

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def max(self, axis):
        """Reduce-max along `axis`; ties route gradient to the lowest index.
        The backward finds that index, so a forward never pays for it."""
        def backward(g):
            idx = np.expand_dims(np.argmax(self.data, axis=axis), axis)  # first maximum
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            gexp = np.zeros_like(self.data)
            np.put_along_axis(gexp, idx, np.expand_dims(g, axis), axis)
            self.grad += gexp

        return Tensor._make(self.data.max(axis=axis), (self,), backward)

    def softmax(self, axis):
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out_data = e / e.sum(axis=axis, keepdims=True)

        def backward(g):
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            self._accum(out_data * (g - dot))

        return Tensor._make(out_data, (self,), backward)

    # -- gather / scatter ---------------------------------------------------

    def gather(self, indices):
        """Take rows along axis 0; indices may be any non-negative
        integer-array shape."""
        indices = np.asarray(indices)

        def backward(g):
            self._accum(scatter_rows(indices, g, self.shape[0]))

        return Tensor._make(self.data[indices], (self,), backward)

    # -- backward -----------------------------------------------------------

    def backward(self):
        if self.size != 1:
            raise NotScalar(f"backward needs a scalar, got shape {self.shape}")
        if self._spent:
            raise GraphConsumed("this graph was already traversed")
        self.grad = np.ones_like(self.data)
        _backprop([self])


def _backprop(roots, inputs=()):
    """Run the backward of every node that `roots` (their .grad set) depend
    on, children before parents, freeing each node once its backward ran.
    The walk stops at `inputs`: they gather gradient, but neither their
    backward runs nor are they freed."""
    topo, visited = [], {id(t) for t in inputs}
    stack = [(r, False) for r in roots]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    while topo:  # popped, so a node is freed as soon as its backward ran
        node = topo.pop()
        if node._backward is not None:
            node._backward(node.grad if node.grad is not None else np.zeros_like(node.data))
            node.grad = None
        node._spent = True
        node._parents = ()
        node._backward = None


def replay(fn, inputs) -> list:
    """fn()'s output tensors, computed with no graph and returned as children
    of one node whose parents are those of `inputs` that require grad.

    The node holds no activation. Its backward runs fn() again with recording
    on, so fn must read nothing but `inputs` and state that stays as it was:
    outputs that are not bitwise the returned ones raise GraphConsumed, since
    a parameter or buffer changed after the forward. Then it sends the
    outputs' gradients down the recomputed graph into `inputs`."""
    with recording(False):
        outs = fn()
    inputs = tuple(t for t in inputs if t.requires_grad)
    grads = [None] * len(outs)

    def backward(_):
        with recording(True):
            again = fn()
        if any(a.shape != o.shape or a.data.tobytes() != o.data.tobytes()
               for a, o in zip(again, outs)):
            raise GraphConsumed("the replayed forward differs from the recorded one: "
                                "a parameter or buffer changed after the forward")
        roots = []
        for a, g in zip(again, grads):
            if g is not None:
                a._accum(g)
                roots.append(a)
        _backprop(roots, inputs)

    node = Tensor._make(np.zeros(()), inputs, backward)

    def stash(i):
        def backward(g):
            grads[i] = g
        return backward

    return [Tensor._make(o.data, (node,), stash(i)) for i, o in enumerate(outs)]


def scatter_rows(indices: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """Rows of `g` summed into an (n, ...) array at non-negative `indices`
    along axis 0: np.add.at on zeros, in the same order, so bitwise equal,
    but as one bincount over flattened (row, trailing element) bins."""
    rest = g.shape[indices.ndim:]
    r = math.prod(rest)
    bins = (indices[..., None] * r + np.arange(r)).ravel()
    return np.bincount(bins, weights=g.ravel(), minlength=n * r).reshape((n,) + rest)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accum(piece)

    return Tensor._make(out_data, tuple(tensors), backward)


def _im2col(xp: np.ndarray, H: int, W: int) -> np.ndarray:
    """Row (h, w) holds the 3x3 window around (h, w) of the zero-padded
    (H + 2, W + 2, Cin) input as (i, j, Cin): one copy of a strided view."""
    windows = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(0, 1))
    return windows.transpose(0, 1, 3, 4, 2).reshape(H * W, -1)


def conv2d_3x3(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """3x3 'same' convolution on an (H, W, Cin) tensor; w is (3, 3, Cin, Cout)."""
    H, W, Cin = x.shape
    if w.shape[:3] != (3, 3, Cin):
        raise ShapeMismatch(w.shape, (3, 3, Cin, -1), "conv weight")
    Cout = w.shape[3]
    xp = np.zeros((H + 2, W + 2, Cin), dtype=DTYPE)
    xp[1 : 1 + H, 1 : 1 + W] = x.data
    out_data = (_im2col(xp, H, W) @ w.data.reshape(9 * Cin, Cout)).reshape(H, W, Cout)
    out_data += b.data

    def backward(g):
        gm = g.reshape(H * W, Cout)
        if w.requires_grad:
            # the columns again, from xp (1/9 their size); the graph keeps no
            # strided view, whose base chain holds a gc-tracked numpy object
            w._accum((_im2col(xp, H, W).T @ gm).reshape(3, 3, Cin, Cout))
        if b.requires_grad:
            b._accum(np.ones(H * W) @ gm)
        if x.requires_grad:
            gcols = gm @ w.data.reshape(9 * Cin, Cout).T
            # (i, j, H, W, Cin): each tap's gradient one contiguous block
            gtaps = gcols.reshape(H, W, 3, 3, Cin).transpose(2, 3, 0, 1, 4).copy()
            gxp = np.zeros((H + 2, W + 2, Cin), dtype=DTYPE)
            for i in range(3):
                for j in range(3):
                    gxp[i : i + H, j : j + W, :] += gtaps[i, j]
            x._accum(gxp[1 : 1 + H, 1 : 1 + W, :])

    return Tensor._make(out_data, (x, w, b), backward)


def maxpool2d(x: Tensor, stride: tuple) -> Tensor:
    """Non-overlapping max pool with kernel == stride on (H, W, C)."""
    sh, sw = stride
    if sh == 1 and sw == 1:
        return x
    H, W, C = x.shape
    if H % sh or W % sw:
        raise ShapeMismatch((H, W), (sh, sw), "pool stride must divide spatial dims")
    Ho, Wo = H // sh, W // sw
    # a running maximum over the window taps: bitwise the 5-D view's
    # max(axis=(1, 3)), NaN and signed zeros included, but several times faster
    blocks = x.data.reshape(Ho, sh, Wo, sw, C)
    taps = [blocks[:, i, :, j] for i in range(sh) for j in range(sw)]
    out_data = np.maximum(taps[0], taps[1])
    for tap in taps[2:]:
        np.maximum(out_data, tap, out=out_data)

    def backward(g):
        # each window's first maximum in row-major order takes the gradient
        blocks = x.data.reshape(Ho, sh, Wo, sw, C).transpose(0, 2, 1, 3, 4).reshape(
            Ho, Wo, sh * sw, C)
        idx = np.argmax(blocks, axis=2)
        gb = np.zeros_like(blocks)
        np.put_along_axis(gb, idx[:, :, None, :], g[:, :, None, :], axis=2)
        gx = gb.reshape(Ho, Wo, sh, sw, C).transpose(0, 2, 1, 3, 4).reshape(H, W, C)
        x._accum(gx)

    return Tensor._make(out_data, (x,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-p) at train time."""
    mask = (rng.random(x.shape) >= p) / (1.0 - p)

    def backward(g):
        x._accum(g * mask)

    return Tensor._make(x.data * mask, (x,), backward)
