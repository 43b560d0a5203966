"""Block-level checks: shapes, equivariance, norm semantics, gradients."""

import numpy as np
import pytest

import im2pc.nn_blocks as nn
from im2pc.autodiff import Tensor, _unbroadcast, as_tensor
from im2pc.errors import ShapeMismatch
from util import finite_diff, rel_err


class TestLinear:
    def test_shape_and_affine(self):
        lin = nn.Linear("l", 3, 5, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(7, 3)))
        y = lin(x)
        assert y.shape == (7, 5)
        np.testing.assert_allclose(y.data, x.data @ lin.weight.data + lin.bias.data)

    def test_rejects_wrong_width(self):
        lin = nn.Linear("l", 3, 5, np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            lin(Tensor(np.zeros((4, 2))))

    def test_gradient(self):
        rng = np.random.default_rng(2)
        lin = nn.Linear("l", 4, 3, rng)
        x = rng.normal(size=(6, 4))

        def loss_of_w(w):
            return float((x @ w + lin.bias.data).sum() ** 2)

        t = Tensor(x, requires_grad=True)
        out = lin(t)
        s = out.sum()
        loss = s * s
        loss.backward()
        num = finite_diff(lambda: float((x @ lin.weight.data + lin.bias.data).sum() ** 2), x)
        assert rel_err(t.grad, num) < 1e-6
        w = lin.weight.data
        num_w = finite_diff(lambda: loss_of_w(w), w)
        assert rel_err(lin.weight.grad, num_w) < 1e-6


def undo_leaky(y):
    """Pre-activation values of a leaky-ReLU output."""
    return np.where(y > 0, y, y / nn.LEAKY_SLOPE)


class TestFeatureNorm:
    def test_train_mode_standardizes(self):
        norm = nn.FeatureNorm("n", 4)
        x = Tensor(np.random.default_rng(3).normal(size=(50, 4)) * 3 + 1)
        y = undo_leaky(norm(x, train=True).data)
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.std(axis=0), 1.0, atol=1e-2)

    def test_eval_uses_running_stats(self):
        norm = nn.FeatureNorm("n", 2)
        rng = np.random.default_rng(4)
        for _ in range(200):
            norm(Tensor(rng.normal(size=(30, 2)) * 2 + 5), train=True)
        y = norm(Tensor(np.array([[5.0, 5.0]])), train=False)
        # input equals the long-run mean, so the normalized value is near 0
        assert np.all(np.abs(y.data) < 0.2)

    def test_output_sign_is_the_pre_activation_sign(self):
        # the backward reads the slope mask from max(z, z * slope) > 0; it must
        # equal z > 0 for every float, where slope * z rounds to zero included
        z = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320,
                      np.inf, -np.inf, np.nan, 1.0, -1.0])
        out = np.maximum(z, z * nn.LEAKY_SLOPE)
        np.testing.assert_array_equal(out > 0, z > 0)

    def test_eval_is_elementwise(self):
        norm = nn.FeatureNorm("n", 3)
        a = np.random.default_rng(5).normal(size=(6, 3))
        full = norm(Tensor(a), train=False).data
        rows = np.stack([norm(Tensor(a[i:i + 1]), train=False).data[0] for i in range(6)])
        np.testing.assert_array_equal(full, rows)


# -- the fused layers against the same maths built from Tensor primitives -----

def matmul(a, b):
    """a @ b as one graph node. The package has no matmul op: its layers
    multiply inside their own fused nodes, so the oracle brings its own."""
    if a.data.ndim == 1:  # vector @ matrix
        return matmul(a.reshape(1, -1), b).reshape(-1)

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return Tensor._make(a.data @ b.data, (a, b), backward)


def divide(a, b):
    """a / b with broadcasting, as one graph node; like matmul, the package
    has no such op."""
    b = as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g * a.data / b.data**2, b.shape))

    return Tensor._make(a.data / b.data, (a, b), backward)


def sqrt(a):
    """Elementwise square root as one graph node; the package has none either."""
    out = np.sqrt(a.data)

    def backward(g):
        a._accum(g * 0.5 / out)

    return Tensor._make(out, (a,), backward)


def composed_linear(lin, x):
    return matmul(x, lin.weight) + lin.bias


def composed_norm_act(norm, x, train):
    """Feature-norm, affine and leaky ReLU built from Tensor primitives."""
    if train:
        flat = x.reshape(-1, x.shape[-1])
        n = flat.shape[0]
        ones = Tensor(np.ones(n))  # channel means as the same BLAS products
        mu = divide(matmul(ones, flat), float(n))
        centered = flat + mu * -1.0   # flat - mu, bitwise
        var = divide(matmul(ones, centered * centered), float(n))
        norm.running_mean = (
            (1 - nn.NORM_MOMENTUM) * norm.running_mean + nn.NORM_MOMENTUM * mu.data
        )
        norm.running_var = (1 - nn.NORM_MOMENTUM) * norm.running_var + nn.NORM_MOMENTUM * var.data
        xn = divide(centered, sqrt(var + nn.NORM_EPS))
        xn = xn.reshape(*x.shape)
    else:
        xn = divide(x + Tensor(-norm.running_mean),
                    Tensor(np.sqrt(norm.running_var + nn.NORM_EPS)))
    y = xn * norm.gamma + norm.beta
    return y * Tensor(np.where(y.data > 0, 1.0, nn.LEAKY_SLOPE))


def make_layer(seed, cin=5, cout=4):
    """A Linear + FeatureNorm pair with non-trivial parameters and buffers."""
    rng = np.random.default_rng(seed)
    lin = nn.Linear("l", cin, cout, rng)
    lin.bias.data[...] = rng.normal(size=cout)
    norm = nn.FeatureNorm("n", cout)
    norm.gamma.data[...] = rng.normal(size=cout)
    norm.beta.data[...] = rng.normal(size=cout)
    # channel 0 outputs exact zeros, where the leaky ReLU's slope applies
    norm.gamma.data[0] = norm.beta.data[0] = 0.0
    norm.running_mean = rng.normal(size=cout)
    norm.running_var = rng.uniform(0.5, 2.0, size=cout)
    return lin, norm


def run_layer(layer_fn, lin, norm, x, weights, train):
    """Forward and backward of one layer; returns output and every gradient."""
    for p in lin.named_parameters() + norm.named_parameters():
        p.grad = None
    t = Tensor(x, requires_grad=True)
    out = layer_fn(lin, norm, t, train)
    (out * Tensor(weights)).sum().backward()
    grads = [t.grad, lin.weight.grad, lin.bias.grad, norm.gamma.grad, norm.beta.grad]
    return out.data, grads, (norm.running_mean.copy(), norm.running_var.copy())


def fused(lin, norm, t, train):
    return norm(lin(t), train)


def composed(lin, norm, t, train):
    return composed_norm_act(norm, composed_linear(lin, t), train)


SHAPES = [(37, 5), (9, 6, 5), (4, 3, 2, 5)]


class TestFusedLayers:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("train", [True, False])
    def test_matches_composed_ops(self, shape, train):
        rng = np.random.default_rng(20)
        x = rng.normal(size=shape) * 2 + 0.5
        weights = rng.normal(size=shape[:-1] + (4,))
        out_f, grads_f, bufs_f = run_layer(fused, *make_layer(21), x, weights, train)
        out_c, grads_c, bufs_c = run_layer(composed, *make_layer(21), x, weights, train)
        np.testing.assert_array_equal(out_f, out_c)
        for a, b in zip(bufs_f, bufs_c):
            np.testing.assert_array_equal(a, b)
        assert (out_f < 0).any() and (out_f > 0).any()  # both ReLU branches
        for name, a, b in zip(("x", "W", "b", "gamma", "beta"), grads_f, grads_c):
            assert a.shape == b.shape, name
            # the bias before a train-mode norm has an exactly-zero gradient:
            # compare it with the scale of the input gradient instead
            scale = np.abs(grads_c[0]).max() if (train and name == "b") else np.abs(b).max()
            assert np.abs(a - b).max() <= 1e-10 * scale, name

    def test_linear_matches_composed_on_vectors(self):
        rng = np.random.default_rng(22)
        lin = nn.Linear("l", 6, 3, rng)
        x = rng.normal(size=6)
        ref = composed_linear(lin, Tensor(x))
        np.testing.assert_array_equal(lin(Tensor(x)).data, ref.data)
        t = Tensor(x, requires_grad=True)
        (lin(t) * Tensor([1.0, -2.0, 0.5])).sum().backward()
        gx, gw = t.grad, lin.weight.grad.copy()
        lin.weight.grad = None
        t = Tensor(x, requires_grad=True)
        (composed_linear(lin, t) * Tensor([1.0, -2.0, 0.5])).sum().backward()
        assert rel_err(gx, t.grad) < 1e-12
        assert rel_err(gw, lin.weight.grad) < 1e-12

    @pytest.mark.parametrize("shape", [(8, 3), (3, 4, 3)])
    def test_train_mode_finite_differences(self, shape):
        rng = np.random.default_rng(23)
        mlp = nn.SharedMlp("m", 3, (4, 3, 2), rng, final_linear=True)
        for norm in mlp.norms:
            norm.gamma.data[...] = rng.normal(size=norm.gamma.shape)
            norm.beta.data[...] = rng.normal(size=norm.beta.shape)
        x = rng.normal(size=shape)
        weights = rng.normal(size=shape[:-1] + (2,))

        def loss():  # train-mode output does not depend on the running buffers
            return float((mlp(Tensor(x), train=True).data * weights).sum())

        t = Tensor(x, requires_grad=True)
        (mlp(t, train=True) * Tensor(weights)).sum().backward()
        assert rel_err(t.grad, finite_diff(loss, x)) < 1e-6
        for p in mlp.named_parameters():
            if p.name in ("m.lin0.bias", "m.lin1.bias"):
                continue  # exactly zero: the norm cancels any shift
            assert rel_err(p.grad, finite_diff(loss, p.data)) < 1e-6, p.name

    def test_desk_train_forward_node_count(self, monkeypatch):
        from im2pc.config import desk_config
        from im2pc.data import SceneConfig, synth_scene
        from im2pc.registration import RegistrationNet

        net = RegistrationNet(desk_config(), seed=0)
        scene = synth_scene(0, SceneConfig(n_points=512))
        assert scene.cloud.count == 512
        calls = []
        make = Tensor._make

        def counted(*args):
            calls.append(1)
            return make(*args)

        monkeypatch.setattr(Tensor, "_make", staticmethod(counted))
        net(scene.cloud, scene.image, scene.K, train=True, rng=np.random.default_rng(0))
        # one node per layer; the same maths from Tensor primitives takes ~1,000
        assert 0 < len(calls) <= 450


class TestSharedMlp:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        mlp = nn.SharedMlp("m", 5, (8, 6), rng)
        x = rng.normal(size=(9, 5))
        perm = rng.permutation(9)
        y = mlp(Tensor(x), train=False).data
        yp = mlp(Tensor(x[perm]), train=False).data
        np.testing.assert_allclose(yp, y[perm], atol=1e-12)

    def test_final_linear_skips_activation(self):
        rng = np.random.default_rng(7)
        mlp = nn.SharedMlp("m", 3, (4,), rng, final_linear=True)
        x = rng.normal(size=(5, 3))
        out = mlp(Tensor(x), train=True).data
        np.testing.assert_allclose(out, x @ mlp.layers[0].weight.data
                                   + mlp.layers[0].bias.data)
        # negative outputs survive, proving no ReLU on the head
        assert (out < 0).any()

    def test_out_dim(self):
        mlp = nn.SharedMlp("m", 3, (4, 7), np.random.default_rng(8))
        assert mlp(Tensor(np.zeros((2, 3))), train=False).shape == (2, 7)


class TestConvBlock:
    def test_output_shape(self):
        rng = np.random.default_rng(9)
        blk = nn.ConvBlock("c", 3, 8, (2, 2), rng)
        y = blk(Tensor(rng.normal(size=(8, 12, 3))), train=False)
        assert y.shape == (4, 6, 8)

    def test_gradient_through_block(self):
        rng = np.random.default_rng(10)
        blk = nn.ConvBlock("c", 2, 3, (2, 2), rng)
        x = rng.normal(size=(4, 4, 2))

        t = Tensor(x, requires_grad=True)
        blk(t, train=False).sum().backward()
        num = finite_diff(lambda: float(blk(Tensor(x), train=False).data.sum()), x)
        assert rel_err(t.grad, num) < 1e-5


class TestInit:
    def test_kaiming_bound(self):
        r = nn.kaiming_uniform(np.random.default_rng(11), (1000,), fan_in=10)
        bound = np.sqrt(2.0 / 1.01) * np.sqrt(3.0 / 10)
        assert np.abs(r).max() <= bound
        assert np.abs(r).max() > 0.8 * bound
