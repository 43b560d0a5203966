import threading

import numpy as np
import pytest

from im2pc import autodiff as ad
from im2pc.autodiff import Tensor
from im2pc.errors import GraphConsumed, NotScalar

from util import finite_diff, plain_conv, rel_err


def check_grad(build, arrays, tol=1e-6, h=1e-5):
    """build(tensors) -> scalar Tensor; compares backward to central FD."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build(*tensors)
    loss.backward()
    for t, a in zip(tensors, arrays):
        fd = finite_diff(lambda: float(build(*[Tensor(x) for x in arrays]).data), a, h=h)
        assert rel_err(t.grad, fd) < tol, f"gradient mismatch: {t.grad} vs {fd}"


class TestForward:
    def test_softmax_uniform(self):
        out = Tensor([0.0, 0.0, 0.0]).softmax(axis=0)
        assert np.allclose(out.data, 1.0 / 3.0)

    def test_softmax_normalizes(self):
        rng = np.random.default_rng(0)
        out = Tensor(rng.normal(size=(4, 7))).softmax(axis=1)
        assert np.abs(out.data.sum(axis=1) - 1.0).max() < 1e-12

    def test_reduce_max_ties_to_first(self):
        x = Tensor(np.array([[1.0, 3.0, 3.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        assert np.array_equal(x.grad, [[0.0, 1.0, 0.0]])
        # (M, k, C), as a set abstraction pools its groups: the gradient of
        # each (row, channel) goes to the lowest tied index along the group axis
        x = np.array([[[1.0, 7.0], [4.0, 7.0], [4.0, 7.0]],
                      [[2.0, -1.0], [1.0, 0.0], [2.0, 0.0]]])
        t = Tensor(x, requires_grad=True)
        out = t.max(axis=1)
        np.testing.assert_array_equal(out.data, [[4.0, 7.0], [2.0, 0.0]])
        (out * Tensor([[1.0, 2.0], [3.0, 4.0]])).sum().backward()
        expected = np.zeros_like(x)
        expected[0, 1, 0], expected[0, 0, 1] = 1.0, 2.0
        expected[1, 0, 0], expected[1, 1, 1] = 3.0, 4.0
        np.testing.assert_array_equal(t.grad, expected)

    def test_maxpool_ties_to_first_in_row_major_order(self):
        # (2, 4, 2) pooled by (2, 2): each window is tied somewhere
        x = np.zeros((2, 4, 2))
        x[:, :2, 0] = 1.0                         # all four equal: (0, 0)
        x[:, 2:, 0] = [[0.0, 2.0], [0.0, 2.0]]    # column tie: (0, 3)
        x[:, :2, 1] = [[0.0, 0.0], [3.0, 3.0]]    # row tie: (1, 0)
        x[:, 2:, 1] = [[5.0, 4.0], [5.0, 5.0]]    # three-way tie: (0, 2)
        t = Tensor(x, requires_grad=True)
        out = ad.maxpool2d(t, (2, 2))
        np.testing.assert_array_equal(out.data, [[[1.0, 3.0], [2.0, 5.0]]])
        (out * Tensor([[[1.0, 2.0], [3.0, 4.0]]])).sum().backward()
        expected = np.zeros_like(x)
        expected[0, 0, 0], expected[0, 3, 0] = 1.0, 3.0
        expected[1, 0, 1], expected[0, 2, 1] = 2.0, 4.0
        np.testing.assert_array_equal(t.grad, expected)

    @pytest.mark.parametrize("shape,stride", [((8, 12, 3), (2, 2)), ((8, 12, 3), (2, 4)),
                                              ((6, 6, 5), (3, 2)), ((4, 8, 2), (4, 4))])
    def test_maxpool_matches_window_max(self, shape, stride):
        # the running maximum over the taps is bitwise the 5-D view's max,
        # NaN, infinities, subnormals and signed zeros included
        rng = np.random.default_rng(24)
        special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0])
        (H, W, C), (sh, sw) = shape, stride
        for x in (rng.normal(size=shape), rng.choice(special, size=shape),
                  rng.choice(special[:2], size=shape)):
            want = x.reshape(H // sh, sh, W // sw, sw, C).max(axis=(1, 3))
            assert ad.maxpool2d(Tensor(x), stride).data.tobytes() == want.tobytes()

    def test_determinism(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 5))
        r1 = (Tensor(a).softmax(axis=1) * Tensor(a)).sum().data
        r2 = (Tensor(a).softmax(axis=1) * Tensor(a)).sum().data
        assert float(r1) == float(r2)


class TestBackwardBasics:
    def test_sum_grad_ones(self):
        p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        p.sum().backward()
        assert np.array_equal(p.grad, np.ones((2, 3)))

    def test_graph_consumed(self):
        p = Tensor([1.0], requires_grad=True)
        loss = (p * p).sum()
        loss.backward()
        with pytest.raises(GraphConsumed):
            loss.backward()

    def test_not_scalar(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(NotScalar):
            (p * p).backward()

    def test_grad_accumulates_over_reuse(self):
        p = Tensor([2.0], requires_grad=True)
        (p * p + p).sum().backward()
        assert np.allclose(p.grad, [5.0])


class TestGradChecks:
    def test_x_times_softmax(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=7)
        check_grad(lambda t: (t * t.softmax(axis=0)).sum(), [x])

    def test_product_concat_slice(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))

        def build(ta, tb):   # a matrix product as a broadcast product and a sum
            y = (ta.reshape(3, 4, 1) * tb.reshape(1, 4, 2)).sum(axis=1)
            z = ad.concat([y, y * 2.0], axis=1).gather(np.arange(1, 3))  # rows 1:
            return (z * z).sum()

        check_grad(build, [a, b])

    def test_gather_scatter(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 3))
        idx = np.array([[0, 2], [5, 2]])

        def build(t):  # the gather's backward scatters into rows 0, 2 and 5
            g = t.gather(idx)
            return (g * g).sum()

        check_grad(build, [x])

    @pytest.mark.parametrize("shape", [(7,), (7, 3), (7, 2, 4)])
    def test_gather_backward_matches_add_at(self, shape):
        rng = np.random.default_rng(8)
        x = rng.normal(size=shape)
        idx = rng.integers(0, 6, size=(5, 6))   # repeated rows; row 6 never taken
        # magnitudes far apart, so the order of the sums shows in the rounding
        size = idx.shape + shape[1:]
        g = rng.normal(size=size) * 10.0 ** rng.uniform(-6, 6, size=size)
        t = Tensor(x, requires_grad=True)
        (t.gather(idx) * Tensor(g)).sum().backward()
        ref = np.zeros_like(x)
        np.add.at(ref, idx, g)
        np.testing.assert_array_equal(t.grad, ref)
        rev = np.zeros_like(x)
        np.add.at(rev, idx.ravel()[::-1], g.reshape((-1,) + shape[1:])[::-1])
        assert (rev != ref).any()

    def test_reduce_max_and_leaky(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 4))
        # leaky ReLU as max(x, 0.1 x), then a reduce-max over the rows

        def build(t):
            leaky = ad.concat([t.reshape(1, 5, 4), (t * 0.1).reshape(1, 5, 4)]).max(axis=0)
            return (leaky.max(axis=0) * 2.0).sum()

        check_grad(build, [x])

    def test_conv2d(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 5, 2))
        w = rng.normal(size=(3, 3, 2, 3))
        b = rng.normal(size=3)
        def build(tx, tw, tb):
            y = plain_conv(tx, tw, tb)
            return (y * y).sum()

        check_grad(build, [x, w, b], tol=1e-5)

    @pytest.mark.parametrize("H, W", [(4, 5), (5, 4), (6, 6), (3, 7)])
    @pytest.mark.parametrize("cin", [1, 3])
    def test_conv2d_matches_nine_slice_im2col(self, H, W, cin):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(H, W, cin))
        w = rng.normal(size=(3, 3, cin, 4))
        b = rng.normal(size=4)
        g = rng.normal(size=(H, W, 4))
        # oracle: im2col from nine shifted slices of the zero-padded input
        xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
        cols = np.empty((H, W, 3, 3, cin))
        for i in range(3):
            for j in range(3):
                cols[:, :, i, j, :] = xp[i : i + H, j : j + W, :]
        cols = cols.reshape(H * W, 9 * cin)
        wm = w.reshape(9 * cin, 4)
        out = (cols @ wm).reshape(H, W, 4) + b
        gm = g.reshape(H * W, 4)
        gcols = (gm @ wm.T).reshape(H, W, 3, 3, cin)
        gxp = np.zeros_like(xp)
        for i in range(3):
            for j in range(3):
                gxp[i : i + H, j : j + W, :] += gcols[:, :, i, j, :]

        tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
        y = plain_conv(tx, tw, tb)
        np.testing.assert_array_equal(y.data, out)
        (y * Tensor(g)).sum().backward()
        assert rel_err(tx.grad, gxp[1 : 1 + H, 1 : 1 + W]) < 1e-12
        assert rel_err(tw.grad, (cols.T @ gm).reshape(w.shape)) < 1e-12
        assert rel_err(tb.grad, gm.sum(axis=0)) < 1e-12

    def test_maxpool(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 6, 2))
        check_grad(lambda t: (ad.maxpool2d(t, (2, 3)) * 3.0).sum(), [x])

    def test_broadcast_to(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(1, 4))
        check_grad(lambda t: (t.broadcast_to((3, 4)) * 2.0).sum(), [x])


def test_dropout_inverted_scaling():
    rng = np.random.default_rng(12)
    x = Tensor(np.ones(10000), requires_grad=True)
    out = ad.dropout(x, 0.5, rng)
    kept = out.data > 0
    assert abs(kept.mean() - 0.5) < 0.05
    assert np.allclose(out.data[kept], 2.0)
    out.sum().backward()
    assert np.allclose(x.grad[kept], 2.0) and np.allclose(x.grad[~kept], 0.0)


def copying_accum(self, grad):
    """Tensor._accum as it was: every first gradient copied on arrival."""
    if self.grad is None:
        self.grad = np.array(grad, dtype=ad.DTYPE)
    else:
        self.grad += grad


def fan_out_x_plus_x(x, p):
    return ((x + x) * x).sum()


def fan_out_reused_summand(x, p):
    a = x.reshape(2, 6)
    b = x.reshape(2, 6) * 3.0
    s = a + b                                  # a is used again below
    return (s * a).sum() + (a.reshape(3, 4) * b.reshape(3, 4)).sum(axis=0).sum() + a.sum()


def fan_out_parameter_in_loss(x, p):
    # a parameter added straight into the loss, as the learned loss scales are
    q = (x * x).sum()
    return q * p + p + ((x * x * x).sum() * p + p)


class TestAccumFanOut:
    """The first gradient a tensor receives is kept as handed over, not
    copied. Fan-out graphs must give bitwise the gradients of the copying
    version, and no two tensors may end up sharing one gradient array."""

    @pytest.mark.parametrize("build", [fan_out_x_plus_x, fan_out_reused_summand,
                                       fan_out_parameter_in_loss])
    def test_matches_copying_accum(self, build, monkeypatch):
        rng = np.random.default_rng(21)
        xv, pv = rng.normal(size=(3, 4)), np.array(0.3)

        def grads():
            x, p = Tensor(xv, requires_grad=True), Tensor(pv, requires_grad=True)
            loss = build(x, p)
            loss.backward()
            return x.grad, p.grad

        got = grads()
        with monkeypatch.context() as m:
            m.setattr(Tensor, "_accum", copying_accum)
            want = grads()
        for g, w in zip(got, want):
            if w is None:   # the leaf takes no part in this graph
                assert g is None
                continue
            assert type(g) is np.ndarray
            np.testing.assert_array_equal(g, w)
        if got[1] is not None:
            assert not np.shares_memory(got[0], got[1])

    @pytest.mark.parametrize("build", [fan_out_x_plus_x, fan_out_reused_summand,
                                       fan_out_parameter_in_loss])
    def test_backward_keeps_only_leaf_gradients(self, build):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        p = Tensor(np.array(0.3), requires_grad=True)
        loss = build(x, p)
        nodes, todo = {}, [loss]
        while todo:
            node = todo.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                todo.extend(node._parents)
        inner = [n for n in nodes.values() if n._backward is not None]
        leaves = [n for n in nodes.values() if n._backward is None and n.requires_grad]
        assert loss in inner and x in leaves
        loss.backward()
        # a node's gradient is dropped once its backward ran; leaves keep theirs
        assert all(n.grad is None for n in inner)
        assert all(type(n.grad) is np.ndarray for n in leaves)
        with pytest.raises(GraphConsumed):
            loss.backward()

    def test_add_hands_each_parent_its_own_array(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, np.ones(3))


class TestRecordingSwitch:
    def test_off_makes_plain_tensors(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        with ad.recording(False):
            y = (x * x * 2.0).sum()
        assert not y.requires_grad and y._parents == () and y._backward is None
        assert np.array_equal(y.data, (np.arange(3.0) ** 2 * 2.0).sum())

    def test_restored_on_exit_and_on_error(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError):
            with ad.recording(False):
                with ad.recording(True):
                    assert (x * 1.0).requires_grad
                assert not (x * 1.0).requires_grad
                raise RuntimeError
        assert (x * 1.0).requires_grad

    def test_each_thread_has_its_own_setting(self):
        x = Tensor(np.ones(2), requires_grad=True)
        seen = []
        worker = threading.Thread(target=lambda: seen.append((x * 1.0).requires_grad))
        with ad.recording(False):
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive() and seen == [True]


def _two_outputs(a, b):
    h = (a * b).softmax(axis=0) * b
    return [h.sum(axis=1), (h * a).softmax(axis=0)]


class TestReplay:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        self.b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        self.w = rng.normal(size=(4, 3))

    def loss(self, outs):
        return outs[0].sum() + (outs[1] * Tensor(self.w)).sum() + (outs[0] * outs[0]).sum()

    def grads(self, outs):
        self.a.grad = self.b.grad = None
        self.loss(outs).backward()
        return self.a.grad, self.b.grad

    def test_outputs_and_gradients_match_the_recorded_function(self):
        want = _two_outputs(self.a, self.b)
        want_data = [o.data.copy() for o in want]
        want_grads = self.grads(want)
        got = ad.replay(lambda: _two_outputs(self.a, self.b), [self.a, self.b])
        for g, w in zip(got, want_data):
            np.testing.assert_array_equal(g.data, w)
        for g, w in zip(self.grads(got), want_grads):
            np.testing.assert_allclose(g, w, rtol=1e-14, atol=0.0)

    def test_forward_records_one_node_per_output_and_one_for_the_replay(self):
        outs = ad.replay(lambda: _two_outputs(self.a, self.b), [self.a, self.b])
        node = outs[0]._parents[0]
        assert all(o._parents == (node,) for o in outs)
        assert node._parents == (self.a, self.b)

    def test_gradient_through_one_output_only(self):
        self.a.grad = self.b.grad = None
        _two_outputs(self.a, self.b)[1].sum().backward()
        want = self.a.grad, self.b.grad
        self.a.grad = self.b.grad = None
        ad.replay(lambda: _two_outputs(self.a, self.b), [self.a, self.b])[1].sum().backward()
        for g, w in zip((self.a.grad, self.b.grad), want):
            np.testing.assert_allclose(g, w, rtol=1e-14, atol=0.0)

    def test_input_without_grad_is_not_a_parent(self):
        c = Tensor(self.b.data)
        outs = ad.replay(lambda: _two_outputs(self.a, c), [self.a, c])
        assert outs[0]._parents[0]._parents == (self.a,)

    def test_changed_input_raises_graph_consumed(self):
        outs = ad.replay(lambda: _two_outputs(self.a, self.b), [self.a, self.b])
        self.a.data[0, 0] += 1e-3
        with pytest.raises(GraphConsumed):
            self.loss(outs).backward()

    def test_stops_at_a_non_leaf_input(self):
        # `y` is also used outside the replay: its own backward must run once,
        # in the outer pass, after both uses have sent it their gradient
        def run(x, replayed):
            y = x * 3.0
            fn = lambda: _two_outputs(y, Tensor(self.b.data))
            outs = ad.replay(fn, [y]) if replayed else fn()
            (self.loss(outs) + (y * y).sum()).backward()
            return x.grad

        got = run(Tensor(self.a.data.copy(), requires_grad=True), True)
        want = run(Tensor(self.a.data.copy(), requires_grad=True), False)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
