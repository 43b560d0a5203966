"""Loss identities, optimizer behavior, schedule, and gradient flow."""

import copy
import math
import tracemalloc

import numpy as np
import pytest

import im2pc.training as T
from im2pc.autodiff import Tensor
from im2pc.config import TrainConfig, desk_config
from im2pc.data import SceneConfig, synth_scene
from im2pc.errors import NonFiniteLoss
from im2pc.geometry import PoseQT
from im2pc.params import Parameter
from im2pc.registration import RegistrationNet, StageOutput
from util import finite_diff, rel_err


IDENTITY = PoseQT.identity()
# A4's settings: large-mode scenes, a finer image grid, batch 4, no dropout
A4_SCENE = dict(rot_range=(0.0, 0.0, 15.0), transl_range=(0.5, 0.5, 0.0), mode="large")
A4_TRAIN = dict(lr=1e-2, epochs=1000, seed=0, dropout=0.0, holdout_frac=0.0,
                batch_size=4, clip_norm=100.0, lr_decay=0.004, eval_every=10)


def a4_net():
    cfg = desk_config()
    cfg.image_strides = ((2, 2), (2, 2), (1, 1))
    return RegistrationNet(cfg, seed=0)


def a4_scenes(n_points, count=4):
    return [synth_scene(s, SceneConfig(n_points=n_points, **A4_SCENE)) for s in range(count)]


def stage_of(q, t):
    return StageOutput(PoseQT(np.asarray(q, dtype=float), np.asarray(t, dtype=float)),
                       Tensor(np.asarray(q, dtype=float)),
                       Tensor(np.asarray(t, dtype=float)),
                       Tensor(np.zeros((1, 1))), Tensor(np.zeros((1, 1))))


class TestLoss:
    def test_value_at_ground_truth(self):
        # zero pose error leaves only the regularizers: s_q + s_t = -2.5
        lp = T.LossParams()
        val = T.single_loss(Tensor(IDENTITY.q), Tensor(IDENTITY.t), IDENTITY, lp)
        assert abs(float(val.data) - (-2.5)) < 1e-12

    def test_total_at_ground_truth(self):
        lp = T.LossParams()
        s = stage_of(IDENTITY.q, IDENTITY.t)
        total = T.total_loss(s, s, IDENTITY, lp)
        # (0.8 + 1.6) * (-2.5) = -6.0
        assert abs(float(total.data) - (-6.0)) < 1e-12

    def test_translation_term_weighting(self):
        # unit-scale loss pieces: with s_q = s_t = 0 the loss is
        # |dq|_2 + |dt|_1 exactly
        lp = T.LossParams(sq_init=0.0, st_init=0.0)
        val = T.single_loss(Tensor(IDENTITY.q), Tensor([0.1, -0.2, 0.3]), IDENTITY, lp)
        assert abs(float(val.data) - 0.6) < 1e-12

    def test_scale_gradient_at_zero_error(self):
        # d/ds_q of (0 * exp(-s_q) + s_q) is exactly 1
        lp = T.LossParams()
        val = T.single_loss(Tensor(IDENTITY.q), Tensor(IDENTITY.t), IDENTITY, lp)
        val.backward()
        assert float(lp.s_q.grad) == 1.0
        assert float(lp.s_t.grad) == 1.0

    def test_stationary_scale_is_log_error(self):
        # minimizing e*exp(-s) + s over s gives s = ln(e)
        e = 0.37
        for s in (math.log(e), math.log(e) + 0.3):
            lp = T.LossParams(sq_init=s, st_init=0.0)
            q = np.array([1.0, 0, 0, 0]) + np.array([0, e, 0, 0])
            val = T.single_loss(Tensor(q), Tensor(IDENTITY.t), IDENTITY, lp)
            val.backward()
            g = float(lp.s_q.grad)
            if s == math.log(e):
                assert abs(g) < 1e-12
            else:
                assert g > 0

    def test_loss_gradient_matches_finite_difference(self):
        lp = T.LossParams(sq_init=-0.7, st_init=0.4)
        q = np.array([0.9, 0.1, -0.2, 0.05])
        t = np.array([0.3, -0.4, 0.2])

        def f():
            return float(T.single_loss(Tensor(q), Tensor(t), IDENTITY, lp).data)

        tq = Tensor(q, requires_grad=True)
        tt = Tensor(t, requires_grad=True)
        T.single_loss(tq, tt, IDENTITY, lp).backward()
        assert rel_err(tq.grad, finite_diff(f, q)) < 1e-6
        assert rel_err(tt.grad, finite_diff(f, t)) < 1e-6
        for s in (lp.s_q, lp.s_t):
            assert rel_err(s.grad, finite_diff(f, s.data)) < 1e-6, s.name

    def test_quaternion_gradient_at_zero_error(self):
        # |q_gt - q|_2 has no gradient at q = q_gt; q gets the zero subgradient
        lp = T.LossParams()
        q = Tensor(IDENTITY.q, requires_grad=True)
        t = Tensor(IDENTITY.t, requires_grad=True)
        T.single_loss(q, t, IDENTITY, lp).backward()
        assert q.grad.tobytes() == np.zeros(4).tobytes()
        assert t.grad.tobytes() == np.zeros(3).tobytes()
        assert float(lp.s_q.grad) == 1.0 and float(lp.s_t.grad) == 1.0

    def test_one_node_matches_the_composed_numpy(self):
        # the loss as it was composed of Tensor ops, in the same order:
        # q - q_gt as q + (-q_gt), the sums, then the products and sums
        rng = np.random.default_rng(5)
        for _ in range(20):
            gt = PoseQT(rng.normal(size=4), rng.normal(size=3))
            q, t = rng.normal(size=4), rng.normal(size=3)
            sq, st = rng.normal(size=2)
            d_q, d_t = q + (-gt.q), t + (-gt.t)
            dq = np.sqrt((d_q * d_q).sum())
            dt = np.abs(d_t).sum()
            want = dq * np.exp(-sq) + sq + dt * np.exp(-st) + st
            lp = T.LossParams(sq_init=sq, st_init=st)
            got = T.single_loss(Tensor(q), Tensor(t), gt, lp).data
            assert got.tobytes() == np.asarray(want).tobytes()


class TestAdam:
    def test_quadratic_convergence(self):
        p = Parameter("x", np.array([5.0, -3.0]))
        opt = T.Adam([p], lr=0.1)
        for _ in range(500):
            opt.zero_grad()
            loss = (p * p).sum()
            loss.backward()
            opt.step()
        assert np.abs(p.data).max() < 1e-3

    def test_first_step_is_lr_sized(self):
        # with bias correction the first update has magnitude ~lr
        p = Parameter("x", np.array([1.0]))
        opt = T.Adam([p], lr=0.05)
        (p * 3.0).sum().backward()
        opt.step()
        assert abs(float(p.data[0]) - (1.0 - 0.05)) < 1e-6

    def test_clip_grad_norm(self):
        p = Parameter("x", np.zeros(4))
        p.grad = np.full(4, 3.0)
        total = T.clip_grad_norm([p], max_norm=1.0)
        assert abs(total - 6.0) < 1e-12
        assert abs(np.linalg.norm(p.grad) - 1.0) < 1e-12


class TestSchedule:
    def test_lr_decay_per_epoch(self, tmp_path):
        cfg = desk_config()
        net = RegistrationNet(cfg, seed=0)
        scenes = [synth_scene(s, SceneConfig(n_points=96)) for s in range(2)]
        tcfg = TrainConfig(lr=1e-3, epochs=4, seed=0, holdout_frac=0.0)
        _, rows = T.train(net, scenes, tcfg, tmp_path / "m.ckpt",
                          log_path=tmp_path / "log.csv")
        lrs = [r[5] for r in rows]
        expect = [1e-3 * 0.99**e for e in range(4)]
        np.testing.assert_allclose(lrs, expect, rtol=1e-12)
        header = (tmp_path / "log.csv").read_text().splitlines()[0]
        assert header == "epoch,split,loss,rre_deg,rte,lr"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_raises(self):
        cfg = desk_config()
        net = RegistrationNet(cfg, seed=0)
        scene = synth_scene(0, SceneConfig(n_points=96))
        # poison a weight so the forward pass emits NaN
        p = net.named_parameters()[0]
        p.data[...] = np.nan
        with pytest.raises(NonFiniteLoss):
            T.train(net, [scene], TrainConfig(epochs=1, seed=0, holdout_frac=0.0),
                    "/tmp/no.ckpt")

    def test_non_finite_scene_loss_stops_before_its_backward(self, tmp_path, monkeypatch):
        # the second scene of the second batch of 2 gives NaN: its loss must
        # never reach a gradient, and the step must leave the parameters
        # and Adam's moments as the first step left them
        net = RegistrationNet(desk_config(), seed=0)
        scenes = [synth_scene(s, SceneConfig(n_points=64)) for s in range(4)]
        real, calls = T.total_loss, [0]

        def poisoned(*args, **kwargs):
            calls[0] += 1
            one = real(*args, **kwargs)
            return one * math.nan if calls[0] == 4 else one

        monkeypatch.setattr(T, "total_loss", poisoned)
        stepped, after, real_step = [], [], T.Adam.step

        def step(opt):
            real_step(opt)
            stepped.append(opt)
            after[:] = [[a.tobytes() for a in (p.data, m, v)]
                        for p, m, v in zip(opt.params, opt.m, opt.v)]

        monkeypatch.setattr(T.Adam, "step", step)
        ckpt = tmp_path / "m.ckpt"
        with pytest.raises(NonFiniteLoss, match="non-finite loss at epoch 0 batch 2"):
            T.train(net, scenes, TrainConfig(epochs=1, seed=0, batch_size=2,
                                             holdout_frac=0.0), ckpt)
        opt, = stepped
        assert calls[0] == 4 and opt.t == 1
        assert [[a.tobytes() for a in (p.data, m, v)]
                for p, m, v in zip(opt.params, opt.m, opt.v)] == after
        assert all(p.grad is None or np.isfinite(p.grad).all() for p in opt.params)
        assert not ckpt.exists()

    def test_non_finite_holdout_errors_raise(self, tmp_path, monkeypatch):
        # a diverged model scores NaN, which no RTE comparison ever prefers:
        # the run must stop instead of ending without a checkpoint
        net = RegistrationNet(desk_config(), seed=0)
        scene = synth_scene(0, SceneConfig(n_points=64))
        monkeypatch.setattr(T, "evaluate_scenes", lambda *a, **k: (math.nan, math.nan))
        ckpt = tmp_path / "m.ckpt"
        with pytest.raises(NonFiniteLoss):
            T.train(net, [scene], TrainConfig(epochs=1, seed=0, holdout_frac=0.0), ckpt)
        assert not ckpt.exists()

    def test_train_leaves_the_model_config_as_built(self, tmp_path):
        net = RegistrationNet(desk_config(), seed=0)
        built = copy.deepcopy(net.cfg)
        scene = synth_scene(0, SceneConfig(n_points=64))
        T.train(net, [scene], TrainConfig(epochs=1, seed=0, dropout=0.0, holdout_frac=0.0),
                tmp_path / "m.ckpt")
        assert net.cfg == built


class TestBatchStep:
    def test_gradients_are_one_backward_through_the_summed_loss(self, tmp_path, monkeypatch):
        # train() back-propagates each scene on its own; the gradients it
        # hands Adam must be bitwise those of one backward through the
        # batch's summed loss, which adds the scenes in batch order too
        scenes = a4_scenes(128)
        tcfg = TrainConfig(**A4_TRAIN)
        seen, real_step = [], T.Adam.step

        def step(opt):
            if not seen:
                seen[:] = [(p.name, None if p.grad is None else p.grad.tobytes())
                           for p in opt.params]
            real_step(opt)

        monkeypatch.setattr(T.Adam, "step", step)
        T.train(a4_net(), scenes, tcfg, tmp_path / "m.ckpt", max_steps=1)

        net, lp = a4_net(), T.LossParams()
        rng = np.random.default_rng(tcfg.seed)
        loss = None
        for s in scenes:
            coarse, fine = net(s.cloud, s.image, s.K, train=True, rng=rng,
                               geometry=net.geometry(s.cloud, s.image, s.K),
                               dropout=tcfg.dropout)
            one = T.total_loss(coarse, fine, s.gt_pose.inverse(), lp)
            loss = one if loss is None else loss + one
        (loss * (1.0 / len(scenes))).backward()
        params = net.named_parameters() + lp.named_parameters()
        T.clip_grad_norm(params, tcfg.clip_norm)
        assert [(p.name, p.grad.tobytes()) for p in params] == seen

    def test_step_peak_memory(self, tmp_path):
        # one scene's graph is alive at a time: a 4-scene A4 step, with its
        # holdout eval and checkpoint, peaks at ~15 MB; holding all four
        # graphs until one backward peaked at ~50 MB
        net, scenes = a4_net(), a4_scenes(512)
        tracemalloc.start()
        try:
            T.train(net, scenes, TrainConfig(**A4_TRAIN), tmp_path / "m.ckpt", max_steps=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20e6, f"train step peaked at {peak / 1e6:.1f} MB"


class TestEndToEndGradient:
    def test_micro_instance_matches_finite_difference(self):
        # a tiny full forward pass: perturb one weight tensor and compare
        # its analytic gradient against central differences
        cfg = desk_config()
        net = RegistrationNet(cfg, seed=3)
        scene = synth_scene(3, SceneConfig(n_points=64))
        lp = T.LossParams()
        target = scene.gt_pose.inverse()

        def run():
            c, f = net(scene.cloud, scene.image, scene.K, train=False)
            return T.total_loss(c, f, target, lp)

        loss = run()
        loss.backward()
        p = net.regress_fine.q_head.weight
        g = p.grad.copy()
        w = p.data
        sub = [(i, j) for i in range(0, w.shape[0], 23) for j in range(w.shape[1])][:8]
        for i, j in sub:
            orig = w[i, j]
            w[i, j] = orig + 1e-6
            fp = float(run().data)
            w[i, j] = orig - 1e-6
            fm = float(run().data)
            w[i, j] = orig
            num = (fp - fm) / 2e-6
            denom = max(abs(num), abs(g[i, j]), 1e-6)
            assert abs(num - g[i, j]) / denom < 1e-3, (i, j, num, g[i, j])
