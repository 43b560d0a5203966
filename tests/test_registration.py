"""Differentiable pose algebra against the matrix oracle, mask-weighting
invariances, and end-to-end determinism of the two-stage network."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import im2pc.cost_volume as CV
import im2pc.pyramids as P
import im2pc.registration as R
import im2pc.geometry as G
from im2pc.autodiff import Tensor
from im2pc.config import TrainConfig, desk_config
from im2pc.data import SceneConfig, synth_scene
from im2pc.errors import DegenerateQuaternion, GraphConsumed, IndexMismatch, NonFiniteLoss
from im2pc.params import Module
from im2pc.sampling import PointCloud
from im2pc.training import LossParams, total_loss, train as run_train
from util import finite_diff, rel_err


def skew(v):
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


# non-unit quaternions, one with w < 0, where a normalisation that forgets the
# canonical sign in its gradient goes wrong
QUATS = [np.array([0.9, -0.7, 0.4, 1.3]), np.array([-1.6, 0.5, -0.2, 0.8])]


class TestQuaternionOps:
    def test_mul_matches_matrix_product(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            qa = rng.normal(size=4); qa /= np.linalg.norm(qa)
            qb = rng.normal(size=4); qb /= np.linalg.norm(qb)
            qc = G.quat_mul(qa, qb)
            Ra = G.pose_to_matrix(G.PoseQT(qa, np.zeros(3))).R
            Rb = G.pose_to_matrix(G.PoseQT(qb, np.zeros(3))).R
            Rc = G.pose_to_matrix(G.PoseQT(qc, np.zeros(3))).R
            np.testing.assert_allclose(Rc, Ra @ Rb, atol=1e-9)

    def test_rotate_matches_matrix_apply(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            q = rng.normal(size=4); q /= np.linalg.norm(q)
            pts = rng.normal(size=(6, 3))
            out = G.quat_rotate(q, pts)
            M = G.pose_to_matrix(G.PoseQT(q, np.zeros(3))).R
            np.testing.assert_allclose(out, pts @ M.T, atol=1e-10)

    def test_arrays_and_tensors_share_the_algebra(self):
        # each node's forward is bitwise the array algebra PoseQT uses
        rng = np.random.default_rng(4)
        for _ in range(100):
            qa, qb = rng.normal(size=4), rng.normal(size=4)
            pts = rng.normal(size=(5, 3))
            np.testing.assert_array_equal(R.quat_mul_t(Tensor(qa), Tensor(qb)).data,
                                          G.quat_mul(qa, qb))
            np.testing.assert_array_equal(R.quat_rotate_t(Tensor(qa), Tensor(pts)).data,
                                          G.quat_rotate(qa, pts))
            unit = qa / np.sqrt((qa * qa).sum())
            np.testing.assert_array_equal(R.quat_normalize_t(Tensor(qa)).data,
                                          unit * G.canonical_sign(unit))

    def test_tensor_gradients_match_finite_difference(self):
        rng = np.random.default_rng(5)
        qa, qb, pts = rng.normal(size=4), rng.normal(size=4), rng.normal(size=(4, 3))

        def loss(a, b, p):
            return (G.quat_rotate(G.quat_mul(a, b), p) ** 2 * np.arange(1.0, 4.0)).sum()

        ts = [Tensor(x, requires_grad=True) for x in (qa, qb, pts)]
        rot = R.quat_rotate_t(R.quat_mul_t(ts[0], ts[1]), ts[2])
        (rot * rot * Tensor(np.arange(1.0, 4.0))).sum().backward()
        for t, x in zip(ts, (qa, qb, pts)):
            num = finite_diff(lambda: float(loss(qa, qb, pts)), x)
            assert rel_err(t.grad, num) < 1e-7

    @pytest.mark.parametrize("q", QUATS, ids=["w>0", "w<0"])
    def test_node_gradients_match_finite_difference(self, q):
        rng = np.random.default_rng(6)
        b, pts = rng.normal(size=4), rng.normal(size=(5, 3))
        wq, wp = rng.normal(size=4), rng.normal(size=(5, 3))
        cases = [  # (node on tensors, the same on arrays, its inputs)
            (R.quat_mul_t, G.quat_mul, (q.copy(), b)),
            (R.quat_rotate_t, G.quat_rotate, (q.copy(), pts)),
            (R.quat_normalize_t, lambda a: a / np.linalg.norm(a) * np.sign(q[0]), (q.copy(),)),
        ]
        for node, array_fn, xs in cases:
            w = wp if node is R.quat_rotate_t else wq
            ts = [Tensor(x, requires_grad=True) for x in xs]
            (node(*ts) * Tensor(w)).sum().backward()
            for t, x in zip(ts, xs):
                num = finite_diff(lambda: float((array_fn(*xs) * w).sum()), x)
                assert rel_err(t.grad, num) < 1e-7, node.__name__

    @pytest.mark.parametrize("q", QUATS, ids=["w>0", "w<0"])
    def test_node_gradients_match_the_linear_maps(self, q):
        rng = np.random.default_rng(7)
        b, pts = rng.normal(size=4), rng.normal(size=(5, 3))
        g4, g3 = rng.normal(size=4), rng.normal(size=(5, 3))
        # the rotation is p -> M p for any q, so the points' gradient is g M
        w, v = q[0], q[1:]
        M = np.eye(3) + 2.0 * w * skew(v) + 2.0 * skew(v) @ skew(v)
        tq, tp = Tensor(q, requires_grad=True), Tensor(pts, requires_grad=True)
        (R.quat_rotate_t(tq, tp) * Tensor(g3)).sum().backward()
        np.testing.assert_allclose(tp.grad, g3 @ M, rtol=0, atol=1e-12)
        # a * b is L(a) b and R(b) a, with the columns a * e_i and e_i * b
        L = np.stack([G.quat_mul(q, e) for e in np.eye(4)], axis=1)
        Rb = np.stack([G.quat_mul(e, b) for e in np.eye(4)], axis=1)
        ta, tb = Tensor(q, requires_grad=True), Tensor(b, requires_grad=True)
        (R.quat_mul_t(ta, tb) * Tensor(g4)).sum().backward()
        np.testing.assert_allclose(ta.grad, Rb.T @ g4, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tb.grad, L.T @ g4, rtol=0, atol=1e-12)
        # normalisation: the projection off the output o, times s / |q|
        tq = Tensor(q, requires_grad=True)
        o = R.quat_normalize_t(tq)
        (o * Tensor(g4)).sum().backward()
        want = (np.eye(4) - np.outer(o.data, o.data)) @ g4 * np.sign(w) / np.linalg.norm(q)
        np.testing.assert_allclose(tq.grad, want, rtol=0, atol=1e-12)

    def test_normalize_canonical_sign(self):
        q = np.array([-0.5, 0.5, 0.5, 0.5]) * 2.0
        out = R.quat_normalize_t(Tensor(q)).data
        np.testing.assert_allclose(out, [0.5, -0.5, -0.5, -0.5], atol=1e-12)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_normalize_rejects_zero(self):
        with pytest.raises(DegenerateQuaternion):
            R.quat_normalize_t(Tensor(np.zeros(4)))

    @pytest.mark.parametrize("q", [[np.nan, 0, 0, 1], [np.inf, 0, 0, 0], [1e300, 1e300, 0, 0]],
                             ids=["nan", "inf", "overflow"])
    def test_normalize_rejects_a_non_finite_norm(self, q):
        with pytest.raises(NonFiniteLoss), np.errstate(over="ignore"):
            R.quat_normalize_t(Tensor(np.array(q, dtype=float)))

    def test_refinement_equals_pose_composition(self):
        # fine update: q = dq * q0, t = rot(dq, t0) + dt, exactly composing
        # the delta pose with the coarse pose
        rng = np.random.default_rng(2)
        for _ in range(200):
            q0 = rng.normal(size=4); q0 /= np.linalg.norm(q0)
            dq = rng.normal(size=4); dq /= np.linalg.norm(dq)
            t0, dt = rng.normal(size=3), rng.normal(size=3)
            q = R.quat_normalize_t(R.quat_mul_t(Tensor(dq), Tensor(q0))).data
            t = R.quat_rotate_t(Tensor(dq), Tensor(t0[None])).data[0] + dt
            oracle = G.pose_compose(G.PoseQT(dq, dt), G.PoseQT(q0, t0))
            np.testing.assert_allclose(q, oracle.q, atol=1e-10)
            np.testing.assert_allclose(t, oracle.t, atol=1e-10)


class TestPoseRegressor:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.reg = R.PoseRegressor("p", 6, 8, rng)
        self.cv = rng.normal(size=(10, 6))
        self.mask = rng.normal(size=(10, 6))

    def run(self, mask):
        return self.reg(Tensor(self.cv), Tensor(mask), 0.0, train=False, rng=None)

    def test_mask_shift_invariance(self):
        q0, t0 = self.run(self.mask)
        q1, t1 = self.run(self.mask + 4.2)
        np.testing.assert_allclose(q1.data, q0.data, atol=1e-12)
        np.testing.assert_allclose(t1.data, t0.data, atol=1e-12)

    def test_uniform_mask_is_mean_pool(self):
        q, t = self.run(np.zeros((10, 6)))
        glob = self.cv.mean(axis=0)
        mid = glob @ self.reg.middle.weight.data + self.reg.middle.bias.data
        qe = mid @ self.reg.q_head.weight.data + self.reg.q_head.bias.data
        qe /= np.linalg.norm(qe)
        if (qe[np.flatnonzero(qe)[0]] if qe.any() else 1) < 0:
            qe = -qe
        te = mid @ self.reg.t_head.weight.data + self.reg.t_head.bias.data
        np.testing.assert_allclose(q.data, qe, atol=1e-12)
        np.testing.assert_allclose(t.data, te, atol=1e-12)

    def test_unit_quaternion_output(self):
        q, _ = self.run(self.mask)
        assert abs(np.linalg.norm(q.data) - 1.0) < 1e-12


class TestNetwork:
    def test_shared_shape_constants_are_frozen(self):
        # every net holds these instances, so none may change one for all
        for spec, field in ((R.POINT_GROUPINGS[0], "k"), (R.NEIGHBOURHOOD, "k"),
                            (R.MIXTURE, "k")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, field, 4)
        assert R.POINT_GROUPINGS[0].k == 8 and R.MIXTURE.k == 16

    def test_eval_mode_deterministic(self):
        cfg = desk_config()
        net = R.RegistrationNet(cfg, seed=0)
        scene = synth_scene(0, SceneConfig(n_points=128))
        c1, f1 = net(scene.cloud, scene.image, scene.K, train=False)
        c2, f2 = net(scene.cloud, scene.image, scene.K, train=False)
        np.testing.assert_array_equal(f1.q_t.data, f2.q_t.data)
        np.testing.assert_array_equal(f1.t_t.data, f2.t_t.data)
        np.testing.assert_array_equal(c1.q_t.data, c2.q_t.data)

    def test_train_forward_applies_the_dropout_argument(self):
        net = R.RegistrationNet(desk_config(), seed=0)
        scene = synth_scene(0, SceneConfig(n_points=128))

        def fine_t(**dropout):
            return net(scene.cloud, scene.image, scene.K, train=True,
                       rng=np.random.default_rng(0), **dropout)[1].t_t.data

        plain = fine_t()
        np.testing.assert_array_equal(fine_t(dropout=0.0), plain)
        assert not np.array_equal(fine_t(dropout=0.5), plain)

    def test_eval_forward_on_cloud_smaller_than_k(self):
        # 6 points, fewer than the first grouping's k = 8
        assert R.POINT_GROUPINGS[0].k > 6
        net = R.RegistrationNet(desk_config(), seed=0)
        scene = synth_scene(3, SceneConfig(n_points=6))
        assert scene.cloud.count == 6
        coarse, fine = net(scene.cloud, scene.image, scene.K, train=False)
        for stage in (coarse, fine):
            assert np.all(np.isfinite(stage.q_t.data))
            assert np.all(np.isfinite(stage.t_t.data))
            assert abs(np.linalg.norm(stage.q_t.data) - 1.0) < 1e-12

    def test_eval_forward_peak_memory(self):
        # an eval forward records no graph, so each activation is freed once
        # its consumer ran: 1.9 MB, where the recorded graph peaked at 11.9 MB
        net = R.RegistrationNet(desk_config(), seed=0)
        scene = synth_scene(10_003, SceneConfig(n_points=512))
        geo = net.geometry(scene.cloud, scene.image, scene.K)
        tracemalloc.start()
        try:
            outputs = net(scene.cloud, scene.image, scene.K, train=False, geometry=geo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outputs[1].q_t.requires_grad  # a backward replays the forward
        assert peak <= 4e6, f"eval forward peaked at {peak / 1e6:.1f} MB"

    def test_train_step_peak_memory(self):
        # a train graph holds each activation once (norms and convolutions
        # keep only their inputs), and backward frees each node once it ran
        net = R.RegistrationNet(desk_config(), seed=0)
        scene = synth_scene(10_003, SceneConfig(n_points=512))
        geo = net.geometry(scene.cloud, scene.image, scene.K)
        lp = LossParams()
        tracemalloc.start()
        try:
            coarse, fine = net(scene.cloud, scene.image, scene.K, train=True,
                               rng=np.random.default_rng(0), geometry=geo)
            total_loss(coarse, fine, scene.gt_pose.inverse(), lp).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(p.grad is not None for p in net.named_parameters())
        assert peak < 16e6, f"train step peaked at {peak / 1e6:.1f} MB"

    def test_eval_forward_node_count(self, monkeypatch):
        # the pose algebra, standardize and the LST offsets are one node
        # each (179 calls); a formula split back into small-array ops fails
        net = R.RegistrationNet(desk_config(), seed=0)
        scene = synth_scene(10_003, SceneConfig(n_points=512))
        geo = net.geometry(scene.cloud, scene.image, scene.K)
        made = count_nodes(monkeypatch)
        net(scene.cloud, scene.image, scene.K, train=False, geometry=geo)
        assert 0 < made[0] <= 184, made[0]

    def test_eval_forward_records_one_replay_node(self, monkeypatch):
        # the eight stage outputs and the replay node that recomputes them;
        # a recorded eval graph carried 174 backwards
        net = R.RegistrationNet(desk_config(), seed=0)
        scene = synth_scene(10_003, SceneConfig(n_points=512))
        geo = net.geometry(scene.cloud, scene.image, scene.K)
        recorded, make = [0], Tensor._make

        def counted(*args):
            out = make(*args)
            recorded[0] += out._backward is not None
            return out

        monkeypatch.setattr(Tensor, "_make", staticmethod(counted))
        net(scene.cloud, scene.image, scene.K, train=False, geometry=geo)
        assert 0 < recorded[0] <= 10, recorded[0]

    def test_train_forward_node_count(self, monkeypatch):
        # A4's config, a forward with its loss (174 calls per scene): the
        # pose loss is one node too
        cfg = desk_config()
        cfg.image_strides = ((2, 2), (2, 2), (1, 1))
        net = R.RegistrationNet(cfg, seed=0)
        scfg = SceneConfig(n_points=512, rot_range=(0.0, 0.0, 15.0),
                           transl_range=(0.5, 0.5, 0.0), mode="large")
        scenes = [synth_scene(s, scfg) for s in range(2)]
        geos = [net.geometry(s.cloud, s.image, s.K) for s in scenes]
        made = count_nodes(monkeypatch)
        rng = np.random.default_rng(0)
        for s, geo in zip(scenes, geos):
            coarse, fine = net(s.cloud, s.image, s.K, train=True, rng=rng, geometry=geo)
            total_loss(coarse, fine, s.gt_pose.inverse(), LossParams())
        assert 0 < made[0] <= 179 * len(scenes), made[0]

    def test_gradients_reach_every_parameter(self):
        cfg = desk_config()
        net = R.RegistrationNet(cfg, seed=1)
        scene = synth_scene(1, SceneConfig(n_points=128))
        coarse, fine = net(scene.cloud, scene.image, scene.K, train=True,
                           rng=np.random.default_rng(0))
        total_loss(coarse, fine, scene.gt_pose.inverse(), LossParams()).backward()
        missing = [p.name for p in net.named_parameters() if p.grad is None]
        assert missing == []

    def test_fine_pose_composes_coarse(self):
        cfg = desk_config()
        net = R.RegistrationNet(cfg, seed=2)
        scene = synth_scene(2, SceneConfig(n_points=128))
        geo = net.geometry(scene.cloud, scene.image, scene.K)
        img_l, pt_l = net.extract(scene.cloud, scene.image, scene.K, geo, train=False)
        coarse = net.run_coarse(img_l, pt_l, geo, train=False)
        fine = net.run_fine(img_l, pt_l, coarse, geo, train=False)
        # recover the delta and re-compose; must land exactly on the fine pose
        delta_q = G.quat_mul(fine.q_t.data, G.quat_conj(coarse.q_t.data))
        recomposed = G.pose_compose(
            G.PoseQT(delta_q, fine.t_t.data -
                     G.pose_apply(G.PoseQT(delta_q, np.zeros(3)), coarse.t_t.data)),
            G.PoseQT(coarse.q_t.data, coarse.t_t.data))
        np.testing.assert_allclose(recomposed.q, G.PoseQT(fine.q_t.data, fine.t_t.data).q,
                                   atol=1e-9)


def count_nodes(monkeypatch):
    """Count Tensor._make calls from now on; returns a one-element list."""
    made, make = [0], Tensor._make

    def counted(*args):
        made[0] += 1
        return make(*args)

    monkeypatch.setattr(Tensor, "_make", staticmethod(counted))
    return made


def stage_arrays(coarse, fine):
    return [a.data for st in (coarse, fine)
            for a in (st.q_t, st.t_t, st.cost_volume, st.mask_logits)] + \
        [st.pose.q for st in (coarse, fine)] + [st.pose.t for st in (coarse, fine)]


def loss_grads(net, scene, coarse, fine):
    """Every parameter gradient of the loss on these stage outputs."""
    lp = LossParams()
    params = net.named_parameters() + lp.named_parameters()
    for p in params:
        p.grad = None
    total_loss(coarse, fine, scene.gt_pose.inverse(), lp).backward()
    return [p.grad for p in params]


def forward_and_grads(net, scene, train, geometry):
    """Stage outputs and every parameter gradient of one forward + backward."""
    coarse, fine = net(scene.cloud, scene.image, scene.K, train=train,
                       rng=np.random.default_rng(0), geometry=geometry)
    return stage_arrays(coarse, fine), loss_grads(net, scene, coarse, fine)


def count_calls(monkeypatch, targets):
    """Wrap (module, name) functions where the layers look them up; returns
    the call counts by "module.name"."""
    counts = {}
    for module, name in targets:
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        counts[key] = 0

        def wrapped(*args, fn=getattr(module, name), key=key, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)
    return counts


SEARCHES = [(P, "cell_sample"), (P, "projection_aware_knn"),
            (CV, "projection_aware_knn"), (CV, "knn_pixel_candidates"),
            (R, "spherical_project_many")]


def composed_eval(net, scene, geo):
    """The eval stages called one by one, recording their whole graph."""
    img_l, pt_l = net.extract(scene.cloud, scene.image, scene.K, geo, train=False)
    coarse = net.run_coarse(img_l, pt_l, geo, train=False)
    return coarse, net.run_fine(img_l, pt_l, coarse, geo, train=False)


class TestEvalReplay:
    @pytest.mark.parametrize("n_points", [20, 512])
    def test_matches_the_composed_stages(self, n_points):
        net = R.RegistrationNet(desk_config(), seed=6)
        scene = synth_scene(11, SceneConfig(n_points=n_points))
        geo = net.geometry(scene.cloud, scene.image, scene.K)
        want = composed_eval(net, scene, geo)
        got = net(scene.cloud, scene.image, scene.K, train=False, geometry=geo)
        for g, w in zip(stage_arrays(*got), stage_arrays(*want)):
            np.testing.assert_array_equal(g, w)
        # the replay's backward sums a node's gradients in another order
        checked = 0
        for g, w in zip(loss_grads(net, scene, *got), loss_grads(net, scene, *want)):
            if np.linalg.norm(w) > 1e-10:
                assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)
                checked += 1
        assert checked > 100

    def test_two_forwards_walk_the_tree_at_most_once(self, monkeypatch):
        net = R.RegistrationNet(desk_config(), seed=6)
        scene = synth_scene(13, SceneConfig(n_points=64))
        walks = []
        walk = Module.named_parameters
        monkeypatch.setattr(Module, "named_parameters",
                            lambda self: walks.append(self) or walk(self))
        for _ in range(2):
            net(scene.cloud, scene.image, scene.K, train=False)
        assert sum(m is net for m in walks) <= 1
        assert net.named_parameters() == net._params

    @pytest.mark.parametrize("change", [None, "parameter", "buffer"])
    def test_backward_refuses_a_model_changed_after_the_forward(self, change):
        net = R.RegistrationNet(desk_config(), seed=6)
        scene = synth_scene(12, SceneConfig(n_points=128))
        coarse, fine = net(scene.cloud, scene.image, scene.K, train=False)
        if change == "parameter":
            net.regress_fine.q_head.weight.data[0, 0] += 1e-3
        elif change == "buffer":
            net.oe_mlp.norms[0].running_mean = net.oe_mlp.norms[0].running_mean + 1e-3
        if change is None:
            grads = loss_grads(net, scene, coarse, fine)
            assert all(g is not None for g in grads)
        else:
            with pytest.raises(GraphConsumed):
                loss_grads(net, scene, coarse, fine)


class TestSceneGeometry:
    @pytest.mark.parametrize("train", [False, True])
    def test_reused_geometry_is_bitwise_a_fresh_forward(self, train):
        cfg = desk_config()
        fresh_net, reuse_net = R.RegistrationNet(cfg, seed=5), R.RegistrationNet(cfg, seed=5)
        scene = synth_scene(7, SceneConfig(n_points=256, mode="large"))
        geo = reuse_net.geometry(scene.cloud, scene.image, scene.K)
        for _ in range(2):  # the second forward reuses a geometry already used once
            want = forward_and_grads(fresh_net, scene, train, None)
            got = forward_and_grads(reuse_net, scene, train, geo)
        for g, w in zip(got[0] + got[1], want[0] + want[1]):
            np.testing.assert_array_equal(g, w)
        assert all(g is not None for g in got[1])

    def test_one_forward_makes_eight_knn_searches(self, monkeypatch):
        # four levels, context, one upsample search shared by both upsample
        # layers, and the LST search of each stage
        net = R.RegistrationNet(desk_config(), seed=0)
        scene = synth_scene(4, SceneConfig(n_points=128))
        counts = count_calls(monkeypatch, SEARCHES)
        net(scene.cloud, scene.image, scene.K, train=False)
        assert counts["pyramids.projection_aware_knn"] + \
            counts["cost_volume.projection_aware_knn"] == 8
        assert counts["cost_volume.knn_pixel_candidates"] == 2

    def test_train_searches_fixed_neighbourhoods_once_per_scene(self, monkeypatch, tmp_path):
        net = R.RegistrationNet(desk_config(), seed=0)
        scenes = [synth_scene(20 + i, SceneConfig(n_points=128)) for i in range(4)]
        forwards = []
        run_fine = R.RegistrationNet.run_fine
        monkeypatch.setattr(R.RegistrationNet, "run_fine",
                            lambda self, *a, **k: forwards.append(1) or run_fine(self, *a, **k))
        counts = count_calls(monkeypatch, SEARCHES)
        cfg = TrainConfig(epochs=3, batch_size=2, holdout_frac=0.25, dropout=0.0, seed=0)
        run_train(net, scenes, cfg, str(tmp_path / "m.ckpt"))
        # 3 scenes trained and 1 held out, over 3 epochs with an evaluation each
        n = len(forwards)
        assert n == 3 * 3 + 3 * 1
        assert counts == {
            "pyramids.cell_sample": 4 * 4,                     # levels, once per scene
            "pyramids.projection_aware_knn": 4 * (4 + 1 + 1),  # levels, context, upsample
            "cost_volume.projection_aware_knn": 4 + n,         # coarse LST, fine LST
            "cost_volume.knn_pixel_candidates": 4 + n,         # coarse, fine
            "registration.spherical_project_many": 4 + n,      # input, warped level 3
        }

    def test_training_with_reuse_matches_fresh_geometry(self, monkeypatch, tmp_path):
        scenes = [synth_scene(30 + i, SceneConfig(n_points=128)) for i in range(3)]
        cfg = TrainConfig(epochs=2, batch_size=2, holdout_frac=0.0, dropout=0.5, seed=1)

        def trained():
            net = R.RegistrationNet(desk_config(), seed=1)
            _, rows = run_train(net, scenes, cfg, str(tmp_path / "m.ckpt"))
            return rows, [p.data.copy() for p in net.named_parameters()]

        rows, weights = trained()
        call = R.RegistrationNet.__call__
        monkeypatch.setattr(R.RegistrationNet, "__call__",
                            lambda self, *a, geometry=None, **k: call(self, *a, **k))
        fresh_rows, fresh_weights = trained()
        assert rows == fresh_rows
        for w, f in zip(weights, fresh_weights):
            np.testing.assert_array_equal(w, f)

    def test_spherical_coordinates_of_the_cloud_are_ignored(self):
        # the net groups on its own grid, whatever grid a cloud was projected on
        net = R.RegistrationNet(desk_config(), seed=0)
        scene = synth_scene(4, SceneConfig(n_points=128))
        other = G.spherical_project_many(scene.cloud.positions,
                                         G.SphericalConfig(8, 64, 30.0, 30.0))
        carried = PointCloud(scene.cloud.positions, scene.cloud.features, spherical=other)
        want = net(scene.cloud, scene.image, scene.K, train=False)
        got = net(carried, scene.image, scene.K, train=False)
        for g, w in zip(stage_arrays(*got), stage_arrays(*want)):
            np.testing.assert_array_equal(g, w)

    def test_geometry_of_another_cloud_is_refused(self):
        net = R.RegistrationNet(desk_config(), seed=0)
        a = synth_scene(1, SceneConfig(n_points=128))
        geo = net.geometry(a.cloud, a.image, a.K)
        moved = PointCloud(a.cloud.positions + 0.01, a.cloud.features)
        fewer = synth_scene(3, SceneConfig(n_points=96)).cloud
        for cloud in (moved, fewer):   # same point count, then another count
            with pytest.raises(IndexMismatch):
                net(cloud, a.image, a.K, train=False, geometry=geo)
        with pytest.raises(IndexMismatch):
            net(a.cloud, a.image[:16], a.K, train=False, geometry=geo)
        with pytest.raises(IndexMismatch):
            net(a.cloud, a.image, G.CameraIntrinsics(a.K.fx * 2, a.K.fy, a.K.cx, a.K.cy),
                train=False, geometry=geo)
