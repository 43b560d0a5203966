"""The benchmark's workloads: inputs made from the seed, set-up, the measured
closed loop, output checks against the stored references, and the layer
wrappers of the traced run.

Each workload is one client sending one operation at a time (a closed loop):
an inference request on ``infer_desk`` and ``infer_dense``, a whole
``training.train`` call on ``train_desk``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field

import numpy as np

from im2pc import (_kernels, autodiff, cost_volume, data, nn_blocks, params,
                   pyramids, registration, training)
from im2pc.cli import MODE_CFG
from im2pc.config import TrainConfig, desk_config

from spans import Tracer, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
SETUP_REPEATS = 5
clock = time.perf_counter


@dataclass(frozen=True)
class InferSpec:
    points: int       # points per cloud
    pool: int         # referenced scenes a seed draws from
    scenes: int       # scenes per run, requested in turn by the closed loop
    seed_base: int    # scene seed of pool entry j is seed_base + j


# Both infer workloads use `im2pc gen` defaults (coarse mode, 32x64 images).
# infer_desk is the 512-point desk scale, where per-op Python overhead rules;
# infer_dense is a frustum-cropped-LiDAR-sized cloud, where grouping rules.
INFER = {
    "infer_desk": InferSpec(points=512, pool=64, scenes=48, seed_base=10_000),
    "infer_dense": InferSpec(points=16384, pool=32, scenes=24, seed_base=20_000),
}

# train_desk follows the A4 acceptance run: 20 large-mode scenes, a finer
# image grid, batch 4, lr 1e-2, no dropout, holdout eval every 10 epochs.
# A seed picks one of TRAIN_VARIANTS disjoint scene sets, each referenced.
TRAIN_VARIANTS = 8
TRAIN_SCENES = 20
TRAIN_SEED_BASE = 30_000
TRAIN_MAX_STEPS = 25
TRAIN_SCENE = dict(n_points=512, rot_range=(0.0, 0.0, 15.0),
                   transl_range=(0.5, 0.5, 0.0), mode="large")
TRAIN_CFG = dict(lr=1e-2, epochs=1000, seed=0, dropout=0.0, holdout_frac=0.0,
                 batch_size=4, clip_norm=100.0, lr_decay=0.004, eval_every=10)
TRAIN_IMAGE_STRIDES = ((2, 2), (2, 2), (1, 1))

# Output tolerances. Poses: absolute, per quaternion/translation component;
# a reordered float sum moves them by ~1e-14, a changed layer by >1e-4.
# Training: 25 Adam steps amplify rounding, so the bounds are looser but
# still far below the step-to-step change of the loss.
POSE_TOL = 1e-7
UNIT_TOL = 1e-9
LOSS_TOL = 1e-5          # relative to max(1, |reference|)
HOLDOUT_TOL = 1e-4       # absolute, on RRE (degrees) and RTE


def fingerprint() -> dict:
    """Everything the stored references depend on besides the program."""
    fp = {"infer": {k: asdict(v) for k, v in INFER.items()},
          "infer_mode": MODE_CFG["coarse"],
          "train": dict(variants=TRAIN_VARIANTS, scenes=TRAIN_SCENES,
                        seed_base=TRAIN_SEED_BASE, max_steps=TRAIN_MAX_STEPS,
                        scene=TRAIN_SCENE, cfg=TRAIN_CFG,
                        image_strides=TRAIN_IMAGE_STRIDES)}
    return json.loads(json.dumps(fp))


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        ref = json.load(f)
    if ref.get("fingerprint") != fingerprint():
        raise SystemExit("perfbench: reference.json was made for other workload "
                         "settings; rerun perfbench/make_reference.py")
    return ref


# -- shared pieces -----------------------------------------------------------

@dataclass
class Run:
    """What one measured pass recorded."""
    latencies: list = field(default_factory=list)  # s per request / train step
    passes: list = field(default_factory=list)     # s per pass over the scenes / epoch
    op_times: list = field(default_factory=list)   # s per operation
    scenes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.op_times)

    def fail(self, count: int, what: str):
        self.failed += count
        if len(self.problems) < 5:
            self.problems.append(what)


def fresh_model(mcfg, ckpt):
    """Build, save, and load back the model, as `im2pc eval` does."""
    net = registration.RegistrationNet(mcfg, seed=0)
    params.save_checkpoint(ckpt, net.named_parameters(), net.named_buffers())
    net = registration.RegistrationNet(mcfg, seed=0)
    state = params.load_checkpoint(ckpt)
    params.restore(net.named_parameters(), state)
    params.restore_buffers(net.named_buffers(), state)
    return net, state


def _clear(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


# -- inference workloads ----------------------------------------------------

@dataclass
class InferState:
    model: object
    dirs: list
    refs: list


def pick_scenes(spec: InferSpec, seed: int) -> list:
    ids = np.random.default_rng(seed).choice(spec.pool, spec.scenes, replace=False)
    return [int(j) for j in ids]


def write_scenes(spec: InferSpec, ids, root) -> list:
    scfg = data.SceneConfig(n_points=spec.points, **MODE_CFG["coarse"])
    dirs = []
    for k, j in enumerate(ids):
        d = os.path.join(root, f"scene_{k:04d}")
        data.write_scene(d, data.synth_scene(spec.seed_base + j, scfg))
        dirs.append(d)
    return dirs


def infer_request(model, scene_dir):
    scene = data.read_scene(scene_dir)
    return model(scene.cloud, scene.image, scene.K, train=False)


def pose_vector(coarse, fine) -> np.ndarray:
    return np.concatenate([coarse.pose.q, coarse.pose.t, fine.pose.q, fine.pose.t])


def check_infer(coarse, fine, ref) -> str | None:
    out = pose_vector(coarse, fine)
    if not np.all(np.isfinite(out)):
        return "non-finite pose"
    for stage in (coarse, fine):
        norm = float(np.linalg.norm(stage.q_t.data))
        if not abs(norm - 1.0) <= UNIT_TOL:
            return f"quaternion norm {norm!r} is not 1"
    err = float(np.max(np.abs(out - np.asarray(ref))))
    if not err <= POSE_TOL:
        return f"pose differs from the reference by {err:.3e} (tolerance {POSE_TOL})"
    return None


def setup_infer(workload, seed, workdir, reference) -> InferState:
    spec = INFER[workload]
    ids = pick_scenes(spec, seed)
    dirs = write_scenes(spec, ids, os.path.join(workdir, "scenes"))
    model, _ = fresh_model(desk_config(), os.path.join(workdir, "model.ckpt"))
    refs = [reference[workload][str(j)] for j in ids]
    infer_request(model, dirs[0])  # warm-up
    return InferState(model, dirs, refs)


def measure_infer(st: InferState, seconds=None, n_ops=None, tracer=None) -> Run:
    """Requests in turn over the scenes until `seconds` have passed and one
    whole pass is done, or exactly `n_ops` requests."""
    run = Run()
    op = infer_request if tracer is None else tracer.spanned(infer_request, "bench.op")
    n = len(st.dirs)
    start = pass_start = clock()
    k = 0
    while True:
        if n_ops is not None:
            if k >= n_ops:
                break
        elif run.passes and clock() - start >= seconds:
            break
        i = k % n
        if tracer is not None:
            tracer.op = k
        t0 = clock()
        try:
            coarse, fine = op(st.model, st.dirs[i])
        except Exception:
            t1 = clock()
            run.fail(1, traceback.format_exc())
        else:
            t1 = clock()
            problem = check_infer(coarse, fine, st.refs[i])
            if problem:
                run.fail(1, f"scene {i}: {problem}")
        run.latencies.append(t1 - t0)
        run.op_times.append(t1 - t0)
        run.attempted += 1
        run.scenes += 1
        k += 1
        if k % n == 0:
            now = clock()
            run.passes.append(now - pass_start)
            pass_start = now
    return run


# -- training workload --------------------------------------------------------

@dataclass
class TrainState:
    model: object
    state: dict
    scenes: list
    ckpt: str
    ref: dict


def train_model_config():
    mcfg = desk_config()
    mcfg.image_strides = TRAIN_IMAGE_STRIDES
    return mcfg


def reset_model(model, state):
    params.restore(model.named_parameters(), state)
    params.restore_buffers(model.named_buffers(), state)


def setup_train(seed, workdir, reference) -> TrainState:
    variant = seed % TRAIN_VARIANTS
    scfg = data.SceneConfig(**TRAIN_SCENE)
    base = TRAIN_SEED_BASE + TRAIN_SCENES * variant
    scenes = [data.synth_scene(base + i, scfg) for i in range(TRAIN_SCENES)]
    model, state = fresh_model(train_model_config(), os.path.join(workdir, "init.ckpt"))
    # warm-up: one train-mode forward and backward, then back to the saved state
    s = scenes[0]
    coarse, fine = model(s.cloud, s.image, s.K, train=True, rng=np.random.default_rng(0))
    training.total_loss(coarse, fine, s.gt_pose.inverse(), training.LossParams()).backward()
    reset_model(model, state)
    return TrainState(model, state, scenes, os.path.join(workdir, "train.ckpt"),
                      reference["train_desk"][str(variant)])


def train_call(st: TrainState, log: list):
    """One `training.train` call; `log` gets (time, epoch mean loss) per epoch."""
    return training.train(st.model, st.scenes, TrainConfig(**TRAIN_CFG), st.ckpt,
                          max_steps=TRAIN_MAX_STEPS,
                          log_fn=lambda e, loss, rre, rte: log.append((clock(), loss)))


def check_train(log, rows, ref) -> list:
    """Epochs whose mean loss or holdout errors miss the reference."""
    want_loss, want_rows = ref["epoch_loss"], ref["holdout"]
    losses = [loss for _, loss in log]
    got_rows = [[r[0], r[3], r[4]] for r in rows]
    if len(losses) != len(want_loss) or \
            [r[0] for r in got_rows] != [r[0] for r in want_rows]:
        return list(range(len(want_loss)))
    # written as `not <=` so that NaN counts as a miss
    bad = {e for e, (got, want) in enumerate(zip(losses, want_loss))
           if not abs(got - want) <= LOSS_TOL * max(1.0, abs(want))}
    bad |= {e for (e, rre, rte), (_, want_rre, want_rte) in zip(got_rows, want_rows)
            if not (abs(rre - want_rre) <= HOLDOUT_TOL and abs(rte - want_rte) <= HOLDOUT_TOL)}
    return sorted(bad)


def _stamped(fn, stamps):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        stamps.append(clock())
        return out
    return wrapper


def measure_train(st: TrainState, seconds=None, n_ops=None, tracer=None) -> Run:
    """Whole train() calls from the same start state: as many as fit in
    `seconds` (at least one), or exactly `n_ops`.

    A step's latency is the time between two optimizer steps of one epoch,
    so it covers forward, backward, clipping and Adam but never the holdout
    eval or checkpoint write between epochs.
    """
    run = Run()
    steps_per_epoch = -(-TRAIN_SCENES // TRAIN_CFG["batch_size"])
    op = train_call if tracer is None else tracer.spanned(train_call, "bench.op")
    stamps = []
    hooks = Tracer()
    hooks.patch(training.Adam, "step", lambda fn: _stamped(fn, stamps))
    try:
        start = clock()
        while True:
            if n_ops is not None:
                if run.ops >= n_ops:
                    break
            elif run.ops and clock() - start + run.op_times[-1] > seconds:
                break
            reset_model(st.model, st.state)
            stamps.clear()
            log = []
            if tracer is not None:
                tracer.op = run.ops
            t0 = clock()
            try:
                _best, rows = op(st, log)
            except Exception:
                t1 = clock()
                run.fail(TRAIN_MAX_STEPS, traceback.format_exc())
            else:
                t1 = clock()
                bad = check_train(log, rows, st.ref)
                if bad:
                    run.fail(min(TRAIN_MAX_STEPS, len(bad) * steps_per_epoch),
                             f"epochs {bad} miss the reference loss or holdout errors")
                ends = [t for t, _ in log]
                run.passes.extend(np.diff([t0] + ends).tolist())
                epoch_of = np.searchsorted(ends, stamps)
                for a, b, ea, eb in zip(stamps, stamps[1:], epoch_of, epoch_of[1:]):
                    if ea == eb:
                        run.latencies.append(b - a)
            run.op_times.append(t1 - t0)
            run.attempted += TRAIN_MAX_STEPS
            run.scenes += TRAIN_MAX_STEPS * TRAIN_CFG["batch_size"]
    finally:
        hooks.restore()
    return run


# -- the traced run's layer wrappers ------------------------------------------

def _knn_count(counts, args, out):
    mask = out[1]
    counts["sampling.knn_centers"] += mask.shape[0]
    counts["sampling.knn_candidate_pairs"] += mask.shape[0] * args[1].count
    counts["sampling.knn_slots"] += mask.size
    counts["sampling.knn_valid"] += int(mask.sum())


# (owner, attribute, layer, counter): each function is wrapped where its
# caller looks it up, e.g. pyramids and cost_volume import the KNN by name.
SPANS = [
    (pyramids, "projection_aware_knn", "sampling.knn", _knn_count),
    (cost_volume, "projection_aware_knn", "sampling.knn", _knn_count),
    (pyramids, "cell_sample", "sampling.cell_sample", None),
    (registration, "spherical_project_many", "geometry.spherical_project", None),
    (autodiff, "conv2d_3x3", "autodiff.conv2d", None),
    (autodiff.Tensor, "backward", "autodiff.backward", None),
    (nn_blocks.SharedMlp, "__call__", "nn_blocks.shared_mlp", None),
    (nn_blocks.ConvBlock, "__call__", "nn_blocks.conv_block", None),
    (pyramids.ImagePyramid, "__call__", "pyramids.image_pyramid", None),
    (pyramids.PointPyramid, "__call__", "pyramids.point_pyramid", None),
    (pyramids.ContextGather, "__call__", "pyramids.context", None),
    (pyramids.Upsample, "__call__", "pyramids.upsample", None),
    (cost_volume.CostVolumeModule, "ic_generate", "cost_volume.ic", None),
    (cost_volume.CostVolumeModule, "lst_embed", "cost_volume.lst", None),
    (cost_volume, "knn_pixel_candidates", "cost_volume.pixel_knn", None),
    (registration.RegistrationNet, "__call__", "registration.forward", None),
    (registration.RegistrationNet, "extract", "registration.extract", None),
    (registration.RegistrationNet, "run_coarse", "registration.coarse", None),
    (registration.RegistrationNet, "run_fine", "registration.fine", None),
    (registration.PoseRegressor, "__call__", "registration.pose_head", None),
    (training.Adam, "step", "training.adam", None),
    (training, "clip_grad_norm", "training.clip", None),
    (training, "total_loss", "training.loss", None),
    (training, "evaluate_scenes", "training.holdout_eval", None),
    (training, "save_checkpoint", "params.ckpt_save", None),
    (params, "save_checkpoint", "params.ckpt_save", None),
    (params, "load_checkpoint", "params.ckpt_load", None),
    (data, "read_scene", "data.read_scene", None),
    (data, "synth_scene", "data.synth_scene", None),
]
NODE_COUNTER = (autodiff.Tensor, "_make", "autodiff.nodes")

FORWARD_LAYERS = [
    "registration.forward", "registration.extract", "registration.coarse",
    "registration.fine", "registration.pose_head", "pyramids.image_pyramid",
    "pyramids.point_pyramid", "pyramids.context", "pyramids.upsample",
    "cost_volume.ic", "cost_volume.lst", "cost_volume.pixel_knn", "sampling.knn",
    "sampling.cell_sample", "geometry.spherical_project", "autodiff.conv2d",
    "nn_blocks.shared_mlp", "nn_blocks.conv_block",
]
TRAIN_LAYERS = ["autodiff.backward", "training.adam", "training.clip",
                "training.loss", "training.holdout_eval", "params.ckpt_save"]
INFER_LAYERS = ["data.read_scene"]
SETUP_LAYERS = ["data.synth_scene", "params.ckpt_load", "params.ckpt_save"]
# layers that must record calls while a workload is measured
EXPECTED = {
    "infer_desk": FORWARD_LAYERS + INFER_LAYERS,
    "infer_dense": FORWARD_LAYERS + INFER_LAYERS,
    "train_desk": FORWARD_LAYERS + TRAIN_LAYERS,
}
# per-scene self-time metrics, in print order
TIMED_LAYERS = FORWARD_LAYERS + TRAIN_LAYERS + INFER_LAYERS

COVERAGE_MIN = 0.9


class TraceFailure(Exception):
    pass


def install(tracer: Tracer):
    try:
        for owner, attr, layer, count in SPANS:
            tracer.patch(owner, attr, lambda fn, layer=layer, count=count:
                         tracer.spanned(fn, layer, count))
        owner, attr, key = NODE_COUNTER
        tracer.patch(owner, attr, lambda fn: tracer.counted(fn, key))
    except AttributeError:
        tracer.restore()
        raise TraceFailure(f"{owner.__name__} has no {attr!r} to wrap") from None


# -- running a workload -------------------------------------------------------

def do_setup(workload, seed, workdir, reference):
    _clear(workdir)
    if workload == "train_desk":
        return setup_train(seed, workdir, reference)
    return setup_infer(workload, seed, workdir, reference)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(run: Run, setup_times) -> dict:
    lat = np.asarray(run.latencies) * 1e3
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "latency_ms_p50": (float(np.percentile(lat, 50)), "ms"),
        "latency_ms_p90": (float(np.percentile(lat, 90)), "ms"),
        "scenes_per_s": (run.scenes / sum(run.op_times), "1/s"),
        "epoch_s_p50": (statistics.median(run.passes), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(workload, plain: Run, traced: Run, layers, counts, setup_layers) -> dict:
    scenes = traced.scenes
    forwards = layers.get("registration.forward", (0.0, 0.0, 0))[2]
    traced_s = sum(traced.op_times)
    missing = [name for name in EXPECTED[workload] if layers.get(name, (0, 0, 0))[2] == 0]
    missing += [name for name in SETUP_LAYERS if setup_layers.get(name, (0, 0, 0))[2] == 0]
    if counts["autodiff.nodes"] == 0:
        missing.append("autodiff.nodes")
    if missing:
        raise TraceFailure(f"wrapped layers recorded no calls: {', '.join(missing)}")
    covered = sum(s for name, (s, _, _) in layers.items() if name != "bench.op")
    coverage = covered / traced_s
    if not COVERAGE_MIN <= coverage <= 1.0 + 1e-9:
        raise TraceFailure(f"layer self times cover {coverage:.3f} of the traced "
                           f"time, outside [{COVERAGE_MIN}, 1]")
    out = {}
    for name in TIMED_LAYERS:
        out[f"{name}_s"] = (layers.get(name, (0.0, 0.0, 0))[0] / scenes, "s/scene")
    knn_calls = layers["sampling.knn"][2]
    out["sampling.knn_calls"] = (knn_calls / scenes, "calls/scene")
    out["sampling.knn_centers"] = (counts["sampling.knn_centers"] / scenes, "centers/scene")
    out["sampling.knn_candidate_pairs"] = (counts["sampling.knn_candidate_pairs"] / scenes,
                                           "pairs/scene")
    out["sampling.knn_fill_ratio"] = (counts["sampling.knn_valid"]
                                      / counts["sampling.knn_slots"], "ratio")
    out["autodiff.nodes_per_scene"] = (counts["autodiff.nodes"] / forwards, "nodes/scene")
    out["training.holdout_eval_total_s"] = (
        layers.get("training.holdout_eval", (0.0, 0.0, 0))[1] / scenes, "s/scene")
    out["data.synth_scene_s"] = (setup_layers["data.synth_scene"][0], "s/setup")
    out["params.ckpt_load_s"] = (setup_layers["params.ckpt_load"][0], "s/setup")
    out["trace.overhead_ratio"] = (traced_s / sum(plain.op_times), "ratio")
    out["trace.self_time_coverage"] = (coverage, "ratio")
    return out


def run_workload(workload, seed, seconds, trace, workdir):
    """Returns (metrics {name: (value, unit)}, attempted, failed, notes)."""
    reference = load_reference()
    measure = measure_train if workload == "train_desk" else measure_infer
    if not trace:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            st = do_setup(workload, seed, workdir, reference)
            setup_times.append(clock() - t0)
        run = measure(st, seconds=seconds)
        notes = [f"latency samples {len(run.latencies)}, passes {len(run.passes)}, "
                 f"operations {run.ops}, set-ups (s) "
                 + " ".join(f"{t:.3f}" for t in setup_times)] + run.problems
        return end_to_end(run, setup_times), run.attempted, run.failed, notes

    tracer = Tracer()
    install(tracer)
    try:
        st = do_setup(workload, seed, workdir, reference)
        setup_layers = self_times(tracer.spans)
    finally:
        tracer.restore()
    plain = measure(st, seconds=seconds / 2)
    install(tracer)
    tracer.reset()
    try:
        traced = measure(st, n_ops=plain.ops, tracer=tracer)
    finally:
        tracer.restore()
    layers = self_times(tracer.spans)
    metrics = per_layer(workload, plain, traced, layers, tracer.counts, setup_layers)
    notes = [f"traced operations {traced.ops}, scenes {traced.scenes}, "
             f"spans {len(tracer.spans)}"] + plain.problems + traced.problems
    return (metrics, plain.attempted + traced.attempted, plain.failed + traced.failed,
            notes)


def environment(workload, seed) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "backend": _kernels.backend(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
    }
