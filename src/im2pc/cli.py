"""Command-line entry point: gen, train, eval, infer, bench-knn.

Exit codes: 0 success, 2 bad arguments, 3 data error, 4 invariant violation.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import _kernels
from .config import TrainConfig, apply_overrides, desk_config, parse_kv_file
from .data import (SceneConfig, dataset_checksum, load_kitti_bin,
                   read_ppm, read_scene, synth_scene, write_scene)
from .errors import Im2pcError, MalformedFile, NonFiniteLoss
from .geometry import CameraIntrinsics
from .params import load_checkpoint, restore, restore_buffers
from .registration import RegistrationNet
from .reports import (decalib_errors, gated_stats, hist_rows, pair_errors,
                      recall_rows, write_hist_csv, write_metrics_csv,
                      write_recall_csv)
from .sampling import GroupingSpec, PointCloud, brute_force_knn, projection_aware_knn
from .training import train as run_train

MODE_CFG = {
    "large": dict(mode="large", rot_range=(0.0, 0.0, 30.0), transl_range=(1.0, 1.0, 0.0)),
    "coarse": dict(mode="coarse", rot_range=(10.0, 10.0, 10.0), transl_range=(0.5, 0.5, 0.5)),
    "decalib": dict(mode="decalib", rot_range=(5.0, 5.0, 5.0), transl_range=(0.25, 0.25, 0.25)),
}


def _scene_dirs(root):
    subs = sorted(d for d in os.listdir(root)
                  if os.path.isdir(os.path.join(root, d)) and d.startswith("scene_"))
    if not subs:
        raise MalformedFile(f"no scene_* directories under {root}")
    return [os.path.join(root, d) for d in subs]


def cmd_gen(args):
    cfg = SceneConfig(n_points=args.points, **MODE_CFG[args.mode])
    for i in range(args.n):
        scene = synth_scene(args.seed + i, cfg)
        write_scene(os.path.join(args.out, f"scene_{i:04d}"), scene)
    print(f"wrote {args.n} scenes to {args.out}")
    print(f"manifest sha256: {dataset_checksum(args.out)}")
    return 0


def _print_epoch(epoch, loss, rre, rte):
    line = f"epoch {epoch}: loss={loss:.4f}"
    if rre is not None:  # None on epochs without a holdout evaluation
        line += f" rre={rre:.3f} rte={rte:.3f}"
    print(line)


def cmd_train(args):
    cfg = TrainConfig()
    if args.config:
        try:  # UnicodeDecodeError is a ValueError
            cfg = apply_overrides(cfg, parse_kv_file(args.config))
        except (KeyError, ValueError) as e:
            raise MalformedFile(f"{args.config}: bad training config: {e}") from e
    scenes = [read_scene(d) for d in _scene_dirs(args.data)]
    model = RegistrationNet(desk_config(), seed=cfg.seed)
    log_path = args.out + ".log.csv"
    best, _ = run_train(model, scenes, cfg, args.out, log_path=log_path,
                        log_fn=_print_epoch)
    print(f"best holdout RTE {best:.6f}; checkpoint {args.out}; log {log_path}")
    return 0


def _load_model(ckpt):
    model = RegistrationNet(desk_config(), seed=0)
    state = load_checkpoint(ckpt)
    model_params = model.named_parameters()
    restore(model_params, state)
    restore_buffers(model.named_buffers(), state)
    return model


def cmd_eval(args):
    dirs = _scene_dirs(args.data)
    model = _load_model(args.ckpt)
    preds, gts, noises = [], [], []  # one scene in memory at a time
    for d in dirs:
        scene = read_scene(d)
        _, fine = model(scene.cloud, scene.image, scene.K, train=False)
        preds.append(fine.pose)
        gts.append(scene.gt_pose.inverse())
        if scene.meta.get("mode") == "decalib":  # decalib scores by the noise
            noises.append(float(scene.meta["noise"]))
    errors = pair_errors(preds, gts)
    stats = gated_stats(errors)
    extra = {}
    if len(noises) == len(dirs):
        msee, mrr = decalib_errors(preds, gts, noises)
        extra = {"msee": msee, "mrr": mrr}
    write_metrics_csv(args.out + "_metrics.csv", stats, extra)
    write_recall_csv(args.out + "_recall.csv", recall_rows(errors))
    write_hist_csv(args.out + "_hist.csv", hist_rows(errors))
    print(f"evaluated {len(dirs)} scenes; outputs at {args.out}_*.csv")
    return 0


def cmd_infer(args):
    model = _load_model(args.ckpt)
    cloud = load_kitti_bin(args.cloud)
    image = read_ppm(args.image)
    try:
        kv = parse_kv_file(args.intrinsics)
        K = CameraIntrinsics(*(float(kv[key]) for key in ("fx", "fy", "cx", "cy")))
    except (KeyError, ValueError) as e:
        raise MalformedFile(f"{args.intrinsics}: bad intrinsics: {e!r}") from e
    coarse, fine = model(cloud, image, K, train=False)
    for tag, pose in (("coarse", coarse.pose), ("fine", fine.pose)):
        q = " ".join(f"{c:.9f}" for c in pose.q)
        t = " ".join(f"{c:.9f}" for c in pose.t)
        print(f"{tag} q: {q}")
        print(f"{tag} t: {t}")
    return 0


def cmd_bench_knn(args):
    from .geometry import SphericalConfig, spherical_project_many

    rng = np.random.default_rng(args.seed)
    # a fixed density: the points fall uniformly on the front half of the
    # grid, inside its field of view, and the grid grows with n (32 x 128 at
    # n = 2000), so a 5x9 window holds about the same points at every n
    h = max(2, round(32 * math.sqrt(args.n / 2000)))
    cfg = SphericalConfig(h, 4 * h, 30.0, 30.0)
    mismatches = 0
    t_proj = t_brute = t_window = 0.0
    for _ in range(args.trials):
        az = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, args.n)
        el = np.radians(rng.uniform(-29.0, 29.0, args.n))
        pts = rng.uniform(5.0, 15.0, args.n)[:, None] * np.stack(
            [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=1)
        sph = spherical_project_many(pts, cfg)
        cloud = PointCloud(pts, np.zeros((args.n, 1)), spherical=sph)
        # full-coverage kernel and unbounded distance: must match brute force
        spec = GroupingSpec(args.k, (2 * cfg.H + 1, 2 * cfg.W + 1), np.inf)
        t0 = time.perf_counter()
        idx_p, _ = projection_aware_knn(cloud, cloud, spec, cfg)
        t1 = time.perf_counter()
        idx_b, _ = brute_force_knn(pts, pts, args.k)
        t2 = time.perf_counter()
        projection_aware_knn(cloud, cloud, GroupingSpec(args.k, (5, 9)), cfg)
        t3 = time.perf_counter()
        t_proj += t1 - t0
        t_brute += t2 - t1
        t_window += t3 - t2
        mismatches += int((idx_p != idx_b).sum())
    print(f"backend: {_kernels.backend()}")
    print(f"projection-aware: {t_proj:.4f}s  brute-force: {t_brute:.4f}s "
          f"({args.trials} trials, n={args.n}, k={args.k})")
    print(f"projection-aware, 5x9 window: {t_window:.4f}s ({cfg.H}x{cfg.W} grid)")
    print(f"mismatched indices: {mismatches}")
    if mismatches:
        return 4
    return 0


def _int_at_least(low: int, what: str):
    """argparse type of an integer of at least `low`, named `what` when refused."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not a {what}")
        return value
    return parse


positive_int = _int_at_least(1, "positive count")
seed_int = _int_at_least(0, "non-negative seed")  # np.random.default_rng refuses negatives


def build_parser():
    p = argparse.ArgumentParser(prog="im2pc")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate synthetic scenes")
    g.add_argument("--out", required=True)
    g.add_argument("--n", type=positive_int, required=True)
    g.add_argument("--seed", type=seed_int, default=0)
    g.add_argument("--mode", choices=("large", "coarse", "decalib"), default="coarse")
    g.add_argument("--points", type=positive_int, default=512)
    g.set_defaults(fn=cmd_gen)

    t = sub.add_parser("train", help="train on a generated dataset")
    t.add_argument("--data", required=True)
    t.add_argument("--config", default=None)
    t.add_argument("--out", required=True)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint, write CSV reports")
    e.add_argument("--data", required=True)
    e.add_argument("--ckpt", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_eval)

    i = sub.add_parser("infer", help="single-pair inference")
    i.add_argument("--ckpt", required=True)
    i.add_argument("--cloud", required=True)
    i.add_argument("--image", required=True)
    i.add_argument("--intrinsics", required=True)
    i.set_defaults(fn=cmd_infer)

    b = sub.add_parser("bench-knn", help="compare grouping against brute force")
    b.add_argument("--n", type=positive_int, default=2000)
    b.add_argument("--trials", type=positive_int, default=3)
    b.add_argument("--k", type=positive_int, default=16)
    b.add_argument("--seed", type=seed_int, default=0)
    b.set_defaults(fn=cmd_bench_knn)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (MalformedFile, FileNotFoundError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NonFiniteLoss as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 4
    except Im2pcError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
