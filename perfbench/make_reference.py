"""Write perfbench/reference.json: the expected outputs every run checks.

    python3 perfbench/make_reference.py

Run from the root of a checkout after a change that is meant to alter the
model's outputs or the workload settings. It records, through the same
code paths the benchmark runs, the coarse and fine pose of every pool
scene of both inference workloads, and the per-epoch loss and holdout
errors of one train() call for every training variant.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads as W

    out = {"fingerprint": W.fingerprint()}
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=work_root)
    try:
        for name, spec in W.INFER.items():
            ids = list(range(spec.pool))
            dirs = W.write_scenes(spec, ids, os.path.join(workdir, name))
            model, _ = W.fresh_model(W.desk_config(), os.path.join(workdir, "model.ckpt"))
            out[name] = {str(j): W.pose_vector(*W.infer_request(model, d)).tolist()
                         for j, d in zip(ids, dirs)}
            print(f"{name}: {len(ids)} scenes", flush=True)
        out["train_desk"] = {}
        for variant in range(W.TRAIN_VARIANTS):
            st = W.setup_train(variant, workdir, {"train_desk": {str(variant): None}})
            log = []
            _best, rows = W.train_call(st, log)
            out["train_desk"][str(variant)] = {
                "epoch_loss": [loss for _, loss in log],
                "holdout": [[r[0], r[3], r[4]] for r in rows],
            }
            print(f"train_desk variant {variant}: losses "
                  f"{out['train_desk'][str(variant)]['epoch_loss']}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    with open(W.REFERENCE_PATH, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
