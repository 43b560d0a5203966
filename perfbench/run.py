"""im2pc benchmark: one workload in one process, outputs checked, metrics printed.

    python3 perfbench/run.py --workload infer_desk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1`` runs
the same operations once untraced and once with every layer wrapped, and
prints per-layer self times and counts plus the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. The metric
names, units and bounds are listed in ``BENCHMARK.json`` at the root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREADS = "1"
# what each metric measures on infer and on train workloads, named in the human table
ALIASES = {
    "infer": {"latency_ms_p50": "infer_ms_p50", "latency_ms_p90": "infer_ms_p90",
              "scenes_per_s": "infer_scenes_per_s", "epoch_s_p50": "pass_s_p50"},
    "train": {"latency_ms_p50": "step_ms_p50", "latency_ms_p90": "step_ms_p90",
              "scenes_per_s": "train_scenes_per_s", "epoch_s_p50": "train_epoch_s_p50"},
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("infer_desk", "infer_dense", "train_desk"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "im2pc", "__init__.py")):
        print(f"perfbench: no im2pc sources under {src}", file=sys.stderr)
        return 2
    # one client, one compute thread: pin BLAS before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [src, HERE]
    import workloads

    import im2pc
    if not os.path.abspath(im2pc.__file__).startswith(src + os.sep):
        print(f"perfbench: im2pc was imported from {im2pc.__file__}, not {src}",
              file=sys.stderr)
        return 2

    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        metrics, attempted, failed, notes = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except workloads.TraceFailure as e:
        print(f"perfbench: traced run failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it

    print(f"env {json.dumps(workloads.environment(args.workload, args.seed))}")
    aliases = ALIASES["train" if args.workload == "train_desk" else "infer"]
    for name, (value, unit) in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases and not args.trace else ""
        print(f"{name:34s} {value:14.6f} {unit}{alias}")
    print(f"{'op_fail_ratio':34s} {failed / attempted:14.6f} ratio  ({failed}/{attempted})")
    for note in notes:
        print(f"note: {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
