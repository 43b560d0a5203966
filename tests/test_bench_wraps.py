"""The benchmark's traced run wraps program functions where their callers
look them up (perfbench/workloads.py SPANS), and every run checks its poses
and training losses against perfbench/reference.json. Doing both here makes
a renamed or removed entry point, or an eval or training output that drifts,
fail the test suite, not only a benchmark run."""

import os

import pytest

import im2pc.pyramids as P
import im2pc.sampling as S
from im2pc.config import desk_config

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import spans
    import workloads
    return spans, workloads


def test_every_wrapped_entry_point_exists(bench):
    spans, workloads = bench
    tracer = spans.Tracer()
    workloads.install(tracer)
    try:
        assert P.projection_aware_knn.__wrapped__ is S.projection_aware_knn
    finally:
        tracer.restore()
    assert P.projection_aware_knn is S.projection_aware_knn


def test_a_missing_entry_point_fails_the_install(bench, monkeypatch):
    spans, workloads = bench
    monkeypatch.delattr(P, "projection_aware_knn")
    with pytest.raises(workloads.TraceFailure):
        workloads.install(spans.Tracer())


@pytest.mark.parametrize("workload, ids", [("infer_desk", (0, 17, 63)), ("infer_dense", (5,))],
                         ids=["infer_desk", "infer_dense"])
def test_eval_poses_match_the_benchmark_reference(bench, tmp_path, workload, ids):
    _, workloads = bench
    reference = workloads.load_reference()[workload]
    dirs = workloads.write_scenes(workloads.INFER[workload], ids, str(tmp_path / "scenes"))
    model, _ = workloads.fresh_model(desk_config(), str(tmp_path / "model.ckpt"))
    for j, scene_dir in zip(ids, dirs):
        coarse, fine = workloads.infer_request(model, scene_dir)
        assert workloads.check_infer(coarse, fine, reference[str(j)]) is None, j


def test_training_matches_the_benchmark_reference(bench, tmp_path):
    # one 25-step train() call: the train forward, backward, loss, Adam and
    # the holdout evaluation, against the per-epoch losses and holdout rows
    _, workloads = bench
    st = workloads.setup_train(3, str(tmp_path), workloads.load_reference())
    # move every array off the saved state, then reset as measure_train does
    # before each call: an array the reset skips shows in the outputs
    for p in st.model.named_parameters():
        p.data = p.data + 1.0
    for _name, owner, attr in st.model.named_buffers():
        setattr(owner, attr, getattr(owner, attr) + 1.0)
    workloads.reset_model(st.model, st.state)
    log = []
    _, rows = workloads.train_call(st, log)
    assert workloads.check_train(log, rows, st.ref) == []
