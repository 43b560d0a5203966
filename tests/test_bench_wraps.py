"""The benchmark's traced run wraps program functions where their callers
look them up (perfbench/workloads.py SPANS). Installing and removing those
wrappers here makes a renamed or removed entry point fail the test suite,
not only a traced benchmark run."""

import os

import pytest

import im2pc.pyramids as P
import im2pc.sampling as S

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
