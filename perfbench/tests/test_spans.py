"""Self-time arithmetic and the patching of traced entry points."""

import os
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from spans import Tracer, self_times  # noqa: E402


def test_self_times_of_a_hand_built_tree():
    # op [0, 10] holds a [1, 4] (holding b [2, 3]) and c [5, 9] (holding b [6, 8])
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 5.0, 9.0, 0, 0],
        ["b", 6.0, 8.0, 3, 0],
    ]
    got = self_times(spans)
    assert got == {"op": (3.0, 10.0, 1), "a": (2.0, 3.0, 1),
                   "b": (3.0, 3.0, 2), "c": (2.0, 4.0, 1)}
    assert sum(s for s, _, _ in got.values()) == 10.0


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_spans_nest_and_count():
    tracer = Tracer(clock=_Clock())
    seen = []

    def inner(x):
        return x + 1

    inner_t = tracer.spanned(inner, "inner",
                             count=lambda counts, args, out: seen.append((args, out)))

    def outer(x):
        return inner_t(x) * 2

    outer_t = tracer.spanned(outer, "outer")
    tracer.op = 7
    assert outer_t(1) == 4
    assert seen == [((1,), 2)]
    (n0, s0, e0, p0, op0), (n1, s1, e1, p1, op1) = tracer.spans
    assert (n0, p0, op0, n1, p1, op1) == ("outer", -1, 7, "inner", 0, 7)
    assert s0 < s1 < e1 < e0
    assert self_times(tracer.spans)["outer"][0] == (e0 - s0) - (e1 - s1)


def test_patch_restores_functions_methods_and_staticmethods():
    mod = types.SimpleNamespace(fn=lambda: "fn")

    class Owner:
        def method(self):
            return "method"

        @staticmethod
        def make():
            return "make"

    tracer = Tracer()
    tracer.patch(mod, "fn", lambda f: tracer.spanned(f, "mod.fn"))
    tracer.patch(Owner, "method", lambda f: tracer.spanned(f, "owner.method"))
    tracer.patch(Owner, "make", lambda f: tracer.counted(f, "made"))
    assert (mod.fn(), Owner().method(), Owner.make(), Owner().make()) == \
        ("fn", "method", "make", "make")
    assert [s[0] for s in tracer.spans] == ["mod.fn", "owner.method"]
    assert tracer.counts["made"] == 2
    tracer.restore()
    assert not hasattr(mod.fn, "__wrapped__")
    assert isinstance(Owner.__dict__["make"], staticmethod)
    assert not hasattr(Owner.__dict__["make"].__func__, "__wrapped__")
    assert not hasattr(Owner.__dict__["method"], "__wrapped__")


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=_Clock())

    def boom():
        raise ValueError("x")

    wrapped = tracer.spanned(boom, "boom")
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.spans[0][2] > tracer.spans[0][1]
    wrapped_ok = tracer.spanned(lambda: None, "after")
    wrapped_ok()
    assert tracer.spans[1][3] == -1   # the failed span left the stack
