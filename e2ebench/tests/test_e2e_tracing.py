"""Span bookkeeping, attribute patching, and the lazy drain wrapper."""

import types

from e2ebench.tracing import Patches, Tracer


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.begin("outer")
    tracer.begin("inner")
    inner = tracer.end()
    outer = tracer.end()
    assert tracer.total["outer"] == outer
    assert tracer.self_time["outer"] == outer - inner
    assert tracer.self_time["inner"] == inner
    assert tracer.covered == outer
    (n0, _s0, _e0, p0, _), (n1, _s1, _e1, p1, _) = tracer.spans
    assert (n0, p0, n1, p1) == ("outer", -1, "inner", 0)


def test_timed_closes_span_on_error():
    tracer = Tracer()

    def boom():
        raise ValueError

    wrapped = tracer.timed("boom", boom)
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.calls["boom"] == 1 and not tracer._stack


def test_timed_iter_is_lazy():
    tracer = Tracer()
    pulled = []

    def source():
        for i in range(3):
            pulled.append(i)
            yield i

    wrapped = tracer.timed_iter("drain", source)
    it = wrapped()
    assert pulled == []  # nothing materialized before the caller pulls
    assert next(it) == 0 and pulled == [0]
    assert list(it) == [1, 2]
    # the call plus one span per pull (three items and the final stop)
    assert tracer.calls["drain"] == 5


def test_timed_iter_passes_lists_through():
    tracer = Tracer()
    wrapped = tracer.timed_iter("drain", lambda: [1, 2])
    assert list(wrapped()) == [1, 2]
    assert tracer.calls["drain"] == 1


def test_patches_restore_instance_class_and_module():
    class Thing:
        def f(self):
            return "class"

    obj = Thing()
    mod = types.ModuleType("m")
    mod.g = len
    with Patches() as patches:
        patches.set(obj, "f", lambda: "instance")
        patches.wrap(Thing, "f", lambda orig: lambda self: "patched")
        patches.set(mod, "g", abs)
        assert obj.f() == "instance" and Thing().f() == "patched"
        assert mod.g is abs
    assert obj.f() == "class" and "f" not in vars(obj)
    assert mod.g is len
