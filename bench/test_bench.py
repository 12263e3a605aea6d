"""Tests for the benchmark's tracer, its per-layer metrics and BENCHMARK.json.

Run from the repository root with ``python -m pytest bench``.
"""

import json
import math
import types
from pathlib import Path

import pytest

import layers
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


class Clock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def plain(x):
    return x + 1


class Thing:
    def method(self, x):
        return 2 * x

    @classmethod
    def build(cls, x):
        return cls, x

    @staticmethod
    def helper(x):
        return -x


def test_wrappers_restore_the_originals():
    module = types.ModuleType("m")
    module.plain = plain
    originals = {name: vars(Thing)[name] for name in ("method", "build", "helper")}
    tracer = Tracer()
    tracer.wrap(module, "plain", "plain")
    for name in originals:
        tracer.wrap(Thing, name, name)
    try:
        assert module.plain is not plain
        assert module.plain(1) == 2
        assert Thing().method(3) == 6
        assert Thing.build(4) == (Thing, 4)
        assert Thing.helper(5) == -5
        assert isinstance(vars(Thing)["build"], classmethod)
        assert isinstance(vars(Thing)["helper"], staticmethod)
    finally:
        tracer.restore()
    assert module.plain is plain
    for name, original in originals.items():
        assert vars(Thing)[name] is original
    assert [s.name for s in tracer.spans] == ["plain", "method", "build", "helper"]


def test_restore_after_an_exception_records_the_error():
    def boom():
        raise ValueError("no")

    module = types.ModuleType("m")
    module.boom = boom
    tracer = Tracer()
    tracer.wrap(module, "boom", "boom")
    with pytest.raises(ValueError):
        module.boom()
    tracer.restore()
    assert module.boom is boom
    assert tracer.spans[0].attrs == {"error": "ValueError"}
    with tracer.span("after"):
        pass
    assert tracer.spans[1].parent == -1


def test_wrapping_an_inherited_attribute_is_refused():
    class Child(Thing):
        pass

    with pytest.raises(KeyError):
        Tracer().wrap(Child, "method", "method")


def test_self_time_is_the_span_minus_its_child_spans():
    clock = Clock()
    tracer = Tracer(clock)
    with tracer.span("root"):
        clock.now += 1.0
        with tracer.span("child"):
            clock.now += 2.0
            with tracer.span("grandchild"):
                clock.now += 4.0
            clock.now += 8.0
        clock.now += 16.0
        with tracer.span("child"):
            clock.now += 32.0
        clock.now += 64.0
    root, child, grandchild, child2 = tracer.spans
    assert (child.parent, grandchild.parent, child2.parent) == (0, 1, 0)
    assert root.duration == 127.0
    assert tracer.self_times() == [
        root.duration - child.duration - child2.duration,
        child.duration - grandchild.duration,
        4.0,
        32.0,
    ]
    assert tracer.self_times()[:2] == [81.0, 10.0]


def test_attrs_are_recorded_outside_the_timed_interval():
    clock = Clock()

    def slow_attrs(result, args, kwargs):
        clock.now += 100.0
        return {"result": result, "arg": args[0]}

    module = types.ModuleType("m")
    module.plain = plain
    tracer = Tracer(clock)
    tracer.wrap(module, "plain", "plain", slow_attrs)
    module.plain(41)
    assert tracer.spans[0].attrs == {"result": 42, "arg": 41}
    assert tracer.spans[0].duration == 0.0


def synthetic_trace():
    """A traced run's span tree with known timings."""
    clock = Clock()
    tracer = Tracer(clock)
    tape = types.SimpleNamespace(tape=types.SimpleNamespace(nodes=[0] * 7))

    def tick(name, dt, attrs=None):
        with tracer.span(name) as span:
            clock.now += dt
            span.attrs.update(attrs or {})

    with tracer.span(layers.RUN_SPAN):
        tick("problems.loss_value", 0.001)
        with tracer.span("gramian.from_problem"):
            tick("autodiff.linearize", 0.002, {"tape_nodes": len(tape.tape.nodes)})
        with tracer.span("sketch.nystrom") as sk:
            sk.attrs["rank"] = 4
            with tracer.span("gramian.matmat") as mm:
                mm.attrs["cols"] = 4
                for _ in range(4):
                    with tracer.span("gramian.matvec"):
                        tick("autodiff.jvp", 0.001)
                        tick("autodiff.vjp", 0.001)
            clock.now += 0.5
        with tracer.span("krylov.pcg") as pcg:
            pcg.attrs.update(iterations=1, converged=True, breakdown=False)
            with tracer.span("gramian.matvec"):
                clock.now += 0.002
            tick("sketch.precond", 0.003)
        with tracer.span("optim.linesearch") as ls:
            ls.attrs["alpha"] = 1.0
            tick("problems.loss_value", 0.001)
            tick("problems.loss_value", 0.001)
        clock.now += 0.25
    return tracer


def test_layer_metrics_of_a_synthetic_trace():
    tracer = synthetic_trace()
    train_s = tracer.spans[0].duration
    m = {k: v for k, (v, _) in layers.metrics(tracer, [1], [6], [train_s], train_s).items()}
    assert m["gramian.matvec.calls"] == 5
    assert m["gramian.matmat.cols"] == 4
    assert m["sketch.attempts_per_call"] == 1.0
    assert m["sketch.matvec_share"] == pytest.approx(4 / 6)
    assert m["sketch.nystrom.self_s"] == pytest.approx(0.5)
    assert m["optim.self_s"] == pytest.approx(0.25)
    assert m["optim.loss_evals_per_iter"] == 3
    assert m["optim.linesearch.loss_evals_per_call"] == 2
    assert m["autodiff.tape_nodes"] == 7
    assert m["trace.overhead"] == 0.0
    assert all(math.isfinite(v) for v in m.values())


def test_benchmark_json_lists_every_metric_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = synthetic_trace()
    train_s = tracer.spans[0].duration
    per_layer = layers.metrics(tracer, [1], [6], [train_s], train_s)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in per_layer.items()
    ]
    import run

    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert spec["run_seconds"] == run.RUN_SECONDS
    seed_run = dict(
        status="target", train_s=1.0, setup_s=0.1, iterations=1, matvecs=10,
        train_h1=1e-3, heldout_h1=1e-3,
    )
    end_to_end = run.end_to_end([seed_run], [0.4], [seed_run])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in end_to_end.items()
    ]
