"""Tests of the benchmark's own span accounting and metric lists.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import signal
import sys
import time
import types
from array import array
from pathlib import Path

import pytest

import run
from calibrate import REF_KERNEL_S, Calibrator
from spans import NO_PARENT, SpanLog, Tracer, covered_length, installed, layer_totals, self_times
from workloads import LAYERS, TRACE_FILES, WORKLOADS, per_layer_metric_specs

ROOT = Path(__file__).resolve().parent.parent


def _log(spans) -> SpanLog:
    """SpanLog from (name, parent, start, end) tuples."""
    names = sorted({s[0] for s in spans})
    return SpanLog(
        names=names,
        name_ids=array("i", [names.index(s[0]) for s in spans]),
        parents=array("i", [s[1] for s in spans]),
        starts=array("d", [s[2] for s in spans]),
        ends=array("d", [s[3] for s in spans]),
        counts={},
    )


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered_length([], 0, 10) == 0


def test_self_time_is_span_minus_union_of_children():
    log = _log(
        [
            ("outer", NO_PARENT, 0.0, 10.0),
            ("a", 0, 1.0, 3.0),
            ("b", 0, 2.0, 5.0),  # overlaps a: the union counts [2, 3] once
            ("a", 0, 7.0, 8.0),
            ("leaf", 1, 1.5, 2.5),  # grandchild: inside a, not outer's child
        ]
    )
    selfs = self_times(log)
    assert selfs[0] == pytest.approx(10.0 - 5.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[4] == pytest.approx(1.0)
    totals = layer_totals(log)
    assert totals["a"].calls == 2
    assert totals["a"].busy_s == pytest.approx(3.0)
    assert totals["outer"].self_s == pytest.approx(5.0)


def test_tracer_records_nesting_with_parents():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda x: x * 2)
    outer = tracer.wrap("outer", lambda: inner(1) + inner(2))
    assert outer() == 6
    log = tracer.log()
    assert [log.names[i] for i in log.name_ids] == ["outer", "inner", "inner"]
    assert list(log.parents) == [NO_PARENT, 0, 0]
    assert list(log.starts) == [0.0, 1.0, 4.0]
    assert list(log.ends) == [10.0, 2.0, 7.0]
    assert self_times(log)[0] == pytest.approx(10.0 - 1.0 - 3.0)


def test_wrapper_returns_the_same_object_and_counts():
    sentinel = object()
    tracer = Tracer()

    def count(counter, args, kwargs, result, pre):
        counter["seen"] += pre + kwargs["k"]

    traced = tracer.wrap("f", lambda x, k=0: sentinel, count, before=lambda a, kw: a[0])
    assert traced(3, k=4) is sentinel
    assert tracer.counts["f"]["seen"] == 7


def test_wrapper_reraises_the_same_exception_and_closes_the_span():
    error = ValueError("boom")

    def fails():
        raise error

    tracer = Tracer()
    traced = tracer.wrap("fails", fails)
    with pytest.raises(ValueError) as caught:
        traced()
    assert caught.value is error
    after = tracer.wrap("after", lambda: None)
    after()
    log = tracer.log()
    assert log.ends[0] >= log.starts[0]
    assert log.parents[1] == NO_PARENT


def test_installed_wraps_sites_and_restores_them(monkeypatch):
    module = types.ModuleType("fake_layer_module")

    class Pool:
        def save(self, x):
            return x + 1

    def f(x):
        return -x

    module.f, module.Pool = f, Pool
    original_save = Pool.save
    monkeypatch.setitem(sys.modules, module.__name__, module)
    layer = types.SimpleNamespace(
        name="layer",
        sites=(f"{module.__name__}:f", f"{module.__name__}:Pool.save"),
        count=None,
        before=None,
    )
    tracer = Tracer()
    with installed(tracer, [layer]):
        assert module.f(2) == -2
        assert Pool().save(2) == 3
    assert module.f is f
    assert Pool.save is original_save
    assert layer_totals(tracer.log())["layer"].calls == 2


def test_span_log_round_trip(tmp_path):
    log = _log([("x", NO_PARENT, 0.5, 1.5), ("y", 0, 0.75, 1.0)])
    log.counts = {"x": {"n": 3}}
    path = tmp_path / "t.spans"
    log.save(path)
    back = SpanLog.load(path)
    assert back == log


def test_every_layer_site_exists_in_passband(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import importlib

    for layer in LAYERS:
        for site in layer.sites:
            module_name, _, attr_path = site.partition(":")
            holder = importlib.import_module(module_name)
            for part in attr_path.split("."):
                holder = getattr(holder, part)
            assert callable(holder), site


def test_exercised_layers_are_known():
    names = {layer.name for layer in LAYERS}
    for workload in WORKLOADS.values():
        assert set(workload.exercised) <= names, workload.name


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        per_layer_metric_specs()
    )
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_tracing_leaves_a_closed_loop_run_unchanged(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import passband.harness
    from passband.config import parse_config

    text = WORKLOADS["steer"].config_text(3).replace("steps = 360", "steps = 4")
    config = parse_config(text)
    passband.harness.emit_traces(passband.harness.run_experiment(config), tmp_path / "plain")
    tracer = Tracer()
    with installed(tracer, LAYERS):
        result = passband.harness.run_experiment(config)
        passband.harness.emit_traces(result, tmp_path / "traced")
    assert not hasattr(passband.harness.run_experiment, "__wrapped__")
    for name in TRACE_FILES:
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    log = tracer.log()
    totals = layer_totals(log)
    fresh = totals["env.sample_fresh_group"].calls
    assert fresh == 4 * 64
    assert log.counts["env.sample_fresh_group"]["rollouts"] == 8 * fresh
    assert (
        totals["env.sample_rerollout_group"].calls
        == log.counts["controller.PrefixPool.drain"]["drained"]
    )
    assert totals["harness.run_experiment"].calls == 1
    assert log.counts["harness.emit_traces"]["files"] == 5


def test_reference_seconds_divide_each_stretch_by_the_kernels_around_it():
    cal = Calibrator()
    # Eight stretches of 1 s, [2i, 2i + 1]; kernel i runs just before stretch i.
    cal.starts = array("d", [2.0 * i for i in range(8)])
    cal.ends = array("d", [2.0 * i + 1 for i in range(8)])
    cal.kernel_s = array("d", [1e-3, 1e-3, 1e-3, 1e-3, 2e-3, 2e-3, 2e-3, 2e-3])
    assert cal.work_seconds(0.0, 16.0) == pytest.approx(8.0)
    assert cal.work_seconds(0.5, 3.0) == pytest.approx(1.5)
    around = [a for _, _, a in cal.stretches()]
    # Medians of kernels i-2 .. i+3: the step from 1 to 2 ms is blended only
    # in the stretch that lies across it.
    assert around == pytest.approx([1e-3, 1e-3, 1e-3, 1.5e-3, 2e-3, 2e-3, 2e-3, 2e-3])
    ref = REF_KERNEL_S * 1e3
    assert cal.reference_seconds(0.0, 16.0) == pytest.approx(ref * (3 + 1 / 1.5 + 4 / 2))
    assert cal.reference_seconds(6.5, 8.5) == pytest.approx(ref * (0.5 / 1.5 + 0.5 / 2))


def test_one_slow_kernel_does_not_move_the_stretches_around_it():
    cal = Calibrator()
    cal.starts = array("d", [2.0 * i for i in range(8)])
    cal.ends = array("d", [2.0 * i + 1 for i in range(8)])
    cal.kernel_s = array("d", [1e-3] * 8)
    cal.kernel_s[4] = 9e-3
    assert [a for _, _, a in cal.stretches()] == pytest.approx([1e-3] * 8)


def test_calibrator_interrupts_the_workload_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    runs = []
    with Calibrator(period_s=0.005, work=lambda: runs.append(1)) as cal:
        start = time.perf_counter()
        while len(cal.kernel_s) < 4:
            sum(range(1000))
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(runs) == len(cal.kernel_s) + 1  # plus the warm-up
    assert len(cal.starts) == len(cal.ends) == len(cal.kernel_s)
    assert all(s <= e for s, e in zip(cal.starts, cal.ends))
    assert 0 < cal.work_seconds(start, end) <= end - start
