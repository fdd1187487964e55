"""Tests of the benchmark harness itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

import speed
import tracer as tracing
import worker

from polynorm import bounds, catalog, cli, invariants, polytope


def test_self_times_on_nested_spans():
    # root [0, 10] > a [1, 6] > b [2, 3], b [4, 5]; root > c [7, 9]
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 6.0, 0),
        ("b", 2.0, 3.0, 1),
        ("b", 4.0, 5.0, 1),
        ("c", 7.0, 9.0, 0),
    ]
    out = tracing.self_times(spans)
    assert out == {"root": 3.0, "a": 3.0, "b": 2.0, "c": 2.0}
    assert sum(out.values()) == 10.0


def test_speed_normalisation_rescales_by_nearby_readings():
    sampler = speed.SpeedSampler()
    nominal = speed.REF_NOMINAL_S
    # full speed until t=10, half speed from t=10 on; each sample takes 1 ms
    for t in range(20):
        sampler.samples.append((float(t), t + 0.001, nominal if t < 10 else 2 * nominal))
        sampler._starts.append(float(t))
    assert sampler.normalise(2.5, 2.6) == pytest.approx((0.1, 0.1))
    assert sampler.normalise(12.5, 12.7) == pytest.approx((0.2, 0.1))
    # a sample inside the interval is left out of its raw time
    assert sampler.normalise(3.5, 4.5) == pytest.approx((0.999, 0.999))
    assert sampler.speed() == 0.75


def test_speed_normalisation_uses_samples_inside_a_long_interval():
    sampler = speed.SpeedSampler()
    nominal = speed.REF_NOMINAL_S
    # every 10 ms; half speed from t=0.5 on
    for i in range(100):
        t = i / 100
        sampler.samples.append((t, t + 0.001, nominal if t < 0.5 else 2 * nominal))
        sampler._starts.append(t)
    # ten samples inside: only the half speed counts, not the window before
    raw, normalised = sampler.normalise(0.595, 0.695)
    assert raw == pytest.approx(0.09)
    assert normalised == pytest.approx(0.045)


def test_wrapped_calls_record_nested_spans():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    # outer opens at 0, inner runs from 1 to 2, outer closes at 3
    assert dict(tracer.self_s) == {"outer": 2.0, "inner": 1.0}
    assert tracer.counts["outer.calls"] == tracer.counts["inner.calls"] == 1
    assert tracer.spans == [] and tracer.stack == []


def _run_analyze(spec, tmp_path):
    op = worker.Op(spec, ("analyze", spec, "--format", "json", "--cache-dir", "{tmp}/c"))
    return worker.run_op(op, str(tmp_path))


def test_traced_cli_run_records_alias_spans(tmp_path):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert cli.full_report is bounds.full_report
        assert hasattr(cli.full_report, "__wrapped__")
        start, end, ok, data = _run_analyze("cube:2", tmp_path)
    assert ok and data.startswith(b"{")
    # cli calls full_report through its own `from .bounds import` binding
    assert tracer.counts["bounds.full_report.calls"] == 1
    assert tracer.counts["cli.main.calls"] == 1
    assert tracer.self_s["bounds.full_report"] > 0
    # catalog builds the polytope through its own from_points binding
    assert tracer.counts["polytope.from_points.calls"] >= 1
    assert tracer.counts["polytope.lattice_points.misses"] >= 1
    assert 0 < tracer.counts["polytope.lattice_points.points"] \
        <= tracer.counts["polytope.lattice_points.candidates"]
    targets = tracer.counts["semigroup.shortest_representations.targets"]
    assert tracer.counts["semigroup.shortest_representations.certificates"] == targets > 0
    # cli.main is the only root, so the self times add up to its duration
    assert sum(tracer.self_s.values()) <= end - start


def test_every_original_binding_is_restored(tmp_path):
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "polynorm" or name.startswith("polynorm.")}
    before = {(name, attr): value for name, mod in modules.items()
              for attr, value in vars(mod).items()}
    method = polytope.Polytope.lattice_points
    ctx = tracing.installed(tracing.Tracer())
    with ctx:
        assert catalog.from_points is invariants.from_points is polytope.from_points
        assert hasattr(catalog.from_points, "__wrapped__")
        _run_analyze("reeve", tmp_path)
    assert len(ctx.rebound) > 50
    for owner, attr, original in ctx.rebound:
        assert getattr(owner, attr) is original
    after = {(name, attr): value for name, mod in modules.items()
             for attr, value in vars(mod).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert polytope.Polytope.lattice_points is method
    assert cli.full_report is bounds.full_report


def test_tampered_golden_digest_counts_as_failure(tmp_path):
    golden = {"families": {s: None for s in worker.FAMILIES}}
    ops = [op for op in worker.build_ops("families", 0, golden)
           if op.key in ("cube:3", "reeve")]
    _, _, ok, data = worker.run_op(ops[0], str(tmp_path))
    assert ok
    good = hashlib.sha256(data).hexdigest()
    tampered = [worker.Op(ops[0].key, ops[0].argv, good),
                worker.Op(ops[1].key, ops[1].argv, "0" * 64)]
    tally = worker.Tally()
    worker.run_pass(tampered, str(tmp_path), tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.failures[0].startswith(ops[1].key)


def test_golden_digests_cover_every_input():
    golden = worker.load_golden()
    for workload in worker.WORKLOADS:
        ops = worker.build_ops(workload, worker.DEFAULT_SEED, golden)
        assert sorted(golden[workload]) == sorted(op.key for op in ops)
        assert all(op.digest for op in ops)
    assert len(golden["explore-random"]) == worker.EXPLORE_SAMPLES


def test_seed_only_permutes_the_inputs():
    for workload in worker.WORKLOADS:
        a = worker.build_ops(workload, 1)
        b = worker.build_ops(workload, 2)
        assert a != b or len(a) < 5
        assert sorted(a, key=repr) == sorted(b, key=repr)
        assert worker.build_ops(workload, 1) == a


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == worker.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.per_layer_units()
