"""Tests of the benchmark itself: its declared metrics, inputs and tracer."""

from __future__ import annotations

import json
import re
import threading
import time
from pathlib import Path

import pytest

import layer_trace
import run
import workloads
from speed import NOMINAL_S, SpeedReference
from repro import EvolutionConfig, run_sweep

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_are_valid_and_unique():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in BENCHMARK[group]:
            names.append(metric["name"])
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower"), metric
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_code():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(
        workloads.WORKLOADS
    )
    declared = {
        m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]
    }
    assert declared == {
        name: (unit, better)
        for name, (unit, better, _) in run.END_TO_END.items()
    }
    assert {
        m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    } == run.PER_LAYER
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def _inputs(workload, seed):
    if isinstance(workload, workloads.ServiceWorkload):
        return [(job.twin, job.spec.fingerprint()) for job in workload.plan(seed)]
    return [c.to_dict() for c in workload.configs(seed)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_the_generated_inputs(name):
    workload = workloads.WORKLOADS[name]
    assert _inputs(workload, 5) == _inputs(workload, 5)
    assert _inputs(workload, 5) != _inputs(workload, 6)


def test_service_plan_is_half_resubmissions_of_earlier_jobs():
    workload = workloads.WORKLOADS["svc-mixed"]
    plan = workload.plan(3)
    twins = [job.twin for job in plan if job.twin is not None]
    assert len(twins) == workload.jobs // 2
    assert all(
        job.twin < job.index and plan[job.twin].twin is None
        for job in plan if job.twin is not None
    )
    lane_seeds = [c.seed for job in plan if job.twin is None
                  for c in job.spec.configs]
    assert lane_seeds == list(range(3, 3 + len(lane_seeds)))


def test_tracer_wraps_and_unwraps_every_entry_point():
    before = layer_trace.snapshot_entry_points()
    tracer = layer_trace.Tracer()
    with tracer:
        during = layer_trace.snapshot_entry_points()
        assert all(during[n] is not before[n] for n in before)
        with pytest.raises(RuntimeError):
            tracer.install()
    after = layer_trace.snapshot_entry_points()
    assert all(after[n] is before[n] for n in before)


def test_failed_install_restores_what_it_patched(monkeypatch):
    before = layer_trace.snapshot_entry_points()
    broken = layer_trace.ENTRY_POINTS + (
        ("repro.ensemble.engine", "EnsembleEngine", ("no_such_method",),
         layer_trace._plain("x")),
    )
    monkeypatch.setattr(layer_trace, "ENTRY_POINTS", broken)
    with pytest.raises(KeyError):
        layer_trace.Tracer().install()
    monkeypatch.undo()
    after = layer_trace.snapshot_entry_points()
    assert all(after[n] is before[n] for n in before)


def test_traced_sweep_matches_untraced_and_accounts_for_its_wall():
    configs = [
        EvolutionConfig(memory_steps=2, n_ssets=8, generations=300,
                        seed=40 + i, record_events=False)
        for i in range(4)
    ]
    plain = [workloads.result_digest(r)
             for r in run_sweep(configs, backend="ensemble")]
    tracer = layer_trace.Tracer()
    with tracer:
        traced = tracer.sweep(run_sweep)(configs, backend="ensemble")
    assert [workloads.result_digest(r) for r in traced] == plain
    assert tracer.check() == []
    layers = tracer.layers()
    for name in ("ensemble.driver", "ensemble.pool", "ensemble.fill",
                 "ensemble.gather", "ensemble.rawstream.draw",
                 "core.vectorgame.cycle_payoffs_pairs"):
        assert layers[name].calls > 0, name
    assert "core.vectorgame.play_pairs_uniforms" not in layers
    fill = layers["ensemble.fill"].counts
    assert fill["pairs_filled"] == traced[0].backend_report.shared_engine[
        "fills"]
    attributed = sum(s.self_ns for s in layers.values())
    assert attributed == layers["ensemble.driver"].total_ns


def test_span_stacks_are_per_thread():
    tracer = layer_trace.Tracer()
    barrier = threading.Barrier(2)

    def outer():
        barrier.wait()
        tracer.call("inner", time.sleep, (0.02,), {})

    def worker():
        tracer.call(layer_trace.DRIVER, outer, (), {})

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert tracer.check() == []
    layers = tracer.layers()
    assert layers["inner"].calls == 2
    assert layers[layer_trace.DRIVER].self_ns >= 0
    assert layers["inner"].self_ns <= layers[layer_trace.DRIVER].total_ns


def test_verify_counts_drifted_outputs_and_counters():
    def make(digests, counters):
        return workloads.PassResult(
            wall_s=1.0, lane_gens=1, jobs=1, exec_ms=[1.0], hit_ms=[],
            digests=digests, counters=counters,
        )

    class Bench:
        def check(self, first):
            return {}

    passes = [
        make(["a", "b"], {"n": 1}),
        make(["a", "x"], {"n": 1}),
        make(["a", "b"], {"n": 2}),
    ]
    attempted, failed, problems = run.verify(Bench(), passes)
    assert (attempted, failed) == (6, 3)
    assert len(problems) == 2


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_label(19) is None
    assert run.tail_label(20) == 50.0
    assert run.tail_label(100) == 90.0
    assert run.tail_label(1000) == 99.0


def test_scaling_moves_rates_and_times_but_not_memory():
    def passes(slowness):
        return [
            workloads.PassResult(
                wall_s=2.0, lane_gens=100, jobs=4, exec_ms=[10.0, 30.0],
                hit_ms=[], digests=[], counters={}, slowness=slowness,
            )
        ]

    plain = run.end_to_end_metrics(passes(1.0), 0.5, 60.0)
    slow = run.end_to_end_metrics(passes(2.0), 0.5, 60.0)
    unscaled = run.end_to_end_metrics(passes(2.0), 0.5, 60.0, scaled=False)
    assert plain == unscaled == {"lane_gens_per_s": 50.0, "jobs_per_s": 2.0,
                                 "exec_ms_p50": 20.0, "setup_s": 0.5,
                                 "peak_rss_mb": 60.0}
    assert slow == {**plain, "lane_gens_per_s": 100.0, "jobs_per_s": 4.0,
                    "exec_ms_p50": 10.0}


def test_each_pass_is_scaled_by_the_samples_around_it():
    ref = SpeedReference()
    ref.groups = [[NOMINAL_S], [3 * NOMINAL_S], [NOMINAL_S, NOMINAL_S]]
    assert ref.recent() == 1.0
    ref.groups.pop()
    assert ref.recent() == 2.0
    assert ref.slowness() == 2.0
