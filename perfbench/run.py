#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one timed run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ens-wm-m2 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs untraced passes for half the time and traced passes for
the other half, and reports the per-layer metrics plus the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object::

    {"correct": true, "attempted": 320, "failed": 0, "metrics": {...}}

Each metric is ``{"value": <number>, "unit": <unit>}``.  ``attempted``
counts ensemble lanes (``ens-*``) or service jobs (``svc-mixed``) over all
passes; ``failed`` counts those that failed, were refused, or whose output
did not match its check.  The exit code is 1 when any check fails, and 2
when the ``repro`` sources are missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from speed import SpeedReference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for checkpoints and journals; removed after every run.
WORK_ROOT = ROOT / ".perfbench-work"
#: Fresh interpreters timed from start to ready; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Passes every run makes at least, whatever ``--seconds`` says.
MIN_PASSES = 2

#: name -> (unit, better, meaning).  ``BENCHMARK.json`` lists the same.
END_TO_END = {
    "lane_gens_per_s": (
        "1/s", "higher",
        "lane-generations executed per second of pass wall time (median "
        "over passes); service cache hits execute none",
    ),
    "jobs_per_s": (
        "1/s", "higher",
        "results delivered per second (median over passes): ensemble "
        "sweeps, or service jobs hit or miss",
    ),
    "exec_ms_p50": (
        "ms", "lower",
        "median latency of a result that had to be computed: one sweep, "
        "or submit-to-payload of a cache-miss service job",
    ),
    "setup_s": (
        "s", "lower",
        "fresh interpreter to warm and ready: imports, inputs, structure, "
        "server start, one short warm-up sweep (median of 5, scaled)",
    ),
    "peak_rss_mb": (
        "MB", "lower", "peak resident memory of the measuring process",
    ),
}

LAYERS = (
    "ensemble.driver",
    "ensemble.rawstream.draw",
    "ensemble.pool",
    "ensemble.fill",
    "core.vectorgame.cycle_payoffs_pairs",
    "ensemble.gather",
    "structure.neighbor_segments",
    "core.fermi",
    "core.engine.sampled",
    "core.vectorgame.play_pairs_uniforms",
    "io.run_checkpoint.save",
    "service.execute",
    "service.store",
    "service.journal.record",
    "service.jobspec.fingerprint",
    "service.serialize",
    "service.client",
)

#: Work counters a layer's wrapper adds up: layer -> ((counter, unit), ...).
LAYER_COUNTS = {
    "ensemble.fill": (("pairs_checked", "count"), ("pairs_filled", "count")),
    "core.vectorgame.cycle_payoffs_pairs": (("pairs", "count"),),
    "ensemble.gather": (("events", "count"),),
    "core.engine.sampled": (("games", "count"),),
    "core.vectorgame.play_pairs_uniforms": (("games", "count"),),
    "io.run_checkpoint.save": (("bytes", "B"),),
}

#: Exact per-pass work counters (see workloads.PassResult.counters).
WORK_COUNTERS = (
    "pc_events", "adoptions", "mutations", "engine_fills",
    "engine_fill_calls", "checkpoints", "cache_hits",
)


def _per_layer_spec() -> dict[str, tuple[str, str]]:
    spec: dict[str, tuple[str, str]] = {}
    for layer in LAYERS:
        spec[f"{layer}.calls"] = ("count", "lower")
        spec[f"{layer}.self_s"] = ("s", "lower")
        for counter, unit in LAYER_COUNTS.get(layer, ()):
            spec[f"{layer}.{counter}"] = (unit, "lower")
    spec.update({
        "ensemble.driver.self_frac": ("frac", "lower"),
        "ensemble.pool.distinct": ("count", "lower"),
        "ensemble.fill.fill_ratio": ("frac", "higher"),
        "core.paymat.bytes": ("B", "lower"),
        "core.paymat.peak_bytes": ("B", "lower"),
        "service.queue.wait_ms_p50": ("ms", "lower"),
        "service.store.hit_ratio": ("frac", "higher"),
        "service.client.hit_ms_p50": ("ms", "lower"),
        "service.client.hit_ms_p90": ("ms", "lower"),
        "service.client.miss_ms_p50": ("ms", "lower"),
        "service.client.miss_ms_p90": ("ms", "lower"),
        "trace.overhead_frac": ("frac", "lower"),
    })
    for counter in WORK_COUNTERS:
        spec[f"work.{counter}"] = ("count", "lower")
    return spec


#: name -> (unit, better) of every metric a ``--trace 1`` run reports.
PER_LAYER = _per_layer_spec()


# -- statistics ----------------------------------------------------------------


def pct(values, q: float) -> float:
    """``q``-th percentile (linear interpolation); 0.0 for no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def tail_label(n: int) -> float | None:
    """The highest of p50/p90/p99/p99.9 with at least 10 samples beyond it."""
    best = None
    for q in (50.0, 90.0, 99.0, 99.9):
        if n * (100 - q) / 100 >= 10:
            best = q
    return best


def describe_latency(label: str, values: list[float]) -> str:
    n = len(values)
    text = f"{label}: n={n}"
    if n:
        text += f" p50={pct(values, 50):.3f} ms"
    q = tail_label(n)
    if q is not None and q > 50:
        text += f" p{q:g}={pct(values, q):.3f} ms"
    return text


# -- set-up --------------------------------------------------------------------


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to a warm, ready workload."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return elapsed


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median of SETUP_PROBES set-up times: each divided by the slowness
    sampled just before and after it, and unscaled."""
    ref = SpeedReference()
    ref.sample()
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        elapsed = probe_setup(workload, seed)
        ref.sample()
        scaled.append(elapsed / ref.recent())
        raw.append(elapsed)
    return statistics.median(scaled), statistics.median(raw)


# -- the run -------------------------------------------------------------------


def run_passes(bench, seconds: float, ref: SpeedReference, tracer=None):
    """Repeat the workload's pass for ``seconds`` (at least MIN_PASSES),
    sampling the machine's speed into ``ref`` between passes, and give
    each pass the slowness sampled just before and just after it.

    Returns ``(passes, layer_stats, problems)``.  With an installed
    ``tracer`` every pass runs traced, and each pass's layer aggregates and
    accounting problems are collected; without one both lists stay empty.
    """
    from repro import run_sweep

    passes, layer_stats, problems = [], [], []
    deadline = time.perf_counter() + seconds
    ref.sample()
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        if tracer is None:
            result = bench.run_pass()
        else:
            tracer.reset()
            result = bench.run_pass(tracer.sweep(run_sweep))
            layer_stats.append(tracer.layers())
            problems += tracer.check()
        ref.sample()
        result.slowness = ref.recent()
        passes.append(result)
    return passes, layer_stats, problems


def slowest_job(records) -> str | None:
    """Where the slowest service job of a traced pass spent its time."""
    jobs: dict[str, dict[str, int]] = {}
    for r in records:
        if r.key.startswith("job-"):
            layers = jobs.setdefault(r.key, {})
            layers[r.layer] = layers.get(r.layer, 0) + r.end_ns - r.start_ns
    if not jobs:
        return None
    job, layers = max(jobs.items(), key=lambda kv: kv[1].get("service.client", 0))
    return f"slowest job {job}: " + ", ".join(
        f"{layer} {ns / 1e6:.1f} ms" for layer, ns in sorted(layers.items())
    )


def verify(bench, passes: list) -> tuple[int, int, list[str]]:
    """Check every pass against the references and against pass 0.

    Returns ``(attempted, failed, problems)``: output units (lanes or jobs)
    over all passes, the units that were wrong, and what was wrong.
    """
    first = passes[0]
    wrong_units = bench.check(first)
    problems = list(wrong_units.values())
    attempted = failed = 0
    for number, p in enumerate(passes):
        attempted += len(p.digests)
        problems += p.failures.values()
        if p.counters != first.counters:
            problems.append(
                f"pass {number}: work counters {p.counters} differ from "
                f"pass 0's {first.counters}"
            )
            failed += len(p.digests)
            continue
        drifted = {
            i for i, (a, b) in enumerate(zip(p.digests, first.digests))
            if a != b
        }
        if drifted:
            problems.append(
                f"pass {number}: {len(drifted)} outputs differ from pass 0"
            )
        failed += len(drifted | set(wrong_units) | set(p.failures))
    return attempted, failed, problems


def end_to_end_metrics(
    passes: list, setup_s: float, rss_mb: float, scaled: bool = True
) -> dict:
    """Figures as measured; when ``scaled``, each pass's timings are
    divided by its own slowness."""

    def slowness(p) -> float:
        return p.slowness if scaled else 1.0

    exec_ms = [ms / slowness(p) for p in passes for ms in p.exec_ms]
    return {
        "lane_gens_per_s": statistics.median(
            slowness(p) * p.lane_gens / p.wall_s for p in passes
        ),
        "jobs_per_s": statistics.median(
            slowness(p) * p.jobs / p.wall_s for p in passes
        ),
        "exec_ms_p50": pct(exec_ms, 50),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def per_layer_metrics(
    traced: list, layer_stats: list, slowness: float,
    untraced: list, untraced_slowness: float,
) -> dict:
    """Medians over traced passes of each layer's per-pass figures, with
    timings divided by the traced passes' ``slowness``."""

    def median(values) -> float:
        values = list(values)
        return float(statistics.median(values)) if values else 0.0

    values: dict[str, float] = {}
    for layer in LAYERS:
        per_pass = [stats.get(layer) for stats in layer_stats]
        values[f"{layer}.calls"] = median(s.calls if s else 0 for s in per_pass)
        values[f"{layer}.self_s"] = median(
            s.self_ns / 1e9 if s else 0.0 for s in per_pass
        ) / slowness
        for counter, _unit in LAYER_COUNTS.get(layer, ()):
            values[f"{layer}.{counter}"] = median(
                s.counts.get(counter, 0) if s else 0 for s in per_pass
            )

    def ratio(layer: str, num: str, den: str) -> float:
        return median(
            s[layer].counts.get(num, 0) / s[layer].counts[den]
            for s in layer_stats
            if layer in s and s[layer].counts.get(den)
        )

    values["ensemble.driver.self_frac"] = median(
        s["ensemble.driver"].self_ns / s["ensemble.driver"].total_ns
        for s in layer_stats
        if "ensemble.driver" in s and s["ensemble.driver"].total_ns
    )
    values["ensemble.fill.fill_ratio"] = ratio(
        "ensemble.fill", "pairs_filled", "pairs_checked"
    )
    values["service.store.hit_ratio"] = ratio("service.store", "hits", "gets")
    first = traced[0]
    values["ensemble.pool.distinct"] = first.counters["engine_distinct"]
    values["core.paymat.bytes"] = first.layer["core.paymat.bytes"]
    values["core.paymat.peak_bytes"] = first.layer["core.paymat.peak_bytes"]
    waits = [w for p in traced for w in p.layer.get("service.queue.wait_ms", ())]
    hits = [ms for p in traced for ms in p.hit_ms]
    misses = [
        ms for p in traced if "service.queue.wait_ms" in p.layer
        for ms in p.exec_ms
    ]
    values["service.queue.wait_ms_p50"] = pct(waits, 50) / slowness
    values["service.client.hit_ms_p50"] = pct(hits, 50) / slowness
    values["service.client.hit_ms_p90"] = pct(hits, 90) / slowness
    values["service.client.miss_ms_p50"] = pct(misses, 50) / slowness
    values["service.client.miss_ms_p90"] = pct(misses, 90) / slowness
    values["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in traced) / slowness
        / (statistics.median(p.wall_s for p in untraced) / untraced_slowness)
        - 1.0
    )
    for counter in WORK_COUNTERS:
        values[f"work.{counter}"] = first.counters[counter]
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        if args.setup_probe:
            workload.setup(args.seed, work_dir)
            print("ready", flush=True)
            return 0
        return measure(args, workload, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still holds its directory


def measure(args, workload, work_dir: Path) -> int:
    setup_s = raw_setup_s = 0.0
    if not args.trace:
        setup_s, raw_setup_s = measure_setup(args.workload, args.seed)
    bench = workload.setup(args.seed, work_dir)
    budget = args.seconds / 2 if args.trace else args.seconds
    ref = SpeedReference()
    passes, _, _ = run_passes(bench, budget, ref)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    trace_problems: list[str] = []
    if args.trace:
        import layer_trace

        tracer = layer_trace.Tracer()
        traced_ref = SpeedReference()
        originals = layer_trace.snapshot_entry_points()
        with tracer:
            traced, layer_stats, trace_problems = run_passes(
                bench, budget, traced_ref, tracer
            )
        restored = layer_trace.snapshot_entry_points()
        trace_problems += [
            f"tracer left {name} patched"
            for name, original in originals.items()
            if restored[name] is not original
        ]
        attempted, failed, problems = verify(bench, passes + traced)
        metrics = per_layer_metrics(
            traced, layer_stats, traced_ref.slowness(), passes, ref.slowness()
        )
        spec = PER_LAYER
    else:
        attempted, failed, problems = verify(bench, passes)
        metrics = end_to_end_metrics(passes, setup_s, rss_mb)
        spec = {name: (unit, better) for name, (unit, better, _) in
                END_TO_END.items()}
    problems += trace_problems

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} "
          "untraced passes" + (f", {len(traced)} traced" if args.trace else ""))
    print("pass walls (s): " + " ".join(f"{p.wall_s:.3f}" for p in passes)
          + (" | traced: " + " ".join(f"{p.wall_s:.3f}" for p in traced)
             if args.trace else ""))
    print("pass slowness: " + " ".join(f"{p.slowness:.3f}" for p in passes)
          + (" | traced: " + " ".join(f"{p.slowness:.3f}" for p in traced)
             if args.trace else ""))
    print(describe_latency("executed results", [m for p in passes
                                                 for m in p.exec_ms]))
    print(describe_latency("cache-hit results", [m for p in passes
                                                  for m in p.hit_ms]))
    print("work counters per pass: " + json.dumps(passes[0].counters,
                                                   sort_keys=True))
    print(f"machine slowness (reference loop vs nominal): passes "
          f"{ref.slowness():.4f}"
          + (f", traced {traced_ref.slowness():.4f}" if args.trace else ""))
    if not args.trace:
        raw = end_to_end_metrics(passes, raw_setup_s, rss_mb, scaled=False)
        print("unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted})")
    if args.trace and (job := slowest_job(tracer.records())) is not None:
        print(job)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {spec[name][0]}")

    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed if correct else max(failed, 1),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": spec[name][0]}
            for name in spec
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
