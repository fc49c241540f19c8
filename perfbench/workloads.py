"""The benchmark's four workloads: inputs from a seed, one timed pass, checks.

A *pass* is one fixed unit of work drawn from the seed: one lane-batched
ensemble sweep for the ``ens-*`` workloads, one plan of service jobs driven
by two closed-loop clients for ``svc-mixed``.  A run repeats the pass until
its time is up, so every pass of a run must produce the same outputs and
the same work counters; any difference is a failure, not noise.

Lane ``i`` of an ensemble gets seed ``seed + i``; lane ``i`` of the ``k``-th
executed service job gets ``seed + k * lanes_per_job + i``.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro import EvolutionConfig, run_sweep
from repro.core.runstate import checkpoint_scope
from repro.io.run_checkpoint import RunCheckpointer
from repro.service import JobSpec, SweepClient, SweepServer
from repro.structure import build_structure

#: Generations of the short warm-up sweep that ends set-up.
WARMUP_GENERATIONS = 200
#: Ensemble lanes, and executed service jobs, checked per run against a
#: same-seed run outside the measured path.
CHECKED_LANES = 4
CHECKED_JOBS = 2


@dataclass
class PassResult:
    """What one pass did, as the benchmark measures and checks it."""

    wall_s: float
    #: Lane-generations the pass executed (cache hits execute none).
    lane_gens: int
    #: Results delivered to the caller: sweeps, or service jobs.
    jobs: int
    #: Latency of each delivered result that was computed (ms).
    exec_ms: list[float]
    #: Latency of each delivered result served from the cache (ms).
    hit_ms: list[float]
    #: One digest per output unit (ensemble lane, or service job).
    digests: list[str]
    #: Exact work counters; identical on every pass of a seed.
    counters: dict[str, int]
    #: Failed, refused or mismatched output units: index -> problem.
    failures: dict[int, str] = field(default_factory=dict)
    #: Per-pass layer figures the tracer cannot see from outside.
    layer: dict[str, Any] = field(default_factory=dict)
    #: Each service job's result payload (canonical JSON).
    payloads: list[str] = field(default_factory=list)
    #: Machine slowness around the pass (see ``speed.py``); timings are
    #: divided by it, rates multiplied.
    slowness: float = 1.0


def lane_digest(n_pc, n_adopt, n_mut, generations, matrix) -> str:
    """Identity of one lane's trajectory outcome: counters + final tables."""
    blob = json.dumps(
        [int(n_pc), int(n_adopt), int(n_mut), int(generations),
         [list(map(int, row)) for row in matrix]]
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def result_digest(result) -> str:
    return lane_digest(
        result.n_pc_events, result.n_adoptions, result.n_mutations,
        result.generations_run, result.population.strategy_matrix(),
    )


def payload_lane_digest(data: dict) -> str:
    """:func:`result_digest` of one result as the service serialises it."""
    return lane_digest(
        data["n_pc_events"], data["n_adoptions"], data["n_mutations"],
        data["generations_run"], data["population"]["strategy_matrix"],
    )


class _CountingCheckpointer(RunCheckpointer):
    """A checkpoint sink that counts the snapshots it writes."""

    saves = 0

    def save(self, *args: Any, **kwargs: Any) -> Path:
        self.saves += 1
        return super().save(*args, **kwargs)


# -- lane-batched ensembles ----------------------------------------------------


@dataclass(frozen=True)
class EnsembleWorkload:
    """``run_sweep(backend="ensemble")`` over ``lanes`` same-science lanes."""

    name: str
    why: str
    lanes: int
    config: dict[str, Any]
    #: Backend of the same-seed single-run reference for the checked lanes.
    reference_backend: str
    #: Checkpoint ``parts`` times per run (0 = no checkpointing).
    checkpoint_parts: int = 0

    def configs(self, seed: int) -> list[EvolutionConfig]:
        extra = {}
        if self.checkpoint_parts:
            extra["checkpoint_every"] = (
                self.config["generations"] // self.checkpoint_parts
            )
        return [
            EvolutionConfig(
                seed=seed + i, record_events=False, **self.config, **extra
            )
            for i in range(self.lanes)
        ]

    def setup(self, seed: int, work_dir: Path) -> "EnsembleBench":
        configs = self.configs(seed)
        build_structure(configs[0].structure, configs[0].n_ssets)
        bench = EnsembleBench(self, seed, configs, work_dir)
        warm = [
            c.with_updates(generations=WARMUP_GENERATIONS) for c in configs[:2]
        ]
        run_sweep(warm, backend="ensemble")
        return bench


@dataclass
class EnsembleBench:
    workload: EnsembleWorkload
    seed: int
    configs: list[EvolutionConfig]
    work_dir: Path

    def run_pass(self, sweep: Callable = run_sweep) -> PassResult:
        spec = self.workload
        sink = None
        scope: Any = nullcontext()
        if spec.checkpoint_parts:
            sink = _CountingCheckpointer(
                tempfile.mkdtemp(prefix="ckpt-", dir=self.work_dir)
            )
            scope = checkpoint_scope(sink)
        try:
            with scope:
                started = time.perf_counter()
                results = sweep(self.configs, backend="ensemble")
                wall = time.perf_counter() - started
        finally:
            if sink is not None:
                shutil.rmtree(sink.root, ignore_errors=True)
        engine = results[0].backend_report.shared_engine or {}
        counters = {
            "pc_events": sum(r.n_pc_events for r in results),
            "adoptions": sum(r.n_adoptions for r in results),
            "mutations": sum(r.n_mutations for r in results),
            "engine_fills": int(engine.get("fills", 0)),
            "engine_fill_calls": int(engine.get("fill_calls", 0)),
            "engine_distinct": int(engine.get("distinct", 0)),
            "checkpoints": sink.saves if sink is not None else 0,
            "cache_hits": 0,
        }
        lane_gens = sum(r.generations_run for r in results)
        return PassResult(
            wall_s=wall,
            lane_gens=lane_gens,
            jobs=1,
            exec_ms=[wall * 1e3],
            hit_ms=[],
            digests=[result_digest(r) for r in results],
            counters=counters,
            layer={
                "core.paymat.bytes": engine.get("paymat_bytes", 0),
                "core.paymat.peak_bytes": engine.get("peak_paymat_bytes", 0),
            },
        )

    def check(self, first: PassResult) -> dict[int, str]:
        """Sampled lanes against their same-seed single-run reference.

        Returns ``{lane: problem}`` for every lane whose ensemble result
        differs from the reference run.
        """
        rng = random.Random(self.seed)
        lanes = sorted(
            rng.sample(range(len(self.configs)), CHECKED_LANES)
        )
        reference = run_sweep(
            [self.configs[i] for i in lanes],
            backend=self.workload.reference_backend,
        )
        return {
            lane: (
                f"lane {lane} (seed {self.configs[lane].seed}) differs from "
                f"its {self.workload.reference_backend} reference run"
            )
            for lane, ref in zip(lanes, reference)
            if result_digest(ref) != first.digests[lane]
        }


# -- the sweep service ---------------------------------------------------------


@dataclass(frozen=True)
class PlannedJob:
    index: int
    spec: JobSpec
    #: Plan index of the executed job this one resubmits (None = a miss).
    twin: int | None


@dataclass(frozen=True)
class ServiceWorkload:
    """An in-process :class:`SweepServer` driven by two closed-loop clients.

    A *writer* submits the plan's new jobs in order, and a *reader*
    resubmits earlier ones in order, each once its twin has returned.  So
    cache hits run beside executed jobs, and executed jobs never queue
    behind each other: their latency is one execution, not a mix of one
    and two.
    """

    name: str
    why: str
    jobs: int
    lanes_per_job: int
    config: dict[str, Any]

    def plan(self, seed: int) -> list[PlannedJob]:
        """Half the jobs are new science; the rest resubmit an earlier one.

        A resubmission's twin always precedes it in the plan, and the reader
        submits it only after the twin's result has arrived, so it is a
        cache hit by construction.
        """
        rng = random.Random(seed)
        kinds = ["miss"] * (self.jobs - self.jobs // 2)
        kinds += ["hit"] * (self.jobs // 2)
        rng.shuffle(kinds)
        first_miss = kinds.index("miss")
        kinds[0], kinds[first_miss] = kinds[first_miss], kinds[0]
        plan: list[PlannedJob] = []
        misses: list[int] = []
        for index, kind in enumerate(kinds):
            if kind == "hit":
                twin = rng.choice(misses)
                plan.append(PlannedJob(index, plan[twin].spec, twin))
                continue
            base = seed + len(misses) * self.lanes_per_job
            configs = tuple(
                EvolutionConfig(seed=base + i, record_events=False,
                                **self.config)
                for i in range(self.lanes_per_job)
            )
            plan.append(PlannedJob(index, JobSpec(configs=configs), None))
            misses.append(index)
        return plan

    def setup(self, seed: int, work_dir: Path) -> "ServiceBench":
        bench = ServiceBench(self, seed, self.plan(seed), work_dir)
        head = bench.plan[0].spec.configs[0]
        warm = JobSpec(
            configs=(head.with_updates(generations=WARMUP_GENERATIONS),)
        )
        with bench.serving(run_sweep) as server:
            client = SweepClient(server.url)
            job_id = client.submit(warm)["job_id"]
            server.queue.get(job_id).wait(60)
            client.result(job_id)
        return bench


@dataclass
class _Outcome:
    latency_ms: float = 0.0
    cache_hit: bool = False
    results_json: str = ""
    error: str | None = None


@dataclass
class ServiceBench:
    workload: ServiceWorkload
    seed: int
    plan: list[PlannedJob]
    work_dir: Path

    @contextmanager
    def serving(self, sweep: Callable) -> Iterator[SweepServer]:
        """A running server with an empty cache and a new journal."""
        journal = Path(tempfile.mkdtemp(prefix="svc-", dir=self.work_dir))
        try:
            with SweepServer(
                port=0,
                workers=1,
                journal=journal / "journal.jsonl",
                _run_sweep=sweep,
            ) as server:
                yield server
        finally:
            shutil.rmtree(journal, ignore_errors=True)

    def _client_loop(
        self, server: SweepServer, rng_seed: int, jobs: list[PlannedJob],
        done: list[threading.Event], outcomes: list[_Outcome],
    ) -> None:
        """Submit and fetch over HTTP; learn of completion from the queue.

        Waiting on the in-process job rather than polling ``GET /jobs/<id>``
        keeps poll-interval rounding and poll traffic out of the latency.
        """
        client = SweepClient(server.url, rng=random.Random(rng_seed))
        for job in jobs:
            index = job.index
            outcome = outcomes[index]
            try:
                if job.twin is not None and not done[job.twin].wait(60):
                    raise TimeoutError(f"twin job {job.twin} never finished")
                started = time.perf_counter()
                job_id = client.submit(job.spec)["job_id"]
                if not server.queue.get(job_id).wait(60):
                    raise TimeoutError(f"job {index} did not finish in 60 s")
                body = client.result(job_id)
                outcome.latency_ms = (time.perf_counter() - started) * 1e3
                outcome.cache_hit = bool(body["cache_hit"])
                outcome.results_json = json.dumps(
                    body["results"], sort_keys=True
                )
            except Exception as err:  # a failed job is counted, not fatal
                outcome.error = f"job {index}: {type(err).__name__}: {err}"
            finally:
                done[index].set()

    def run_pass(self, sweep: Callable = run_sweep) -> PassResult:
        n = len(self.plan)
        outcomes = [_Outcome() for _ in range(n)]
        done = [threading.Event() for _ in range(n)]
        roles = {
            "writer": [job for job in self.plan if job.twin is None],
            "reader": [job for job in self.plan if job.twin is not None],
        }
        with self.serving(sweep) as server:
            threads = [
                threading.Thread(
                    target=self._client_loop,
                    args=(server, self.seed + c, jobs, done, outcomes),
                    name=f"bench-{role}",
                )
                for c, (role, jobs) in enumerate(roles.items())
            ]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - started
            queue = server.queue
            executed = [
                job for job in queue.jobs()
                if job.started_unix is not None
            ]
            waits = [
                (job.started_unix - job.submitted_unix) * 1e3
                for job in executed
            ]
            # Every lane of a job reports its lane group's engine stats;
            # the jobs here are one group each.
            engines = [
                job.results[0].backend_report.shared_engine or {}
                for job in executed if job.results
            ]
            executed_results = [
                r for job in executed for r in job.results or ()
            ]
            counters = {
                "pc_events": sum(r.n_pc_events for r in executed_results),
                "adoptions": sum(r.n_adoptions for r in executed_results),
                "mutations": sum(r.n_mutations for r in executed_results),
                "engine_fills": sum(e.get("fills", 0) for e in engines),
                "engine_fill_calls": sum(
                    e.get("fill_calls", 0) for e in engines
                ),
                "engine_distinct": sum(e.get("distinct", 0) for e in engines),
                "checkpoints": 0,
                "cache_hits": queue.cache_hit_total,
            }

        failures = {
            i: o.error for i, o in enumerate(outcomes) if o.error is not None
        }
        for job, outcome in zip(self.plan, outcomes):
            if job.twin is None or job.index in failures:
                continue
            if outcome.results_json != outcomes[job.twin].results_json:
                failures[job.index] = (
                    f"job {job.index}: cache-hit payload differs from its "
                    f"executed twin {job.twin}"
                )
        exec_ms = [o.latency_ms for o in outcomes
                   if o.error is None and not o.cache_hit]
        hit_ms = [o.latency_ms for o in outcomes
                  if o.error is None and o.cache_hit]
        lane_gens = sum(r.generations_run for r in executed_results)
        return PassResult(
            wall_s=wall,
            lane_gens=lane_gens,
            jobs=n - len(failures),
            exec_ms=exec_ms,
            hit_ms=hit_ms,
            digests=[
                ",".join(
                    payload_lane_digest(d)
                    for d in json.loads(o.results_json or "[]")
                )
                for o in outcomes
            ],
            counters=counters,
            failures=failures,
            layer={
                "core.paymat.bytes": max(
                    (e.get("paymat_bytes", 0) for e in engines), default=0
                ),
                "core.paymat.peak_bytes": max(
                    (e.get("peak_paymat_bytes", 0) for e in engines), default=0
                ),
                "service.queue.wait_ms": waits,
            },
            payloads=[o.results_json for o in outcomes],
        )

    def check(self, first: PassResult) -> dict[int, str]:
        """Executed jobs against a direct ``run_sweep`` of the same spec."""
        rng = random.Random(self.seed)
        misses = [job for job in self.plan if job.twin is None]
        problems = {}
        for job in rng.sample(misses, CHECKED_JOBS):
            direct = [
                result_digest(r)
                for r in run_sweep(list(job.spec.configs), backend="event")
            ]
            served = [
                payload_lane_digest(d)
                for d in json.loads(first.payloads[job.index])
            ]
            if direct != served:
                problems[job.index] = (
                    f"job {job.index}: served results differ from a direct "
                    "event-backend run_sweep"
                )
        return problems


WORKLOADS: dict[str, EnsembleWorkload | ServiceWorkload] = {
    w.name: w
    for w in (
        EnsembleWorkload(
            name="ens-wm-m2",
            why="memory-2 well-mixed ensemble: pool churn, batched pair "
            "fills, gathers and raw-stream decode",
            lanes=64,
            config=dict(memory_steps=2, n_ssets=16, generations=5_000),
            reference_backend="event",
        ),
        EnsembleWorkload(
            name="ens-ring-m3-ckpt",
            why="memory-3 ring ensemble checkpointing 8 times a run: "
            "small on-demand fills, CSR neighbour gathers, snapshot writes",
            lanes=32,
            config=dict(memory_steps=3, n_ssets=32, generations=5_000,
                        structure="ring:k=4"),
            reference_backend="event",
            checkpoint_parts=8,
        ),
        EnsembleWorkload(
            name="ens-sampled-wm-m2",
            why="noisy sampled-fitness ensemble: the batched game kernel; "
            "never touches the pair store",
            lanes=32,
            config=dict(memory_steps=2, n_ssets=16, generations=250,
                        noise=0.01, sampled_batched=True),
            reference_backend="serial",
        ),
        ServiceWorkload(
            name="svc-mixed",
            why="sweep service under 2 closed-loop clients, half the jobs "
            "cache hits: queue, journal, cache, serialisation, HTTP",
            jobs=32,
            lanes_per_job=4,
            config=dict(memory_steps=2, n_ssets=16, generations=1_000),
        ),
    )
}
