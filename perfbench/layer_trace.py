"""Outside-in layer tracer: spans around the public entry points of each layer.

The tracer patches module and class attributes of the ``repro`` package for
the duration of a traced pass and restores every one of them afterwards.
Nothing under ``src/`` knows it is being traced.

Each wrapped call is a span.  Spans nest per thread (each thread keeps its
own stack), so a span's *self* time is its duration minus the durations of
the spans it called on the same thread.  Hot layers are aggregated per
thread into ``calls`` / ``self_ns`` / work counters.  Spans that carry a
request identity (the service layers, keyed on ``job_id`` or the job
fingerprint) also keep one :class:`SpanRecord` each, so one job's time can
be put together across the threads that served it.

``ensemble.driver`` is the sweep root: the benchmark wraps ``run_sweep``
with :meth:`Tracer.sweep`.  Its self time is the sweep wall that no wrapped
layer claims, so on every thread the self times of the spans inside sweeps
add up to the sweeps' wall time exactly.
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

DRIVER = "ensemble.driver"


@dataclass
class LayerStats:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, other: "LayerStats") -> None:
        self.calls += other.calls
        self.self_ns += other.self_ns
        self.total_ns += other.total_ns
        for name, value in other.counts.items():
            self.counts[name] = self.counts.get(name, 0) + value


@dataclass(frozen=True)
class SpanRecord:
    """One keyed span: which layer, which request, when, under what."""

    layer: str
    key: str | None
    thread: str
    start_ns: int
    end_ns: int
    parent: str | None


class _ThreadState:
    """Per-thread span stack plus that thread's aggregates."""

    __slots__ = (
        "epoch", "thread", "stack", "layers", "records", "in_sweep",
        "sweep_self_ns", "negative",
    )

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        self.thread = threading.current_thread().name
        #: One frame per open span: [layer, child_ns, in_sweep_at_entry].
        self.stack: list[list] = []
        self.layers: dict[str, LayerStats] = {}
        self.records: list[SpanRecord] = []
        self.in_sweep = 0
        #: Self time of every span that ran inside a sweep (driver included).
        self.sweep_self_ns = 0
        #: Spans whose children outlasted them (a broken stack shows here).
        self.negative = 0


class Tracer:
    """Span collector; see the module docstring."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._epoch = 0
        self._threads: list[_ThreadState] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping ------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None or state.epoch != self._epoch:
            state = _ThreadState(self._epoch)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def reset(self) -> None:
        """Forget every span recorded so far (call between passes)."""
        with self._lock:
            self._epoch += 1
            self._threads = []

    def call(
        self,
        layer: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        key: str | Callable[[Any], str] | None = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` as one ``layer`` span.

        ``key`` names the request the span served; a callable derives it
        from the call's return value.
        """
        state = self._state()
        stack = state.stack
        is_driver = layer == DRIVER
        frame = [layer, 0, state.in_sweep]
        stack.append(frame)
        if is_driver:
            state.in_sweep += 1
        start = time.perf_counter_ns()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            if is_driver:
                state.in_sweep -= 1
            duration = end - start
            own = duration - frame[1]
            if own < 0:
                state.negative += 1
            if stack:
                stack[-1][1] += duration
            if frame[2] or is_driver:
                state.sweep_self_ns += own
            stats = state.layers.get(layer)
            if stats is None:
                stats = state.layers[layer] = LayerStats()
            stats.calls += 1
            stats.self_ns += own
            stats.total_ns += duration
            if callable(key):
                key = key(result) if result is not None else None
            if key is not None:
                state.records.append(
                    SpanRecord(
                        layer, key, state.thread, start, end,
                        stack[-1][0] if stack else None,
                    )
                )

    def count(self, layer: str, **increments: int) -> None:
        """Add work counters to ``layer`` on the calling thread."""
        state = self._state()
        stats = state.layers.get(layer)
        if stats is None:
            stats = state.layers[layer] = LayerStats()
        for name, value in increments.items():
            stats.counts[name] = stats.counts.get(name, 0) + int(value)

    def sweep(self, run_sweep: Callable) -> Callable:
        """``run_sweep`` wrapped as the ``ensemble.driver`` root span."""

        def traced_sweep(*args: Any, **kwargs: Any) -> Any:
            return self.call(DRIVER, run_sweep, args, kwargs)

        return traced_sweep

    # -- results ---------------------------------------------------------------

    def layers(self) -> dict[str, LayerStats]:
        """Per-layer aggregates summed over every thread."""
        merged: dict[str, LayerStats] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, stats in state.layers.items():
                merged.setdefault(name, LayerStats()).add(stats)
        return merged

    def records(self) -> list[SpanRecord]:
        """Every keyed span, oldest first."""
        with self._lock:
            threads = list(self._threads)
        return sorted(
            (r for state in threads for r in state.records),
            key=lambda r: r.start_ns,
        )

    def check(self) -> list[str]:
        """Accounting invariants; returns one message per violation.

        On every thread, the self times of the spans inside sweeps plus
        the driver's own self time must equal the sweeps' wall time, and
        no span may have negative self time.
        """
        problems = []
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            if state.stack:
                problems.append(f"{state.thread}: {len(state.stack)} open spans")
            if state.negative:
                problems.append(
                    f"{state.thread}: {state.negative} spans with negative "
                    "self time"
                )
            driver = state.layers.get(DRIVER)
            wall = driver.total_ns if driver is not None else 0
            if state.sweep_self_ns != wall:
                problems.append(
                    f"{state.thread}: attributed self times sum to "
                    f"{state.sweep_self_ns} ns but the sweep wall is {wall} ns"
                )
        return problems

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point listed in :data:`ENTRY_POINTS`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for _, owner, attr, original, factory in _resolve():
                self._patches.append((owner, attr, original))
                setattr(owner, attr, _rewrap(original, factory(self, attr)))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()


def _rewrap(raw: Any, make: Callable[[Callable], Callable]) -> Any:
    """Apply ``make`` to a function, keeping a ``staticmethod`` static."""
    if isinstance(raw, staticmethod):
        return staticmethod(make(raw.__func__))
    return make(raw)


# -- entry points --------------------------------------------------------------
#
# Each factory takes ``(tracer, attr)`` and returns ``make(fn) -> wrapper``.


def _plain(layer: str):
    def factory(tracer: Tracer, attr: str):
        def make(fn: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return tracer.call(layer, fn, args, kwargs)

            return wrapper

        return make

    return factory


def _counted(layer: str, counter: str, size: Callable[[tuple, dict], int]):
    """A span that also adds ``size(args, kwargs)`` to ``layer.counter``."""

    def factory(tracer: Tracer, attr: str):
        def make(fn: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                tracer.count(layer, **{counter: size(args, kwargs)})
                return tracer.call(layer, fn, args, kwargs)

            return wrapper

        return make

    return factory


def _fill(tracer: Tracer, attr: str):
    """``ensemble.fill``: pairs checked against the store, pairs evaluated."""
    checked_of = {
        "fill_missing": lambda args: len(args[1]),
        "ensure_rows": lambda args: args[2].size,
        "ensure_pair": lambda args: 1,
    }[attr]

    def make(fn: Callable) -> Callable:
        def wrapper(engine, *args: Any, **kwargs: Any) -> Any:
            before = engine.fills
            try:
                return tracer.call(
                    "ensemble.fill", fn, (engine, *args), kwargs
                )
            finally:
                tracer.count(
                    "ensemble.fill",
                    pairs_checked=checked_of((engine, *args)),
                    pairs_filled=engine.fills - before,
                )

        return wrapper

    return make


def _decoder_factory(tracer: Tracer, attr: str):
    """Decoders are built per run; wrap the ``draw`` of each one built."""

    def make(fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            decoder = fn(*args, **kwargs)
            draw = decoder.draw
            decoder.draw = lambda m: tracer.call(
                "ensemble.rawstream.draw", draw, (m,), {}
            )
            return decoder

        return wrapper

    return make


def _checkpoint_save(tracer: Tracer, attr: str):
    def make(fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            target = tracer.call("io.run_checkpoint.save", fn, args, kwargs)
            size = sum(p.stat().st_size for p in Path(target).iterdir())
            tracer.count("io.run_checkpoint.save", bytes=size)
            return target

        return wrapper

    return make


def _execute(tracer: Tracer, attr: str):
    def make(fn: Callable) -> Callable:
        def wrapper(queue, job) -> Any:
            return tracer.call(
                "service.execute", fn, (queue, job), {}, key=job.job_id
            )

        return wrapper

    return make


def _store(tracer: Tracer, attr: str):
    def make(fn: Callable) -> Callable:
        def wrapper(store, fingerprint, *args: Any) -> Any:
            result = tracer.call(
                "service.store", fn, (store, fingerprint, *args), {},
                key=fingerprint[:12],
            )
            if attr == "get":
                tracer.count(
                    "service.store", gets=1, hits=int(result is not None)
                )
            return result

        return wrapper

    return make


def _journal(tracer: Tracer, attr: str):
    def make(fn: Callable) -> Callable:
        def wrapper(journal, type, job_id, **fields: Any) -> Any:
            return tracer.call(
                "service.journal.record", fn, (journal, type, job_id), fields,
                key=job_id,
            )

        return wrapper

    return make


def job_id_of(status: dict) -> str:
    return status["job_id"]


def _client(tracer: Tracer, attr: str):
    def make(fn: Callable) -> Callable:
        def wrapper(client, *args: Any, **kwargs: Any) -> Any:
            key = job_id_of if attr == "submit" else args[0]
            return tracer.call(
                "service.client", fn, (client, *args), kwargs, key=key
            )

        return wrapper

    return make


_ENGINE = ("repro.ensemble.engine", "EnsembleEngine")

#: (module, class or None, attributes, wrapper factory) — every entry point
#: the tracer wraps.  Module-level functions are patched where the caller
#: looks them up (``repro.ensemble.engine.cycle_payoffs_pairs`` is the
#: engine's own import of the kernel, for example).
ENTRY_POINTS: tuple = (
    (*_ENGINE, ("acquire", "recycle", "release", "intern_lane", "compact"),
     _plain("ensemble.pool")),
    (*_ENGINE, ("fill_missing", "ensure_rows", "ensure_pair"), _fill),
    (*_ENGINE, ("fitness_pc_well_mixed", "fitness_pc_graph"),
     _counted("ensemble.gather", "events", lambda a, k: len(a[2]))),
    ("repro.ensemble.engine", None, ("cycle_payoffs_pairs",),
     _counted("core.vectorgame.cycle_payoffs_pairs", "pairs",
              lambda a, k: len(a[1]))),
    ("repro.ensemble.rawstream", None,
     ("pc_decoder", "graph_pc_decoder", "mutation_decoder"), _decoder_factory),
    ("repro.ensemble.driver", None, ("fermi_probability",),
     _plain("core.fermi")),
    ("repro.structure.graphs", "GraphStructure", ("neighbor_segments",),
     _plain("structure.neighbor_segments")),
    ("repro.core.engine", "SampledFitnessEngine", ("pc_plan", "eval_plans"),
     _plain("core.engine.sampled")),
    ("repro.core.engine", "SampledFitnessEngine", ("draw_uniforms",),
     _counted("core.engine.sampled", "games", lambda a, k: a[1])),
    ("repro.core.engine", None, ("play_pairs_uniforms",),
     _counted("core.vectorgame.play_pairs_uniforms", "games",
              lambda a, k: len(a[1]))),
    ("repro.io.run_checkpoint", "RunCheckpointer", ("save",),
     _checkpoint_save),
    ("repro.service.queue", "JobQueue", ("_execute",), _execute),
    ("repro.service.store", "ResultStore", ("get", "put"), _store),
    ("repro.service.journal", "JobJournal", ("record",), _journal),
    ("repro.service.jobspec", "JobSpec", ("fingerprint",),
     _plain("service.jobspec.fingerprint")),
    ("repro.service.server", None, ("result_to_dict",),
     _plain("service.serialize")),
    ("repro.service.client", "SweepClient", ("submit", "result"),
     _client),
)


def _resolve():
    """``(name, owner, attr, bound object, factory)`` per entry point.

    Class attributes are read from the class ``__dict__``, so a
    ``staticmethod`` comes back as itself and can be put back as itself.
    """
    for module, owner, attrs, factory in ENTRY_POINTS:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        for attr in attrs:
            bound = (
                target.__dict__[attr]
                if isinstance(target, type)
                else getattr(target, attr)
            )
            name = ".".join(p for p in (module, owner, attr) if p)
            yield name, target, attr, bound, factory


def snapshot_entry_points() -> dict[str, Any]:
    """``module[.Class].attr`` -> the object currently bound there."""
    return {name: bound for name, _, _, bound, _ in _resolve()}
