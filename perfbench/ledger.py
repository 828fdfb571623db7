"""Per-layer ledger: timers and counters wrapped around each layer's public
functions, installed from outside ``src/`` so the program itself is unchanged.

Every wrapped call opens a span on a per-thread stack.  A layer's *self*
time is its span's duration minus the time covered by wrapped calls nested
inside it, so self times never count a nested layer twice and, summed over
all layers, equal the time spent inside the outermost wrapped calls.

:class:`BenchRunner` is the grid runner the benchmark drives.  It times every
scenario and, inside a process-pool worker (the pool rebuilds the runner from
its class), writes the worker's scenario times, peak memory and ledger to a
small JSON file after each scenario, so the parent can read the worker-side
figures after the pool has shut down.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

import probe as speed
from repro.experiments.parallel import ParallelExperimentRunner

#: Environment variables the workload process sets for its pool workers.
STATS_DIR_ENV = "PERFBENCH_STATS_DIR"
LEDGER_ENV = "PERFBENCH_LEDGER"


class Ledger:
    """Self time, call counts and named counters per layer."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counters.clear()

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, layer: str, fn: Callable[..., Any],
              after: Optional[Callable[[Any], None]] = None) -> Callable[..., Any]:
        """Wrap ``fn`` so each call adds to ``layer``'s calls and self time.

        ``after(result)`` runs once the call returned and may update
        counters; it is not part of any layer's time.
        """
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            stack.append(0.0)  # time covered by nested wrapped calls
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.self_s[layer] += elapsed - nested
                self.calls[layer] += 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }


#: The process-wide ledger the wrappers write to.
LEDGER = Ledger()
_installed = False


def install(process_parent: bool = False) -> None:
    """Wrap every layer's public entry points (idempotent per process).

    ``process_parent`` also times the parent's waits for pool results.
    Only on the process backend do those waits stand apart from the
    scenario work; on the thread backend the same process runs the
    scenario while it waits, so timing the wait would count that time twice.
    """
    global _installed
    if _installed:
        return
    _installed = True

    import repro.experiments.parallel as parallel
    import repro.llm.transpiler as transpiler
    import repro.pipeline.stages.finalize as finalize
    import repro.toolchain.compiler as compiler
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import ScenarioResult
    from repro.experiments.session import RunSession
    from repro.llm.simulated import SimulatedLLM
    from repro.pipeline.baseline import BaselinePreparer
    from repro.pipeline.engine import StagePipeline
    from repro.telemetry.tracefile import TraceWriter
    from repro.toolchain.compiler import CompilerDriver
    from repro.toolchain.executor import Executor

    counters = LEDGER.counters

    def after_compile(result: Any) -> None:
        if not result.ok:
            counters["compile.failed"] += 1

    def after_execute(result: Any) -> None:
        if not result.ok:
            counters["execute.failed"] += 1
        counters["interp.steps"] += result.steps_used
        if result.profile is not None:
            counters["interp.launches"] += result.profile.total_kernel_launches

    StagePipeline.run = LEDGER.timed("pipeline", StagePipeline.run)
    SimulatedLLM.chat = LEDGER.timed("llm", SimulatedLLM.chat)
    transpiler.Transpiler.translate = LEDGER.timed(
        "transpiler", transpiler.Transpiler.translate)
    # ``parse`` is imported by name into both the transpiler and the
    # compiler driver, so it is wrapped at each import site.
    transpiler.parse = LEDGER.timed("minilang.parse", transpiler.parse)
    compiler.parse = LEDGER.timed("minilang.parse", compiler.parse)
    compiler.analyze = LEDGER.timed("minilang.sema", compiler.analyze)
    CompilerDriver.compile = LEDGER.timed(
        "compile", CompilerDriver.compile, after_compile)
    Executor.run = LEDGER.timed("execute", Executor.run, after_execute)
    finalize.sim_t = LEDGER.timed("similarity", finalize.sim_t)
    finalize.sim_l = LEDGER.timed("similarity", finalize.sim_l)

    original_prepare = BaselinePreparer.prepare

    def prepare(self: BaselinePreparer, *args: Any, **kwargs: Any) -> Any:
        built_before = self.compile_count
        start = time.perf_counter()
        baseline = original_prepare(self, *args, **kwargs)
        if self.compile_count != built_before:
            counters["baseline.builds"] += 1
            counters["baseline.build_s"] += time.perf_counter() - start
        return baseline

    BaselinePreparer.prepare = LEDGER.timed("baseline", prepare)

    # Parent-side persistence and result decoding (process backend).
    RunSession.record = LEDGER.timed("session.record", RunSession.record)
    ResultCache.put = LEDGER.timed("cache.put", ResultCache.put)
    TraceWriter.write_trace = LEDGER.timed("trace.write", TraceWriter.write_trace)
    ScenarioResult.from_dict = classmethod(LEDGER.timed(
        "result.decode", ScenarioResult.from_dict.__func__))

    speed.probe = LEDGER.timed("probe", speed.probe)

    if process_parent:
        original_as_completed = parallel.as_completed

        def next_done(iterator: Any) -> Any:
            return next(iterator, None)

        timed_next = LEDGER.timed("pool.wait", next_done)

        def as_completed(fs: Any, timeout: Optional[float] = None) -> Any:
            iterator = original_as_completed(fs, timeout)
            while True:
                future = timed_next(iterator)
                if future is None:
                    return
                yield future

        parallel.as_completed = as_completed


def compile_cache_counts() -> Dict[str, int]:
    from repro.toolchain.compiler import compile_cache_stats

    stats = compile_cache_stats()
    return {"hits": int(stats["hits"]), "misses": int(stats["misses"])}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class BenchRunner(ParallelExperimentRunner):
    """The grid runner, timing each scenario where it runs and probing the
    machine's speed after each one (see ``probe.py``)."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: Wall seconds of each scenario run in this process.
        self.scenario_seconds: List[float] = []
        #: Speed probes, one after each scenario.
        self.probe_seconds: List[float] = []
        #: Seconds spent in :meth:`run_scenario`, probes included.
        self.busy_s = 0.0
        self._in_worker = multiprocessing.parent_process() is not None
        if self._in_worker and os.environ.get(LEDGER_ENV) == "1":
            install()
            LEDGER.reset()  # drop anything inherited from the parent

    def run_scenario(self, scenario: Any, app: Any = None) -> Any:
        start = time.perf_counter()
        result = super().run_scenario(scenario, app)
        self.scenario_seconds.append(time.perf_counter() - start)
        self.probe_seconds.append(speed.probe())
        self.busy_s += time.perf_counter() - start
        if self._in_worker:
            self._dump_worker_stats()
        return result

    def _dump_worker_stats(self) -> None:
        path = os.path.join(os.environ[STATS_DIR_ENV], f"worker-{os.getpid()}.json")
        stats = {
            "scenario_seconds": self.scenario_seconds,
            "probe_seconds": self.probe_seconds,
            "busy_s": self.busy_s,
            "peak_rss_mb": peak_rss_mb(),
            "ledger": LEDGER.to_dict(),
            "compile_cache": compile_cache_counts(),
        }
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(stats, handle)
        os.replace(path + ".tmp", path)
