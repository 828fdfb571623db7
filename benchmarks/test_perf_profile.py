"""Cost of the runtime-profiling layer, and the perf-gate's input.

Two deliverables, emitted as ``BENCH_perf_profile.json``:

* **collection overhead** — the time a grid spends inside the two
  collection seams (every execution condensed into a
  :class:`~repro.telemetry.profile.RuntimeProfile` riding the
  ``ExecutionFinished`` event, and the reference/generated profiles
  scored into the result's ``profile`` block), self-timed inside the run
  and divided by that run's wall time (median over trials).  Must stay
  under :data:`MAX_PROFILE_OVERHEAD` — profiling is bookkeeping, not
  science.  The wall time of the same grid with both seams stubbed out
  is compared too, best-of-N on each side, and reported only.
* **the profiles block** — deterministic baseline profiles of the
  grid's applications (the same snapshot ``repro perf profile``
  builds).  The CI perf-gate job diffs this block against the committed
  ``benchmarks/perf_baseline.json`` with ``repro perf regress``; a
  drift beyond tolerance means execution cost semantics changed.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro import api
from repro.experiments import ParallelExperimentRunner
from repro.pipeline import BaselinePreparer
from repro.pipeline.stages import finalize, loops

from benchmarks._selfcost import SelfCost

#: Ceiling on the collection seams' self-timed share of grid wall time.
MAX_PROFILE_OVERHEAD = 0.05
#: Trials per leg.
TRIALS = 3
#: The measured grid: 1 model x 1 direction x 4 apps = 4 scenarios.
GRID = dict(
    models=["gpt4"],
    directions=["omp2cuda"],
    apps=["layout", "pathfinder", "matrix-rotate", "bsearch"],
)

BENCH_ARTIFACT = Path("BENCH_perf_profile.json")


def _timed_grid(baselines) -> float:
    runner = ParallelExperimentRunner(jobs=1, baselines=baselines)
    start = time.perf_counter()
    results = runner.run(**GRID)
    elapsed = time.perf_counter() - start
    assert len(results) == 4
    return elapsed


def test_profile_collection_overhead_stays_under_budget(monkeypatch):
    baselines = BaselinePreparer()
    # Warm the shared baselines and the process-wide compile cache so
    # both timed legs pay identical toolchain costs.
    _timed_grid(baselines)

    cost = SelfCost()
    with monkeypatch.context() as patch:
        cost.install(patch, loops, "_execution_profile_payload")
        # The scored profiles are condensed in the call's arguments.
        cost.install(patch, finalize, "profile_from_execution")
        cost.install(patch, finalize, "score_profiles")
        fractions = []
        for _ in range(TRIALS):
            cost.seconds = 0.0
            wall = _timed_grid(baselines)
            assert cost.calls, "no collection seam was reached"
            fractions.append(cost.seconds / wall)
    overhead = statistics.median(fractions)

    profiled = min(_timed_grid(baselines) for _ in range(TRIALS))
    sample = ParallelExperimentRunner(jobs=1, baselines=baselines).run(
        models=["gpt4"], directions=["omp2cuda"], apps=["layout"]
    )[0].result
    assert sample.profile is not None, "profiled leg produced no profile"

    # The disabled leg: both collection seams are module-level precisely
    # so this bench can stub them and measure the difference.
    monkeypatch.setattr(
        loops, "_execution_profile_payload", lambda execution: None
    )
    monkeypatch.setattr(
        finalize, "score_profiles", lambda reference, generated: None
    )
    disabled = min(_timed_grid(baselines) for _ in range(TRIALS))
    monkeypatch.undo()

    wall_overhead = max(0.0, profiled / disabled - 1.0)

    # The snapshot the perf-gate diffs against the committed baseline.
    snapshot = api.profile_baselines(apps=GRID["apps"])
    assert snapshot == api.profile_baselines(apps=GRID["apps"]), (
        "baseline profiles are not deterministic"
    )

    BENCH_ARTIFACT.write_text(
        json.dumps(
            {
                "bench": "perf_profile",
                "scenarios": len(GRID["apps"]),
                "trials": TRIALS,
                "profiled_seconds": round(profiled, 4),
                "disabled_seconds": round(disabled, 4),
                "overhead_fraction": round(overhead, 5),
                "wall_overhead_fraction": round(wall_overhead, 5),
                "budget_fraction": MAX_PROFILE_OVERHEAD,
                "profiles": snapshot["profiles"],
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    assert overhead < MAX_PROFILE_OVERHEAD, (
        f"profile collection self-time is {overhead:.1%} of grid wall time "
        f"(budget {MAX_PROFILE_OVERHEAD:.0%}); wall difference "
        f"profiled {profiled:.3f}s vs disabled {disabled:.3f}s"
    )
