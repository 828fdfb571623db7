"""Per-launch latency of the interpreter's flat-schedule fast path.

Barrier-free, atomics-free kernels run through a flattened single-pass
schedule (bulk step charge, hoisted env copy, memoized geometry tuples);
kernels with ``__syncthreads`` go through the generator-based interleaver.
This microbench launches the *same arithmetic* both ways — once as a plain
kernel, once with a (semantically idle) trailing barrier — and reports the
per-launch latency of each, plus the compile cache's hit rate over repeated
front-ends of identical source.

Emits ``BENCH_interp_fastpath.json`` (picked up as a CI artifact).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.minilang import parse
from repro.minilang.source import Dialect, SourceFile
from repro.interp import ProgramRunner
from repro.toolchain import CUDA_COMPILER, clear_compile_cache, compile_cache_stats

#: Kernel launches measured per variant.
LAUNCHES = 60
#: Launch geometry (threads = GRID_DIM * BLOCK_DIM per launch).
GRID_DIM, BLOCK_DIM = 4, 64
#: Repeated front-ends of one source for the compile-cache leg.
COMPILES = 25

BENCH_ARTIFACT = Path("BENCH_interp_fastpath.json")


def _kernel_source(with_barrier: bool) -> str:
    # Identical arithmetic; the barrier variant only appends __syncthreads()
    # so the work per thread matches and the schedule is the only variable.
    barrier = "  __syncthreads();\n" if with_barrier else ""
    return (
        "__global__ void work(float* a, float* b, int n) {\n"
        "  int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
        "  if (i < n) {\n"
        "    float x = a[i];\n"
        "    for (int k = 0; k < 8; k++) { x = x * 1.0001f + 0.5f; }\n"
        "    b[i] = x;\n"
        "  }\n"
        f"{barrier}"
        "}\n"
        "int main(int argc, char** argv) {\n"
        f"  int n = {GRID_DIM * BLOCK_DIM};\n"
        "  int iters = atoi(argv[1]);\n"
        "  float* a; float* b;\n"
        "  cudaMalloc(&a, n * sizeof(float));\n"
        "  cudaMalloc(&b, n * sizeof(float));\n"
        "  for (int it = 0; it < iters; it++) {\n"
        f"    work<<<{GRID_DIM}, {BLOCK_DIM}>>>(a, b, n);\n"
        "  }\n"
        "  return 0;\n"
        "}\n"
    )


def _per_launch_seconds(source_text: str) -> float:
    program, diags = parse(SourceFile("bench.cu", source_text, Dialect.CUDA))
    assert not diags.has_errors, diags.render()
    # One warm-up launch on the SAME runner compiles the kernel body to a
    # generated function (cached per ProgramRunner), so the measured run is
    # pure launch+execute.  The runner's profile accumulates across runs,
    # hence the +1 in the event-count assertion.
    runner = ProgramRunner(program, Dialect.CUDA)
    warmup = runner.run(["1"])
    assert warmup.ok, warmup.error
    start = time.perf_counter()
    outcome = runner.run([str(LAUNCHES)])
    elapsed = time.perf_counter() - start
    assert outcome.ok, outcome.error
    assert len(outcome.profile.kernel_events) == LAUNCHES + 1
    return elapsed / LAUNCHES


def test_fastpath_per_launch_latency():
    fast_s = _per_launch_seconds(_kernel_source(with_barrier=False))
    barrier_s = _per_launch_seconds(_kernel_source(with_barrier=True))

    clear_compile_cache()
    for _ in range(COMPILES):
        result = CUDA_COMPILER.compile(_kernel_source(with_barrier=False))
        assert result.ok, result.stderr
    cache = compile_cache_stats()

    BENCH_ARTIFACT.write_text(
        json.dumps(
            {
                "bench": "interp_fastpath",
                "launches": LAUNCHES,
                "threads_per_launch": GRID_DIM * BLOCK_DIM,
                "per_launch_us_fastpath": round(fast_s * 1e6, 1),
                "per_launch_us_barrier": round(barrier_s * 1e6, 1),
                "barrier_vs_fastpath": round(barrier_s / fast_s, 2),
                "compile_cache": {
                    "compiles": COMPILES,
                    "hits": cache["hits"],
                    "misses": cache["misses"],
                    "hit_rate": round(cache["hit_rate"], 4),
                },
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    # The flat schedule must beat the generator interleaver for the same
    # arithmetic, and repeated identical front-ends must be nearly all hits.
    assert fast_s < barrier_s, (
        f"flat schedule ({fast_s * 1e6:.0f}us/launch) should be faster than "
        f"the barrier interleaver ({barrier_s * 1e6:.0f}us/launch)"
    )
    assert cache["misses"] == 1 and cache["hits"] == COMPILES - 1
