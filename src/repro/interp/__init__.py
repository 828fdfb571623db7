"""Deterministic interpreter for MiniCUDA / MiniOMP programs.

Architecture:

* :mod:`repro.interp.compiler` turns each function, kernel, OpenMP loop
  nest and pragma body into the source text of one Python function and
  compiles it, so a guest statement runs as inline Python with no call
  per AST node — kernels execute thousands of simulated GPU threads.
* :mod:`repro.interp.memory` provides NumPy-free list-backed buffers with
  bounds/space/use-after-free checking: guest bugs surface as the same
  runtime errors a real platform produces ("Segmentation fault", "CUDA
  error: an illegal memory access was encountered", ...), which is exactly
  the stderr text LASSI's self-correction loop consumes.
* :mod:`repro.interp.executor` owns program setup, CUDA kernel launches
  (including ``__syncthreads`` barrier scheduling), OpenMP target-region
  mapping semantics, and work counting for the performance model.
"""

from repro.interp.executor import ProgramRunner, RunOutcome
from repro.interp.context import ExecContext, Limits

__all__ = ["ProgramRunner", "RunOutcome", "ExecContext", "Limits"]
