"""Fault parity: guest faults keep their exact stderr, detail, exit code and
step count.

The self-correction loop feeds a failing run's stderr back to the LLM, and
the benchmark ledger sums ``steps_used``, so both are part of the observable
behaviour.  Each (error, detail, exit_code, steps_used) tuple below was
frozen from the closure-tree interpreter this compiler replaced.
"""

from __future__ import annotations

import pytest

from repro.interp import Limits, ProgramRunner
from repro.interp.context import MAX_CALL_DEPTH
from repro.minilang import analyze, parse
from repro.minilang.source import Dialect, SourceFile

CASES = {
    "null_dereference": ("C", r'''
int main() { int* p = NULL; int s = 0; for (int i = 0; i < 3; i++) { s += i; } p[0] = s; return 0; }
''', None),
    "out_of_bounds_host": ("C", r'''
int main() {
  int* a = (int*)malloc(4 * sizeof(int));
  int s = 0;
  for (int i = 0; i < 10; i++) { a[i] = i; s += a[i]; }
  printf("%d\n", s);
  return 0;
}
''', None),
    "out_of_bounds_device": ("CUDA", r'''
__global__ void k(float* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  a[i + 1] = a[i] * 2.0f;
}
int main() {
  int n = 16;
  float* d;
  cudaMalloc(&d, n * sizeof(float));
  k<<<2, 8>>>(d, n);
  cudaDeviceSynchronize();
  return 0;
}
''', None),
    "use_after_free": ("C", r'''
int main() {
  float* a = (float*)malloc(8 * sizeof(float));
  for (int i = 0; i < 8; i++) { a[i] = i; }
  free(a);
  printf("%f\n", a[2]);
  return 0;
}
''', None),
    "unmapped_host_pointer_in_target": ("OMP", r'''
int main() {
  int n = 32;
  float* a = (float*)malloc(n * sizeof(float));
  float* b = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) { a[i] = i; b[i] = 0.0f; }
  #pragma omp target teams distribute parallel for map(to: a[0:n])
  for (int i = 0; i < n; i++) { b[i] = a[i] + 1.0f; }
  printf("%f\n", b[3]);
  return 0;
}
''', None),
    "int_division_by_zero": ("C", r'''
int main() { int z = 0; int s = 0; for (int i = 0; i < 5; i++) { s += i; } int y = s / z; return y; }
''', None),
    "int_modulo_by_zero": ("C", r'''
int main() { int z = 0; int s = 7; while (s > 3) { s--; } int y = s % z; return y; }
''', None),
    "step_budget_for": ("C", r'''
int main() { int s = 0; for (int i = 0; i >= 0; i++) { s += i % 7; } return s; }
''', 5000),
    "step_budget_while": ("C", r'''
int main() { int s = 0; while (1) { s = s + 1; if (s < 0) { break; } } return s; }
''', 5000),
    "step_budget_do_while": ("C", r'''
int main() { int s = 0; do { s += 2; } while (s != 1); return s; }
''', 5000),
    "step_budget_barrier_kernel": ("CUDA", r'''
__global__ void spin(float* a, int n) {
  __shared__ float tile[32];
  int t = threadIdx.x;
  tile[t] = a[t];
  __syncthreads();
  int s = 0;
  while (s >= 0) { s = s + 1; }
  a[t] = tile[t] + s;
}
int main() {
  float* d;
  cudaMalloc(&d, 32 * sizeof(float));
  spin<<<1, 32>>>(d, 32);
  cudaDeviceSynchronize();
  return 0;
}
''', 5000),
    "unbounded_recursion": ("C", r'''
int down(int x) { return down(x + 1) + 1; }
int main() { printf("%d\n", down(0)); return 0; }
''', None),
}

FROZEN = {
    'null_dereference': ('Segmentation fault (core dumped)', 'NULL pointer dereference', 139, 3),
    'out_of_bounds_host': ('Segmentation fault (core dumped)', 'index 4 out of bounds for buffer ? of length 4', 139, 5),
    'out_of_bounds_device': ('CUDA error: an illegal memory access was encountered', 'index 16 out of bounds for buffer d of length 16', 1, 16),
    'use_after_free': ('Segmentation fault (core dumped)', 'use-after-free of buffer ?', 139, 8),
    'unmapped_host_pointer_in_target': ('CUDA error: an illegal memory access was encountered', 'device code dereferenced unmapped host pointer ?', 1, 33),
    'int_division_by_zero': ('Floating point exception (core dumped)', 'integer division by zero', 1, 5),
    'int_modulo_by_zero': ('Floating point exception (core dumped)', 'integer modulo by zero', 1, 4),
    'step_budget_for': ('execution timed out (killed)', 'step budget of 5000 exhausted', 1, 5001),
    'step_budget_while': ('execution timed out (killed)', 'step budget of 5000 exhausted', 1, 5001),
    'step_budget_do_while': ('execution timed out (killed)', 'step budget of 5000 exhausted', 1, 5001),
    'step_budget_barrier_kernel': ('execution timed out (killed)', 'step budget of 5000 exhausted', 1, 5001),
}


def run_case(name: str):
    dialect_name, text, max_steps = CASES[name]
    dialect = getattr(Dialect, dialect_name)
    sf = SourceFile("fault", text, dialect)
    program, diags = parse(sf)
    assert not diags.has_errors, diags.render(sf)
    sema = analyze(program, dialect)
    assert sema.ok, sema.diagnostics.render(sf)
    limits = Limits(max_steps=max_steps) if max_steps else None
    return ProgramRunner(program, dialect, limits=limits).run([])


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_fault_matches_frozen_tuple(name):
    out = run_case(name)
    assert (out.error, out.error_detail, out.exit_code, out.steps_used) == FROZEN[name]


def _at_stack_depth(depth: int, fn):
    return fn() if depth == 0 else _at_stack_depth(depth - 1, fn)


def test_unbounded_recursion_is_a_stack_overflow():
    out = run_case("unbounded_recursion")
    assert (out.error, out.error_detail, out.exit_code) == (
        "Segmentation fault (core dumped)",
        "stack overflow (unbounded recursion)",
        139,
    )
    # One step per guest call: the call that exceeds the depth bound is the
    # last one charged.  The closure engine hit Python's recursion limit
    # instead, so its count moved with the caller's stack depth.
    assert out.steps_used == MAX_CALL_DEPTH + 1
    deep = _at_stack_depth(300, lambda: run_case("unbounded_recursion"))
    assert deep.steps_used == out.steps_used
