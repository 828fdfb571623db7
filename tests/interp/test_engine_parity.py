"""Engine parity on programs that exercise many constructs at once.

Each program's stdout, stderr, exit code, steps and :class:`RuntimeProfile`
digest were frozen from the closure-tree interpreter that the generated-code
compiler replaced: pointer arithmetic, side effects inside indices and
short-circuit operands, compound assignment with truncation, loops with
``continue``/``break``, OpenMP collapse/reductions/target data, barrier
kernels with shared memory, device functions and atomics, and runs ending
in a fault or ``exit()``.
"""

from __future__ import annotations

import pytest

from repro.minilang import parse
from repro.minilang.source import Dialect, SourceFile
from repro.telemetry.profile import profile_from_execution
from repro.toolchain.executor import Executor

CASES = {
    "host_control_flow_and_arithmetic": ("C", [], r'''
int g = 5; int garr[4];
int f(int x) { if (x <= 1) return x; return f(x - 1) + f(x - 2); }
void nothing(int x) { if (x) return; g++; }
float half(int x) { return x / 2.0f; }
int main() {
  int a[8]; int i = 0; int s = 0;
  for (i = 0; i < 8; i++) { a[i] = i * 3; }
  i = 0; a[i++] = i; a[i++] += i * 2; a[i] = a[i] * 2;
  int* p = a; p++; p += 2; int* q = p + 1; q = 1 + q; int d = q - p; p -= 1;
  s = *p + p[1] + d + (p == q) + (p != NULL) + (NULL == 0);
  int k = 0; int t = (k++ > 0) && (k++ > 0); int u = (k++ > 0) || (k++ > 0);
  int w = k > 2 ? k++ : k--;
  for (int j = 0; j < 10; j++) { if (j % 2) continue; if (j > 6) break; s += j; }
  int m = 0; do { m++; if (m == 2) continue; s += m; } while (m < 5);
  while (1) { m--; if (m < 0) break; }
  garr[2] = g; g += garr[2]; nothing(0); nothing(1);
  s += f(12) + (int)half(7) + (-7 / 2) + (-7 % 3) + (7 % -3) + (~5) + (1 << 4) + (255 >> 2) + (6 & 3) + (6 | 3) + (6 ^ 3);
  float fl = 7; fl /= 2; int in = 7; in /= 2; in *= 2.5; double dd = 1e300 * 1e10;
  unsigned int un = 3;
  printf("%d %d %d %d %d %d %f %d %f %d %d %d\n", s, t, u, w, k, g, fl, in, dd, a[0], a[1], a[2]);
  printf("%d %d %x %o %5.2f %-4d| %s %c\n", un, (int)3.99, 255, 8, 3.14159, 7, "str", 65);
  return s % 256;
}
'''),
    "host_memory_and_math_builtins": ("C", ['37'], r'''
int main(int argc, char** argv) {
  int n = atoi(argv[1]);
  float* a = (float*)malloc(n * sizeof(float));
  float* b = (float*)calloc(n, sizeof(float));
  srand(7);
  for (int i = 0; i < n; i++) { a[i] = rand() % 100 / 10.0f; }
  memcpy(b, a, n * sizeof(float));
  memset(a, 0, n * sizeof(float));
  float s = 0.0f; float mx = -1.0f;
  for (int i = 0; i < n; i++) { s += b[i] + a[i]; mx = fmaxf(mx, b[i]); }
  printf("%.3f %.3f %.3f %.3f %.3f\n", s, mx, sqrtf(s), expf(-1.0f), powf(2.0f, 10.0f));
  printf("%f %f\n", sqrt(-1.0), log(0.0));
  free(a); free(b);
  return 0;
}
'''),
    "omp_nests_reductions_and_regions": ("OMP", [], r'''
int main() {
  int n = 64; int m = 8;
  float* a = (float*)malloc(n * m * sizeof(float));
  float* b = (float*)malloc(n * m * sizeof(float));
  for (int i = 0; i < n * m; i++) { a[i] = i % 17; b[i] = 0.0f; }
  float total = 0.0f; int cnt = 0; float mx = 0.0f;
  #pragma omp target data map(to: a[0:n*m]) map(tofrom: b[0:n*m])
  {
    #pragma omp target teams distribute parallel for collapse(2)
    for (int i = 0; i < n; i++) {
      for (int j = 0; j < m; j++) {
        if (j == 5) continue;
        if (i > 60) break;
        b[i * m + j] = a[i * m + j] * 2.0f + i - j;
      }
    }
    #pragma omp target teams distribute parallel for reduction(+: total)
    for (int i = n * m - 1; i >= 0; i -= 3) { total += b[i]; }
    #pragma omp target teams distribute parallel for reduction(max: mx)
    for (int i = 0; i < n * m; i = i + 2) { mx = fmaxf(mx, b[i]); }
  }
  #pragma omp parallel for reduction(+: cnt)
  for (int i = 0; i < 100; i++) { cnt += i % 3; }
  #pragma omp target map(tofrom: b[0:1])
  { b[0] = 42.0f; }
  int hits = 0;
  #pragma omp parallel for
  for (int i = 0; i < 10; i++) {
    #pragma omp atomic
    hits += 1;
  }
  printf("%.2f %.2f %d %.2f %d\n", total, mx, cnt, b[0], hits);
  return 0;
}
'''),
    "cuda_barriers_atomics_device_calls": ("CUDA", [], r'''
__device__ float sq(float x) { return x * x; }
__device__ int clampi(int v, int lo, int hi) { if (v < lo) return lo; if (v > hi) return hi; return v; }
__global__ void reduce(float* in, float* out, int n) {
  __shared__ float buf[64];
  int t = threadIdx.x;
  int i = blockIdx.x * blockDim.x + t;
  buf[t] = (i < n) ? sq(in[i]) : 0.0f;
  __syncthreads();
  for (int s = blockDim.x / 2; s > 0; s >>= 1) {
    if (t < s) { buf[t] += buf[t + s]; }
    __syncthreads();
  }
  if (t == 0) { atomicAdd(&out[0], buf[0]); }
}
__global__ void hist(int* data, int* bins, int n, float scale) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    int b = clampi(data[i] / 10, 0, 9);
    atomicAdd(&bins[b], 1);
    atomicMax(&bins[10], data[i]);
    int old = atomicCAS(&bins[11], 0, i);
  }
}
__global__ void scal(float* a, int n, int k) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { a[i] = a[i] * k / 3 + (i % k); }
}
int main() {
  int n = 200;
  float* h = (float*)malloc(n * sizeof(float));
  int* hd = (int*)malloc(n * sizeof(int));
  for (int i = 0; i < n; i++) { h[i] = i * 0.01f; hd[i] = (i * 37) % 100; }
  float* d; float* o; int* dd; int* bins;
  cudaMalloc(&d, n * sizeof(float)); cudaMalloc(&o, sizeof(float));
  cudaMalloc(&dd, n * sizeof(int)); cudaMalloc(&bins, 12 * sizeof(int));
  cudaMemset(o, 0, sizeof(float)); cudaMemset(bins, 0, 12 * sizeof(int));
  cudaMemcpy(d, h, n * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemcpy(dd, hd, n * sizeof(int), cudaMemcpyHostToDevice);
  reduce<<<(n + 63) / 64, 64>>>(d, o, n);
  hist<<<4, 64>>>(dd, bins, n, 0.5f);
  scal<<<4, 64>>>(d, n, 2.5f);
  float r[1]; int hb[12];
  cudaMemcpy(r, o, sizeof(float), cudaMemcpyDeviceToHost);
  cudaMemcpy(hb, bins, 12 * sizeof(int), cudaMemcpyDeviceToHost);
  cudaMemcpy(h, d, n * sizeof(float), cudaMemcpyDeviceToHost);
  printf("%.4f %d %d %d %d %.3f %.3f\n", r[0], hb[0], hb[9], hb[10], hb[11], h[7], h[199]);
  return 0;
}
'''),
    "double_free": ("C", [], r'''
int main() { int* p = (int*)malloc(4 * sizeof(int)); free(p); free(p); return 0; }
'''),
    "divergent_barrier": ("CUDA", [], r'''
__global__ void k(float* a) { int t = threadIdx.x; if (t < 16) { __syncthreads(); } a[t] = t; }
int main() { float* d; cudaMalloc(&d, 32 * sizeof(float)); k<<<1, 32>>>(d); float h[4]; cudaMemcpy(h, d, 4 * sizeof(float), 2); return 0; }
'''),
    "exit_mid_function": ("C", [], r'''
int main() { int x = 3; int* p = &x; printf("%d\n", x); exit(3); printf("no\n"); return 0; }
'''),
    "float_index_and_casts": ("C", [], r'''
int main() { float a[4]; int i = 2; a[i] = 1.5f; a[(int)a[i]] = 9.0f; int j = a[1]; int h = (int)(a[2] * 3.0f); printf("%d %d %f\n", j, h, a[1]); char* s = "hello"; printf("%s\n", s); return j; }
'''),
}

#: (stdout, stderr, exit_code, steps_used, profile digest) per case.
FROZEN = {
    'host_control_flow_and_arithmetic': (
        '284 0 1 2 1 11 3.000000 7 inf 0 3 7\n3 3 ff 10  3.14 7   | str A\n',
        'process exited with non-zero status 28',
        28,
        496,
        '940b345b5a4da1d153d13d911d603e4749a7fa872c64741eaf5550c701d13239',
    ),
    'host_memory_and_math_builtins': (
        '205.200 9.600 14.325 0.368 1024.000\nnan nan\n',
        '',
        0,
        74,
        '7a9690b1fc6583b859cbaa6d3cdd46983d40267307b45ce487e75c364c8b0bf0',
    ),
    'omp_nests_reductions_and_regions': (
        '6116.00 87.00 99 42.00 10\n',
        '',
        0,
        1604,
        '3bc18b03e060b3126f8e00aa5a1504b41f3a7f3bf3cd549fa742f49859202926',
    ),
    'cuda_barriers_atomics_device_calls': (
        '264.6700 20 20 99 1 2.058 3.158\n',
        '',
        0,
        4696,
        'd426caec39d9e766b9114a563f0db50a7d962b1ea3351289c8874c9486216718',
    ),
    'double_free': (
        '',
        'free(): double free detected in tcache 2\nAborted (core dumped)\n[detail] double free of buffer ?',
        1,
        0,
        '7d84a40585c4aa71856e931ae893d4b265722872bed0479dc69a689ec39ff160',
    ),
    'divergent_barrier': (
        '',
        'CUDA error: the launch timed out and was terminated\n[detail] barrier divergence in block 0: threads [16, 17, 18, 19] exited while others wait at __syncthreads()',
        1,
        32,
        'b4d3ef84d450c8add0332e43299d932154623f07cd28d4feb696b533a3c034ac',
    ),
    'exit_mid_function': (
        '3\n',
        'process exited with non-zero status 3',
        3,
        0,
        'fab31b75350d1c73bca8cc8957ea6af5519282413b4698f0860a1947376b5d84',
    ),
    'float_index_and_casts': (
        '9 4 9.000000\nhello\n',
        'process exited with non-zero status 9',
        9,
        0,
        'c1c8bb2b451d6cd87e9964188f37e58f57d0c6c7a602400251bd43f973482f00',
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_frozen_closure_engine_outcome(name):
    dialect_name, argv, text = CASES[name]
    dialect = getattr(Dialect, dialect_name)
    sf = SourceFile("parity", text, dialect)
    program, diags = parse(sf)
    assert not diags.has_errors, diags.render(sf)
    result = Executor().run(program, dialect, argv)
    digest = profile_from_execution(result).digest()
    assert (
        result.stdout, result.stderr, result.exit_code, result.steps_used, digest
    ) == FROZEN[name]
