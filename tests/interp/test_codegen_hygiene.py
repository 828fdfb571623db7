"""Code-generation hygiene: guest programs whose names and literals could
collide with the generated Python text.

Guest identifiers live as ``env`` keys and every intermediate value is a
generated ``_tN`` local, so a guest may name its variables after Python
keywords, builtins or the generator's own locals.  Literals are emitted with
``repr`` (or bound as constants when ``repr`` is not a Python literal, as for
``inf``), so quotes, backslashes, ``%%`` and non-ASCII text survive.  Each
case's stdout and :class:`RuntimeProfile` digest were frozen from the
closure-tree interpreter this compiler replaced.
"""

from __future__ import annotations

import pytest

from repro.minilang import analyze, parse
from repro.minilang.source import Dialect, SourceFile
from repro.telemetry.profile import profile_from_execution
from repro.toolchain.executor import Executor

CASES = {
    "python_names_as_locals": ("C", r'''
int lambda(int None, int len) { return None * 10 + len; }
int main() {
  int env = 3; int ctx = 4; int c = 5; int p = 6; int buf = 7;
  int None = 1; int True = 2; int self = 8; int def = 9; int k = 10;
  int t0 = 11; int _t1 = 12; int __builtins__ = 13; int b = 14;
  int len = lambda(env, ctx);
  for (int print = 0; print < 2; print++) { c += print + p; }
  buf = buf * None + True - self + def;
  printf("%d %d %d %d %d %d %d %d %d\n", env, ctx, c, p, buf, len, k + t0 + _t1, __builtins__, b);
  return 0;
}
'''),
    "python_names_as_pointers_and_kernel_params": ("CUDA", r'''
__global__ void lambda(float* env, float* ctx, int None) {
  int c = blockIdx.x * blockDim.x + threadIdx.x;
  if (c < None) { float p = env[c]; ctx[c] = p * 2.0f + c; }
}
int main() {
  int n = 8;
  float* buf = (float*)malloc(n * sizeof(float));
  for (int len = 0; len < n; len++) { buf[len] = len * 0.5f; }
  float* env; float* ctx;
  cudaMalloc(&env, n * sizeof(float));
  cudaMalloc(&ctx, n * sizeof(float));
  cudaMemcpy(env, buf, n * sizeof(float), cudaMemcpyHostToDevice);
  lambda<<<2, 4>>>(env, ctx, n);
  cudaMemcpy(buf, ctx, n * sizeof(float), cudaMemcpyDeviceToHost);
  for (int int_ = 0; int_ < n; int_++) { printf("%.2f ", buf[int_]); }
  printf("\n");
  return 0;
}
'''),
    "string_and_char_literals": ("C", r"""
int main() {
  printf("quote \" backslash \\ percent %% done\n");
  printf("tab\there\nline two 'single' {braces} %s\n", "arg \"q\" \\ {0}");
  printf("non-ascii: café € %s\n", "naïve");
  printf("%c%c%c%d%d\n", 'a', '\'', '"', '\n', '\0');
  printf("%s|%5s|%-5s|\n", "", "ab", "cd");
  printf("triple '''quotes''' and \"\"\"doubles\"\"\"\n");
  return 0;
}
"""),
    "edge_float_constants": ("C", r'''
int main() {
  double big = 1e309;
  double nbig = -1e309;
  double nz = -0.0;
  float tiny = 1e-45f;
  double x = 0.1 + 0.2;
  printf("%f %f %f %g %.17g\n", big, nbig, nz, tiny, x);
  printf("%f %f\n", big - big, 1e308 * 10.0);
  double r = 1.0 / nz;
  printf("%f %d %d\n", r, big > 1e308, nz == 0.0);
  return 0;
}
'''),
}


def _long_chains(n: int = 400) -> str:
    """400-term operator chains: deep ASTs must neither overflow the
    emitter's recursion nor nest the generated text past Python's parser
    limits."""
    total = " + ".join(f"a[{i % 4}] * 2" for i in range(n))
    guard = " && ".join(f"x > {i % 3 - 5}" for i in range(n))
    return (
        "int main() { int a[4]; int x = 1; "
        "for (int i = 0; i < 4; i++) { a[i] = i; }\n"
        f"  int s = {total};\n"
        f"  int t = 0; if ({guard}) {{ t = 1; }}\n"
        '  printf("%d %d\\n", s, t); return 0; }'
    )


CASES["long_operator_chains"] = ("C", _long_chains())

#: (stdout, RuntimeProfile digest) per case, frozen from the closure engine.
FROZEN = {
    'python_names_as_locals': (
        '3 4 18 6 10 34 33 13 14\n',
        '3d0fa62b615b9a56412a374696a7ff4f7afa72d7491c88e7453fe5752e694711',
    ),
    'python_names_as_pointers_and_kernel_params': (
        '0.00 2.00 4.00 6.00 8.00 10.00 12.00 14.00 \n',
        'c43c18b0d65c20d5c2407adf83d74e1029e947a91eda26bca047903d74fffebf',
    ),
    'string_and_char_literals': (
        'quote " backslash \\ percent % done\ntab\there\nline two \'single\' {braces} arg "q" \\ {0}\nnon-ascii: café € naïve\na\'"100\n|   ab|cd   |\ntriple \'\'\'quotes\'\'\' and """doubles"""\n',
        'fab31b75350d1c73bca8cc8957ea6af5519282413b4698f0860a1947376b5d84',
    ),
    'edge_float_constants': (
        'inf -inf -0.000000 1e-45 0.30000000000000004\nnan inf\ninf 1 1\n',
        '80b28fa55bebf3b9281eb1a451d438e0f1636268a221a3fdffd52bb8e41ddf64',
    ),
    "long_operator_chains": (
        "1200 1\n",
        "ac9bbae4a13e4e3cd213c7641d47ae063313e66e37fd5caea37d73c50308b0a9",
    ),
}


def execute(dialect_name: str, text: str):
    dialect = getattr(Dialect, dialect_name)
    sf = SourceFile("hygiene", text, dialect)
    program, diags = parse(sf)
    assert not diags.has_errors, diags.render(sf)
    sema = analyze(program, dialect)
    assert sema.ok, sema.diagnostics.render(sf)
    return Executor().run(program, dialect, [])


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_and_profile_match_frozen(name):
    result = execute(*CASES[name])
    assert result.ok, result.stderr
    profile = profile_from_execution(result)
    assert (result.stdout, profile.digest()) == FROZEN[name]


def test_generated_text_is_cached_not_the_ast():
    from repro.interp import compiler

    text = CASES["python_names_as_locals"][1]
    execute("C", text)
    before = len(compiler._CODE_CACHE)
    execute("C", text)
    # A second run of the same program compiles nothing new.
    assert len(compiler._CODE_CACHE) == before
    assert len(compiler._CODE_CACHE) <= compiler._CODE_CACHE_MAX
