"""The functions the benchmark's layer ledger wraps keep their names,
signatures and observable counts.

``perfbench/ledger.py`` times ``Executor.run``, ``CompilerDriver.compile``,
``BaselinePreparer.prepare`` and reads ``compile_cache_stats`` from outside
``src/``; it sums ``steps_used`` and ``profile.total_kernel_launches`` into
``interp.steps`` / ``interp.launches``.  The counts below were frozen from
the closure-tree interpreter.
"""

from __future__ import annotations

import inspect

import pytest

from repro.hecbench import get_app
from repro.minilang.source import Dialect
from repro.pipeline.baseline import BaselinePreparer
from repro.toolchain import Executor, compiler_for
from repro.toolchain.compiler import CompilerDriver, compile_cache_stats


@pytest.mark.parametrize("dialect, steps, launches", [
    (Dialect.CUDA, 68002, 131),
    (Dialect.OMP, 53330, 131),
])
def test_jacobi_steps_and_launches_unchanged(dialect, steps, launches):
    app = get_app("jacobi")
    source = app.cuda_source if dialect is Dialect.CUDA else app.omp_source
    compiled = compiler_for(dialect).compile(source)
    result = Executor().run(
        compiled.program, dialect, app.args, app.work_scale, app.launch_scale
    )
    assert result.ok, result.stderr
    assert result.steps_used == steps
    assert result.profile.total_kernel_launches == launches


def test_wrapped_signatures_unchanged():
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(Executor.run) == [
        "self", "program", "dialect", "args", "work_scale", "launch_scale",
    ]
    assert params(CompilerDriver.compile) == ["self", "source_text", "filename"]
    assert params(BaselinePreparer.prepare) == [
        "self", "source", "dialect", "args", "work_scale", "launch_scale",
    ]
    assert params(compile_cache_stats) == []
    assert {"hits", "misses"} <= set(compile_cache_stats())
