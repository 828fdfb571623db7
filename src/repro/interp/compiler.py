"""AST -> Python source compiler.

Each compiled unit (a function or kernel body, an OpenMP loop nest, a pragma
body, a standalone expression) becomes the text of *one* Python function,
turned into a function object with a single ``compile()``.  Expressions and
statements are inlined into that text, so executing a guest statement costs
no Python call per AST node:

* guest locals live in the ``env`` dict (``&x`` hands out a
  :class:`ScalarRef` into it, kernels copy it per thread, pragma bodies
  share it), and every intermediate value is a Python local ``_tN``;
* work counters are bumped on the ambient ``c = ctx.counters`` read once
  on entry — every counter/space swap (kernel launch, target region,
  host-parallel region) runs a separately compiled unit, so a unit never
  sees its counters change underneath it;
* memory accesses inline the common in-bounds case and fall back to
  :meth:`MemoryManager.check_access` only when it may fault or redirect to
  an OpenMP shadow, so every fault message is produced by the same code;
* a per-function analysis proves which ``int`` locals can only hold Python
  ints, so their index and bit arithmetic skips ``int()`` conversions.

Unit kinds differ only in how ``return``/``break``/``continue`` leave the
unit: a function body returns the guest value, a pragma body returns a
signal (``None``, ``BREAK``, ``CONTINUE`` or ``(RETURN, value)``), and a
kernel containing ``__syncthreads()`` compiles to a generator that yields
``BARRIER`` so the executor can interleave a block's threads.

Generated code objects are shared through a bounded LRU keyed by the
source text; the AST itself is never annotated (compile results are
pickled by the persistent compile cache).
"""

from __future__ import annotations

import math
import operator
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import GuestRuntimeError, InterpreterError
from repro.interp.context import MAX_CALL_DEPTH
from repro.interp.memory import ElemRef, MemoryManager, Pointer, ScalarRef
from repro.interp.values import c_div, c_mod
from repro.minilang import ast
from repro.minilang import types as ty
from repro.minilang.builtins import BUILTINS, CONSTANTS, GEOMETRY_BUILTINS

BREAK = "__break__"
CONTINUE = "__continue__"
RETURN = "__return__"
BARRIER = "__barrier__"

_SEGFAULT = "Segmentation fault (core dumped)"

_GEOM_INDEX = {"threadIdx": 0, "blockIdx": 1, "blockDim": 2, "gridDim": 3}
_CMP_OPS = ("<", ">", "<=", ">=", "==", "!=")
_BIT_OPS = ("&", "|", "^", "<<", ">>")
#: Two-argument device atomics: new cell value from the old one.
_ATOMIC_UPDATES = {
    "atomicAdd": "{old} + {v}",
    "atomicSub": "{old} - {v}",
    "atomicMax": "max({old}, {v})",
    "atomicMin": "min({old}, {v})",
    "atomicExch": "{v}",
}


class GuestExit(Exception):
    """Raised by the ``exit()`` builtin to unwind the guest program."""

    def __init__(self, code: int) -> None:
        super().__init__(f"exit({code})")
        self.code = code


# ----------------------------------------------------------------------
# Runtime helpers referenced by generated code
# ----------------------------------------------------------------------
def _null(detail: str = "NULL pointer dereference"):
    raise GuestRuntimeError(_SEGFAULT, detail=detail)


def _unbound(name: str):
    raise GuestRuntimeError(_SEGFAULT, detail=f"use of unbound identifier '{name}'")


def _no_function(name: str):
    raise GuestRuntimeError(_SEGFAULT, detail=f"call to unknown function '{name}'")


def _stack_overflow():
    raise GuestRuntimeError(_SEGFAULT, detail="stack overflow (unbounded recursion)")


def _bad_barrier():
    raise GuestRuntimeError(
        "CUDA error: unspecified launch failure",
        detail="__syncthreads() outside a kernel body",
    )


def _to_int(v):
    """``(int)v`` for a value that may be a pointer or string."""
    return int(v) if not isinstance(v, (Pointer, str)) else v


def _pointer_update(old, v, op: str):
    """Compound assignment ``old op= v`` whose target may hold a pointer
    (``*=``-style operators on a pointer move it backwards, as before)."""
    if isinstance(old, Pointer):
        return old.offset_by(int(v) if op == "+" else -int(v))
    if op in _BIT_OPS:
        old, v = int(old), int(v)
    return _BINOPS[op](old, v)


_BINOPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": c_div,
    "%": c_mod, "&": operator.and_, "|": operator.or_, "^": operator.xor,
    "<<": operator.lshift, ">>": operator.rshift,
}


_HELPERS = {
    "_null": _null,
    "_unbound": _unbound,
    "_no_function": _no_function,
    "_stack_overflow": _stack_overflow,
    "_bad_barrier": _bad_barrier,
    "_to_int": _to_int,
    "_pointer_update": _pointer_update,
    "_check": MemoryManager.check_access,
    "c_div": c_div,
    "c_mod": c_mod,
    "ScalarRef": ScalarRef,
    "ElemRef": ElemRef,
    "BREAK": BREAK,
    "CONTINUE": CONTINUE,
    "RETURN": RETURN,
    "BARRIER": BARRIER,
    "_nan": math.nan,
    "_MAX_DEPTH": MAX_CALL_DEPTH,
}

#: Generated source text -> code object.  Bounded: a campaign compiles
#: thousands of distinct programs, but each one is executed many times
#: (baseline, candidates, re-verification), so recent bodies are the hot
#: set.  256 entries keep the hit rate of a 1024-entry cache on both the
#: paper grid (713 of 1057 lookups) and the synthetic grid (4989 of 5697).
_CODE_CACHE: "OrderedDict[str, object]" = OrderedDict()
_CODE_CACHE_MAX = 256


def _code_for(text: str):
    code = _CODE_CACHE.get(text)
    if code is None:
        code = compile(text, "<minilang>", "exec")
        _CODE_CACHE[text] = code
        if len(_CODE_CACHE) > _CODE_CACHE_MAX:
            _CODE_CACHE.popitem(last=False)
    else:
        _CODE_CACHE.move_to_end(text)
    return code


def _contains_barrier(stmt: ast.Stmt) -> bool:
    return any(isinstance(s, ast.SyncThreads) for s in ast.walk_stmts(stmt))


def _contains_atomics(stmt: ast.Stmt) -> bool:
    return any(
        isinstance(e, ast.Call) and e.callee.startswith("atomic")
        for e in ast.walk_exprs(stmt)
    )


def _is_pure_math(e: ast.Call) -> bool:
    b = BUILTINS.get(e.callee)
    return b is not None and b.py is not None and len(e.args) in (1, 2)


def collect_local_types(fn: ast.FuncDef) -> Dict[str, ty.Type]:
    """Static name -> type map for a function (params + all declarations).

    Scopes are flattened; the semantic analyzer has already validated scoping,
    and redeclaration with a *different* type across sibling scopes is outside
    the supported subset.
    """
    out: Dict[str, ty.Type] = {}
    for p in fn.params:
        if p.name:
            out[p.name] = p.type
    for s in ast.walk_stmts(fn.body):
        if isinstance(s, ast.VarDecl):
            out[s.name] = s.type.pointer_to() if s.array_size is not None else s.type
    return out


class FunctionCompiler:
    """Compiles the units of one function body against a runner's context."""

    def __init__(self, runner, fn: ast.FuncDef) -> None:
        self.runner = runner
        self.ctx = runner.ctx
        self.fn = fn
        self.types = collect_local_types(fn)
        self.barrier_mode = fn.is_kernel and _contains_barrier(fn.body)
        #: Kernels free of both barriers and atomics qualify for the
        #: executor's flattened single-pass launch schedule.
        self.has_atomics = fn.is_kernel and _contains_atomics(fn.body)
        self.shared_decls: List[ast.VarDecl] = [
            s for s in ast.walk_stmts(fn.body)
            if isinstance(s, ast.VarDecl) and s.shared
        ]
        self.int_locals = self._int_locals()
        self._writes_cache: Dict[int, bool] = {}

    # ------------------------------------------------------------------
    # Public compile entry points
    # ------------------------------------------------------------------
    def compile_body(self) -> Callable:
        """The whole function: ``call(env) -> value``, or for a barrier
        kernel a generator function yielding ``BARRIER``."""
        if self.barrier_mode:
            return self.compile_stmt_gen(self.fn.body)
        g = _Unit(self, "value")
        g.stmt(self.fn.body)
        g.emit(f"return {g.default_return()}")
        return g.build()

    def compile_stmt(self, s: ast.Stmt) -> Callable:
        """``run(env) -> signal`` for one statement (pragma bodies)."""
        g = _Unit(self, "signal")
        g.stmt(s)
        return g.build()

    def compile_stmt_gen(self, s: ast.Stmt) -> Callable:
        """Generator function for a statement containing barriers."""
        g = _Unit(self, "gen")
        g.stmt(s)
        g.emit("return")
        g.emit("yield")
        return g.build()

    def compile_expr(self, e: ast.Expr) -> Callable:
        """``eval(env) -> value`` for one expression."""
        g = _Unit(self, "expr")
        text, _ = g.expr(e)
        g.emit(f"return {text}")
        return g.build()

    def compile_nest(self, levels: List[tuple], body: ast.Stmt) -> Callable:
        """An OpenMP canonical loop nest: ``run(env) -> iterations``.

        ``levels`` holds ``(var, start, cmp_op, bound, step, sign)`` per
        collapsed level, outermost first; ``step`` is None for ``++``/``--``
        (a step of ``sign``), else an expression scaled by ``sign``.
        Iterations run serially in order; ``break`` (and a non-conforming
        ``return``) leaves the innermost level only.
        """
        g = _Unit(self, "nest")
        g.emit("_n = 0")
        g.nest(levels, 0, body)
        g.emit("return _n")
        return g.build()

    # ------------------------------------------------------------------
    # Static facts
    # ------------------------------------------------------------------
    def static_type(self, expr: ast.Expr) -> Optional[ty.Type]:
        """Best-effort static type (enough for allocation/truncation)."""
        if isinstance(expr, ast.Ident):
            t = self.types.get(expr.name)
            if t is not None:
                return t
            return self.runner.global_types.get(expr.name)
        if isinstance(expr, ast.Cast):
            return expr.type
        if isinstance(expr, ast.Index):
            base = self.static_type(expr.base)
            if base is not None and base.is_pointer:
                return base.pointee()
            return None
        if isinstance(expr, ast.Unary) and expr.op == "*":
            base = self.static_type(expr.operand)
            if base is not None and base.is_pointer:
                return base.pointee()
        if isinstance(expr, ast.Unary) and expr.op == "&":
            base = self.static_type(expr.operand)
            if base is not None:
                return base.pointer_to()
        return None

    def _int_locals(self) -> Set[str]:
        """Integer locals that provably only ever hold Python ints.

        Declarations, assignments and calls truncate floats stored into
        integer variables, so an ``int`` local holds an int unless one of
        the untruncated writers reaches it: a kernel parameter (launch
        arguments are bound as passed), ``&x`` (atomics write through the
        reference), a reduction variable, or an OpenMP canonical loop
        variable whose start value is not itself a proven int.
        """
        fn = self.fn
        decl_types: Dict[str, ty.Type] = {}
        cand: Set[str] = set()
        conflicted: Set[str] = set()

        def declare(name: str, t: ty.Type) -> None:
            prev = decl_types.setdefault(name, t)
            if prev != t:
                conflicted.add(name)

        for p in fn.params:
            if p.name:
                declare(p.name, p.type)
        nests: List[Tuple[str, ast.Expr]] = []
        for s in ast.walk_stmts(fn.body):
            if isinstance(s, ast.VarDecl):
                declare(s.name, s.type if s.array_size is None else s.type.pointer_to())
            elif isinstance(s, ast.Pragma):
                red = s.pragma.reduction
                if red is not None:
                    conflicted.update(red.names)
                if s.pragma.is_target and s.pragma.is_loop:
                    loop = s.body
                    for _ in range(max(1, s.pragma.collapse)):
                        if not isinstance(loop, ast.For):
                            break
                        init = loop.init
                        if isinstance(init, ast.VarDecl) and init.init is not None:
                            nests.append((init.name, init.init))
                        elif isinstance(init, ast.ExprStmt) and isinstance(
                            init.expr, ast.Assign
                        ) and isinstance(init.expr.target, ast.Ident):
                            nests.append((init.expr.target.name, init.expr.value))
                        body = loop.body
                        if isinstance(body, ast.Block) and len(body.stmts) == 1:
                            body = body.stmts[0]
                        loop = body
        for e in ast.walk_exprs(fn.body):
            if isinstance(e, ast.Unary) and e.op == "&" and isinstance(e.operand, ast.Ident):
                conflicted.add(e.operand.name)
        if fn.is_kernel:
            conflicted.update(p.name for p in fn.params)
        for name, t in decl_types.items():
            if t.is_integer and name not in conflicted:
                cand.add(name)
        changed = True
        while changed:
            changed = False
            for name, start in nests:
                if name in cand and not self._proven_int(start, cand):
                    cand.discard(name)
                    changed = True
        return cand

    def _proven_int(self, e: ast.Expr, ints: Set[str]) -> bool:
        """Whether ``e`` always evaluates to a Python int."""
        if isinstance(e, (ast.IntLit, ast.CharLit, ast.BoolLit, ast.SizeOf)):
            return True
        if isinstance(e, ast.Ident):
            if e.name in self.types:
                return e.name in ints
            if e.name in self.runner.global_env or e.name in self.runner.global_types:
                return False
            if e.name in CONSTANTS:
                return isinstance(CONSTANTS[e.name][0], int)
            return e.name in GEOMETRY_BUILTINS
        if isinstance(e, ast.Member):
            return isinstance(e.obj, ast.Ident) and e.obj.name in GEOMETRY_BUILTINS
        if isinstance(e, ast.Binary):
            if e.op in _CMP_OPS or e.op in _BIT_OPS or e.op in ("&&", "||"):
                return True
            return self._proven_int(e.left, ints) and self._proven_int(e.right, ints)
        if isinstance(e, ast.Unary):
            if e.op in ("!", "~"):
                return True
            if e.op in ("-", "++", "--"):
                return self._proven_int(e.operand, ints)
            return False
        if isinstance(e, ast.Postfix):
            return self._proven_int(e.operand, ints)
        if isinstance(e, ast.Ternary):
            return self._proven_int(e.then, ints) and self._proven_int(e.other, ints)
        if isinstance(e, ast.Cast):
            return e.type.is_integer and self._numeric(e.operand, ints)
        if isinstance(e, ast.Assign):
            if isinstance(e.target, ast.Ident) and e.target.name in self.types:
                return e.target.name in ints
            return False
        return False

    def _numeric(self, e: ast.Expr, ints: Set[str]) -> bool:
        """Whether ``e``'s static type is arithmetic (never a pointer)."""
        if self._proven_int(e, ints):
            return True
        if isinstance(e, ast.FloatLit):
            return True
        if isinstance(e, ast.Cast):
            # (int)p keeps a pointer value, so a cast proves nothing alone.
            return e.type.is_numeric and self._numeric(e.operand, ints)
        t = self.static_type(e)
        return t is not None and t.is_numeric

    def writes(self, e: ast.Expr) -> bool:
        """Whether evaluating ``e`` may write guest state."""
        key = id(e)
        hit = self._writes_cache.get(key)
        if hit is None:
            hit = False
            for x in ast.walk_exprs(e):
                if isinstance(x, (ast.Assign, ast.Launch)) or (
                    isinstance(x, (ast.Unary, ast.Postfix)) and x.op in ("++", "--")
                ) or (isinstance(x, ast.Call) and not _is_pure_math(x)):
                    hit = True
                    break
            self._writes_cache[key] = hit
        return hit


class _Unit:
    """Emitter for one generated Python function.

    ``mode`` decides how control leaves the unit: ``"value"`` (function
    body), ``"signal"`` (pragma body), ``"gen"`` (barrier generator),
    ``"expr"`` (single expression) or ``"nest"`` (OpenMP loop nest).
    """

    def __init__(self, fc: FunctionCompiler, mode: str) -> None:
        self.fc = fc
        self.mode = mode
        self.lines: List[list] = []
        self.ind = 1
        self.ntemp = 0
        self.ns: Dict[str, object] = dict(_HELPERS)
        runner = fc.runner
        self.ns.update(
            ctx=fc.ctx, G=runner.global_env, _compiled=runner.compiled,
            _call_builtin=runner.call_builtin, _launch=runner.launch,
            _host_alloc=runner.host_alloc, _stack_alloc=runner.stack_alloc,
            _atomic=runner._atomic,
        )
        self.consts: Dict[int, str] = {}
        #: Per enclosing guest loop: emits the code of a ``continue``.
        self.loops: List[Callable[[], None]] = []
        self.uses: Set[str] = set()

    # -- text plumbing ---------------------------------------------------
    def emit(self, text: str) -> None:
        self.lines.append([self.ind, text, 0])

    def emit_inner(self, text: str) -> None:
        """Emit ``text`` one indentation level deeper."""
        self.ind += 1
        self.emit(text)
        self.ind -= 1

    def count(self, n: object = 1, field: str = "ops") -> None:
        self.uses.add("c")
        if field != "ops":
            self.emit(f"c.{field} += {n}")
            return
        last = self.lines[-1] if self.lines else None
        if last is not None and last[2] and last[0] == self.ind:
            last[2] += n
            last[1] = f"c.ops += {last[2]}"
        else:
            self.lines.append([self.ind, f"c.ops += {n}", n])

    def temp(self) -> str:
        self.ntemp += 1
        return f"_t{self.ntemp}"

    def const(self, obj) -> str:
        name = self.consts.get(id(obj))
        if name is None:
            name = f"_k{len(self.consts)}"
            self.consts[id(obj)] = name
            self.ns[name] = obj
        return name

    def literal(self, v) -> str:
        if v is None or isinstance(v, (bool, str)):
            return repr(v)
        if isinstance(v, int):
            return repr(v) if v >= 0 else f"({v!r})"
        if isinstance(v, float) and math.isfinite(v):
            text = repr(v)
            return f"({text})" if text.startswith("-") else text
        return self.const(v)

    @staticmethod
    def is_temp(text: str) -> bool:
        return text.startswith("_t") and text[2:].isdigit()

    def simple(self, text: str) -> bool:
        return self.is_temp(text) or text[:1].isdigit() or text == "None"

    def fix(self, text: str) -> str:
        """Materialize ``text`` into a temporary (evaluated here, once)."""
        if self.simple(text):
            return text
        t = self.temp()
        self.emit(f"{t} = {text}")
        return t

    @contextmanager
    def nested(self) -> Iterator[List[list]]:
        """Capture the lines emitted inside one indentation level deeper."""
        saved = self.lines
        self.lines = []
        self.ind += 1
        try:
            yield self.lines
        finally:
            self.lines = saved
            self.ind -= 1

    def suite(self, body: Callable[[], None]) -> None:
        self.ind += 1
        start = len(self.lines)
        body()
        if len(self.lines) == start:
            self.emit("pass")
        self.ind -= 1

    def build(self) -> Callable:
        head = ["def _f(env):"]
        if "c" in self.uses:
            head.append(" c = ctx.counters")
        if "mem" in self.uses:
            head.append(" _dev = ctx.space == 'device'")
            head.append(" _di = 1 if _dev else 0")
        if "geo" in self.uses:
            head.append(" _geo = ctx.geom")
        body = [" " * ind + text for ind, text, _ in self.lines]
        if not body:
            body = [" pass"]
        text = "\n".join(head + body) + "\n"
        ns = self.ns
        exec(_code_for(text), ns)
        return ns["_f"]

    # ==================================================================
    # Expressions: each returns (python expression text, proven int).
    # The text is either a temporary/literal or a side-effect-free
    # expression over env reads; anything that may raise or write is
    # emitted as a statement at its evaluation point.
    # ==================================================================
    def expr(self, e: ast.Expr) -> Tuple[str, bool]:
        if isinstance(e, ast.IntLit):
            return self.literal(e.value), True
        if isinstance(e, ast.FloatLit):
            return self.literal(e.value), False
        if isinstance(e, ast.StrLit):
            return repr(e.value), False
        if isinstance(e, ast.CharLit):
            return repr(ord(e.value) if e.value else 0), True
        if isinstance(e, ast.BoolLit):
            return ("1" if e.value else "0"), True
        if isinstance(e, ast.NullLit):
            return "None", False
        if isinstance(e, ast.SizeOf):
            return repr(e.type.size), True
        if isinstance(e, ast.Ident):
            return self.ident(e)
        if isinstance(e, ast.Member):
            if isinstance(e.obj, ast.Ident) and e.obj.name in GEOMETRY_BUILTINS:
                return self.geom(e.obj.name, e.field_name), True
            raise InterpreterError("member access on non-geometry object")
        if isinstance(e, ast.Index):
            return self.load(e.base, e.index), False
        if isinstance(e, ast.Unary):
            return self.unary(e)
        if isinstance(e, ast.Postfix):
            return self.incdec(e.operand, 1 if e.op == "++" else -1, want_old=True)
        if isinstance(e, ast.Binary):
            return self.binary(e)
        if isinstance(e, ast.Assign):
            return self.assign(e)
        if isinstance(e, ast.Ternary):
            return self.ternary(e)
        if isinstance(e, ast.Call):
            return self.call(e)
        if isinstance(e, ast.Launch):
            return self.launch(e)
        if isinstance(e, ast.Cast):
            return self.cast(e)
        raise InterpreterError(f"cannot compile expression {type(e).__name__}")

    def cond(self, e: ast.Expr) -> str:
        """Text whose truthiness is the C truth value of ``e``."""
        if isinstance(e, ast.Binary) and e.op in ("&&", "||"):
            left = self.cond(e.left)
            with self.nested() as rlines:
                right = self.cond(e.right)
            if not rlines:
                return self.bounded(f"({left} {'and' if e.op == '&&' else 'or'} {right})")
            t = self.temp()
            self.emit(f"if {left}:")
            if e.op == "&&":
                self.lines.extend(rlines)
                self.emit_inner(f"{t} = {right}")
                self.emit("else:")
                self.emit_inner(f"{t} = False")
            else:
                self.emit_inner(f"{t} = True")
                self.emit("else:")
                self.lines.extend(rlines)
                self.emit_inner(f"{t} = {right}")
            return t
        if isinstance(e, ast.Unary) and e.op == "!":
            return f"(not {self.cond(e.operand)})"
        if isinstance(e, ast.Binary) and e.op in _CMP_OPS:
            return self.compare(e)
        return self.expr(e)[0]

    def operands(self, exprs: List[ast.Expr]) -> List[Tuple[str, bool]]:
        """Evaluate left to right; earlier results are materialized before
        any later operand that may write guest state."""
        out: List[Tuple[str, bool]] = []
        for i, x in enumerate(exprs):
            if i and self.fc.writes(x):
                out = [(self.fix(t), gi) for t, gi in out]
            out.append(self.expr(x))
        return out

    def ident(self, e: ast.Ident) -> Tuple[str, bool]:
        name = e.name
        fc = self.fc
        if name in fc.types:
            return f"env[{name!r}]", name in fc.int_locals
        if name in fc.runner.global_env or name in fc.runner.global_types:
            return f"G[{name!r}]", False
        if name in CONSTANTS:
            v = CONSTANTS[name][0]
            return self.literal(v), isinstance(v, int)
        if name in GEOMETRY_BUILTINS:
            # Bare geometry name (no .x): treat as its .x component.
            return self.geom(name, "x"), True
        # Unbound name that slipped past semantics (should not happen on a
        # clean compile): fault at run time like a linker would.
        self.emit(f"_unbound({name!r})")
        return "None", False

    def geom(self, name: str, field: str) -> str:
        if field == "x":
            self.uses.add("geo")
            return f"_geo[{_GEOM_INDEX[name]}]"
        # 1-D model: y/z indices are 0, y/z dims are 1.
        return "1" if name in ("blockDim", "gridDim") else "0"

    # -- memory ------------------------------------------------------------
    def access(self, base: ast.Expr, index: ast.Expr) -> Tuple[str, str]:
        """Emit a checked element access; returns (buffer, cell index)."""
        self.uses.add("mem")
        p = self.fix(self.expr(base)[0])
        self.emit(f"if {p} is None: _null()")
        if isinstance(index, ast.IntLit) and index.value == 0:
            k_expr = f"{p}.off"
        else:
            itext, gi = self.expr(index)
            k_expr = f"{p}.off + {itext if gi else f'int({itext})'}"
        k, b = self.temp(), self.temp()
        self.emit(f"{k} = {k_expr}")
        self.emit(f"{b} = {p}.buf.views[_di]")
        self.emit(
            f"if {b} is None or not 0 <= {k} < {b}.length: "
            f"{b} = _check({p}.buf, {k}, _dev)"
        )
        return b, k

    def load(self, base: ast.Expr, index: ast.Expr) -> str:
        b, k = self.access(base, index)
        self.count(f"{b}.elem_bytes", "load_bytes")
        self.count()
        t = self.temp()
        self.emit(f"{t} = {b}.cells[{k}]")
        return t

    def store(self, base: ast.Expr, index: ast.Expr, value: str, gi: bool) -> None:
        b, k = self.access(base, index)
        self.count(f"{b}.elem_bytes", "store_bytes")
        as_int = value if gi else f"int({value})"
        self.emit(f"{b}.cells[{k}] = float({value}) if {b}.is_float else {as_int}")

    @staticmethod
    def element(target: ast.Expr) -> Optional[Tuple[ast.Expr, ast.Expr]]:
        if isinstance(target, ast.Index):
            return target.base, target.index
        if isinstance(target, ast.Unary) and target.op == "*":
            return target.operand, ast.IntLit(0, "0")
        return None

    # -- operators -----------------------------------------------------------
    def unary(self, e: ast.Unary) -> Tuple[str, bool]:
        op = e.op
        if op == "&":
            return self.address_of(e.operand), False
        if op == "*":
            return self.load(e.operand, ast.IntLit(0, "0")), False
        if op == "-":
            self.count()
            text, gi = self.expr(e.operand)
            return f"(-{text})", gi
        if op == "!":
            return f"(0 if {self.cond(e.operand)} else 1)", True
        if op == "~":
            self.count()
            text, gi = self.expr(e.operand)
            return (f"(~{text})" if gi else f"(~int({text}))"), True
        if op in ("++", "--"):
            return self.incdec(e.operand, 1 if op == "++" else -1, want_old=False)
        raise InterpreterError(f"cannot compile unary op {op}")

    def variable(self, name: str) -> Tuple[str, bool, Optional[ty.Type]]:
        """(storage text, proven int, static type) of an assignable name."""
        fc = self.fc
        t = fc.types.get(name)
        if t is None and name in fc.runner.global_types:
            return f"G[{name!r}]", False, fc.runner.global_types[name]
        return f"env[{name!r}]", name in fc.int_locals, t

    def incdec(self, target: ast.Expr, delta: int, want_old: bool,
               discard: bool = False) -> Tuple[str, bool]:
        if isinstance(target, ast.Ident):
            ref, gi, _ = self.variable(target.name)
            self.count()
            if discard:
                self.emit(f"{ref} += {delta}")
                return "None", False
            t = self.temp()
            if want_old:
                self.emit(f"{t} = {ref}")
                self.emit(f"{ref} = {t} + {delta}")
            else:
                self.emit(f"{t} = {ref} + {delta}")
                self.emit(f"{ref} = {t}")
            return t, gi
        elem = self.element(target)
        if elem is None:
            raise InterpreterError("unsupported increment/decrement target")
        self.count()
        old = self.load(*elem)
        new = self.temp()
        self.emit(f"{new} = {old} + {delta}")
        self.store(elem[0], elem[1], new, False)
        return (old if want_old else new), False

    def address_of(self, operand: ast.Expr) -> str:
        if isinstance(operand, ast.Ident):
            if operand.name in self.fc.types:
                return f"ScalarRef(env, {operand.name!r})"
            return f"ScalarRef(G, {operand.name!r})"
        if isinstance(operand, ast.Index):
            p = self.fix(self.expr(operand.base)[0])
            self.emit(f"if {p} is None: _null(\"NULL pointer dereference in '&expr[i]'\")")
            itext, gi = self.expr(operand.index)
            t = self.temp()
            self.emit(f"{t} = ElemRef({p}.offset_by({itext if gi else f'int({itext})'}))")
            return t
        if isinstance(operand, ast.Unary) and operand.op == "*":
            return self.fix(f"ElemRef({self.expr(operand.operand)[0]})")
        raise InterpreterError("unsupported operand of '&'")

    def compare(self, e: ast.Binary) -> str:
        self.count()
        left, _ = self.expr(e.left)
        if self.fc.writes(e.right):
            left = self.fix(left)
        right, _ = self.expr(e.right)
        return self.bounded(f"({left} {e.op} {right})")

    def binary(self, e: ast.Binary) -> Tuple[str, bool]:
        op = e.op
        if op in ("&&", "||"):
            return f"(1 if {self.cond(e)} else 0)", True
        if op in _CMP_OPS:
            return f"(1 if {self.compare(e)} else 0)", True
        if op not in ("+", "-", "*", "/", "%") and op not in _BIT_OPS:
            raise InterpreterError(f"cannot compile binary op {op}")
        self.count()
        # Operands inline (not via operands()): a long left-leaning chain
        # then costs two Python frames per level, like the parser.
        left, lgi = self.expr(e.left)
        if self.fc.writes(e.right):
            left = self.fix(left)
        right, rgi = self.expr(e.right)
        if op in _BIT_OPS:
            a = left if lgi else f"int({left})"
            b = right if rgi else f"int({right})"
            return self.bounded(f"({a} {op} {b})"), True
        if op in ("/", "%"):
            return self.divide(op, left, lgi, right, rgi, e.right)
        return self.bounded(f"({left} {op} {right})"), lgi and rgi

    def bounded(self, text: str) -> str:
        # Keep generated expressions shallow: Python's parser caps nesting.
        return self.fix(text) if len(text) > 160 else text

    def divide(self, op: str, left: str, lgi: bool, right: str, rgi: bool,
               rexpr: ast.Expr) -> Tuple[str, bool]:
        pyop, helper = ("//", "c_div") if op == "/" else ("%", "c_mod")
        if lgi and rgi and isinstance(rexpr, ast.IntLit) and rexpr.value > 0:
            a = self.fix(left)
            return f"({a} {pyop} {right} if {a} >= 0 else -(-{a} {pyop} {right}))", True
        # C truncating division equals Python floor division when both
        # operands are non-negative ints; everything else (negative
        # operands, floats, zero divisors) goes through the exact helper.
        a, b = self.fix(left), self.fix(right)
        guard = f"{a} >= 0 and {b} > 0"
        if not lgi:
            guard = f"type({a}) is int and {guard}"
        if not rgi:
            guard = f"type({b}) is int and {guard}"
        t = self.temp()
        self.emit(f"{t} = {a} {pyop} {b} if {guard} else {helper}({a}, {b})")
        return t, lgi and rgi

    def combine(self, op: str, old: str, ogi: bool, v: str, vgi: bool,
                may_point: bool) -> Tuple[str, bool]:
        """``old op v`` for compound assignment (``old`` already read)."""
        if may_point and op not in ("+", "-"):
            t = self.temp()
            self.emit(f"{t} = _pointer_update({old}, {v}, {op!r})")
            return t, False
        if op in ("/", "%"):
            t = self.temp()
            self.emit(f"{t} = {'c_div' if op == '/' else 'c_mod'}({old}, {v})")
            return t, ogi and vgi
        if op in _BIT_OPS:
            a = old if ogi else f"int({old})"
            b = v if vgi else f"int({v})"
            return f"({a} {op} {b})", True
        return f"({old} {op} {v})", ogi and vgi

    def truncate(self, text: str) -> str:
        """Emit C's float->int truncation on store into an integer."""
        t = text
        if not self.is_temp(t):
            t = self.temp()
            self.emit(f"{t} = {text}")
        self.emit(f"if isinstance({t}, float): {t} = int({t})")
        return t

    def assign(self, e: ast.Assign, discard: bool = False) -> Tuple[str, bool]:
        op = e.op
        target = e.target
        if isinstance(target, ast.Ident):
            ref, var_gi, t = self.variable(target.name)
            trunc = t is not None and t.is_integer
            if op == "=":
                value, gi = self.value_for(target, e.value)
                if trunc and not gi:
                    value = self.truncate(value)
                    gi = True
                elif not discard:
                    value = self.fix(value)
                self.emit(f"{ref} = {value}")
                return value, gi
            self.count()
            base_op = op[:-1]
            may_point = t is None or t.is_pointer
            old = ref
            if self.fc.writes(e.value):
                old = self.fix(ref)
            value, vgi = self.expr(e.value)
            if discard and old == ref and (not trunc or (var_gi and vgi)) and (
                base_op in ("+", "-") or (base_op == "*" and not may_point)
            ):
                # C reads the target before the right-hand side; nothing
                # emitted for the right-hand side writes guest state, so
                # Python's read-modify-write order is equivalent.
                self.emit(f"{ref} {base_op}= {value}")
                return "None", False
            new, ngi = self.combine(base_op, old, var_gi, value, vgi, may_point)
            if trunc and not ngi:
                new = self.truncate(new)
                ngi = True
            else:
                new = self.fix(new)
            self.emit(f"{ref} = {new}")
            return new, ngi

        elem = self.element(target)
        if elem is None:
            raise InterpreterError(
                f"unsupported assignment target {type(target).__name__}"
            )
        if op == "=":
            value, gi = self.value_for(target, e.value)
            value = self.fix(value)
            self.store(elem[0], elem[1], value, gi)
            return value, gi
        self.count()
        old = self.load(*elem)
        value, vgi = self.expr(e.value)
        new, _ = self.combine(op[:-1], old, False, value, vgi, False)
        new = self.fix(new)
        self.store(elem[0], elem[1], new, False)
        return new, False

    def ternary(self, e: ast.Ternary) -> Tuple[str, bool]:
        c = self.cond(e.cond)
        with self.nested() as tl:
            then, tgi = self.expr(e.then)
        with self.nested() as ol:
            other, ogi = self.expr(e.other)
        if not tl and not ol:
            return f"({then} if {c} else {other})", tgi and ogi
        t = self.temp()
        self.emit(f"if {c}:")
        self.lines.extend(tl)
        self.emit_inner(f"{t} = {then}")
        self.emit("else:")
        self.lines.extend(ol)
        self.emit_inner(f"{t} = {other}")
        return t, tgi and ogi

    # -- allocation, casts ---------------------------------------------------
    def value_for(self, target: Optional[ast.Expr], value: ast.Expr) -> Tuple[str, bool]:
        """An rvalue, handling the malloc-allocation idiom with the element
        type taken from the assignment target when needed."""
        tt = self.fc.static_type(target) if target is not None else None
        alloc = self.alloc(value, tt)
        if alloc is not None:
            return alloc, False
        return self.expr(value)

    def alloc(self, value: ast.Expr, target_type: Optional[ty.Type]) -> Optional[str]:
        """Recognize ``(T*)malloc(n)`` / ``malloc(n)`` / ``calloc(n, s)``."""
        inner = value
        cast_type: Optional[ty.Type] = None
        if isinstance(inner, ast.Cast):
            cast_type = inner.type
            inner = inner.operand
        if not isinstance(inner, ast.Call) or inner.callee not in ("malloc", "calloc"):
            return None
        elem = None
        if cast_type is not None and cast_type.is_pointer:
            elem = cast_type.pointee()
        elif target_type is not None and target_type.is_pointer:
            elem = target_type.pointee()
        if elem is None or elem.is_pointer:
            elem = ty.CHAR  # untyped allocation: byte-granular
        k = self.const(elem)
        if inner.callee == "malloc":
            n, _ = self.expr(inner.args[0])
            nbytes = f"int({n})"
        else:
            (n, _), (s, _) = self.operands(inner.args[:2])
            nbytes = f"int({n}) * int({s})"
        t = self.temp()
        self.emit(f"{t} = _host_alloc({nbytes}, {k})")
        return t

    def cast(self, e: ast.Cast) -> Tuple[str, bool]:
        alloc = self.alloc(e, None)
        if alloc is not None:
            return alloc, False
        text, gi = self.expr(e.operand)
        t = e.type
        if t.is_pointer:
            return text, False  # pointer reinterpretation: value passes through
        if t.is_integer:
            if gi:
                return text, True
            if self.fc._numeric(e.operand, self.fc.int_locals):
                return self.fix(f"int({text})"), True
            return self.fix(f"_to_int({text})"), False
        if t.is_real:
            return self.fix(f"float({text})"), False
        return text, gi

    # -- calls -----------------------------------------------------------------
    def call(self, e: ast.Call) -> Tuple[str, bool]:
        name = e.callee
        runner = self.fc.runner
        if name in runner.program_functions:
            fn_def = runner.program_functions[name]
            self.emit("ctx.steps_left -= 1")
            self.emit("if ctx.steps_left < 0: ctx.consume_steps(0)")
            callee = self.temp()
            self.emit(f"{callee} = _compiled({name!r})")
            params = list(zip(fn_def.params, e.args))
            args = self.operands([a for _, a in params])
            items = []
            for (param, _), (text, gi) in zip(params, args):
                if param.type.is_integer and not gi:
                    text = self.truncate(text)
                items.append(f"{param.name!r}: {text}")
            t = self.temp()
            self.emit("ctx.depth += 1")
            self.emit("if ctx.depth > _MAX_DEPTH: _stack_overflow()")
            self.emit(f"{t} = {callee}({{{', '.join(items)}}})")
            self.emit("ctx.depth -= 1")
            return t, False

        b = BUILTINS.get(name)
        if b is None:
            self.emit(f"_no_function({name!r})")
            return "None", False

        if b.py is not None and len(e.args) in (1, 2):
            self.count(4 if b.min_args == 1 and name not in ("abs", "fabsf", "fabs") else 1)
            fn = self.const(b.py)
            t = self.temp()
            self.emit("try:")
            self.ind += 1
            args = self.operands(e.args)
            self.emit(f"{t} = {fn}({', '.join(a for a, _ in args)})")
            self.ind -= 1
            self.emit("except (ValueError, OverflowError):")
            self.emit_inner(f"{t} = _nan")
            return t, False

        if name in _ATOMIC_UPDATES and len(e.args) == 2 and isinstance(
            e.args[0], ast.Unary
        ) and e.args[0].op == "&" and isinstance(e.args[0].operand, ast.Index):
            return self.atomic(name, e.args[0].operand, e.args[1]), False
        args = self.operands(e.args)
        t = self.temp()
        if name == "rand":
            self.emit(f"{t} = ctx.c_rand()")
            return t, True
        if name.startswith("atomic"):
            self.emit(f"{t} = _atomic({name!r}, [{', '.join(a for a, _ in args)}])")
            return t, False
        # Everything else goes through the runner (I/O, memory, CUDA API).
        hint = self.call_elem_hint(e)
        self.emit(
            f"{t} = _call_builtin({name!r}, "
            f"[{', '.join(a for a, _ in args)}], "
            f"{self.const(hint) if hint is not None else 'None'})"
        )
        return t, False

    def atomic(self, name: str, target: ast.Index, value: ast.Expr) -> str:
        """``atomicOp(&base[i], v)``: the executor's ``_atomic`` inlined."""
        self.uses.add("mem")
        p = self.fix(self.expr(target.base)[0])
        self.emit(f"if {p} is None: _null(\"NULL pointer dereference in '&expr[i]'\")")
        itext, gi = self.expr(target.index)
        k = self.temp()
        self.emit(f"{k} = {p}.off + {itext if gi else f'int({itext})'}")
        v = self.fix(self.expr(value)[0])
        b, old = self.temp(), self.temp()
        self.emit(f"{b} = {p}.buf.views[_di]")
        self.emit(
            f"if {b} is None or not 0 <= {k} < {b}.length: "
            f"{b} = _check({p}.buf, {k}, _dev)"
        )
        self.emit(f"{old} = {b}.cells[{k}]")
        self.count(1, "atomics")
        self.count(4, "store_bytes")
        new = _ATOMIC_UPDATES[name].format(old=old, v=v)
        self.emit(f"{b}.cells[{k}] = float({new}) if {b}.is_float else int({new})")
        return old

    def call_elem_hint(self, e: ast.Call) -> Optional[ty.Type]:
        """Element type hint for cudaMalloc-style calls, from arg 0's type."""
        if e.callee not in ("cudaMalloc",):
            return None
        arg = e.args[0]
        if isinstance(arg, ast.Cast):
            arg = arg.operand
        if isinstance(arg, ast.Unary) and arg.op == "&":
            t = self.fc.static_type(arg.operand)
            if t is not None and t.is_pointer:
                return t.pointee()
        return None

    def launch(self, e: ast.Launch) -> Tuple[str, bool]:
        values = self.operands([e.grid, e.block] + list(e.args))
        grid, block = values[0][0], values[1][0]
        args = ", ".join(a for a, _ in values[2:])
        self.emit(
            f"_launch({e.kernel!r}, int({grid}), "
            f"int({block}), [{args}])"
        )
        return "None", False

    # ==================================================================
    # Statements
    # ==================================================================
    def stmt(self, s: ast.Stmt) -> None:
        if isinstance(s, ast.Block):
            for x in s.stmts:
                self.stmt(x)
        elif isinstance(s, ast.VarDecl):
            self.vardecl(s)
        elif isinstance(s, ast.ExprStmt):
            self.expr_stmt(s.expr)
        elif isinstance(s, ast.If):
            self.emit(f"if {self.cond(s.cond)}:")
            self.suite(lambda: self.stmt(s.then))
            if s.other is not None:
                self.emit("else:")
                self.suite(lambda: self.stmt(s.other))
        elif isinstance(s, ast.For):
            self.for_loop(s)
        elif isinstance(s, ast.While):
            self.while_loop(s)
        elif isinstance(s, ast.DoWhile):
            self.do_while(s)
        elif isinstance(s, ast.Return):
            self.return_stmt(s)
        elif isinstance(s, ast.Break):
            self.leave(BREAK)
        elif isinstance(s, ast.Continue):
            self.leave(CONTINUE)
        elif isinstance(s, ast.Pragma):
            self.opaque(self.fc.runner.compile_pragma(self.fc, s))
        elif isinstance(s, ast.SyncThreads):
            if self.mode == "gen":
                self.emit("yield BARRIER")
            else:
                # Only reachable if a device function contains a barrier
                # (unsupported subset).
                self.emit("_bad_barrier()")
        else:
            raise InterpreterError(f"cannot compile statement {type(s).__name__}")

    def expr_stmt(self, e: ast.Expr) -> None:
        if isinstance(e, ast.Assign):
            self.assign(e, discard=True)
        elif isinstance(e, (ast.Postfix, ast.Unary)) and e.op in ("++", "--"):
            self.incdec(e.operand, 1 if e.op == "++" else -1, want_old=False,
                        discard=isinstance(e.operand, ast.Ident))
        else:
            self.expr(e)

    def vardecl(self, s: ast.VarDecl) -> None:
        key = repr(s.name)
        if s.shared:
            # Shared declarations are hoisted by the launcher; the statement
            # itself is a no-op (the name is pre-bound in the thread env).
            return
        if s.array_size is not None:
            # Local arrays live in whichever space the declaring code is
            # executing in (a kernel-local array is device memory; the same
            # declaration in an OpenMP target loop body is device-private).
            n, gi = self.expr(s.array_size)
            self.emit(
                f"env[{key}] = _stack_alloc({n if gi else f'int({n})'}, "
                f"{self.const(s.type)}, ctx.space, label={key})"
            )
            return
        if s.init is not None:
            target = ast.Ident(name=s.name)
            target.span = s.span
            value, gi = self.value_for(target, s.init)
            if s.type.is_integer and not gi:
                value = self.truncate(value)
            self.emit(f"env[{key}] = {value}")
            return
        default = 0.0 if s.type.is_real else (None if s.type.is_pointer else 0)
        self.emit(f"env[{key}] = {self.literal(default)}")

    def charge_step(self) -> None:
        self.emit("ctx.steps_left -= 1")
        self.emit("if ctx.steps_left < 0: ctx.consume_steps(0)")

    def loop_head(self, cond: Optional[ast.Expr]) -> None:
        """``while`` header testing ``cond`` before every iteration."""
        if cond is None:
            self.emit("while True:")
            return
        with self.nested() as pre:
            text = self.cond(cond)
        if not pre:
            self.emit(f"while {text}:")
            return
        self.emit("while True:")
        self.lines.extend(pre)
        self.emit_inner(f"if not {text}: break")

    def for_loop(self, s: ast.For) -> None:
        if s.init is not None:
            self.stmt(s.init)

        def step() -> None:
            if s.step is not None:
                self.expr_stmt(s.step)

        def cont() -> None:
            step()
            self.emit("continue")

        self.loop_head(s.cond)

        def body() -> None:
            self.charge_step()
            self.loops.append(cont)
            self.stmt(s.body)
            self.loops.pop()
            step()

        self.suite(body)

    def while_loop(self, s: ast.While) -> None:
        self.loop_head(s.cond)

        def body() -> None:
            self.charge_step()
            self.loops.append(lambda: self.emit("continue"))
            self.stmt(s.body)
            self.loops.pop()

        self.suite(body)

    def do_while(self, s: ast.DoWhile) -> None:
        def test() -> None:
            self.emit(f"if not {self.cond(s.cond)}: break")

        def cont() -> None:
            test()
            self.emit("continue")

        self.emit("while True:")

        def body() -> None:
            self.charge_step()
            self.loops.append(cont)
            self.stmt(s.body)
            self.loops.pop()
            test()

        self.suite(body)

    def nest(self, levels: List[tuple], depth: int, body: ast.Stmt) -> None:
        var, start, op, bound, step, sign = levels[depth]
        i, b, d = f"_i{depth}", f"_b{depth}", f"_d{depth}"
        self.emit(f"{i} = {self.expr(start)[0]}")
        self.emit(f"{b} = {self.expr(bound)[0]}")
        if step is None:
            self.emit(f"{d} = {sign}")
        else:
            text, gi = self.expr(step)
            text = text if gi else f"int({text})"
            self.emit(f"{d} = {text}" if sign > 0 else f"{d} = -{text}")
        self.emit(f"while {i} {op} {b}:")
        self.ind += 1
        self.charge_step()
        self.emit(f"env[{var!r}] = {i}")
        if depth + 1 < len(levels):
            self.nest(levels, depth + 1, body)
        else:
            def cont() -> None:
                self.emit("_n += 1")
                self.emit(f"{i} += {d}")
                self.emit("continue")

            if any(isinstance(x, ast.Return) for x in ast.walk_stmts(body)):
                # A return inside an OpenMP loop is non-conforming; it stops
                # the innermost level like a break, so run such bodies as a
                # separate signal-returning unit.
                sig = self.temp()
                self.emit(f"{sig} = {self.const(self.fc.compile_stmt(body))}(env)")
                self.emit(f"if {sig} is not None and {sig} is not CONTINUE: break")
            else:
                self.loops.append(cont)
                self.stmt(body)
                self.loops.pop()
            self.emit("_n += 1")
        self.emit(f"{i} += {d}")
        self.ind -= 1

    def return_stmt(self, s: ast.Return) -> None:
        if s.value is None:
            value = "None"
        else:
            value, gi = self.expr(s.value)
            if self.fc.fn.return_type.is_integer and not gi:
                value = self.truncate(value)
        if self.mode == "value":
            self.emit(f"return {value}")
        elif self.mode == "signal":
            self.emit(f"return (RETURN, {value})")
        else:
            self.emit("return")

    def default_return(self) -> str:
        """What a function returns when control falls off its end."""
        rt = self.fc.fn.return_type
        return self.literal(0.0 if rt.is_real else (None if rt.is_pointer else 0))

    def leave(self, signal: str) -> None:
        """``break``/``continue`` at this point of the unit."""
        if self.loops:
            if signal == BREAK:
                self.emit("break")
            else:
                self.loops[-1]()
            return
        self.exit_unit("BREAK" if signal == BREAK else "CONTINUE", static=True)

    def exit_unit(self, sig: str, static: bool) -> None:
        """Leave the unit with a signal that escaped every guest loop:
        a static ``BREAK``/``CONTINUE``, or a runtime signal value held in
        the variable ``sig`` (from a pragma body)."""
        if self.mode == "signal":
            self.emit(f"return {sig}")
        elif self.mode == "value":
            # The function's caller sees the returned value, or the
            # default when the signal was a stray break/continue.
            default = self.default_return()
            if static:
                self.emit(f"return {default}")
            else:
                self.emit(
                    f"return {sig}[1] if isinstance({sig}, tuple) and "
                    f"{sig}[0] == RETURN else {default}"
                )
        else:
            self.emit("return")

    def opaque(self, fn: Callable) -> None:
        """Run a separately compiled statement unit and forward its signal."""
        sig = self.temp()
        self.emit(f"{sig} = {self.const(fn)}(env)")
        self.emit(f"if {sig} is not None:")
        self.ind += 1
        if self.loops:
            self.emit(f"if {sig} is BREAK: break")
            self.emit(f"if {sig} is CONTINUE:")
            self.ind += 1
            self.loops[-1]()
            self.ind -= 1
            if self.mode == "nest":
                # A returning body never runs inline in a nest (see nest()).
                self.emit("break")
            else:
                self.exit_unit(sig, static=False)
        else:
            self.exit_unit(sig, static=False)
        self.ind -= 1

