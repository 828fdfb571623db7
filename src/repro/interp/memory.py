"""Guest memory model: list-backed buffers with space tagging.

Buffers are Python lists (fastest per-element access under CPython — NumPy
scalar indexing boxes on every read, which dominates an interpreter's hot
loop; see the profiling-first guidance the project follows).  Each buffer is
tagged with an address space:

* ``host``   — malloc'd memory; dereferencing it from device code raises the
  CUDA illegal-access error.
* ``device`` — cudaMalloc'd memory (or an OpenMP present-table shadow);
  dereferencing it from host code raises a segfault, exactly what happens on
  a real system when host code touches a device pointer.

OpenMP ``map`` semantics attach a device *shadow* buffer to a host buffer
with reference counting (nested ``target data`` regions map once), matching
the OpenMP present-table model.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import GuestRuntimeError
from repro.minilang import types as ty

_SEGFAULT = "Segmentation fault (core dumped)"
_ILLEGAL = "CUDA error: an illegal memory access was encountered"


class Buffer:
    """One allocation in the guest."""

    __slots__ = (
        "cells", "length", "elem_bytes", "is_float", "space", "_freed",
        "_shadow", "map_depth", "map_kinds", "label", "views",
    )

    def __init__(
        self,
        length: int,
        elem_bytes: int,
        is_float: bool,
        space: str,
        label: str = "",
    ) -> None:
        fill = 0.0 if is_float else 0
        self.cells: List = [fill] * length
        self.length = length
        self.elem_bytes = elem_bytes
        self.is_float = is_float
        self.space = space
        #: The buffer an in-bounds access touches, indexed 0 for host
        #: code and 1 for device code (a mapped host buffer's device view
        #: is its OpenMP shadow); None where the access faults.  Kept in
        #: step with ``freed`` and ``shadow``, so generated code tests one
        #: slot and leaves the fault to :meth:`MemoryManager.check_access`.
        self.views: List[Optional["Buffer"]] = [None, None]
        self._freed = False
        self._shadow: Optional["Buffer"] = None
        self._sync_views()
        self.map_depth = 0
        self.map_kinds: List[str] = []
        self.label = label

    def _sync_views(self) -> None:
        views = self.views
        if self._freed:
            views[0] = views[1] = None
        elif self.space == "host":
            views[0], views[1] = self, self._shadow
        else:
            views[0], views[1] = None, self

    @property
    def freed(self) -> bool:
        return self._freed

    @freed.setter
    def freed(self, value: bool) -> None:
        self._freed = value
        self._sync_views()

    @property
    def shadow(self) -> Optional["Buffer"]:
        return self._shadow

    @shadow.setter
    def shadow(self, value: Optional["Buffer"]) -> None:
        self._shadow = value
        self._sync_views()

    @property
    def nbytes(self) -> int:
        return self.length * self.elem_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Buffer({self.label or '?'}, n={self.length}, "
            f"elem={self.elem_bytes}B, {self.space}{', freed' if self.freed else ''})"
        )


class Pointer:
    """A typed pointer: buffer + element offset."""

    __slots__ = ("buf", "off")

    def __init__(self, buf: Buffer, off: int = 0) -> None:
        self.buf = buf
        self.off = off

    def offset_by(self, delta: int) -> "Pointer":
        return Pointer(self.buf, self.off + int(delta))

    # C pointer arithmetic, so generated code can emit a plain ``a + b``
    # whatever the operands turn out to be at run time.
    __add__ = __radd__ = offset_by

    def __sub__(self, other):
        if isinstance(other, Pointer):
            return self.off - other.off
        return Pointer(self.buf, self.off - int(other))

    def read_string(self) -> str:
        """Interpret the pointed-to cells as a string (argv support)."""
        cell = self.buf.cells[self.off]
        if isinstance(cell, str):
            return cell
        chars = []
        for i in range(self.off, self.buf.length):
            v = self.buf.cells[i]
            if v == 0:
                break
            chars.append(chr(int(v) & 0xFF))
        return "".join(chars)

    def __eq__(self, other) -> bool:
        if other is None:
            return False
        return (
            isinstance(other, Pointer)
            and self.buf is other.buf
            and self.off == other.off
        )

    def __hash__(self) -> int:
        return hash((id(self.buf), self.off))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Pointer({self.buf!r}+{self.off})"


class ScalarRef:
    """``&scalar_variable`` — a reference into an environment dict."""

    __slots__ = ("env", "name")

    def __init__(self, env: dict, name: str) -> None:
        self.env = env
        self.name = name

    def get(self):
        return self.env[self.name]

    def set(self, value) -> None:
        self.env[self.name] = value


class ElemRef:
    """``&array[i]`` — a reference to one buffer element."""

    __slots__ = ("ptr",)

    def __init__(self, ptr: Pointer) -> None:
        self.ptr = ptr


class MemoryManager:
    """Tracks all live buffers of a guest program run."""

    def __init__(self) -> None:
        self.buffers: List[Buffer] = []
        self.host_bytes = 0
        self.device_bytes = 0
        self.byte_limit = 1 << 30  # 1 GiB of simulated memory per space

    # ------------------------------------------------------------------
    def alloc(
        self,
        nbytes: int,
        elem_type: ty.Type,
        space: str,
        label: str = "",
    ) -> Pointer:
        nbytes = int(nbytes)
        if nbytes < 0:
            raise GuestRuntimeError(
                _SEGFAULT, detail=f"allocation of negative size {nbytes}"
            )
        elem_bytes = max(1, elem_type.size)
        length = max(0, nbytes // elem_bytes)
        is_float = elem_type.kind in (ty.Kind.FLOAT, ty.Kind.DOUBLE)
        if space == "host":
            self.host_bytes += nbytes
            if self.host_bytes > self.byte_limit:
                raise GuestRuntimeError(
                    "std::bad_alloc", detail="simulated host memory exhausted"
                )
        else:
            self.device_bytes += nbytes
            if self.device_bytes > self.byte_limit:
                raise GuestRuntimeError(
                    "CUDA error: out of memory",
                    detail="simulated device memory exhausted",
                )
        buf = Buffer(length, elem_bytes, is_float, space, label)
        self.buffers.append(buf)
        return Pointer(buf, 0)

    def free(self, ptr: Optional[Pointer], space: str) -> None:
        if ptr is None:
            return  # free(NULL) is a no-op
        if not isinstance(ptr, Pointer):
            raise GuestRuntimeError(_SEGFAULT, detail="free of a non-pointer value")
        buf = ptr.buf
        if buf.freed:
            raise GuestRuntimeError(
                "free(): double free detected in tcache 2\nAborted (core dumped)"
                if space == "host"
                else "CUDA error: invalid argument",
                detail=f"double free of buffer {buf.label or '?'}",
            )
        if buf.space != space:
            api = "free()" if space == "host" else "cudaFree()"
            raise GuestRuntimeError(
                _SEGFAULT if space == "host" else "CUDA error: invalid argument",
                detail=f"{api} called on a {buf.space} pointer",
            )
        buf.freed = True
        if space == "host":
            self.host_bytes -= buf.nbytes
        else:
            self.device_bytes -= buf.nbytes

    # ------------------------------------------------------------------
    # Access checking (generated code inlines the in-bounds case)
    # ------------------------------------------------------------------
    @staticmethod
    def check_access(buf: Buffer, index: int, device: bool) -> Buffer:
        """Validate an element access; returns the buffer to actually touch.

        When ``device`` is true and the buffer is host memory with an active
        shadow (OpenMP mapping), accesses are redirected to the shadow.
        """
        if buf.freed:
            raise GuestRuntimeError(
                _ILLEGAL if device else _SEGFAULT,
                detail=f"use-after-free of buffer {buf.label or '?'}",
            )
        if device:
            if buf.space == "host":
                shadow = buf.shadow
                if shadow is not None:
                    buf = shadow
                else:
                    raise GuestRuntimeError(
                        _ILLEGAL,
                        detail=(
                            f"device code dereferenced unmapped host pointer "
                            f"{buf.label or '?'}"
                        ),
                    )
        else:
            if buf.space == "device":
                raise GuestRuntimeError(
                    _SEGFAULT,
                    detail=(
                        f"host code dereferenced device pointer {buf.label or '?'}"
                    ),
                )
        if index < 0 or index >= buf.length:
            raise GuestRuntimeError(
                _ILLEGAL if device else _SEGFAULT,
                detail=(
                    f"index {index} out of bounds for buffer "
                    f"{buf.label or '?'} of length {buf.length}"
                ),
            )
        return buf

    # ------------------------------------------------------------------
    # OpenMP mapping
    # ------------------------------------------------------------------
    def map_enter(self, buf: Buffer, kind: str) -> int:
        """Enter a map for ``buf``; returns bytes transferred host->device."""
        if buf.freed:
            raise GuestRuntimeError(
                _SEGFAULT, detail="map clause names a freed buffer"
            )
        buf.map_depth += 1
        buf.map_kinds.append(kind)
        if buf.map_depth > 1:
            return 0  # already present: no transfer (present-table semantics)
        shadow = Buffer(buf.length, buf.elem_bytes, buf.is_float, "device",
                        label=f"{buf.label}@device")
        buf.shadow = shadow
        if kind in ("to", "tofrom"):
            shadow.cells[:] = buf.cells
            return buf.nbytes
        return 0

    def map_exit(self, buf: Buffer) -> int:
        """Exit a map for ``buf``; returns bytes transferred device->host."""
        if buf.map_depth <= 0:
            return 0
        kind = buf.map_kinds.pop()
        buf.map_depth -= 1
        if buf.map_depth > 0:
            return 0
        shadow = buf.shadow
        buf.shadow = None
        transferred = 0
        if shadow is not None and kind in ("from", "tofrom") and not buf.freed:
            buf.cells[:] = shadow.cells
            transferred = buf.nbytes
        return transferred
