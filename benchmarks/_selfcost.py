"""Self-timing of bookkeeping code, for the overhead gates.

The gates used to compare the wall time of a grid with a layer switched on
against one with it off.  On a ~0.2 s grid that difference is mostly
scheduler noise.  Instead, :class:`SelfCost` wraps the layer's own entry
points and sums the time spent inside them during one grid run; the gate
then divides that by the same run's wall time, so both figures share one
clock and one machine state.
"""

from __future__ import annotations

import time
from typing import Any, Callable


class SelfCost:
    """Accumulates the time spent inside wrapped callables.

    Nested wrapped calls are counted once, by the outermost wrapper.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self._depth = 0

    def wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def timed(*args: Any, **kwargs: Any) -> Any:
            if self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
                self.calls += 1
                self._depth -= 1

        return timed

    def install(self, monkeypatch: Any, owner: Any, name: str) -> None:
        """Replace ``owner.name`` with its timed wrapper for the test."""
        monkeypatch.setattr(owner, name, self.wrap(getattr(owner, name)))
