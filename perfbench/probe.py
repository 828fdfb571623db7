"""A fixed pure-Python loop whose duration tracks the machine's speed.

On a shared machine the speed at which this interpreter runs drifts by tens
of percent from one minute to the next (seven back-to-back passes of the
paper grid read 2.6 to 4.1 scenarios/s).  The benchmark runs this probe
between scenarios, in the same thread, and scales its end-to-end times to a
reference speed: the probe's median over a pass divides out the drift
(the same seven passes, scaled, read 2.84 to 3.19).
"""

from __future__ import annotations

import time

#: The probe's typical duration, in seconds, on the 2-core Xeon VM
#: (Python 3.11) the benchmark was tuned on; scaled times are seconds at
#: that speed.
REFERENCE_PROBE_S = 0.0018


def probe() -> float:
    """Seconds one run of the fixed loop takes now."""
    start = time.perf_counter()
    x = 0
    for i in range(20_000):
        x += i * i % 7
    return time.perf_counter() - start
