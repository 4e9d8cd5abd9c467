"""Host time rescaled to a fixed reference speed.

A shared host runs this process at a speed that drifts by 20-50% over
seconds to minutes (other tenants on the same cores), far more than the
bound a time metric can have.  Every timed interval is therefore
bracketed by a short, fixed pure-Python probe, and its host seconds
are scaled by ``PROBE_NOMINAL_S`` over the probes' mean time: the
interval as it would have taken had the host run the probe in
``PROBE_NOMINAL_S``.  A change to the program moves the interval and not
the probe, so it moves the rescaled time in full.
"""

from __future__ import annotations

import time

#: The probe time the rescaled seconds refer to (the probe takes 3-4 ms
#: on a shared 2-vCPU Xeon VM).
PROBE_NOMINAL_S = 0.003


def probe() -> float:
    """Host s of fixed pure-Python work: the host's current speed.

    Integer arithmetic, then small dicts and lists built and dropped, as
    the simulator and the service do: over 90 s of alternating store-hit
    rounds and ``api.run`` calls, the mix tracked the host's slow spells
    better than either half alone.
    """
    start = time.perf_counter()
    total = 0
    for i in range(12_000):
        total += i * i % 7
    for i in range(2_000):
        record = {"a": i, "b": [i, i + 1], "c": (i, "x")}
        total += len(record["b"]) + len(str(i))
    return time.perf_counter() - start


class Stopwatch:
    """Host s from construction to :meth:`stop`, at reference speed."""

    def __init__(self):
        self._probe = probe()
        self._start = time.perf_counter()
        #: Factor from this interval's host s to reference s, set by stop.
        self.scale = None

    def stop(self) -> float:
        seconds = time.perf_counter() - self._start
        self.scale = 2 * PROBE_NOMINAL_S / (self._probe + probe())
        return seconds * self.scale
