"""Machine-speed probe for a host whose CPU speed drifts.

On a shared host the same code runs up to 40% faster or slower for
minutes at a time. `probe()` times a fixed mix of small numpy operations
and Python float arithmetic, like taglok's own, and is run between timed
entry calls. A call's rate multiplied by `probe() / REFERENCE_S`, with the
probes on either side of the call averaged, is the rate it would have had
at the speed the probe was calibrated at. That cancels the slow and fast
periods: over 5 minutes of hover_dense calls on a 2-vCPU Intel Xeon VM,
the quartile spread of 30-second medians of the rate fell from 0.19 to
0.07. Set-up time does not follow the probe (0.152 against 0.148 in the
same series), so it is reported unscaled. The probe does not call taglok,
so a change to the program does not change it.
"""

import math
import time

import numpy as np

# median probe() in a warm process on a 2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6
REFERENCE_S = 0.0096

_MATRIX = np.arange(16.0).reshape(4, 4) / 16.0


def probe() -> float:
    """Seconds taken by the fixed probe work, best of three short rounds."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(1000):
            v = np.array([i * 0.5, 1.0, 2.0])
            acc += float(np.linalg.norm(v)) + math.sqrt(i + 1.0)
            acc += float((_MATRIX @ _MATRIX)[0, 0])
        best = min(best, time.perf_counter() - start)
    return 3.0 * best
