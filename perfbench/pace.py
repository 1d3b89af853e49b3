"""Machine-speed calibration, so timings from runs minutes apart compare.

On a shared machine the speed of a core drifts by +-20% over seconds (the
same fixed loop measured 5.9-9.0 ms per 10 s block over three minutes),
which swamps the differences the benchmark is meant to show.  A fixed slice
of interpreter and numpy work, timed next to the program's operations,
tracks that drift: over 100 s the median ``zeta_auto`` latency per 10 s
block moved by +-19% while its ratio to this calibration moved by +-4%.

Every reported time is the measured time multiplied by
``CAL_REF_S / (calibration time measured alongside it)``: seconds at the
reference speed at which the calibration takes ``CAL_REF_S``.  The raw
times are printed next to them.
"""

import statistics
import time

import numpy as np

CAL_REF_S = 4.0e-4        # calibration time on the reference machine (2 vCPU VM)
_ARRAY = np.arange(1000.0)


def calibrate():
    """Time one fixed slice of interpreter and numpy work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(4000):
        acc += i * i
    a = _ARRAY
    for _ in range(6):
        a = np.sin(a) + 1.0
    return time.perf_counter() - t0


def factor(samples):
    """Scale from measured seconds to reference seconds for a window whose
    calibration times are ``samples``."""
    return CAL_REF_S / statistics.median(samples)


if __name__ == "__main__":
    cal = [calibrate() for _ in range(2000)]
    print(f"calibration median {statistics.median(cal) * 1e3:.4f} ms, "
          f"reference {CAL_REF_S * 1e3:.4f} ms")
