"""How fast the CPU runs Python right now, to put noisy timings on one scale.

On a shared machine the same code runs up to twice as slow for stretches
of a fraction of a second to a minute, as other tenants come and go.  A
timing taken in such a stretch says more about the neighbours than about
the program.  So each timed operation is bracketed by a fixed kernel of
pure-Python integer and ``Fraction`` arithmetic, the mix the package itself
runs, and its time is rescaled to the speed at which the kernel takes
``REFERENCE_S``:

    scaled = measured * REFERENCE_S / kernel

On a machine running at the reference speed ``scaled`` is the plain
measured time.  The kernel never calls the package, so a change to the
package moves the measured time and leaves the kernel alone.
"""

import time
from fractions import Fraction

# The kernel's wall time on an idle core of the 2-core x86-64 virtual
# machine the benchmark was built on (its fastest runs read 12.5-13.5 ms).
REFERENCE_S = 0.013


def kernel() -> tuple[float, float]:
    """Run the kernel once; return its (wall, CPU) seconds in this process."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    total = 0
    for i in range(60000):
        total += i * i % 7
    value = Fraction(1, 3)
    for i in range(2000):
        value = (value * 7 + Fraction(i, 13)) % 5
    return time.perf_counter() - wall0, time.process_time() - cpu0


def bracket(before: tuple[float, float], after: tuple[float, float]) -> dict:
    """The kernel's mean (wall, CPU) seconds around one timed interval."""
    return {"kernel_wall_s": (before[0] + after[0]) / 2,
            "kernel_cpu_s": (before[1] + after[1]) / 2}
