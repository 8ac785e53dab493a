"""Host-speed calibration for the benchmark's times.

The machines this benchmark runs on are shared. Their speed switches between
states that last from seconds to half a minute, and in a slow state every
operation takes about 1.6 times as long, its fastest repetition included, so
neither longer runs nor min-of-k keep the figures steady. The ratio of an
operation's time to a fixed calibration kernel timed next to it barely moves
between the states. The benchmark therefore reports each time scaled by
``nominal / kernel``: the wall time the operation would take on a host where
the kernel takes its nominal time. The kernels never call the package under
test, so a change to the package moves the scaled times as it moves wall time.

Two kernels match the two kinds of operation: a plain-Python reference sweep
of the bus69 feeder for work done inside one process, and starting a bare
interpreter (``python -c pass``) for work that starts processes.
"""
from __future__ import annotations

import subprocess
import sys
from time import perf_counter_ns

import reference

# Fastest times of the two kernels on the host the benchmark was defined on
# (2 vCPU Intel Xeon at 2.1 GHz, Python 3.11); they only set the scale.
SWEEP_NOMINAL_NS = 310_000
SPAWN_NOMINAL_NS = 36_000_000


def spawn_kernel() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True)


class Calibrator:
    """Times a kernel as the fastest of ``repeats`` back-to-back runs; a probe
    is due every ``every_ns``, which keeps probing under a tenth of an
    in-process run and about a fifth of a run that starts processes."""

    def __init__(self, in_process: bool):
        if in_process:
            with open(reference.BUS69) as f:
                rows = reference.read_branch_file(f.read())
            self.kernel = lambda: reference.solve_reference(rows, root=1)
            self.repeats = 10
            self.nominal_ns = SWEEP_NOMINAL_NS
            self.every_ns = 40_000_000
        else:
            self.kernel = spawn_kernel
            self.repeats = 1
            self.nominal_ns = SPAWN_NOMINAL_NS
            self.every_ns = 125_000_000

    def probe(self) -> int:
        best = None
        for _ in range(self.repeats):
            start = perf_counter_ns()
            self.kernel()
            elapsed = perf_counter_ns() - start
            best = elapsed if best is None else min(best, elapsed)
        return best
