"""Machine-speed probe: scales measured times to a nominal machine speed.

A shared virtual machine can change speed by 1.7x for minutes at a time:
on a 2-vCPU Intel Xeon guest, one fixed solve took 6 ms for a while and
then 10.5 ms, and the process's CPU time slowed just as much as its wall
time.  So a fixed reference kernel that never calls the library is timed
between items, and each item's time is multiplied by REFERENCE_S / (recent
kernel time).  A slow spell of the machine cancels out; a change in the
program does not.  The kernel mixes the library's kinds of work:
interpreter-level ints, bytes and dicts, and 256-bit modular powers and
inverses.
"""

import statistics
import threading
from collections import deque
from time import perf_counter

# The kernel's time on the nominal machine (Intel Xeon, 2 vCPUs, CPython
# 3.11.7, in a quiet spell).  Scaled times read as seconds on that machine.
REFERENCE_S = 2.5e-3
WINDOW = 5  # kernel times in the rolling median


def kernel():
    table = {}
    x = 1
    for i in range(1500):
        x = x * 48271 % 2147483647
        table[x.to_bytes(8, "big")] = i
    m = (1 << 255) - 19
    y = 3
    for _ in range(60):
        y = pow(y, 65537, m)
        y = pow(y, -1, m)
    return len(table) + y


def run_kernel(threads, reps):
    """`reps` kernels, shared out over `threads` threads."""
    if threads == 1:
        for _ in range(reps):
            kernel()
        return
    def work():
        for _ in range(reps // threads):
            kernel()

    pool = [threading.Thread(target=work) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()


class SpeedProbe:
    """Rolling median of recent kernel times, sampled at most every `every` s.

    A workload that runs `threads` threads is probed by a kernel that does
    too: their interpreter-lock handoffs between cores slow down with the
    machine as well.  That kernel does 4 * threads reps, long enough to span
    several of the interpreter's 5 ms switch intervals, and is sampled half
    as often.  Its nominal time is REFERENCE_S per rep.
    """

    def __init__(self, threads=1):
        self.threads = threads
        self.reps = 1 if threads == 1 else 4 * threads
        self.every = 0.25 if threads == 1 else 0.5
        self.samples = deque(maxlen=WINDOW)
        self._last = None

    def sample(self):
        started = perf_counter()
        run_kernel(self.threads, self.reps)
        self.samples.append(perf_counter() - started)
        self._last = perf_counter()

    def scale(self):
        """Nominal over recent kernel time (< 1 on a slow spell)."""
        if self._last is None or perf_counter() - self._last >= self.every:
            self.sample()
        return REFERENCE_S * self.reps / statistics.median(self.samples)

    def settle(self):
        """Fill the window with fresh samples (before a one-off timing)."""
        for _ in range(self.samples.maxlen):
            self.sample()
        return self.scale()
