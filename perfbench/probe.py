"""A fixed kernel that measures how fast the machine runs right now.

It does not use qnmkit, so a change to the program cannot move it.  run.py
scales measured times by PROBE_REF_S over the probe's time (see NOTES.md).
Import numpy only after the BLAS thread count is set.
"""

import threading
import time

# Probe time on an idle 2-core x86-64 machine (OpenBLAS 0.3.31, one thread):
# the scale of every reference-speed time.
PROBE_REF_S = 2.1e-3


def probe(repeats: int = 3, clock=time.perf_counter) -> float:
    """Seconds of one pure-Python loop, four 96x96 LU factorizations and one
    200x200 matrix product; best of `repeats`, timed by `clock`."""
    import numpy as np
    from scipy.linalg import lu_factor
    rng = np.random.default_rng(0)
    m, v = rng.standard_normal((96, 96)), rng.standard_normal((200, 200))
    best = float("inf")
    for _ in range(repeats):
        t0 = clock()
        x = 0
        for i in range(20000):
            x += i * i
        for _ in range(4):
            lu_factor(m)
        np.sin(v) @ v
        best = min(best, clock() - t0)
    return best


class Sampler:
    """Runs the probe every `period` seconds in a thread of this process.

    The machine's speed changes within a long call, so one probe before and
    after it is not enough.  Pin the process to one CPU first, so that the
    probe thread measures the CPU the calls run on.  The probe times its own
    CPU time, so waiting for the interpreter lock does not count.  It takes
    about 1% of the CPU.  `samples` holds (perf_counter at the end, probe
    seconds).
    """

    def __init__(self, period: float = 0.2):
        self.period = period
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(self.period):
            p = probe(repeats=1, clock=time.thread_time)
            self.samples.append((time.perf_counter(), p))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("probe thread did not stop")
