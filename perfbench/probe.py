"""Host-speed probe, run as a helper process beside the benchmark.

For each line read on standard input it writes one line: the mean time in
milliseconds of ten blocks of a fixed computation made of the kinds of numpy
call flowunfold makes (small matmuls, elementwise maps, index gathers, 8x8
det/inverse).  A mean, not a median: the rounds it scales pay for the host's
slow moments too.  The runner starts it before it imports flowunfold and asks it
for a time before and after every set-up repetition and every round, while
its own process waits.  Being a process of its own that never imports the
program, the probe cannot see the program's state: its numpy or BLAS
settings, its heap, its caches.  It exits at the end of its input.
"""

import sys
import time

import numpy as np

BLOCKS = 10


def probe_ms() -> float:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((16, 36))
    b = rng.standard_normal((4, 36, 64))
    x = rng.standard_normal((4, 2, 8, 8))
    m = np.eye(8) + 0.1 * rng.standard_normal((8, 8))
    rows = (np.arange(8)[None, :] + np.arange(3)[:, None] - 1) % 8
    t0 = time.perf_counter_ns()
    for _ in range(BLOCKS * 40):
        h = np.maximum(a @ b, 0.0)
        np.exp(np.clip(h[:, :8], -5.0, 5.0))
        x[:, :, rows[:, :, None, None], rows[None, None, :, :]].reshape(4, 18, 64)
        np.linalg.det(m)
        np.linalg.inv(m)
    return (time.perf_counter_ns() - t0) / 1e6 / BLOCKS


if __name__ == "__main__":
    for _ in sys.stdin:
        print(f"{probe_ms():.6f}", flush=True)
