"""Host-speed kernels and the speed-corrected median every timing is reported as.

The 2-vCPU host this benchmark was built on runs at two speeds.  The
simulator kernel below takes about 16-19 ms at the fast one and 30-37 ms at
the slow one; each vCPU switches between them every few seconds and now and
then stays slow for 30-40 s.  Raw pass times therefore spread up to 0.5
(IQR/median) between runs, whatever statistic of the run's passes is taken.

So the benchmark reads its kernels before and after every phase and pass,
scales each sample by its kernel's ``NOMINAL_S`` over the mean of that
kernel's readings around it -- its seconds at the nominal speed -- and
reports the median over the run's samples.  Work slows down by different
shares on the slow speed: the design phase's small SVDs and QP steps
(~1.45x) by about as much as the linear-algebra kernel (~1.6x), less than
the simulator kernel (~1.9x).  So design and pretrain samples
(``LIN_PHASES``, and the ``redesign`` pass, which is one design call) use
the linear-algebra kernel and every other sample the simulator kernel.

The correction holds only as far as the program slows down as much as its
kernel does.  It slows down less: samples at the slow speed read up to 25%
(mostly 10-20%) lower once corrected than samples at the fast speed.  And the share depends on the mix of operations: a
change that alters that mix (large vector operations in place of small
numpy steps, or no process pool) is corrected with another bias than its
parent.  So the detail line keeps every raw sample, its kernel readings and
the raw median of each timing, and a claimed gain must also hold on the raw
medians.

A set-up is mostly a fresh interpreter's imports, which slowed only ~1.3x
when the simulator kernel slowed ~1.8x.  A loop of plain Python
(``py_kernel_s``, ~1.4x) tracks it, read in the set-up's own process once it
is ready; readings taken in the parent did not follow it at all.  The
training inside a ``redesign`` set-up is corrected as ``train_s`` is.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Each kernel's time at the fast speed of the host the benchmark was built on.
NOMINAL_S = {"sim": 0.0165, "lin": 0.0105, "py": 0.0082}
# Phases whose samples are scaled by the linear-algebra kernel; every other
# sample (passes that simulate, set-ups) by the simulator kernel.
LIN_PHASES = ("pipeline.pretrain", "pipeline.design")

_A = np.full((16, 16), 1e-3)
_U = np.linspace(-1.0, 1.0, 16)
_M = np.random.default_rng(0).standard_normal((60, 60))


def sim_kernel_s(iterations: int = 3000) -> float:
    """Seconds for a fixed loop of small numpy steps, shaped like one RK4 stage."""
    x = np.zeros(16)
    t0 = time.perf_counter()
    for _ in range(iterations):
        x = np.clip(x + 1e-3 * (_A @ x + _U), -1.0, 1.0)
    return time.perf_counter() - t0


def lin_kernel_s(repeats: int = 20) -> float:
    """Seconds for a fixed number of small SVDs, like the design QPs' null spaces."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        np.linalg.svd(_M)
    return time.perf_counter() - t0


def py_kernel_s(iterations: int = 100000) -> float:
    """Seconds for a fixed loop of plain Python, like an interpreter importing modules."""
    t0 = time.perf_counter()
    x = 0
    for i in range(iterations):
        x += i * i % 7
    return time.perf_counter() - t0


def speed() -> dict:
    """One reading of every kernel."""
    return {"sim": sim_kernel_s(), "lin": lin_kernel_s(), "py": py_kernel_s()}


def sample(seconds: float, kind: str, speeds: list[dict]) -> dict:
    """One timed sample, with the ``kind`` kernel's readings taken around it."""
    return {"s": seconds, "kind": kind, "k": [sp[kind] for sp in speeds]}


def scaled(sample: dict) -> float:
    """The sample's seconds at nominal speed."""
    return sample["s"] * NOMINAL_S[sample["kind"]] / statistics.fmean(sample["k"])


def scaled_median(samples: list[dict]) -> float:
    """Median over the samples of their seconds at nominal speed."""
    return statistics.median(scaled(s) for s in samples)
