"""Deterministic parallel map, capped by PARACOH_THREADS.

Worker threads pay only for large tasks.  Below MIN_TASK_ENTRIES
coefficients per task, each numpy or BLAS call lasts tens of microseconds,
the GIL hand-offs between calls serialize the workers, and a second worker
adds only its workspace: two threads looping a (2601, 17) complex product
run 1.00x as fast as one, at (26010, 17) 1.84x (medians of five).
`gated_map` therefore gives tasks to workers only when the largest holds at
least MIN_TASK_ENTRIES coefficients, and otherwise runs them in order on
the calling thread.

One worker against two on four component solves, 2 CPUs; coefficients per
task.  Cold: a fresh interpreter per CLI command, medians of five, one
reading per set of runs.  Warm: in-process, medians of three, five rounds,
median [range]:

                                            cold               warm
    top degree  d=1, K=1024 (2k)            0.89               0.79 [0.53, 0.92]
                d=4, K=8 (44k)              1.02 / 0.96 / 1.01 1.10 [0.95, 1.63]
                d=3, K=24 (60k)             0.93 / 0.86        1.56 [0.97, 1.74]
                d=4, K=10 (102k)            0.94 / 0.96 / 1.01 1.47 [1.26, 1.70]
                d=3, K=32 (139k)            0.89 / 0.87        1.69 [1.13, 1.81]
                d=4, K=12 (203k)            0.94 / 1.32 / 1.03 1.65 [1.58, 2.09]
                d=3, K=48 (461k)            1.43 / 1.37        1.61 [1.41, 1.81]
                d=2, K=512 (1.05M)          1.47 / 1.47        1.70 [1.51, 1.88]
    primitive   d=3, K=16, degree 1 (55k)   0.96 / 1.13 / 1.28 1.15 [1.06, 1.64]
                d=3, K=24, degree 1 (180k)  1.01 / 1.41 / 1.19 1.76 [1.50, 1.94]
                d=3, K=24, degree 2 (180k)  1.32               1.89 [1.62, 2.17]
                d=4, K=8, degree 1 (177k)   1.66               1.75 [1.61, 1.82]
                d=4, K=8, degree 2 (265k)   1.39               1.74 [1.60, 1.88]
                d=4, K=8, degree 3 (177k)   0.96 / 1.70 / 1.57 1.81 [1.74, 2.07]

The gate follows the cold readings, which are what a CLI command pays: cold,
no top-degree solve below it gains from a second worker.  The known costs
are the warm gains below it and the d=3, K=16, degree-1 primitive, which
runs serially.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# coefficients in the largest task from which worker threads start
MIN_TASK_ENTRIES = 1 << 17


def thread_budget() -> int:
    """PARACOH_THREADS when it is a positive integer, else the CPUs this
    process may run on, at most 8."""
    raw = os.environ.get("PARACOH_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        n = min(cpus or 1, 8)
    return n


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Apply a pure function to every item; results keep submit order."""
    items = list(items)
    workers = min(thread_budget(), max(len(items), 1))
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def gated_map(fn: Callable[[T], R], items: Sequence[T], task_entries: int) -> list[R]:
    """`parallel_map` when the largest task holds `task_entries` >=
    MIN_TASK_ENTRIES coefficients, else fn over items in order on the
    calling thread; the results are the same either way."""
    if task_entries < MIN_TASK_ENTRIES:
        return [fn(x) for x in items]
    return parallel_map(fn, items)
