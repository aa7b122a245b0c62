"""Worker threads only for tasks of at least parallel.MIN_TASK_ENTRIES coefficients.

Below the gate a command runs every component and every check row in order
on the calling thread; above it the components go to `parallel_map`.
"""

import os
import threading

import pytest

from paracoh import SeriesParam, forms, parallel, solver
from paracoh.config import ComponentConfig, ExperimentConfig
from paracoh.experiments import cmd_solve_form, cmd_solve_top, cmd_sweep_bounds, cmd_verify_invariants


def _slice_config(d, k, seed=0):
    """principal(s) x complementary(0.9) x discrete(1) x principal(3), cut to d."""
    tail = (SeriesParam.complementary(0.9), SeriesParam.discrete(1), SeriesParam.principal(3.0))
    comps = tuple(ComponentConfig(f"c{i}", (SeriesParam.principal(s), *tail[: d - 1]))
                  for i, s in enumerate((1.0, 1.5, 2.0, 2.5)))
    return ExperimentConfig(components=comps, k_per_axis=k, seed=seed)


def test_thread_budget_counts_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv("PARACOH_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert parallel.thread_budget() == 1
    monkeypatch.setenv("PARACOH_THREADS", "3")
    assert parallel.thread_budget() == 3


def test_gated_map_keeps_order_on_either_side(monkeypatch):
    monkeypatch.setenv("PARACOH_THREADS", "4")
    items = list(range(9))
    for entries in (1, parallel.MIN_TASK_ENTRIES):
        assert parallel.gated_map(lambda x: x * x, items, entries) == [x * x for x in items]


class _Threaded(Exception):
    pass


class _Solved(Exception):
    pass


@pytest.mark.parametrize(
    "d, k, degree, threaded",
    [
        (1, 1024, None, False),  # 2,049 coefficients per task
        (4, 8, None, False),     # 44,217: top_d4
        (4, 12, None, True),     # 203,125
        (3, 16, 1, False),       # 3 x 18,513 = 55,539: primitive_d3's second command
        (3, 24, 1, True),        # 3 x 60,025 = 180,075
        (4, 8, 3, True),         # 4 x 44,217 = 176,868
    ],
)
def test_components_go_to_workers_only_above_the_gate(monkeypatch, d, k, degree, threaded):
    def to_workers(fn, items):
        raise _Threaded

    def solve(obj, opts=None):
        raise _Solved

    monkeypatch.setattr(parallel, "parallel_map", to_workers)
    monkeypatch.setattr(solver, "solve_top", solve)
    monkeypatch.setattr(forms, "solve_primitive", solve)
    cfg = _slice_config(d, k)
    with pytest.raises(_Threaded if threaded else _Solved):
        if degree is None:
            cmd_solve_top(cfg)
        else:
            cmd_solve_form(cfg, degree)


def _no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started below the gate")


def test_below_the_gate_every_task_runs_on_the_calling_thread(monkeypatch):
    monkeypatch.setenv("PARACOH_THREADS", "4")
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", _no_pool)
    solver_threads = []

    def recorded(solve):
        def wrapper(*args, **kwargs):
            solver_threads.append(threading.get_ident())
            return solve(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "solve_top", recorded(solver.solve_top))
    monkeypatch.setattr(forms, "solve_primitive", recorded(forms.solve_primitive))
    cfg = _slice_config(3, 6)
    assert cmd_solve_top(cfg).passed
    assert cmd_solve_form(cfg, 1).passed
    assert solver_threads == [threading.get_ident()] * 8
    assert cmd_verify_invariants(cfg).passed
    assert cmd_sweep_bounds(_slice_config(2, 8)).passed
