"""The names the benchmark harness reads from the package, checked in seconds.

`benchmarks/layertrace.py` wraps functions by module and name, and
`benchmarks/rep.py` reads every `workloads.PINNED` key from the solve
options.  A renamed function or a dropped options field otherwise shows up
only as a failed repetition in the minute-long `benchmarks/test_smoke.py`.
The benchmark modules are read here, never changed.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import os
import sys

from paracoh import SolveOptions, parallel, solver

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "benchmarks")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves():
    missing = [f"{h.module}.{h.attr}" for h in _load("layertrace").HOOKS
               if not callable(getattr(importlib.import_module(f"paracoh.{h.module}"), h.attr, None))]
    assert not missing


def test_lstsq_rows_takes_param_and_window_first():
    # the lstsq hook reads arguments 0 and 1 by position or by these names
    params = list(inspect.signature(solver._lstsq_rows).parameters)
    assert params[:2] == ["param", "win_in"]


def test_pinned_keys_are_solve_options():
    fields = {f.name for f in dataclasses.fields(SolveOptions)}
    assert set(_load("workloads").PINNED) <= fields


def test_pool_keeps_the_call_shapes_the_tracer_wraps():
    # layertrace._wrap_map swaps parallel_map for a (fn, items) wrapper and
    # calls thread_budget bare; a third argument would fail every traced run
    assert list(inspect.signature(parallel.parallel_map).parameters) == ["fn", "items"]
    inspect.signature(parallel.thread_budget).bind()  # TypeError on a required parameter
