"""Outside-in layer tracing for one benchmark repetition.

`Tracer.install()` replaces paracoh's layer functions with wrappers, at every
module attribute that binds them (`forms` imports `_solve_top_rec` by name,
`solver` and `experiments` import `u_matrix` by name, the package re-exports
many).  Each call records a span: id, parent, name, thread, start, end and
self time (duration minus the child spans on the same thread).  Spans stay
in memory and are written out when the repetition ends.

Span kinds:
- layer: work inside a paracoh layer; the per-layer metrics.
- container: a CLI command or a parallel task; their self time is work that
  no layer span covers, the unattributed time.
- wait: `parallel_map`, during which the calling thread waits for workers.

`CallCounter` and `AllocPeak` serve the separate counting repetition, which
runs single-threaded and whose timings are not used: an exact count of
Python calls, and the tracemalloc peak inside a degree-1 least-squares call.
"""

from __future__ import annotations

import gzip
import itertools
import json
import os
import sys
import threading
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

LAYER, CONTAINER, WAIT = "layer", "container", "wait"

# Every per-layer metric: (name, unit, better).  BENCHMARK.json lists the same.
METRICS = [
    ("solver.lstsq.calls", "count", "lower"),
    ("solver.lstsq.self_s", "s", "lower"),
    ("solver.lstsq.n_max", "count", "lower"),
    ("solver.lstsq.reuse_share", "ratio", "higher"),
    ("solver.lstsq.alloc_peak_mb", "MB", "lower"),
    ("solver.rows.calls", "count", "lower"),
    ("solver.rows.rows", "count", "lower"),
    ("solver.rows.attempts", "count", "lower"),
    ("solver.rows.self_s", "s", "lower"),
    *[(f"solver.rec.d{d}.{stat}", unit, "lower")
      for d in (1, 2, 3, 4) for stat, unit in (("calls", "count"), ("self_s", "s"))],
    ("solver.split.calls", "count", "lower"),
    ("solver.split.self_s", "s", "lower"),
    ("solver.verify.calls", "count", "lower"),
    ("solver.verify.self_s", "s", "lower"),
    ("solver.verify.hull_growth", "ratio", "lower"),
    ("solver.solve_top.calls", "count", "lower"),
    ("solver.solve_top.total_s", "s", "lower"),
    ("tensor.sobolev_norm.calls", "count", "lower"),
    ("tensor.sobolev_norm.self_s", "s", "lower"),
    ("tensor.sobolev_norm.elems", "count", "lower"),
    ("tensor.apply_u_axis.calls", "count", "lower"),
    ("tensor.apply_u_axis.self_s", "s", "lower"),
    ("tensor.apply_u_axis.elems", "count", "lower"),
    ("tensor.embed.calls", "count", "lower"),
    ("tensor.embed.self_s", "s", "lower"),
    ("tensor.embed.bytes", "B", "lower"),
    ("tensor.product_dist.calls", "count", "lower"),
    ("tensor.product_dist.self_s", "s", "lower"),
    ("tensor.restrict.calls", "count", "lower"),
    ("tensor.restrict.self_s", "s", "lower"),
    ("tensor.kernel_project.self_s", "s", "lower"),
    ("repn.u_matrix.calls", "count", "lower"),
    ("repn.u_matrix.self_s", "s", "lower"),
    ("repn.u_matrix.bytes", "B", "lower"),
    ("repn.basis_norm.calls", "count", "lower"),
    ("repn.basis_norm.self_s", "s", "lower"),
    ("distributions.dist_values.calls", "count", "lower"),
    ("distributions.dist_values.self_s", "s", "lower"),
    ("distributions.order_sum.calls", "count", "lower"),
    ("distributions.order_sum.self_s", "s", "lower"),
    ("rational.exact.calls", "count", "lower"),
    ("rational.exact.self_s", "s", "lower"),
    ("forms.solve_primitive.calls", "count", "lower"),
    ("forms.solve_primitive.total_s", "s", "lower"),
    *[(f"forms.primitive_rec.d{d}.{stat}", unit, "lower")
      for d in (2, 3) for stat, unit in (("calls", "count"), ("self_s", "s"))],
    ("forms.top_slice.calls", "count", "lower"),
    ("forms.top_slice.self_s", "s", "lower"),
    ("forms.stack.self_s", "s", "lower"),
    ("forms.exterior_derivative.calls", "count", "lower"),
    ("forms.exterior_derivative.self_s", "s", "lower"),
    ("forms.joint_fallback.calls", "count", "lower"),
    ("forms.joint_fallback.share", "ratio", "lower"),
    ("serialize.load.calls", "count", "lower"),
    ("serialize.load.self_s", "s", "lower"),
    ("serialize.load.bytes", "B", "lower"),
    ("serialize.save.calls", "count", "lower"),
    ("serialize.save.self_s", "s", "lower"),
    ("serialize.save.bytes", "B", "lower"),
    ("generate.inputs.self_s", "s", "lower"),
    ("parallel.map.tasks", "count", "higher"),
    ("parallel.map.busy_share", "ratio", "higher"),
    *[(f"experiments.cmd.{cmd}.total_s", "s", "lower")
      for cmd in ("gen", "solve-top", "solve-form", "verify-invariants", "sweep-bounds")],
    ("py.calls", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
]
UNITS = {name: unit for name, unit, _ in METRICS}

# Filled by run.py from the counting and plain repetitions, not from spans.
NOT_FROM_SPANS = ("py.calls", "solver.lstsq.alloc_peak_mb", "trace.overhead_share")
SAMPLE_INTERVAL_S = 0.002


def _owner(metric: str) -> str | None:
    """Span group whose absence marks the metric absent (None: never absent)."""
    if metric.startswith(("py.", "trace.")):
        return None
    if metric.startswith("forms.joint_fallback."):
        return "forms.solve_primitive"   # zero fallbacks is a measurement
    return metric.rsplit(".", 1)[0]


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


@dataclass(frozen=True)
class Hook:
    """One wrapped function: where it is defined and what its span is called."""

    module: str                       # paracoh submodule that defines it
    attr: str
    name: str | Callable              # span name, or (args, kwargs) -> name
    kind: str = LAYER
    counted: bool = True              # counts toward <name>.calls
    extra: Callable | None = None     # (tracer, args, kwargs, result) -> None


def _lstsq_extra(tr, args, kwargs, out):
    param, win_in = _arg(args, kwargs, 0, "param"), _arg(args, kwargs, 1, "win_in")
    tr.bump_max("solver.lstsq.n_max", len(win_in))
    key = (param, win_in.lo, win_in.hi)
    with tr.lock:
        if key in tr.operators:
            tr.counters["solver.lstsq.reused"] += 1
        tr.operators.add(key)


def _rows_extra(tr, args, kwargs, out):
    tr.add("solver.rows.rows", _arg(args, kwargs, 2, "rhs").shape[0])
    tr.add("solver.rows.attempts", out[3])


def _verify_extra(tr, args, kwargs, out):
    f, g_list = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "g_list")
    if g_list and f.coeffs.size:
        tr.bump_max("solver.verify.hull_growth", g_list[0].coeffs.size / f.coeffs.size)


def _file_bytes_extra(metric):
    def extra(tr, args, kwargs, out):
        tr.add(metric, os.path.getsize(_arg(args, kwargs, 0, "path")))
    return extra


def _primitive_extra(tr, args, kwargs, out):
    if _arg(args, kwargs, 3, "n") == 1:
        tr.add("forms.primitive_rec.deg1", 1)


def _level(prefix):
    def name(args, kwargs):
        return f"{prefix}.d{_arg(args, kwargs, 0, 'params').d}"
    return name


_RATIONAL = ("u_action_exact", "dist_value_exact", "dist_invariance_defect_exact",
             "phi_exact", "pairing_matrix_exact")
_GENERATE = ("random_vector", "random_tensor", "random_kernel_tensor", "random_coboundary_vector",
             "random_coboundary_tensor", "random_form", "random_closed_form")

HOOKS = [
    Hook("solver", "_lstsq_rows", "solver.lstsq", extra=_lstsq_extra),
    Hook("solver", "_solve_rows_refined", "solver.rows", extra=_rows_extra),
    Hook("solver", "_solve_top_rec", _level("solver.rec")),
    Hook("solver", "split", "solver.split"),
    Hook("solver", "verify_solution", "solver.verify", extra=_verify_extra),
    Hook("solver", "solve_top", "solver.solve_top"),
    Hook("tensor", "tensor_sobolev_norm", "tensor.sobolev_norm",
         extra=lambda tr, a, k, out: tr.add("tensor.sobolev_norm.elems", _arg(a, k, 0, "f").coeffs.size)),
    Hook("tensor", "apply_u_axis_array", "tensor.apply_u_axis",
         extra=lambda tr, a, k, out: tr.add("tensor.apply_u_axis.elems", _arg(a, k, 0, "arr").size)),
    Hook("tensor", "embed_array", "tensor.embed",
         extra=lambda tr, a, k, out: tr.add("tensor.embed.bytes", out.nbytes)),
    Hook("tensor", "product_dist_evaluate", "tensor.product_dist"),
    Hook("tensor", "restrict", "tensor.restrict"),
    Hook("tensor", "kernel_project", "tensor.kernel_project"),
    Hook("repn", "u_matrix", "repn.u_matrix",
         extra=lambda tr, a, k, out: tr.add("repn.u_matrix.bytes", out[0].nbytes)),
    Hook("repn", "basis_norm_sq", "repn.basis_norm"),
    Hook("repn", "basis_norm_sq_array", "repn.basis_norm"),
    Hook("distributions", "dist_values_array", "distributions.dist_values"),
    Hook("distributions", "dist_basis_value", "distributions.dist_values"),
    Hook("distributions", "dist_order_sum", "distributions.order_sum"),
    *[Hook("rational", attr, "rational.exact") for attr in _RATIONAL],
    Hook("forms", "solve_primitive", "forms.solve_primitive"),
    Hook("forms", "_primitive_rec", _level("forms.primitive_rec"), extra=_primitive_extra),
    Hook("forms", "_top_degree_slice", "forms.top_slice"),
    Hook("forms", "_stack_slices", "forms.stack"),
    Hook("forms", "exterior_derivative", "forms.exterior_derivative"),
    Hook("forms", "_joint_degree1_solve", "forms.joint_fallback"),
    # a load is one document read; the JSON-to-object step is part of its time
    Hook("serialize", "load_json", "serialize.load", extra=_file_bytes_extra("serialize.load.bytes")),
    Hook("serialize", "tensor_from_json", "serialize.load", counted=False),
    Hook("serialize", "form_from_json", "serialize.load", counted=False),
    # a save is one file written; the object-to-JSON step is part of its time
    Hook("serialize", "save_json", "serialize.save", extra=_file_bytes_extra("serialize.save.bytes")),
    Hook("serialize", "table_to_csv", "serialize.save",
         extra=lambda tr, a, k, out: tr.add("serialize.save.bytes", os.path.getsize(_arg(a, k, 1, "path")))),
    Hook("serialize", "tensor_to_json", "serialize.save", counted=False),
    Hook("serialize", "form_to_json", "serialize.save", counted=False),
    *[Hook("generate", attr, "generate.inputs") for attr in _GENERATE],
    *[Hook("experiments", f"cmd_{cmd.replace('-', '_')}", f"experiments.cmd.{cmd}", kind=CONTAINER)
      for cmd in ("gen", "solve-top", "solve-form", "verify-invariants", "sweep-bounds")],
]


def rebind(replacements: dict) -> None:
    """Point every paracoh module attribute bound to an original at its
    replacement.  Raises if an original stays reachable from a module."""
    mods = [m for n, m in list(sys.modules.items()) if n == "paracoh" or n.startswith("paracoh.")]
    by_id = {id(orig): new for orig, new in replacements.items()}  # the dict keeps ids alive
    for mod in mods:
        for attr, value in list(vars(mod).items()):
            new = by_id.get(id(value))
            if new is not None:
                setattr(mod, attr, new)
    for mod in mods:
        for attr, value in vars(mod).items():
            if id(value) in by_id:
                raise RuntimeError(f"{mod.__name__}.{attr} still bound to the unwrapped function")


class _ThreadState:
    __slots__ = ("tid", "stack", "names", "busy")

    def __init__(self, tid):
        self.tid = tid
        self.stack = []          # open frames on this thread
        self.names = Counter()   # open spans per name, for outermost totals
        self.busy = 0            # > 0 while this thread does workload work


class Tracer:
    """Span recorder, counters and the unattributed-time sampler."""

    def __init__(self, package_dir: str):
        self.package_dir = package_dir
        self.spans = []          # (id, parent, name, tid, start, end, self, outer, counted, kind)
        self.counters = defaultdict(int)
        self.operators = set()
        self.lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.states = {}
        self.samples = Counter()
        self._labels = {}
        self._stop = threading.Event()
        self._sampler = None
        self.timed = (0.0, 0.0)

    # -- counters ---------------------------------------------------------------

    def add(self, key, value):
        with self.lock:
            self.counters[key] += value

    def bump_max(self, key, value):
        with self.lock:
            self.counters[key] = max(self.counters[key], value)

    # -- spans ------------------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState(threading.get_ident())
            self.states[st.tid] = st
        return st

    def _enter(self, name, kind, parent=None):
        st = self._state()
        if parent is None and st.stack:
            parent = st.stack[-1][0]
        outer = st.names[name] == 0
        st.names[name] += 1
        frame = [next(self._ids), parent, name, kind, 0.0, outer, st, 0.0]
        st.stack.append(frame)
        frame[7] = time.perf_counter()
        return frame

    def _exit(self, frame, counted=True):
        end = time.perf_counter()
        sid, parent, name, kind, child, outer, st, start = frame
        st.stack.pop()
        dur = end - start
        if st.stack:
            st.stack[-1][4] += dur
        st.names[name] -= 1
        self.spans.append((sid, parent, name, st.tid, start, end, dur - child, outer, counted, kind))
        return dur

    def _wrap(self, fn, hook: Hook):
        tracer = self
        name = hook.name

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name(args, kwargs) if callable(name) else name, hook.kind)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, hook.counted)
            if hook.extra is not None:
                hook.extra(tracer, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_map(self, fn_map, thread_budget):
        tracer = self

        def parallel_map(fn, items):
            items = list(items)
            workers = min(thread_budget(), max(len(items), 1))
            st = tracer._state()
            frame = tracer._enter("parallel.map", WAIT)
            map_id = frame[0]

            def task(item):
                task_st = tracer._state()
                task_st.busy += 1
                task_frame = tracer._enter("parallel.task", CONTAINER, parent=map_id)
                try:
                    return fn(item)
                finally:
                    tracer._exit(task_frame)
                    task_st.busy -= 1

            st.busy -= 1
            try:
                return fn_map(task, items)
            finally:
                st.busy += 1
                dur = tracer._exit(frame)
                tracer.add("parallel.map.tasks", len(items))
                tracer.add("parallel.map.capacity_s", workers * dur)

        parallel_map.__wrapped__ = fn_map
        return parallel_map

    def install(self) -> None:
        """Wrap every hooked function at all its binding sites."""
        mods = sys.modules
        replacements = {}
        for hook in HOOKS:
            orig = getattr(mods[f"paracoh.{hook.module}"], hook.attr)
            replacements[orig] = self._wrap(orig, hook)
        par = mods["paracoh.parallel"]
        replacements[par.parallel_map] = self._wrap_map(par.parallel_map, par.thread_budget)
        rebind(replacements)

    # -- timed phase and sampler ------------------------------------------------

    def begin_timed(self):
        self._state().busy += 1
        self._sampler = threading.Thread(target=self._sample, name="layertrace-sampler", daemon=True)
        self._sampler.start()
        self.timed = (time.perf_counter(), 0.0)

    def end_timed(self):
        self.timed = (self.timed[0], time.perf_counter())
        self._state().busy -= 1
        self._stop.set()
        self._sampler.join()

    def _caller(self, frame):
        while frame is not None:
            code = frame.f_code
            label = self._labels.get(code)
            if label is None:
                if code.co_filename.startswith(self.package_dir):
                    mod = os.path.splitext(os.path.basename(code.co_filename))[0]
                    label = f"{mod}.{getattr(code, 'co_qualname', code.co_name)}"
                else:
                    label = ""
                self._labels[code] = label
            if label:
                return label
            frame = frame.f_back
        return "(outside paracoh)"

    def _sample(self):
        """Every interval, charge each busy thread to (innermost open layer
        span or None, innermost paracoh function)."""
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            for tid, frame in sys._current_frames().items():
                st = self.states.get(tid)
                if st is None or st.busy <= 0:
                    continue
                owner = next((f[2] for f in reversed(st.stack) if f[3] == LAYER), None)
                self.samples[(owner, self._caller(frame))] += 1

    # -- results ----------------------------------------------------------------

    def aggregate(self) -> dict:
        """calls, self_s and total_s (outermost spans) per span name."""
        agg = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for _, _, name, _, start, end, self_s, outer, counted, _ in self.spans:
            a = agg[name]
            a["calls"] += counted
            a["self_s"] += self_s
            if outer:
                a["total_s"] += end - start
        return agg

    def unattributed(self, main_tid: int) -> tuple[float, float]:
        """(seconds of workload work outside every layer span, busy seconds)
        over the timed phase, summed over threads."""
        t0, t1 = self.timed
        loose = t1 - t0
        busy = t1 - t0
        for _, parent, name, tid, start, end, self_s, _, _, kind in self.spans:
            if start < t0 or end > t1:
                continue
            if kind == CONTAINER:
                loose += self_s
            if tid == main_tid and parent is None:
                loose -= end - start          # main-thread time inside some root span
            if name == "parallel.task":
                busy += end - start
            elif kind == WAIT:
                busy -= end - start
        return loose, busy

    def metrics(self, main_tid: int) -> tuple[dict, dict]:
        """Per-layer metric values from the spans, and the supporting detail."""
        agg = self.aggregate()
        c = self.counters
        values = {}
        for name, _, _ in METRICS:
            if name in NOT_FROM_SPANS:
                continue
            group, stat = name.rsplit(".", 1)
            if stat in ("calls", "self_s", "total_s"):
                values[name] = agg[group][stat] if group in agg else 0
            else:
                values[name] = c.get(name, 0)
        lstsq_calls = agg["solver.lstsq"]["calls"] if "solver.lstsq" in agg else 0
        values["solver.lstsq.reuse_share"] = c["solver.lstsq.reused"] / lstsq_calls if lstsq_calls else 0
        deg1 = c.get("forms.primitive_rec.deg1", 0)
        values["forms.joint_fallback.share"] = (
            agg["forms.joint_fallback"]["calls"] / deg1 if deg1 and "forms.joint_fallback" in agg else 0
        )
        capacity = c.get("parallel.map.capacity_s", 0)
        task_s = agg["parallel.task"]["total_s"] if "parallel.task" in agg else 0
        values["parallel.map.busy_share"] = task_s / capacity if capacity else 0
        loose, busy = self.unattributed(main_tid)
        values["trace.unattributed_share"] = loose / busy if busy > 0 else 0
        hooked = {f"{h.module}.{h.attr}" for h in HOOKS} | {"parallel.parallel_map"}
        loose_samples = Counter()
        inner_samples = Counter()
        for (owner, caller), n in self.samples.items():
            if owner is None:
                loose_samples[caller] += n
            elif caller not in hooked:
                inner_samples[(owner, caller)] += n
        n_loose = sum(loose_samples.values())
        n_all = sum(self.samples.values())
        callers = [
            {"caller": name, "sample_share": n / n_loose, "est_s": loose * n / n_loose}
            for name, n in loose_samples.most_common(5)
        ]
        inner = [
            {"caller": name, "layer": owner, "sample_share": n / n_all, "est_s": busy * n / n_all}
            for (owner, name), n in inner_samples.most_common(5)
        ]
        layers = sorted(
            ((name, a["self_s"]) for name, a in agg.items() if name not in ("parallel.map",)),
            key=lambda x: -x[1],
        )
        detail = {
            "absent": [name for name, _, _ in METRICS if _owner(name) and _owner(name) not in agg],
            "timed_s": self.timed[1] - self.timed[0],
            "unattributed_s": loose,
            "busy_s": busy,
            "top_unwrapped_callers": callers,
            "unattributed_samples": n_loose,
            "unwrapped_in_layers": inner,
            "busy_samples": n_all,
            "top_self_s": layers[:8],
            "inclusive_s": {name: a["total_s"] for name, a in agg.items()},
            "span_count": len(self.spans),
        }
        return values, detail

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


class AllocPeak:
    """Largest tracemalloc peak inside one call of a wrapped function.

    For a single-threaded process only: tracemalloc is started and stopped
    around every call, and stopping it while another thread allocates can
    crash the interpreter."""

    def __init__(self):
        self.peak = 0

    def wrap(self, fn):
        probe = self

        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                probe.peak = max(probe.peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        wrapper.__wrapped__ = fn
        return wrapper


class CallCounter:
    """Exact count of Python function calls on the calling thread, via
    sys.setprofile, leaving out code under the given path prefixes."""

    def __init__(self, skip_prefixes: tuple[str, ...]):
        self.skip_prefixes = skip_prefixes
        self.total = 0
        self._skip = {}

    def _profile(self, frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        skip = self._skip.get(code)
        if skip is None:
            skip = self._skip[code] = code.co_filename.startswith(self.skip_prefixes)
        if not skip:
            self.total += 1

    def start(self):
        sys.setprofile(self._profile)

    def stop(self):
        sys.setprofile(None)
