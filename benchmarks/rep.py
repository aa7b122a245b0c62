"""One benchmark repetition in a fresh interpreter.

    python3 benchmarks/rep.py --workload NAME --seed N --mode plain|traced|counting \
        --workdir DIR --result FILE [--scale full|smoke]

run.py starts it with the thread environment of `workloads.THREAD_ENV`.  The
repetition imports paracoh from the checkout's `src/`, writes the workload's
configs, runs its `paracoh gen` calls (set-up), then runs the timed CLI
commands in-process through `paracoh.cli.main` and gates every report.  A
fresh process is the only way to start cold: the degree-1 QR factors sit in
an lru_cache for the life of the process, exactly as for a CLI user.

Modes: `plain` times the commands; `traced` wraps the layers (layertrace)
and records spans; `counting` runs with one paracoh worker, so its counts
do not depend on thread scheduling, and counts Python calls and the
allocation peak of the least-squares calls; its timings are not used.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _fail(msg: str) -> None:
    print(f"rep: {msg}", file=sys.stderr)
    sys.exit(2)


def _run_cli(cli, argv, log) -> int:
    """cli.main with its output captured; an escaping exception is exit -1."""
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            return cli.main(argv)
        except Exception:  # a crash fails the command's operations, not the run
            traceback.print_exc(file=log)
            return -1


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _steal_s() -> float:
    """CPU time the host took from this machine's CPUs so far (/proc/stat)."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _versions() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "traced", "counting"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = ap.parse_args()

    import workloads

    want_env = workloads.COUNTING_ENV if args.mode == "counting" else workloads.THREAD_ENV
    for key, val in want_env.items():
        if os.environ.get(key) != val:
            _fail(f"{key}={os.environ.get(key)!r}, want {val!r}")
    if "numpy" in sys.modules:
        _fail("numpy was imported before the thread environment was checked")
    sys.path.insert(0, SRC)
    t0 = time.monotonic()
    import paracoh
    from paracoh import cli
    from paracoh import config as pconfig

    import_s = time.monotonic() - t0
    pkg_dir = os.path.dirname(os.path.abspath(paracoh.__file__)) + os.sep
    if not pkg_dir.startswith(SRC + os.sep):
        _fail(f"paracoh imported from {pkg_dir}, not from {SRC}")

    import layertrace

    tracer = counter = alloc = None
    if args.mode == "traced":
        tracer = layertrace.Tracer(pkg_dir)
        tracer.install()
    elif args.mode == "counting":
        alloc = layertrace.AllocPeak()
        lstsq = sys.modules["paracoh.solver"]._lstsq_rows
        layertrace.rebind({lstsq: alloc.wrap(lstsq)})
        counter = layertrace.CallCounter((HERE,))

    wl = workloads.build(args.workload, args.seed, args.scale)
    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)
    for fname, doc in wl.configs.items():
        with open(fname, "w") as fh:
            json.dump(doc, fh, indent=1)
    log = io.StringIO()
    setup_codes = [_run_cli(cli, argv, log) for argv in wl.setup]
    t_setup_end = time.monotonic()

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    steal0 = _steal_s()
    if tracer:
        tracer.begin_timed()
    if counter:
        counter.start()
    walls, codes = [], []
    for argv in wl.commands:
        t = time.perf_counter()
        codes.append(_run_cli(cli, argv, log))
        walls.append(time.perf_counter() - t)
    if counter:
        counter.stop()
    if tracer:
        tracer.end_timed()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    steal1 = _steal_s()

    # --- gate: exit codes, reports, pinned options, config hashes ----------------
    attempted = failed = 0
    reasons = [f"gen {argv}: exit {code}" for argv, code in zip(wl.setup, setup_codes) if code != 0]
    configs = {}
    for fname in wl.configs:
        cfg = pconfig.load_config(fname)
        opts = cfg.solve_options()
        got = {key: getattr(opts, key) for key in workloads.PINNED}
        if got != workloads.PINNED:
            reasons.append(f"{fname}: solver options {got} are not the pinned {workloads.PINNED}")
        configs[fname] = {"sha256": _sha256(fname), "config_hash": pconfig.config_hash(cfg), **got}
    for (argv, path), code in zip(wl.report_paths(), codes):
        report = None
        if os.path.exists(path):
            with open(path) as fh:
                report = json.load(fh)
        a, f, why = workloads.gate_report(argv[0], code, report)
        cfg = pconfig.load_config(argv[argv.index("--config") + 1])
        if "--seed" in argv:
            cfg = dataclasses.replace(cfg, seed=int(argv[argv.index("--seed") + 1]))
        if report is not None and report.get("config_hash") != pconfig.config_hash(cfg):
            f, why = a, why + [f"{argv[0]}: report config_hash {report.get('config_hash')} "
                               f"does not match the pinned config"]
        attempted += a
        failed += f
        reasons += why
    if reasons and not failed:  # set-up or option failures fail the whole repetition
        failed = attempted
    inputs = {}
    for argv in wl.setup:
        out_dir = argv[argv.index("--out") + 1]
        for name in sorted(os.listdir(out_dir)):
            inputs[f"{out_dir}/{name}"] = _sha256(os.path.join(out_dir, name))

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "t_setup_end": t_setup_end,
        "import_s": import_s,
        "command_walls": walls,
        "wall_s": sum(walls),
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "host_steal_s": steal1 - steal0,
        "exit_codes": codes,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "configs": configs,
        "inputs": inputs,
        "env": {**_versions(), **{k: os.environ.get(k) for k in workloads.THREAD_ENV}},
        "cli_output": log.getvalue()[-4000:],
    }
    if tracer:
        values, detail = tracer.metrics(threading.get_ident())
        result["layers"] = values
        result["trace"] = detail
        tracer.write_spans(args.result + ".spans.jsonl.gz")
    if counter:
        result["layers"] = {
            "py.calls": counter.total,
            "solver.lstsq.alloc_peak_mb": alloc.peak / 2**20,
        }
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
