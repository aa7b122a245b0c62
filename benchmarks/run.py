"""paracoh benchmark: one workload, fresh-interpreter repetitions, one result.

    python3 benchmarks/run.py --workload deg1_wide|top_d4|primitive_d3|checks \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition is a new interpreter
(rep.py) with the pinned thread environment, so each one starts cold and
pays set-up as a CLI user does.  Repetitions run one after another until
the next one would end more than half a repetition past `--seconds`.

--trace 0 reports the end-to-end metrics over plain repetitions.
--trace 1 runs one traced repetition (layer spans), one counting repetition
(Python calls, allocation peak) and at least one plain repetition (for the
tracing overhead), and reports the per-layer metrics.

The last line of standard output is the JSON result; a failed operation is
counted in `failed`, and a failed repetition contributes no time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("wall_tail_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]
REP_TIMEOUT_S = 170.0


def _rep(args, mode: str, index: int, run_dir: str, elapsed: float) -> dict:
    """Run one repetition to completion; returns its result (ok=False on failure)."""
    workdir = os.path.join(run_dir, f"rep{index}")
    result_path = os.path.join(run_dir, f"rep{index}-{mode}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--workdir", workdir, "--result", result_path, "--scale", args.scale,
    ]
    env = dict(os.environ, **(workloads.COUNTING_ENV if mode == "counting" else workloads.THREAD_ENV))
    t_spawn = time.monotonic()
    with open(os.path.join(run_dir, f"rep{index}-{mode}.log"), "w") as log:
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(10.0, REP_TIMEOUT_S - elapsed))
            code = proc.returncode
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            code = "timeout"
    duration = time.monotonic() - t_spawn
    shutil.rmtree(workdir, ignore_errors=True)
    res = {}
    if code == 0 and os.path.exists(result_path):
        with open(result_path) as fh:
            res = json.load(fh)
    if not res:
        n_ops = len(workloads.build(args.workload, args.seed, args.scale).commands)
        res = {"attempted": n_ops, "failed": n_ops,
               "reasons": [f"repetition exited with {code}; see {log.name}"]}
    res.update(mode=mode, exit=code, duration_s=duration, ok=code == 0 and res["failed"] == 0)
    if "t_setup_end" in res:
        res["setup_s"] = res["t_setup_end"] - t_spawn
    return res


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def end_to_end(plain: list[dict]) -> dict:
    walls = [r["wall_s"] for r in plain]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "wall_s": statistics.median(walls),
        "wall_tail_s": max(walls),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(traced: dict, counting: dict, plain: list[dict]) -> dict:
    values = dict(traced["layers"])
    values.update(counting["layers"])
    base = statistics.median(r["wall_s"] for r in plain)
    values["trace.overhead_share"] = (traced["wall_s"] - base) / base
    return values


def _print_env(rep: dict) -> None:
    env = rep["env"]
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for fname, info in rep["configs"].items():
        print(f"config {fname}: hash={info['config_hash']} sha256={info['sha256'][:16]} "
              + " ".join(f"{k}={info[k]}" for k in workloads.PINNED))
    for path, digest in rep["inputs"].items():
        print(f"input {path}: sha256={digest}")


def _print_trace(traced: dict, values: dict) -> None:
    detail = traced["trace"]
    print(f"trace: {detail['span_count']} spans over {detail['timed_s']:.3f} s timed; "
          f"unattributed {detail['unattributed_s']:.3f} s of {detail['busy_s']:.3f} busy s "
          f"= {values['trace.unattributed_share']:.4f}; overhead {values['trace.overhead_share']:+.4f}")
    for c in detail["top_unwrapped_callers"]:
        print(f"  unwrapped caller {c['caller']}: {c['sample_share']:.1%} of "
              f"{detail['unattributed_samples']} samples, ~{c['est_s']:.3f} s")
    for c in detail["unwrapped_in_layers"]:
        print(f"  unwrapped in {c['layer']}: {c['caller']}, {c['sample_share']:.1%} of "
              f"{detail['busy_samples']} busy samples, ~{c['est_s']:.3f} s")
    for name, self_s in detail["top_self_s"]:
        print(f"  self time {name}: {self_s:.4f} s")
    incl = detail["inclusive_s"]
    if "solver.verify" in incl:
        verify, leaf = incl["solver.verify"], incl.get("solver.rec.d1", 0.0)
        top = incl.get("solver.solve_top", 0.0)
        verdict = "verify dominates" if verify > leaf else "leaf solves dominate"
        print(f"  verify vs leaf solves: solver.verify {verify:.4f} s inclusive "
              f"({values['solver.verify.self_s']:.4f} s self), solver.rec.d1 leaf solves "
              f"{leaf:.4f} s inclusive, of solver.solve_top {top:.4f} s: {verdict}")
    if detail["absent"]:
        print("  absent (layer never called): " + " ".join(detail["absent"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: tiny sizes, for the smoke test only")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "paracoh", "cli.py")):
        print(f"run.py: no paracoh sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2

    run_dir = os.path.join(HERE, ".runs", f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    start = time.monotonic()
    plan = ["traced", "counting"] if args.trace else []
    reps = []
    while True:
        mode = plan.pop(0) if plan else "plain"
        reps.append(_rep(args, mode, len(reps), run_dir, time.monotonic() - start))
        elapsed = time.monotonic() - start
        plain_durations = [r["duration_s"] for r in reps if r["mode"] == "plain"]
        if plan or not plain_durations:
            continue
        if elapsed + 0.5 * statistics.median(plain_durations) >= args.seconds or elapsed > 120.0:
            break

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    digests = {json.dumps(r["inputs"], sort_keys=True) for r in reps if "inputs" in r}
    correct = failed == 0 and all(r["ok"] for r in reps) and len(digests) == 1
    plain = [r for r in reps if r["mode"] == "plain" and r["ok"]]
    by_mode = {r["mode"]: r for r in reps if r["ok"]}

    print(f"paracoh benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"scale={args.scale} repetitions={len(reps)} (fresh interpreter each) "
          f"in {time.monotonic() - start:.1f} s")
    if plain:
        _print_env(plain[0])
    for r in reps:
        if r["reasons"]:
            print(f"FAILED {r['mode']} repetition: " + "; ".join(r["reasons"][:5]))
    if len(digests) > 1:
        print("FAILED: the same seed gave different inputs across repetitions")

    metrics = {}
    if plain:
        e2e = end_to_end(plain)
        n = len(plain)
        notes = {
            "wall_tail_s": f"max of {n}: a percentile with >=10 samples beyond it needs >=11",
            "setup_s": f"median of {n}: spawn, interpreter, import paracoh, configs and gen",
        }
        for name, unit in END_TO_END:
            print(f"  {name:<12} {e2e[name]:>12.6g} {unit:<3} {notes.get(name, f'median of {n}')}")
        print(f"  {'fail_rate':<12} {failed / attempted:>12.6g} ratio "
              f"{failed} of {attempted} operations failed")
        steal = statistics.median(r["host_steal_s"] for r in plain)
        print(f"  host steal over all CPUs during the timed phase: median {steal:.3f} s "
              f"(time the shared host ran other work on this machine's CPUs)")
        if not args.trace:
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    if args.trace and plain and "traced" in by_mode and "counting" in by_mode:
        values = per_layer(by_mode["traced"], by_mode["counting"], plain)
        _print_trace(by_mode["traced"], values)
        for name, unit, _ in layertrace.METRICS:
            print(f"  {name:<36} {_fmt(values[name]):>14} {unit}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in layertrace.METRICS}

    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump({"args": vars(args), "repetitions": reps, "metrics": metrics}, fh, indent=1)
    print(f"record: {os.path.relpath(run_dir, ROOT)}/record.json")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
