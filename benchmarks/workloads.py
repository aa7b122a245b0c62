"""The four benchmark workloads and the correctness gate on their reports.

A workload is a set of config documents, the `paracoh gen` calls that write
its inputs (set-up), and the CLI commands that are timed.  Every argv is
relative to the repetition's working directory.  Sizes are the measured
ones unless `scale == "smoke"`, which shrinks them for the smoke test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Thread environment of every repetition, set before numpy is imported: two
# paracoh workers on the two-CPU reference machine, one BLAS thread each, so
# the process never runs more threads than CPUs.
THREAD_ENV = {
    "PARACOH_THREADS": "2",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# The counting repetition runs one worker: its counts are then exact and
# independent of scheduling, and tracemalloc can be toggled safely.
COUNTING_ENV = {**THREAD_ENV, "PARACOH_THREADS": "1"}

# Solver options every config pins; the gate rejects reports made with others,
# so no gain can come from smaller pads, looser tolerances or fewer refinements.
PINNED = {"pad": 8, "tol_kernel": 1e-8, "tol_residual": 1e-8, "max_refine": 3}
T_LIST = [1.0, 2.0]

# Operations are component solves and check rows; these commands produce them.
SOLVE_COMMANDS = ("solve-top", "solve-form")
CHECK_COMMANDS = ("verify-invariants", "sweep-bounds")


@dataclass(frozen=True)
class Workload:
    configs: dict          # file name -> config document
    setup: list            # gen argvs
    commands: list         # timed argvs; each writes <out>/<command>.json

    def report_paths(self) -> list[tuple[list, str]]:
        """(argv, report path) for every timed command."""
        out = []
        for argv in self.commands:
            out_dir = argv[argv.index("--out") + 1]
            out.append((argv, f"{out_dir}/{argv[0]}.json"))
        return out


def principal(s):
    return {"kind": "principal", "nu_im": float(s)}


def complementary(nu):
    return {"kind": "complementary", "nu": float(nu)}


def discrete(n):
    return {"kind": "discrete", "n": int(n)}


def config_doc(components, k_per_axis, seed):
    return {
        "components": [{"label": label, "factors": factors} for label, factors in components],
        "k_per_axis": k_per_axis,
        "t_list": T_LIST,
        "seed": seed,
        "eps0": 0.05,
        "nu0": 0.95,
        **PINNED,
    }


def _inputs(flag_files):
    argv = []
    for path in flag_files:
        argv += ["--input", path]
    return argv


def _slice_components(d):
    """principal(s) x complementary(0.9) x discrete(1) x principal(3), cut to d."""
    tail = [complementary(0.9), discrete(1), principal(3.0)][: d - 1]
    return [(f"c{i}", [principal(s)] + tail) for i, s in enumerate((1.0, 1.5, 2.0, 2.5))]


def deg1_wide(seed, smoke):
    comps = [
        ("principal", [principal(1.0)]),
        ("complementary", [complementary(0.9)]),
        ("discrete", [discrete(1)]),
    ]
    k = 64 if smoke else 1024
    files = [f"in/{label}.tensor.json" for label, _ in comps]
    return Workload(
        {"cfg.json": config_doc(comps, k, seed)},
        [["gen", "--config", "cfg.json", "--out", "in"]],
        [["solve-top", "--config", "cfg.json", *_inputs(files), "--out", "out"]],
    )


def top_d4(seed, smoke):
    comps = _slice_components(4)
    k = 4 if smoke else 8
    files = [f"in/{label}.tensor.json" for label, _ in comps]
    return Workload(
        {"cfg.json": config_doc(comps, k, seed)},
        [["gen", "--config", "cfg.json", "--out", "in"]],
        [["solve-top", "--config", "cfg.json", *_inputs(files), "--out", "out"]],
    )


def primitive_d3(seed, smoke):
    comps = _slice_components(3)
    k2, k1 = (4, 4) if smoke else (12, 16)
    f2 = [f"in2/{label}.form.json" for label, _ in comps]
    f1 = [f"in1/{label}.form.json" for label, _ in comps]
    return Workload(
        {"deg2.json": config_doc(comps, k2, seed), "deg1.json": config_doc(comps, k1, seed)},
        [
            ["gen", "--config", "deg2.json", "--kind", "form", "--degree", "2", "--out", "in2"],
            ["gen", "--config", "deg1.json", "--kind", "form", "--degree", "1", "--out", "in1"],
        ],
        [
            ["solve-form", "--degree", "2", "--config", "deg2.json", *_inputs(f2), "--out", "out2"],
            ["solve-form", "--degree", "1", "--config", "deg1.json", *_inputs(f1), "--out", "out1"],
        ],
    )


def checks(seed, smoke):
    # the CLI's built-in default config (d=2, K=32), written out so it is pinned
    comps = [
        (f"component-{i}", [principal(s), complementary(0.9)])
        for i, s in enumerate((1.0, 1.5, 2.0))
    ]
    seeds = [3 * seed] if smoke else [3 * seed + j for j in range(3)]
    commands = []
    for s in seeds:
        for cmd in CHECK_COMMANDS:
            commands.append([cmd, "--config", "cfg.json", "--seed", str(s), "--out", f"out{s}"])
    return Workload(
        {"cfg.json": config_doc(comps, 32, 3 * seed)},
        [],
        commands,
    )


BUILDERS = {f.__name__: f for f in (deg1_wide, top_d4, primitive_d3, checks)}
NAMES = tuple(BUILDERS)


def build(name: str, seed: int, scale: str = "full") -> Workload:
    return BUILDERS[name](seed, scale == "smoke")


# --- correctness gate ---------------------------------------------------------


def _over(value, tol) -> bool:
    return not (isinstance(value, (int, float)) and math.isfinite(value) and value <= tol)


def gate_report(command: str, exit_code: int, report) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) for one timed command.

    An operation is a component solve or a check row.  It fails on a nonzero
    exit code, a report with `passed: false`, any residual or defect above
    tol_residual, or a check row with `pass: false`.
    """
    tol = PINNED["tol_residual"]
    if report is None:
        return 1, 1, [f"{command}: exit {exit_code}, no report"]
    if command in SOLVE_COMMANDS:
        rows = report.get("components", [])
    else:
        rows = [row for table in report.get("tables", {}).values() for row in table]
    attempted = max(len(rows), 1)
    if exit_code != 0 or report.get("passed") is not True or not rows:
        return attempted, attempted, [
            f"{command}: exit {exit_code}, passed={report.get('passed')!r}, {len(rows)} rows"
        ]
    failed, reasons = 0, []
    for row in rows:
        bad = []
        if command in SOLVE_COMMANDS:
            for key in ("residual_rel", "kernel_defect_rel", "closedness_defect_rel"):
                if key in row and _over(row[key], tol):
                    bad.append(f"{key}={row[key]!r}")
            if "residual_rel" not in row:
                bad.append("no residual_rel")
        elif row.get("pass") is False:
            bad.append(f"pass=false value={row.get('value')!r}")
        if bad:
            failed += 1
            reasons.append(f"{command} {row.get('param')}: {', '.join(bad)}")
    return attempted, failed, reasons
