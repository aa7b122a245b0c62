"""Write the reference report set and print one `sha256  file` line per file.

The set is the reports and `gen` inputs of the built-in default config at
d = 1, 2, 3, and the reports of the d = 4 factor slice principal(s) x
complementary(0.9) x discrete(1) x principal(3) with s = 1, 1.5, 2, 2.5
(which `default_config` cannot build), each with seeds 0, 1, 2:

    solve-top          d=1 at K=32 and K=512, d=2 at K=32 and K=512,
                       d=3 at K=32, the d=4 slice at K=8
    verify-invariants  d=2
    sweep-bounds       d=2
    solve-form         --degree 1 at d=2 (K=32) and d=3 (K=16),
                       --degree 2 at d=3 (K=32), --degree 2 and --degree 3
                       on the d=4 slice at K=8
    gen                --kind tensor at d=2 (K=32),
                       --kind form --degree 1 and --degree 2 at d=3 (K=16)

Reports go to a temporary directory that is removed afterwards, or to DIR
with `--keep DIR`, which keeps them; file names are printed relative to it.
Two checkouts whose outputs are identical write byte-identical reports for
this set:

    python3 tools/report_digest.py > after.txt
    diff before.txt after.txt

When the hashes differ, keep both sets and list the fields that moved with
`tools/report_diff.py`:

    python3 tools/report_digest.py --keep /tmp/reports-before  # in the other checkout
    python3 tools/report_digest.py --keep /tmp/reports-after
    python3 tools/report_diff.py /tmp/reports-before /tmp/reports-after

The package is imported from the `src/` next to this script, so running the
copy in another checkout hashes that checkout's code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from paracoh import experiments  # noqa: E402
from paracoh.config import ComponentConfig, ExperimentConfig, default_config  # noqa: E402
from paracoh.params import SeriesParam  # noqa: E402


def d4_slice(seed: int, k_per_axis: int) -> ExperimentConfig:
    """principal(s) x complementary(0.9) x discrete(1) x principal(3)."""
    tail = (SeriesParam.complementary(0.9), SeriesParam.discrete(1), SeriesParam.principal(3.0))
    comps = tuple(
        ComponentConfig(f"c{i}", (SeriesParam.principal(s),) + tail)
        for i, s in enumerate((1.0, 1.5, 2.0, 2.5))
    )
    return ExperimentConfig(components=comps, seed=seed, k_per_axis=k_per_axis)


def default(d: int):
    return lambda seed, k_per_axis: default_config(d=d, seed=seed, k_per_axis=k_per_axis)


def report(command):
    """A report command as a writer of its report into a directory."""
    return lambda cfg, out: experiments.write_report(command(cfg), out)


def gen(kind: str, degree: int | None = None):
    """`gen --kind KIND [--degree DEGREE]` as a writer into a directory."""
    return lambda cfg, out: experiments.cmd_gen(cfg, kind, degree, out)


# (directory, config of (seed, K), K, writer of the config's files into a directory)
RUNS = [
    ("solve-top-d1-k32", default(1), 32, report(experiments.cmd_solve_top)),
    ("solve-top-d1-k512", default(1), 512, report(experiments.cmd_solve_top)),
    ("solve-top-d2", default(2), 32, report(experiments.cmd_solve_top)),
    ("solve-top-d2-k512", default(2), 512, report(experiments.cmd_solve_top)),
    ("solve-top-d3", default(3), 32, report(experiments.cmd_solve_top)),
    ("solve-top-d4-k8", d4_slice, 8, report(experiments.cmd_solve_top)),
    ("verify-invariants", default(2), 32, report(experiments.cmd_verify_invariants)),
    ("sweep-bounds", default(2), 32, report(experiments.cmd_sweep_bounds)),
    ("solve-form-deg1-d2", default(2), 32, report(lambda cfg: experiments.cmd_solve_form(cfg, 1))),
    ("solve-form-deg1-d3-k16", default(3), 16,
     report(lambda cfg: experiments.cmd_solve_form(cfg, 1))),
    ("solve-form-deg2-d3", default(3), 32, report(lambda cfg: experiments.cmd_solve_form(cfg, 2))),
    ("solve-form-deg2-d4-k8", d4_slice, 8, report(lambda cfg: experiments.cmd_solve_form(cfg, 2))),
    ("solve-form-deg3-d4-k8", d4_slice, 8, report(lambda cfg: experiments.cmd_solve_form(cfg, 3))),
    ("gen-tensor-d2", default(2), 32, gen("tensor")),
    ("gen-form-deg1-d3-k16", default(3), 16, gen("form", 1)),
    ("gen-form-deg2-d3-k16", default(3), 16, gen("form", 2)),
]
SEEDS = (0, 1, 2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="DIR", help="write the reports to DIR and keep them")
    args = parser.parse_args(argv)
    if args.keep:
        if os.path.isdir(args.keep) and os.listdir(args.keep):
            parser.error(f"--keep {args.keep}: directory is not empty")
        os.makedirs(args.keep, exist_ok=True)
        where = contextlib.nullcontext(args.keep)
    else:
        where = tempfile.TemporaryDirectory(prefix="report-digest-")
    with where as root:
        for seed in SEEDS:
            for name, config, k, write in RUNS:
                write(config(seed, k), os.path.join(root, f"seed{seed}", name))
        paths = []
        for dirpath, _, files in os.walk(root):
            paths += [os.path.join(dirpath, f) for f in files if f.endswith((".json", ".csv"))]
        for path in sorted(paths):
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            print(f"{digest}  {os.path.relpath(path, root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
