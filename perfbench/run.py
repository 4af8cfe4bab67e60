"""End-to-end benchmark of the allocation service: allocate and campaign over HTTP.

Run from the repository root::

    python3 perfbench/run.py --workload alloc-miss --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Each run spawns a fresh ``repro serve --store <tmp>/jobs.db --workers 2``
(several times, to time set-up), drives it from this single process with
closed-loop callers using the public ``AllocationClient``, then checks every
answer outside the timed window.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` splits the window into an untraced half and a half
that samples server traces, and reports the per-layer metrics of
:mod:`layers`.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; any wrong answer
makes the exit status non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name of bench.WORKLOADS, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    if args.workload != "all" and args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)} or all")
    names = list(bench.WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    all_correct = True
    try:
        for name in names:
            result, lines = bench.run_workload(name, args.seed, args.seconds,
                                               bool(args.trace), workdir / name)
            all_correct &= result["correct"]
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
