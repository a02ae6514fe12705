"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cohort-scan --seed 1 --seconds 30 --trace 0

``--trace 0`` measures every end-to-end metric; ``--trace 1`` runs the
traced pass and reports every per-layer metric instead. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the settings the
numbers were measured under. The run refuses to start (exit status 2) when
the program's source is missing or an environment knob that changes the
measured program is set away from its default.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

#: Environment knobs that change the measured program, with the values that
#: mean "default" (unset counts as the empty string).
KNOBS = {
    "REPRO_FLOW_MODE": ("", "eager"),
    "REPRO_PLAN_CACHE": ("", "0", "false", "no"),
    "REPRO_SMPC_KERNEL": ("", "auto"),
    "REPRO_FEDERATION_PARALLELISM": ("",),
    "REPRO_TRACE": ("", "0", "false", "no"),
    "REPRO_LOG_LEVEL": ("", "warning"),
}

END_TO_END = {
    "setup_s": "s",
    "experiment_p50_s": "s",
    "experiment_tail_s": "s",
    "throughput_eps": "1/s",
    "cpu_s_per_exp": "s",
    "net_model_s_per_exp": "s",
    "peak_rss_mb": "MB",
}


class Refused(Exception):
    """The run cannot measure the program as it is meant to be measured."""


def check_knobs(environ) -> None:
    for name, defaults in KNOBS.items():
        value = environ.get(name, "").strip().lower()
        if value not in defaults:
            raise Refused(f"{name}={environ[name]!r} changes the measured program; unset it")


def import_program():
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise Refused(f"program source not found under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        raise Refused(f"imported repro from {repro.__file__}, not from {SOURCE}")
    return repro


def settings(args, workload) -> dict:
    """Everything a result depends on besides the code: knobs, host, seeds."""
    import numpy

    from perfbench.workloads import DATASETS
    from repro.smpc.field import active_kernel

    knobs = {name: os.environ.get(name, "(unset)") for name in KNOBS}
    knobs["effective_smpc_kernel"] = active_kernel()
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "knobs": knobs,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cohort_seeds": [args.seed * len(DATASETS) + i for i in range(len(DATASETS))],
        "request_seed": [args.seed, 1],
        "arrival_seed": [args.seed, 2],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_knobs(os.environ)
        import_program()
    except Refused as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 2

    from perfbench import trace, workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = tempfile.mkdtemp(prefix=".work-", dir=ROOT / "perfbench")
    try:
        if args.trace:
            outcome = trace.run(workload, args.seed, args.seconds, work_dir)
            units = dict(trace.PER_LAYER)
        else:
            outcome = workloads.measure(workload, args.seed, args.seconds, work_dir)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    checker = outcome["checker"]
    for failure in checker.failures:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    print(json.dumps({"settings": settings(args, workload), **outcome["info"]}))
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {
            name: {"value": float(outcome["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
