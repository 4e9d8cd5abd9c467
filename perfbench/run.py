"""Benchmark runner for the translation-conscious cache simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload miss-heavy --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` prints the per-layer metrics of a separate traced run.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The simulator is imported
from this checkout's ``src/`` and nothing else; the run starts no
process or thread, and keeps its temporary stores under
``.perfbench_tmp/`` in the checkout, deleted on exit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import tempfile
import threading
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def load_program() -> types.SimpleNamespace:
    """Import the simulator from this checkout's sources."""
    repro = importlib.import_module("repro")
    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {SRC}")
    modules = {"api": "repro.api", "service": "repro.service",
               "runner": "repro.experiments.runner",
               "parallel": "repro.experiments.parallel",
               "recall": "repro.stats.recall",
               "report": "repro.stats.report",
               "registry": "repro.workloads.registry"}
    return types.SimpleNamespace(**{
        key: importlib.import_module(name) for key, name in modules.items()})


def pin_environment(tmp: Path) -> None:
    """Nothing outside the seed may change the load: no worker pool
    from $REPRO_JOBS, no invariant checkers, no user-level cache."""
    os.environ.pop("REPRO_JOBS", None)
    os.environ.pop("REPRO_CHECK", None)
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "cache")


def leftovers(tmp: Path) -> list:
    """Child processes, threads or temporary stores still there (there
    must be none)."""
    import multiprocessing  # here, so set-up pays for it only if repro does
    found = [f"process {p.pid}" for p in multiprocessing.active_children()]
    found += [f"thread {t.name}" for t in threading.enumerate()
              if t is not threading.main_thread()]
    if tmp.exists():
        found.append(f"temporary store {tmp}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed <= 0 or args.seconds <= 0:
        parser.error("--seed and --seconds must be positive")

    # Set-up is timed once, cold: the first import of the program and
    # of everything it needs, then its lazy initialisation.  Repeating
    # it in one process would re-pay neither the stdlib nor numpy.
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from clock import Stopwatch
    setup_watch = Stopwatch()
    from workloads import PAPER_FIG14_GMEAN, WORKLOADS, Ledger
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{' '.join(WORKLOADS)}")

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        pin_environment(tmp)
        workload = WORKLOADS[args.workload](load_program(), tmp)
        workload.prepare()
        setup_s = setup_watch.stop()

        ledger = Ledger()
        if args.trace:
            metrics = workload.trace(args.seed, ledger)
        else:
            metrics = workload.measure(args.seed, args.seconds, ledger)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run's store is still there

    left = leftovers(tmp)
    if left:
        ledger.record("clean exit", [f"{x} left behind" for x in left])
    if not args.trace:
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["success_rate"] = (
            1 - ledger.failed / max(1, ledger.attempted), "ratio")
        print(f"full_speedup_gmean {metrics['full_speedup_gmean'][0]:.4f}"
              f" (paper Fig 14 mean: {PAPER_FIG14_GMEAN})")
    for problem in ledger.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0 if not left else 1


if __name__ == "__main__":
    sys.exit(main())
