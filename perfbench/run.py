"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-search --seed 1 --seconds 30 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` is the separate traced run that reports per-layer metrics.
Every metric is printed by name and unit, followed by one ``record`` line
(host, git SHA, seed, sizes, sample counts and every reported value) and,
last, one JSON object: ``{"correct", "attempted", "failed", "metrics"}``
holding the gated end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).

The program is imported from ``src/`` of the checkout this file lives in
and nowhere else; without it the run fails before measuring anything.
Exit status is 1 when any correctness or determinism check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def bootstrap() -> None:
    """Import the program from this checkout's ``src/``, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.stderr.write(
            f"perfbench: repro imported from {repro.__file__}, not {SRC}\n")
        raise SystemExit(2)


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    bootstrap()
    import catalog
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = workloads.RUNNERS[args.workload](
        args.seed, args.seconds, bool(args.trace))

    declared = (catalog.PER_LAYER if args.trace
                else catalog.reported_for(args.workload))
    gate = catalog.PER_LAYER if args.trace else catalog.GATED
    metrics = {}
    for m in gate:
        value = out.metrics.get(m.name)
        if value is None or not math.isfinite(value):
            out.errors.append(f"metric {m.name} was not measured")
            continue
        metrics[m.name] = {"value": value, "unit": m.unit}

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for m in declared:
        value = out.metrics.get(m.name, float("nan"))
        note = f"  ({out.absent[m.name]})" if m.name in out.absent else ""
        print(f"  {m.name} = {value:.6g} {m.unit}{note}")
    for err in out.errors:
        print(f"  FAIL {err}")
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": host(), "git_sha": git_sha(),
        "sizes": out.sizes, "samples": out.samples,
        "correct": out.correct, "attempted": out.attempted,
        "failed": out.failed, "errors": out.errors,
        "metrics": out.metrics, "absent": out.absent,
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": out.correct, "attempted": max(out.attempted, 1),
        "failed": out.failed, "metrics": metrics,
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
