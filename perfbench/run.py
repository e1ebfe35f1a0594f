"""boxoverlap benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload survey-dense96 --seed 7 --seconds 10 --trace 0

The program is imported from the checkout's ``src/`` and runs in this one
process on one thread; workloads.py describes the stages of a run. Inputs
come from ``--seed``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics from in-memory
spans with ``--trace 1``. Times are CPU time of this process scaled to a
nominal machine speed (see speed.py). The line before the result holds the
run context: machine, versions, commit, sample counts and the sha256 of
``pairs.csv`` and ``metrics.json``. Both lines are also written to
``.bench_out/`` in the checkout, with the spans of a traced run. The exit
code is 1 when any output check fails and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("survey-dense96", "groundtruth-sparse", "gallery-5000")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = root / ".git"
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
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="wall-clock length of the serve stage")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="seconds-long inputs for the smoke check")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "boxoverlap" / "__init__.py").is_file():
        print(f"error: no boxoverlap sources in {src}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import numpy
    import scipy

    import workloads
    import_s = time.process_time()  # CPU time since the interpreter started

    workload = workloads.WORKLOADS[args.workload]
    min_samples = workloads.MIN_SAMPLES
    if args.small:
        workload, min_samples = workloads.small(workload), 20
    out = ROOT / ".bench_out"
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    work = out / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, context, tracer = workloads.run(
            workload, args.seed, args.seconds, bool(args.trace), work, min_samples,
            import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    context.update({
        "small": args.small,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(ROOT),
    })
    if args.trace:
        spans_file = out / f"spans-{tag}.json"
        tracer.dump(spans_file)
        context["spans_file"] = str(spans_file.relative_to(ROOT))
        context["span_layers"] = sorted(tracer.layers())
    (out / f"run-{tag}.json").write_text(
        json.dumps({"context": context, "result": result}, indent=1, sort_keys=True))
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
