"""Record one entry of the bench trajectory.

    python3 perfbench/record.py --seeds 7 8

Runs every workload of BENCHMARK.json at each seed, untraced and traced,
one run at a time, and writes the runs' contexts and results to
perfbench/trajectory/BENCH_<commit>.json. Exits non-zero if any run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import ROOT, git_commit

TIMEOUT_S = 900


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7])
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    failed = False
    for workload in spec["workloads"]:
        for seed in args.seeds:
            for trace in (0, 1):
                argv = [sys.executable, *spec["command"][1:], "--workload", workload["name"],
                        "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                        "--trace", str(trace)]
                proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                      timeout=TIMEOUT_S)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or len(lines) < 2:
                    print(f"{workload['name']} seed {seed} trace {trace}: exit "
                          f"{proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                    failed = True
                    continue
                runs.append({"context": json.loads(lines[-2])["context"],
                             "result": json.loads(lines[-1])})
                print(f"{workload['name']} seed {seed} trace {trace}: ok", flush=True)
    commit = git_commit(ROOT)
    out = ROOT / "perfbench" / "trajectory" / f"BENCH_{commit[:7]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"commit": commit, "seeds": args.seeds, "runs": runs},
                              indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
