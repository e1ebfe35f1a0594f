"""Smoke check of the benchmark at small size; takes about half a minute.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json with ``--small``, untraced and traced,
and fails unless each run passes its output checks, prints every metric
that BENCHMARK.json names with that metric's unit, and, when traced, records
a span in every module of the program. It also runs the benchmark from a
copy holding only BENCHMARK.json and the benchmark's directories, where it
must fail without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = {"synth", "geometry", "dataset_io", "boxes", "training", "retrieval", "cli"}
TIMEOUT_S = 180


def run(cwd: Path, spec: dict, workload: str, trace: int):
    argv = [sys.executable, *spec["command"][1:], "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = run(ROOT, spec, workload, trace)
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    context = json.loads(lines[-2])["context"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{where}: checks failed: {result}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        errors.append(f"{where}: missing {sorted(set(wanted) - set(got))}, "
                      f"unexpected {sorted(set(got) - set(wanted))}")
    for name, metric in got.items():
        value = metric["value"]
        if metric["unit"] != wanted.get(name, metric["unit"]):
            errors.append(f"{where}: {name} unit {metric['unit']}, want {wanted[name]}")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            errors.append(f"{where}: {name} = {value!r}")
        elif not trace and value == 0:
            errors.append(f"{where}: end-to-end metric {name} is 0")
    if trace:
        spans = json.loads((ROOT / context["spans_file"]).read_text())["spans"]
        missing = LAYERS - {s["name"].split(".", 1)[0] for s in spans}
        if missing:
            errors.append(f"{where}: no span in {sorted(missing)}")
    return errors


def check_without_sources(spec: dict) -> list[str]:
    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_without_sources(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            errors += check_run(spec, workload["name"], trace)
    for error in errors:
        print(error, file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
