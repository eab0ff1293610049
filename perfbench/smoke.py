#!/usr/bin/env python3
"""Smoke run of the benchmark: every workload at tiny size, untraced and traced.

    python3 perfbench/smoke.py

Checks that each run exits 0 with the final JSON line the contract asks for,
that every metric of BENCHMARK.json is present with its unit, and that each
workload's report holds the per-operation metrics that apply to it. It also
checks that run.py fails, printing no result, in a directory that holds only
BENCHMARK.json and this benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-paper", "search-paper", "desk")
OPERATION_METRICS = {
    "train-paper": {"train_ms_per_iter.sl": "ms", "train_ms_per_iter.aggregated": "ms",
                    "train_ms_per_iter.visreg": "ms"},
    "search-paper": {"eval_qps": "1/s", "search_ms.p50": "ms", "search.oov_failed": "count"},
    "desk": {"train_ms_per_iter.sl": "ms", "train_ms_per_iter.aggregated": "ms",
             "train_ms_per_iter.visreg": "ms", "eval_qps": "1/s", "search_ms.p50": "ms",
             "search_ms.p90": "ms", "quality.mean_dcg": "DCG@25"},
}


def run(script: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_run(workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    proc = run(HERE / "run.py", "--workload", workload, "--size", "tiny", "--seconds", "1",
               "--seed", "1", "--trace", str(trace))
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: final line has keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
    # Only search-paper's out-of-vocabulary queries may fail on the seed code.
    if workload != "search-paper" and result["failed"]:
        problems.append(f"{where}: {result['failed']} failed operations")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}, "
                        f"units {[n for n in got if n in expected and got[n] != expected[n]]}")
    if trace == 0:
        line = next(l for l in proc.stdout.splitlines() if l.startswith("result file "))
        report = json.loads((ROOT / line.removeprefix("result file ")).read_text())
        ops = report["operations"]
        for name, unit in OPERATION_METRICS[workload].items():
            if name not in ops or ops[name]["unit"] != unit:
                problems.append(f"{where}: report lacks {name} in {unit}")
        if report["failed_frac"]["unit"] != "ratio":
            problems.append(f"{where}: failed_frac unit {report['failed_frac']['unit']}")
    return problems


def check_bare_directory() -> list[str]:
    """run.py must fail, printing no result, without the program's sources."""
    bare = ROOT / ".perfbench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare / HERE.name / "run.py", "--workload", "desk", "--size", "tiny",
                   "--seconds", "1", "--seed", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            found = check_run(workload, trace, expected)
            print(f"{'FAIL' if found else 'ok  '} {workload} --trace {trace}", flush=True)
            problems += found
    found = check_bare_directory()
    print(f"{'FAIL' if found else 'ok  '} fails without the program's sources")
    problems += found
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
