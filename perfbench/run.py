#!/usr/bin/env python3
"""text2vis benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py                         # every workload, untraced
    python3 perfbench/run.py --workload desk --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload desk --trace 1   # per-layer metrics

Run from the repository root or anywhere: the program is imported from the
`src/` directory next to this one.  The last line of output of a single
workload is one JSON object with the keys correct, attempted, failed and
metrics.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_ROUNDS = 3
WORKLOAD_NAMES = ("train-paper", "search-paper", "desk")
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> None:
    """One BLAS thread, set before numpy is imported.

    On a small shared machine a second BLAS thread waits on whichever core a
    neighbour is using, which made timings spread twice as wide.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_program() -> None:
    if not (SRC / "text2vis" / "__init__.py").is_file():
        raise SystemExit(f"error: text2vis sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import text2vis
    if Path(text2vis.__file__).resolve().parent != SRC / "text2vis":
        raise SystemExit(f"error: imported text2vis from {text2vis.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads() -> int:
    """OpenBLAS's own thread count when its library can be asked, else the setting."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return BLAS_THREADS


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a checkout of its own, e.g. an exported tree
    return lines[1]


def _source_digest() -> str:
    import hashlib
    digest = hashlib.sha256()
    for path in sorted((SRC / "text2vis").iterdir()):
        if path.is_file() and path.suffix in (".py", ".tsv"):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(workload, seed: int, size: str) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name, "seed": seed, "size": size, "dims": workload.dims,
        "cpu_model": _cpu_model(), "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _p90(values: list[float]):
    """Nearest-rank 90th percentile, only when at least 10 samples lie beyond it."""
    ordered = sorted(values)
    rank = -(-9 * len(ordered) // 10)  # ceil(0.9 n)
    return ordered[rank - 1] if len(ordered) - rank >= 10 else None


def operation_metrics(ops: list, workload) -> dict:
    """The per-operation metrics of one untraced run, where they apply.

    Values are {"value", "unit", "n"}, n being the sample count.
    """
    out = {}
    for strategy in ("sl", "aggregated", "visreg"):
        samples = [1000 * op.wall_s / op.units for op in ops
                   if op.ok and op.kind == f"train.{strategy}"]
        if samples:
            out[f"train_ms_per_iter.{strategy}"] = {
                "value": statistics.median(samples), "unit": "ms", "n": len(samples)}
    evals = [op for op in ops if op.ok and op.kind == "eval"]
    if evals:
        out["eval_qps"] = {"value": statistics.median(op.units / op.wall_s for op in evals),
                           "unit": "1/s", "n": len(evals)}
    searches = [1000 * op.wall_s for op in ops if op.ok and op.kind == "search"]
    if searches:
        out["search_ms.p50"] = {"value": statistics.median(searches), "unit": "ms",
                                "n": len(searches)}
        p90 = _p90(searches)
        if p90 is not None:
            out["search_ms.p90"] = {"value": p90, "unit": "ms", "n": len(searches)}
    oov = [op for op in ops if op.kind == "search" and op.detail.get("oov")]
    if oov:
        out["search.oov_failed"] = {"value": sum(not op.ok for op in oov), "unit": "count",
                                    "n": len(oov)}
    if workload.name == "desk" and evals:
        out["quality.mean_dcg"] = {
            "value": statistics.median(op.detail["mean_dcg"]["text2vis"] for op in evals),
            "unit": "DCG@25", "n": len(evals)}
    return out


def _run_cycles(workload, seconds: float) -> tuple[list[float], list[list]]:
    """Closed loop of set-up plus round, until `seconds` have passed and at
    least MIN_ROUNDS have run.  Set-ups are spread over the run, like the
    rounds, so that both sample the same stretches of a shared machine."""
    setups, rounds = [], []
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < seconds:
        setups.append(workload.setup())
        rounds.append(workload.run_round(len(rounds)))
    return setups, rounds


def round_seconds(rounds: list[list]) -> float:
    """Wall time of one round, from the median wall time of each kind of
    operation times how many of that kind a round holds."""
    walls: dict[str, list[float]] = {}
    for ops in rounds:
        for op in ops:
            walls.setdefault(op.kind, []).append(op.wall_s)
    return sum(len(w) / len(rounds) * statistics.median(w) for w in walls.values())


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _timed_pass(workload) -> tuple[float, list]:
    """Set-up plus round 0, timed as a whole."""
    started = time.perf_counter()
    workload.setup()
    ops = workload.run_round(0)
    return time.perf_counter() - started, ops


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    from checks import Checker
    from workloads import WORKLOADS

    run_id = f"{name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    workdir = OUT / f"work-{run_id}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, size, workdir)
        workload.generate()
        checker = Checker(require_descent=workload.checks_descent)
        report: dict = {"meta": metadata(workload, seed, size)}
        if not trace:
            setup_s, rounds = _run_cycles(workload, seconds)
            peak_rss = _peak_rss_mb()
            ops = [op for round_ops in rounds for op in round_ops]
            checker.check_all(ops)
            metrics = {
                "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                "round_s": {"value": round_seconds(rounds), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
            }
            report["operations"] = operation_metrics(ops, workload)
            report["rounds"] = len(rounds)
            report["setup_samples_s"] = setup_s
        else:
            from tracing import Tracer, per_layer_metrics
            # The same pass untraced, traced, then untraced again: the traced
            # pass against the mean of the other two is the tracing overhead,
            # with a steady drift of the machine's speed cancelled.  Each pass
            # is checked, untraced, before the next one rewrites its files.
            before_s, ops = _timed_pass(workload)
            checker.check_all(ops)
            tracer = Tracer(run_id)
            tracer.install()
            try:
                traced_s, traced_ops = _timed_pass(workload)
            finally:
                tracer.uninstall()
            checker.check_all(traced_ops)
            after_s, after_ops = _timed_pass(workload)
            checker.check_all(after_ops)
            ops += traced_ops + after_ops
            untraced_s = (before_s + after_s) / 2
            steps = {"visual": sum(op.detail.get("visual_steps", 0) for op in traced_ops),
                     "text": sum(op.detail.get("text_steps", 0) for op in traced_ops)}
            metrics = per_layer_metrics(tracer, steps, traced_s / untraced_s - 1.0)
            spans_path = OUT / f"spans-{run_id}.jsonl"
            tracer.write_spans(spans_path)
            report["spans_file"] = str(spans_path.relative_to(ROOT))
            report["untraced_s"], report["traced_s"] = untraced_s, traced_s

        failed = [op for op in ops if not op.ok]
        result = {"correct": checker.failed == 0, "attempted": len(ops),
                  "failed": len(failed), "metrics": metrics}
        report.update(result)
        report["failed_frac"] = {"value": len(failed) / len(ops), "unit": "ratio",
                                 "base": f"{len(failed)} of {len(ops)} operations"}
        report["failures"] = sorted({f"{op.kind}: " + op.error.replace("\n", " | ")
                                     for op in failed})
        result_path = OUT / f"result-{run_id}.json"
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        _print_report(report)
        print(f"result file {result_path.relative_to(ROOT)}")
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _print_report(report: dict) -> None:
    meta = report["meta"]
    print(f"workload {meta['workload']} seed {meta['seed']} size {meta['size']} "
          f"dims {json.dumps(meta['dims'], sort_keys=True)}")
    print(f"machine {meta['cpu_model']}, nproc {meta['nproc']}, python {meta['python']}, "
          f"numpy {meta['numpy']}, blas {meta['blas']['name']} {meta['blas']['version']} "
          f"x{meta['blas']['threads']} threads, commit {meta['git_commit']}, "
          f"source {meta['source_sha256'][:12]}")
    rows = dict(report.get("operations", {}))
    rows.update(report["metrics"])
    rows["failed_frac"] = report["failed_frac"]
    for name, m in rows.items():
        extra = f"  (n={m['n']})" if "n" in m else f"  ({m['base']})" if "base" in m else ""
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}{extra}")
    for failure in report["failures"]:
        print(f"  failed: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload in this process (default: each in its own)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure whole rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: set-up plus one round untraced, then traced, "
                             "reporting the per-layer metrics")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small dims for a quick smoke run")
    args = parser.parse_args(argv)

    limit_blas_threads()
    import_program()
    if args.workload is None:
        status = 0
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--size", args.size]
            status = max(status, subprocess.run(cmd).returncode)
        return status
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
