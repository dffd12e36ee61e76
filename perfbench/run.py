"""slicetl benchmark: the four harness entry points, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload train_smoke3 --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 28 --trace 0

Workloads (see ``workloads.py``): ``train_smoke3`` (``run_madrl``),
``baseline_full12`` (``run_baseline``), ``similarity_full12``
(``run_similarity``) and ``transfer_smoke3`` (``run_transfer``).

A run starts ``WORKERS`` fresh worker processes one after another, with
BLAS threads pinned to 1. Each worker imports the package from ``src/``,
loads and adapts the builtin config (and, for ``transfer_smoke3``, trains
the artifacts the transfer reads); that is its set-up time. It then calls
the workload's harness entry point repeatedly for its share of
``--seconds`` and checks every call's outputs.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median over the
run's calls of one harness call's wall clock), ``cell_slots_per_s`` (cells
x network slots stepped in the call / ``wall_s``), ``setup_s`` (median over
the workers) and ``peak_rss_mb`` (median of the workers' ``ru_maxrss``).
Times are normalised for the host's current speed by a reference kernel
timed around each call (see ``worker.py``); raw times are in the record.
``--trace 1`` alternates untraced and traced calls and reports, per
wrapped function, ``<module>.<function>.calls|total_s|self_s`` from the
fastest traced call, plus ``nn.flops``, the phases of ``agent.train_step``
and the tracing overhead (median traced / untraced ``wall_s``). Self
times include the wrapper cost of the function's traced children.

Every call must produce the outputs its config implies (``workloads.py``);
a call that raises or fails a check counts in ``failed``. A run is
``correct`` only when no call failed, every call's quality values and
output digests agree (one seed, one result), and, in a traced run, every
call count equals the count derived from the config. The full record of a
run (per-call timings, quality values, sha256 digests, call counts and
the environment) is written to ``.bench_out/results/``; spans of a traced
run go to ``.bench_out/``. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LABELS, TRAIN_STEP_PHASES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("train_smoke3", "baseline_full12", "similarity_full12",
                  "transfer_smoke3")
WORKERS = 3
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "cell_slots_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not run (missing sources, crashed worker, timeout)."""


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""

    units = {}
    for label in LABELS:
        units[f"{label}.calls"] = "count"
        units[f"{label}.total_s"] = "s"
        units[f"{label}.self_s"] = "s"
    units["nn.flops"] = "count"
    for phase in TRAIN_STEP_PHASES:
        units[f"agent.train_step.{phase}"] = "s"
    units["tracing.wall_s"] = "s"
    units["tracing.overhead_ratio"] = "ratio"
    return units


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_workers(workload: str, seed: int, seconds: int, trace: int,
                 deadline: float) -> list[dict]:
    results = []
    env = _worker_env()
    for index in range(WORKERS):
        work = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}-w{index}"
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed before all workers ran")
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
                 "--workload", workload, "--seed", str(seed),
                 "--share", str(seconds / WORKERS), "--trace", str(trace),
                 "--work", str(work), "--spawned-at", repr(spawned_at)],
                env=env, capture_output=True, text=True, timeout=remaining,
                cwd=ROOT,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {index} of {workload} timed out") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(
                f"worker {index} of {workload} exited {proc.returncode}:\n"
                f"{proc.stderr[-4000:]}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def aggregate(workers: list[dict], trace: int) -> dict:
    """Fold the workers' records into the result line and the full record."""

    calls = [c for w in workers for c in w["calls"]]
    failed = [c for c in calls if c["error"] is not None]
    ok = [c for c in calls if c["error"] is None]
    outcomes = {json.dumps([c["quality"], c["digests"]], sort_keys=True) for c in ok}
    problems = [c["error"] for c in failed]
    if len(outcomes) > 1:
        problems.append(f"calls with one seed disagree: {sorted(outcomes)}")
    untraced = [c for c in ok if not c["traced"]]
    traced = [c for c in ok if c["traced"]]
    if not untraced or (trace and not traced):
        problems.append("no successful call to measure")

    # Times are normalised to a reference speed (see worker.py); the raw
    # timings of every call are in the record.
    metrics: dict[str, float] = {}
    if untraced and not trace:
        wall = statistics.median(c["norm_wall_s"] for c in untraced)
        metrics = {
            "wall_s": wall,
            "cell_slots_per_s": workers[0]["cell_slots"] / wall,
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
        }
    elif untraced and traced:
        # Per-layer times come from the least disturbed traced call.
        fastest = min(traced, key=lambda c: c["wall_s"])
        for label, spans in fastest["layers"].items():
            counts = {c["layers"][label]["calls"] for c in traced}
            if len(counts) > 1:
                problems.append(f"{label}: call count differs between calls {counts}")
            for part in ("calls", "total_s", "self_s"):
                metrics[f"{label}.{part}"] = spans[part]
        if len({c["flops"] for c in traced}) > 1:
            problems.append("nn.flops differs between calls")
        metrics["nn.flops"] = fastest["flops"]
        for phase, seconds in fastest["train_step_phases"].items():
            metrics[f"agent.train_step.{phase}"] = seconds
        metrics["tracing.wall_s"] = statistics.median(c["norm_wall_s"] for c in traced)
        metrics["tracing.overhead_ratio"] = metrics["tracing.wall_s"] / statistics.median(
            c["norm_wall_s"] for c in untraced)
        if list(metrics) != list(layer_metric_units()):
            problems.append("per-layer metric set differs from the declared one")

    return {
        "correct": not problems,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": metrics,
        "problems": problems,
        "quality": ok[0]["quality"] if ok else {},
        "digests": ok[0]["digests"] if ok else {},
        "error_rate": len(failed) / len(calls) if calls else 1.0,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int,
                 deadline: float) -> dict:
    workers = _run_workers(workload, seed, seconds, trace, deadline)
    summary = aggregate(workers, trace)
    units = layer_metric_units() if trace else END_TO_END_UNITS
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        **summary,
        "units": {name: units[name] for name in summary["metrics"]},
        "calls": [{k: c[k] for k in ("traced", "wall_s", "reference_s", "norm_wall_s",
                                     "error")}
                  for w in workers for c in w["calls"]],
        "raw_setup_s": [w["raw_setup_s"] for w in workers],
        "setup_reference_s": [w["setup_reference_s"] for w in workers],
        "expected_calls": workers[0]["expected_calls"],
        "spans_files": [w["spans_file"] for w in workers if w["spans_file"]],
        "environment": {
            "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "thread_env": {var: _worker_env()[var] for var in THREAD_VARS},
            **workers[0]["environment"],
            "git": _git_state(),
        },
    }
    results = ROOT / ".bench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return record


def _print_record(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"calls={record['attempted']} failed={record['failed']} "
          f"error_rate={record['error_rate']}")
    for name, value in record["metrics"].items():
        print(f"{name} {value} {record['units'][name]}")
    for name, value in record["quality"].items():
        print(f"{name} {value}")
    for name, digest in record["digests"].items():
        print(f"sha256 {name} {digest}")
    for problem in record["problems"]:
        print(f"PROBLEM {problem}")


def result_line(record: dict) -> dict:
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": record["units"][name]}
                    for name, value in record["metrics"].items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="slicetl benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (ROOT / "src" / "slicetl" / "__init__.py").is_file():
        print(f"no slicetl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            _print_record(record)
            records.append(record)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        print(json.dumps(result_line(records[0])))
    else:
        print(json.dumps({r["workload"]: result_line(r) for r in records}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
