"""One benchmark worker process: set up a workload, then time its harness call.

Started by ``run.py`` with BLAS threads already pinned through the
environment. Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

MIN_CALLS = 2

# The host's speed swings by up to 1.7x for tens of seconds at a time, as
# other tenants load the core. A fixed reference kernel, timed between
# calls, measures the current speed; times are reported as
# ``measured * REFERENCE_NOMINAL_S / reference``: seconds at the speed at
# which the kernel takes REFERENCE_NOMINAL_S (about its undisturbed time
# on a 2.1 GHz Xeon).
REFERENCE_NOMINAL_S = 0.03
_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.standard_normal((32, 20))
_REF_W = [_REF_RNG.standard_normal(shape) for shape in ((20, 64), (64, 24), (24, 1))]


def reference_kernel() -> float:
    """Seconds for a fixed mix of small matmuls and interpreter work."""

    start = time.perf_counter()
    acc = 0.0
    for i in range(2500):
        h = np.maximum(_REF_X @ _REF_W[0], 0.0)
        h = np.maximum(h @ _REF_W[1], 0.0)
        acc += float((h @ _REF_W[2])[i % 32, 0])
        acc += sum({j: j * 0.5 for j in range(24)}.values())
    return time.perf_counter() - start


def _measure(prepared, share: float, trace: bool, out: Path, tracer_factory,
             ref_before: float):
    """Call the workload until ``share`` seconds are used; in trace mode,
    alternate untraced and traced calls. Each call is bracketed by
    reference-kernel timings, the first of which is ``ref_before``."""

    from layers import TRAIN_STEP_PHASES
    from workloads import CheckFailed, digests

    calls = []
    tracer = tracer_factory() if trace else None
    start = time.perf_counter()
    last = 0.0
    while len(calls) < MIN_CALLS or time.perf_counter() - start + last <= share:
        traced = trace and len(calls) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        record = {"traced": traced, "error": None}
        if traced:
            tracer.request = len(calls)
            flops_before = tracer.flops
            tracer.install()
        t0 = time.perf_counter()
        try:
            prepared.call(out)
        except Exception:  # a failed call is counted, and the run goes on
            record["error"] = traceback.format_exc(limit=3)
        finally:
            last = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        ref_after = reference_kernel()
        record["wall_s"] = last
        record["reference_s"] = (ref_before + ref_after) / 2
        record["norm_wall_s"] = last * REFERENCE_NOMINAL_S / record["reference_s"]
        ref_before = ref_after
        if record["error"] is None:
            try:
                record["quality"] = prepared.check(out)
                record["digests"] = digests(out)
            except (CheckFailed, OSError, KeyError, ValueError) as exc:
                record["error"] = f"output check: {exc!r}"
        if traced:
            summary = tracer.summary(tracer.request)
            record["layers"] = summary
            record["flops"] = tracer.flops - flops_before
            children = tracer.child_time("agent.train_step", tracer.request)
            record["train_step_phases"] = {
                phase: sum(children.get(label, 0.0) for label in labels)
                for phase, labels in TRAIN_STEP_PHASES.items()
            }
            mismatched = {
                label: (summary[label]["calls"], want)
                for label, want in prepared.expected_calls.items()
                if summary[label]["calls"] != want
            }
            leftovers = tracer.leftover_wrappers()
            if mismatched and record["error"] is None:
                record["error"] = f"call counts (got, expected): {mismatched}"
            if leftovers:
                record["error"] = f"wrappers left installed: {leftovers}"
        calls.append(record)
    return calls, tracer


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--share", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--spawned-at", required=True, type=float,
                    help="time.monotonic() of the parent just before spawning")
    args = ap.parse_args(argv)

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import slicetl

    if Path(slicetl.__file__).resolve().parent != src / "slicetl":
        print(f"slicetl imported from {slicetl.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    shutil.rmtree(args.work, ignore_errors=True)
    args.work.mkdir(parents=True)
    prepared = workloads.prepare(args.workload, args.seed, args.work)
    setup_s = time.monotonic() - args.spawned_at
    setup_reference_s = reference_kernel()

    def tracer_factory():
        return Tracer(workloads.trace_targets(), workloads.package_modules(),
                      workloads.FLOP_COUNTERS)

    calls, tracer = _measure(prepared, args.share, bool(args.trace),
                             args.work / "run", tracer_factory, setup_reference_s)
    spans = None
    if tracer is not None:
        spans = args.work.with_name(args.work.name + "-spans.npz")
        tracer.save(spans)
    shutil.rmtree(args.work, ignore_errors=True)
    result = {
        "setup_s": setup_s * REFERENCE_NOMINAL_S / setup_reference_s,
        "raw_setup_s": setup_s,
        "setup_reference_s": setup_reference_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cell_slots": prepared.cells * prepared.slots,
        "expected_calls": prepared.expected_calls,
        "calls": calls,
        "spans_file": str(spans) if spans else None,
        "environment": _environment(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
