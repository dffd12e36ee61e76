"""Summarise benchmark records across seeds.

Reads the per-run records ``run.py`` leaves in ``.bench_out/results/`` and
prints, per workload, each end-to-end metric's median, quartiles and spread
(interquartile range / median) over seeds, the per-layer breakdown of the
traced runs, and the quality values and output digests of every seed.
Records of one seed with and without tracing must agree on quality values
and digests; a disagreement is printed and makes the exit code 1.

    python3 perfbench/summarize.py [--results DIR] [--json OUT]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread_stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1,
            "q3": q3, "spread": (q3 - q1) / statistics.median(values)}


def summarise(records: list[dict]) -> tuple[dict, list[str]]:
    out: dict = {}
    problems = []
    for rec in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        w = out.setdefault(rec["workload"], {"end_to_end": {}, "per_layer": {},
                                             "seeds": {}})
        seed = w["seeds"].setdefault(str(rec["seed"]), {})
        outcome = {"quality": rec["quality"], "digests": rec["digests"]}
        if seed.get("outcome", outcome) != outcome:
            problems.append(f"{rec['workload']} seed {rec['seed']}: traced and "
                            f"untraced runs disagree")
        seed["outcome"] = outcome
        seed["correct_trace%d" % rec["trace"]] = rec["correct"]
        if not rec["correct"]:
            problems.append(f"{rec['workload']} seed {rec['seed']} trace "
                            f"{rec['trace']}: {rec['problems']}")
        target = w["per_layer"] if rec["trace"] else w["end_to_end"]
        for name, value in rec["metrics"].items():
            target.setdefault(name, {"unit": rec["units"][name], "values": []})
            target[name]["values"].append(value)
        if not rec["trace"]:
            raw = [c["wall_s"] for c in rec["calls"] if c["error"] is None]
            for name, value in (("raw_wall_s.min", min(raw)),
                                ("raw_wall_s.median", statistics.median(raw))):
                target.setdefault(name, {"unit": "s", "values": []})
                target[name]["values"].append(value)
        w["environment"] = rec["environment"]
    for w in out.values():
        for group in ("end_to_end", "per_layer"):
            for metric in w[group].values():
                values = metric.pop("values")
                metric.update(spread_stats(values) if len(values) > 1
                              else {"n": 1, "median": values[0]})
    return out, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--results", type=Path, default=ROOT / ".bench_out" / "results")
    ap.add_argument("--json", type=Path, help="also write the summary here")
    args = ap.parse_args(argv)
    records = [json.loads(p.read_text()) for p in sorted(args.results.glob("*.json"))]
    if not records:
        print(f"no records in {args.results}", file=sys.stderr)
        return 1
    summary, problems = summarise(records)
    for name, w in summary.items():
        print(f"# {name}")
        for metric, s in w["end_to_end"].items():
            extra = (f" q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f}"
                     if s["n"] > 1 else "")
            print(f"  {metric} median={s['median']:.6g} {s['unit']} n={s['n']}{extra}")
        for seed, s in w["seeds"].items():
            print(f"  seed {seed}: {json.dumps(s['outcome']['quality'])}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
