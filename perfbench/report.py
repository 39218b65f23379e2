"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/report.py [--workloads A,B] [--seeds 0-9] [--trace 0 1]
                                [--seconds S] [--json OUT]

For each workload and trace mode, runs perfbench/run.py once per seed, one run
at a time, and prints every metric with its name, unit, direction, median,
quartiles (statistics.quantiles, n=4), sample count, and the quartile spread
as a share of the median next to the bound BENCHMARK.json gives it, plus
failed_share (failed / attempted operations).  Exits 1 if any run failed an
output check, was not correct, or printed no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def run_one(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict | None, dict | None]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return None, None
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,8")
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args(argv)

    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    seeds = parse_seeds(args.seeds)
    ok = True
    summary: dict = {"run_seconds": args.seconds, "seeds": seeds, "env": None,
                     "workloads": {}}
    for workload in args.workloads.split(","):
        for trace in args.trace:
            values: dict[str, list[float]] = {}
            attempted = failed = 0
            for seed in seeds:
                record, result = run_one(workload, seed, args.seconds, trace)
                if result is None:
                    print(f"{workload} seed {seed} trace {trace}: no result")
                    ok = False
                    continue
                summary["env"] = summary["env"] or record["env"]
                ok = ok and result["correct"] and result["failed"] == 0
                attempted += result["attempted"]
                failed += result["failed"]
                for name, metric in result["metrics"].items():
                    if metric["value"] is not None:
                        values.setdefault(name, []).append(metric["value"])
            stats = {name: summarise(v) for name, v in values.items()}
            summary["workloads"].setdefault(workload, {})[f"trace{trace}"] = {
                "failed_share": failed / attempted if attempted else None,
                "metrics": stats}
            print(f"\n{workload}  trace={trace}  seeds={args.seeds}  "
                  f"failed_share={failed}/{attempted}")
            print(f"  {'metric':38s} {'unit':8s} {'better':6s} {'median':>12s} "
                  f"{'q1':>12s} {'q3':>12s} {'n':>3s} {'spread':>7s} {'bound':>6s}")
            for name, s in stats.items():
                m = declared.get(name, {})
                spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
                print(f"  {name:38s} {m.get('unit', '?'):8s} {m.get('better', '?'):6s} "
                      f"{s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                      f"{s['n']:3d} {spread:>7s} {m.get('bound', ''):>6}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
