"""Run-to-run spread of the benchmark over several seeds.

    python3 perfbench/spread.py --workload durable-etc --seeds 1 2 3 4 5

Runs ``run.py`` once per seed (as the benchmark's ``command`` would) and
prints, per metric, the median, the quartiles and the quartile distance
as a share of the median, beside a third of the metric's bound in
``BENCHMARK.json`` (the target a steady benchmark stays under).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--record", metavar="FILE",
                        help="also store the medians and quartiles under "
                             "the workload's name in this JSON file")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict = {}
    for seed in args.seeds:
        out = subprocess.run(
            bench["command"] + ["--workload", args.workload,
                                "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]),
                                "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: FAIL (exit {out.returncode})\n"
                  + out.stdout[-2000:] + out.stderr[-2000:], flush=True)
            continue
        result = json.loads(lines[-1])
        status = "ok" if result["correct"] else "FAIL"
        print(f"seed {seed}: {status} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound/3':>8s}")
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        target = f"{bounds[name] / 3:8.4f}"
        print(f"{name:32s} {med:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{spread:8.4f} {target}")
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": spread}
    if args.record:
        record = {}
        if os.path.exists(args.record):
            with open(args.record) as fh:
                record = json.load(fh)
        record["host"] = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": f"{platform.system()} {platform.machine()}",
            "run_seconds": bench["run_seconds"],
        }
        record.setdefault("workloads", {})[args.workload] = {
            "seeds": args.seeds, "metrics": summary}
        with open(args.record, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
