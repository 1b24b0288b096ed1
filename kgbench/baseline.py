"""Run every workload over several seeds and summarise each metric.

Each run is a fresh ``run.py`` process. For every metric the summary gives
the median over seeds and the spread, i.e. the distance between the first
and third quartile as a share of the median. From the repository root::

    python3 kgbench/baseline.py --seeds 1,2,3 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--seconds", default=str(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds.split(","):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", seed,
                 "--seconds", args.seconds, "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=180,
            )
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                ok = False
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} " + " ".join(
                      f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) > 1:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = f"{(q3 - q1) / med:.4f}" if med else "n/a"
            else:
                spread = "n/a"
            print(f"| {workload} | {name} | {med:.5g} {units[name]} | {spread} |")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
