"""Print the set-up time and memory footprint of a kgbench workload's graph.

The graph and type files come from ``kgbench/gen.py`` for the workload and
seed. The script builds the graph with ``load_graph`` + ``build_type_graph``
and prints three things:

- ``setup_s``: the best wall time of three untraced builds;
- ``retained_bytes_per_triple`` and ``peak_bytes_per_triple``: what
  ``tracemalloc`` counts as still allocated once the build returns (the
  graph and its type projection), and at the build's peak, over a second,
  traced build, per unique triple;
- ``ru_maxrss_mb``: the process's peak RSS after the untraced builds, each
  freed before the next, before tracing starts (tracing adds its own memory).

Run from the repository root, once per checkout, and compare::

    python scripts/graph_footprint.py verify-hub --seed 1
    python scripts/graph_footprint.py verify-hub --seed 1 --src ../parent/src

The script imports from ``kgbench/`` and generates its inputs under
``.kgbench/``, as the benchmark does.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import resource
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "kgbench"))

import run as bench  # noqa: E402


def footprint(workload: str, seed: int, scale: float) -> dict[str, float]:
    import kg_reason

    print(f"kg_reason from {Path(kg_reason.__file__).parent}", file=sys.stderr)
    wl = bench.WORKLOADS[workload]
    bench.WORK.mkdir(exist_ok=True)
    work = bench.WORK / f"footprint-{workload}-{seed}-{os.getpid()}"
    try:
        bench.generate(workload, wl, seed, scale, work)
        graph_path, types = str(work / "graph.tsv"), work / "types.tsv"
        types_path = str(types) if types.exists() else None

        def build():
            g = kg_reason.load_graph(graph_path, types_path)
            return g, kg_reason.build_type_graph(g)

        # one build's time swings with the host; the best of three reads steadier
        setup_s = math.inf
        for _ in range(3):
            gc.collect()
            start = time.perf_counter()
            g, tg = build()
            setup_s = min(setup_s, time.perf_counter() - start)
            triples = len(g.head)
            del g, tg  # freed before the next build, so the peak RSS is one build's
        maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        gc.collect()
        tracemalloc.start()
        try:
            built = build()  # alive while the retained bytes are read
            gc.collect()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del built
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "triples": triples,
        "setup_s": round(setup_s, 3),
        "retained_bytes_per_triple": round(retained / triples, 1),
        "peak_bytes_per_triple": round(peak / triples, 1),
        "ru_maxrss_mb": round(maxrss_mb, 1),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the kg_reason sources to run (default: this checkout's)")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink the graph, as kgbench/run.py --scale does")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    for name, value in footprint(args.workload, args.seed, args.scale).items():
        print(f"{name}\t{value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
