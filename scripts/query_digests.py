"""Print one digest per query of a kgbench workload, to check that a change
leaves every query's outcome, evidence and trace as they were.

The inputs come from ``kgbench/gen.py`` for the workload and seed, and the
answers from the benchmark's oracle backend. A query's digest is the
SHA-256 of its verdict or answer (or its failing stage and message), its
linearized evidence, and its whole stage trace except the timings. Run from
the repository root, once per checkout, and compare the outputs::

    python scripts/query_digests.py verify-hub --seed 1 > new.txt
    python scripts/query_digests.py verify-hub --seed 1 --src ../parent/src > old.txt
    diff old.txt new.txt

The last line digests all queries together. The script imports from
``kgbench/`` and generates its inputs under ``.kgbench/``, as the benchmark does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "kgbench"))

import run as bench  # noqa: E402
from oracle import Oracle, OracleBackend, load_queries  # noqa: E402


def query_records(workload: str, seed: int, scale: float):
    """Yield one JSON-ready record per query of the workload, in order."""
    import kg_reason
    from kg_reason.evaluation import QAExample, VerificationExample, build_query
    from kg_reason.pipeline import linearize

    print(f"kg_reason from {Path(kg_reason.__file__).parent}", file=sys.stderr)
    wl = bench.WORKLOADS[workload]
    bench.WORK.mkdir(exist_ok=True)
    work = bench.WORK / f"digests-{workload}-{seed}-{os.getpid()}"
    try:
        bench.generate(workload, wl, seed, scale, work)
        queries = load_queries(work / "queries.jsonl")
        types = work / "types.tsv"
        graph = kg_reason.load_graph(str(work / "graph.tsv"), str(types) if types.exists() else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    type_graph = kg_reason.build_type_graph(graph)
    pipeline = kg_reason.Pipeline(graph, type_graph, OracleBackend(Oracle(queries)), k=wl.k)
    for q in queries:
        if q["kind"] == "claim":
            example = VerificationExample(q["text"], tuple(q["entities"]), q["label"], q["type"])
        else:
            example = QAExample(q["question"], q["text"], q["seed"], q["hops"], tuple(q["answers"]))
        try:
            conclusion = pipeline.run(build_query(example, graph, type_graph))
        except kg_reason.PipelineError as exc:
            trace = exc.trace.to_record() if exc.trace else None
            record = {"error": exc.stage, "message": str(exc.cause), "trace": trace}
        except kg_reason.KGReasonError as exc:
            record = {"error": "query", "message": str(exc), "trace": None}
        else:
            result = conclusion.result
            record = {
                "result": result.entity if q["kind"] == "question" else result.label,
                "evidence": linearize(conclusion.evidence),
                "trace": conclusion.trace.to_record(),
            }
        if record["trace"] is not None:
            record["trace"].pop("timings")
        yield record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the kg_reason sources to run (default: this checkout's)")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink graph and query counts, as kgbench/run.py --scale does")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    total = hashlib.sha256()
    for i, record in enumerate(query_records(args.workload, args.seed, args.scale)):
        digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode("utf-8")).hexdigest()
        total.update(digest.encode("ascii"))
        print(f"{i}\t{digest}")
    print(f"all\t{total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
