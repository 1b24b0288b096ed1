"""Print two digests per query of a kgbench workload, to check that a change
leaves every query's outcome, evidence and trace as they were.

The inputs come from ``kgbench/gen.py`` for the workload and seed, and the
answers from the benchmark's oracle backend. Each line holds the query's
number, its record digest and its outcome digest, separated by tabs:

- the record digest is the SHA-256 of its
  ``kg_reason.evaluation.trace_record`` with the timings removed: the
  input, ``k`` and ``shots``, the verdict or answer and the evidence size
  (or the failing stage and message), and the whole stage trace, which
  holds the evidence triples and the rendered prompts;
- the outcome digest hashes the same record without the segmentation,
  retrieval and inference exchanges, keeping the assembly's evidence
  triples and bindings. A change in which calls are made, or in what they
  send, leaves it as it was as long as every result stays the same.

Run from the repository root, once per checkout, and compare the outputs::

    python scripts/query_digests.py verify-hub --seed 1 > new.txt
    python scripts/query_digests.py verify-hub --seed 1 --src ../parent/src > old.txt
    diff old.txt new.txt                                   # records and outcomes
    diff <(cut -f1,3 old.txt) <(cut -f1,3 new.txt)         # outcomes only

The last line digests all queries together, records then outcomes. The
script imports from ``kgbench/`` and generates its inputs under
``.kgbench/``, as the benchmark does.
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
    from kg_reason.evaluation import QAExample, VerificationExample, build_query, trace_record

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
            outcome = pipeline.run(build_query(example, graph, type_graph))
        except kg_reason.KGReasonError as exc:
            outcome = exc
        record = trace_record(pipeline, q["text"] if q["kind"] == "claim" else q["question"], outcome)
        trace = record["trace"]
        if hasattr(trace, "to_record"):  # a StageTrace; older sources label it in trace_record
            trace = record["trace"] = trace.to_record()
        if trace is not None:
            trace.pop("timings")
        yield record


def outcome(record: dict) -> dict:
    """The record without its segmentation, retrieval and inference exchanges."""
    trace = record["trace"]
    if trace is None:
        return record
    return {**record, "trace": {"assembly": trace["assembly"]}}


def digest(record: dict) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode("utf-8")).hexdigest()


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
    totals = hashlib.sha256(), hashlib.sha256()
    for i, record in enumerate(query_records(args.workload, args.seed, args.scale)):
        digests = digest(record), digest(outcome(record))
        for total, one in zip(totals, digests):
            total.update(one.encode("ascii"))
        print(i, *digests, sep="\t")
    print("all", *(total.hexdigest() for total in totals), sep="\t")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
