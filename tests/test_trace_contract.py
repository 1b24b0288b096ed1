"""The benchmark tracer's contract with the package.

``kgbench/spans.py`` wraps package functions by name and reads their
arguments and results to compute the per-layer metrics. A rename, a moved
argument or a new result shape does not fail the benchmark: the layer is
reported absent, or its metric silently reads 0. This test fails instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

import kg_reason
from kg_reason.evaluation import build_query

from helpers import FIXTURES, mock_backend

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "kgbench"))
import spans  # noqa: E402


def test_every_traced_layer_exists_and_records_its_info():
    tracer = spans.Tracer()
    tracer.install(spans.TARGETS)
    try:
        assert tracer.absent == []
        factkg = kg_reason.load_graph(
            str(FIXTURES / "factkg_graph.tsv"), str(FIXTURES / "factkg_types.tsv")
        )
        metaqa = kg_reason.load_graph(str(FIXTURES / "metaqa_graph.tsv"))
        claim = kg_reason.load_verification_dataset(str(FIXTURES / "verification.jsonl"))[0]
        question = kg_reason.load_qa_dataset(str(FIXTURES / "qa_2hop.txt"), 2)[0]
        for qid, (g, example, script, k) in enumerate(
            [
                (factkg, claim, "mock_factkg.jsonl", 5),
                (metaqa, question, "mock_metaqa_2hop.jsonl", 3),
            ]
        ):
            tg = kg_reason.build_type_graph(g)
            backend = mock_backend(script)
            tracer.wrap_backend(backend)
            tracer.begin_query(qid)
            kg_reason.Pipeline(g, tg, backend, k=k).run(build_query(example, g, tg))
            tracer.end_query()
    finally:
        tracer.remove()
    assert tracer.absent == []

    infos: dict[str, list] = {}
    for span in tracer.spans:
        infos.setdefault(span[0], []).append(span[5])
    for name, *_ in spans.TARGETS:
        assert infos.get(name), f"{name} recorded no span"
    assert infos["backend.complete"]
    for name, _, _, _, kind in spans.TARGETS:
        if kind is not None:
            assert None not in infos[name], f"{name} recorded no {kind} info"

    assert all(isinstance(v, float) for v in infos["load_graph"])
    assert all(isinstance(v, int) and v > 0 for v in infos["candidates.claim"])
    assert infos["candidates.nhop"] == [(2, infos["candidates.nhop"][0][1])]
    assert infos["candidates.nhop"][0][1] > 0
    for name in ("segment", "match", "assemble"):
        assert all(isinstance(v, int) for v in infos[name]), name
    assert max(infos["assemble"]) > 0
    stages = {v[0] for v in infos["render_prompt"]}
    assert stages == {"segmentation", "retrieval", "inference"}
    assert all(size > static > 0 for _, size, static in infos["render_prompt"])
    assert all(
        isinstance(dropped, int) and isinstance(fallback, bool)
        for dropped, fallback in infos["parse_relations"]
    )
    # the metrics built from these spans read non-zero where the run did work
    context = {"triples": len(factkg.head), "cpu_util": 1.0, "untraced_s": 1.0, "traced_s": 1.0}
    layers = spans.per_layer(tracer, context)
    for metric in (
        "graph.match.triples_per_call",
        "candidates.claim.pool_size_mean",
        "candidates.nhop.pool_size_mean",
        "pipeline.subsentences_per_query",
        "pipeline.evidence_triples_mean",
        "prompts.bytes_per_call.segmentation",
        "prompts.bytes_per_call.retrieval",
        "prompts.bytes_per_call.inference",
        "prompts.static_prefix_share",
    ):
        assert layers[metric] > 0, metric
