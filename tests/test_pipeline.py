from __future__ import annotations

import ast
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from kg_reason import (
    KnowledgeGraph,
    Mention,
    Pipeline,
    Query,
    REFUTED,
    SUPPORTED,
    build_type_graph,
    linearize,
    resolve_mention,
)
from kg_reason.backends import MockBackend, MockEntry
from kg_reason.errors import (
    BackendError,
    ParseError,
    PipelineError,
    QueryError,
    RetrievalError,
)
from kg_reason.candidates import RelationCandidates
from kg_reason.parsing import SubSentence
from kg_reason.pipeline import EvidenceGraph, StageTrace

from helpers import (
    CountingBackend,
    StaticBackend,
    assemble_reference,
    mock_backend,
    random_graph_data,
)


def scripted(text, seg=None, ret=None, inf=None):
    """A mock answering segmentation and inference of the query ``text`` with
    ``seg`` and ``inf``, and the retrieval of each sub-sentence in ``ret``
    with its reply."""
    entries = [
        MockEntry(stage, "sentence", text, reply)
        for stage, reply in (("segmentation", seg), ("inference", inf))
        if reply is not None
    ]
    entries += [MockEntry("retrieval", "sentence", sub, reply) for sub, reply in (ret or {}).items()]
    return MockBackend(entries)


def claim_query(g, tg, text, entity_labels):
    return Query.claim(text, [resolve_mention(e, g, tg) for e in entity_labels])


# --- query construction ---------------------------------------------------------


def test_claim_requires_an_anchor_mention():
    with pytest.raises(QueryError):
        Query.claim("text", [Mention.variable("x")])


@pytest.mark.parametrize("text", ["", " \t\n"])
def test_query_text_must_not_be_blank(text):
    with pytest.raises(QueryError, match="^claim text is empty$"):
        Query.claim(text, [Mention.concrete("a", 0)])
    with pytest.raises(QueryError, match="^question text is empty$"):
        Query.question(text, Mention.concrete("a", 0), 1)


def test_question_requires_concrete_seed():
    with pytest.raises(QueryError):
        Query.question("text", Mention.variable("x"), 1)
    with pytest.raises(QueryError):
        Query.question("text", Mention.concrete("a", 0), 5)


def test_a_pipeline_is_built_with_its_k(metaqa_graph, metaqa_type_graph):
    # the paper's k differs by task, so no one value serves as a default
    with pytest.raises(TypeError, match="'k'"):
        Pipeline(metaqa_graph, metaqa_type_graph, MockBackend([]))


# --- the crewed-flight walkthrough ----------------------------------------------


CREWED_FLIGHT = (
    "William Anders, who was a crew member of the artificial satellite alongside "
    "Frank Borman, received AFIT, M.S. 1962."
)


def crewed_flight_query(g, tg):
    return claim_query(g, tg, CREWED_FLIGHT, ["William_Anders", "AFIT, M.S. 1962", "Frank_Borman"])


# One-line segmentations of the walkthrough: its first sub-sentence, offered
# only crewMembers, and its third, offered birthPlace and crewMembers.
SATELLITE = (
    "1. William Anders was a crew member of an artificial satellite., "
    "Entity set: ['William_Anders' ## 'artificial satellite']"
)
ALONGSIDE = "1. William Anders served alongside Frank Borman., Entity set: ['William_Anders' ## 'Frank_Borman']"


def test_crewed_flight_walkthrough_three_subsentences_three_triples(crewed_flight_graph, crewed_flight_type_graph):
    backend = mock_backend("mock_crewed_flight.jsonl")
    pipeline = Pipeline(crewed_flight_graph, crewed_flight_type_graph, backend, k=5, shots=12)
    conclusion = pipeline.run(crewed_flight_query(crewed_flight_graph, crewed_flight_type_graph))
    assert len(conclusion.trace.segmentation["subsentences"]) == 3
    assert set(conclusion.evidence.labels()) == {
        ("Apollo_8", "crewMembers", "William_Anders"),
        ("William_Anders", "almaMater", "AFIT, M.S. 1962"),
        ("Apollo_8", "crewMembers", "Frank_Borman"),
    }
    assert len(conclusion.evidence) == 3
    assert conclusion.result.label == SUPPORTED


def test_crewed_flight_type_mention_is_resolved_and_filters(crewed_flight_graph, crewed_flight_type_graph):
    backend = mock_backend("mock_crewed_flight.jsonl")
    pipeline = Pipeline(crewed_flight_graph, crewed_flight_type_graph, backend, k=5, shots=12)
    trace_kinds = {}
    query = crewed_flight_query(crewed_flight_graph, crewed_flight_type_graph)
    subs = pipeline.segment(query, StageTrace())
    for m in subs[0].mentions:
        trace_kinds[m.surface] = m.kind
    assert trace_kinds["artificial satellite"] == "type"


def test_call_accounting_is_two_plus_the_pools_sent(crewed_flight_graph, crewed_flight_type_graph):
    backend = CountingBackend(mock_backend("mock_crewed_flight.jsonl"))
    pipeline = Pipeline(crewed_flight_graph, crewed_flight_type_graph, backend, k=5, shots=12)
    conclusion = pipeline.run(crewed_flight_query(crewed_flight_graph, crewed_flight_type_graph))
    offered = [record["offered"] for record in conclusion.trace.retrieval]
    # sub-sentences 1 and 2 are offered one relation each and take it without a call
    assert offered == [["crewMembers"], ["almaMater"], ["birthPlace", "crewMembers"]]
    assert dict(backend.calls) == {"segmentation": 1, "retrieval": 1, "inference": 1}
    assert ["prompt" in record for record in conclusion.trace.retrieval] == [False, False, True]


# --- segmentation stage -----------------------------------------------------------


def test_one_triple_claim_segments_to_one_subsentence():
    g = KnowledgeGraph.from_triples([("X", "club", "Y")])
    tg = build_type_graph(g)
    backend = scripted(
        "X's club is Y.",
        seg="1. X's club is Y., Entity set: ['X' ## 'Y']",
        inf="True, based on the evidence set, X's club is Y.",
    )
    pipeline = Pipeline(g, tg, backend, k=5, shots=12)
    conclusion = pipeline.run(claim_query(g, tg, "X's club is Y.", ["X", "Y"]))
    assert len(conclusion.trace.segmentation["subsentences"]) == 1
    assert conclusion.result.label == SUPPORTED


def test_one_hop_question_falls_back_to_whole_question(metaqa_graph, metaqa_type_graph):
    backend = scripted(
        "what type of film is Six Shooter?",
        seg="complete garbage, not a single parseable line",
        inf="The answer is Short.",
    )
    pipeline = Pipeline(metaqa_graph, metaqa_type_graph, backend, k=3, shots=12)
    seed = resolve_mention("Six Shooter", metaqa_graph, metaqa_type_graph)
    query = Query.question("what type of film is Six Shooter?", seed, 1)
    conclusion = pipeline.run(query)
    subs = conclusion.trace.segmentation["subsentences"]
    assert len(subs) == 1
    assert subs[0]["text"] == query.text
    assert conclusion.trace.segmentation["notes"][-1] == "parse failed; fell back to the whole question"
    assert conclusion.result.entity == "Short"


def test_question_answer_does_not_echo_the_seed():
    g = KnowledgeGraph.from_triples([("Cobra", "starred_actors", "Brigitte_Nielsen")])
    tg = build_type_graph(g)
    backend = StaticBackend({"inference": "Brigitte Nielsen appears in Cobra."})
    pipeline = Pipeline(g, tg, backend, k=3, shots=12)
    seed = resolve_mention("Brigitte Nielsen", g, tg)
    query = Query.question("which films did Brigitte Nielsen act in?", seed, 1)
    conclusion = pipeline.infer(query, EvidenceGraph(g, tuple(range(len(g.head)))), StageTrace())
    assert conclusion.result.entity == "Cobra"


def test_a_reply_that_names_only_the_seed_fails_at_inference(metaqa_graph, metaqa_type_graph):
    backend = scripted("what type of film is Six Shooter?", seg="garbage", inf="It is Six Shooter.")
    pipeline = Pipeline(metaqa_graph, metaqa_type_graph, backend, k=3, shots=12)
    seed = resolve_mention("Six Shooter", metaqa_graph, metaqa_type_graph)
    with pytest.raises(PipelineError) as err:
        pipeline.run(Query.question("what type of film is Six Shooter?", seed, 1))
    assert err.value.stage == "inference"
    assert isinstance(err.value.cause, ParseError)
    assert str(err.value.cause) == "the response names only the question's seed"
    assert err.value.trace.inference["response"] == "It is Six Shooter."


def test_claim_segmentation_parse_error_propagates():
    g = KnowledgeGraph.from_triples([("X", "club", "Y")])
    tg = build_type_graph(g)
    backend = scripted("X's club is Y.", seg="garbage")
    pipeline = Pipeline(g, tg, backend, k=5, shots=12)
    with pytest.raises(PipelineError) as err:
        pipeline.run(claim_query(g, tg, "X's club is Y.", ["X", "Y"]))
    assert err.value.stage == "segmentation"
    assert isinstance(err.value.cause, ParseError)
    assert str(err.value.cause) == "no response line matched the segmentation grammar"
    assert err.value.trace.segmentation is not None


def test_multi_hop_question_parse_error_propagates(metaqa_graph, metaqa_type_graph):
    backend = scripted("when did it release?", seg="garbage")
    pipeline = Pipeline(metaqa_graph, metaqa_type_graph, backend, k=3, shots=12)
    seed = resolve_mention("Seeking Justice", metaqa_graph, metaqa_type_graph)
    with pytest.raises(PipelineError) as err:
        pipeline.run(Query.question("when did it release?", seed, 2))
    assert err.value.stage == "segmentation"
    assert isinstance(err.value.cause, ParseError)


# --- retrieval stage -----------------------------------------------------------------


def test_retrieval_clips_k_by_available_candidates():
    g = KnowledgeGraph.from_triples([("A", "r1", "B"), ("A", "r2", "C")])
    tg = build_type_graph(g)
    backend = scripted(
        "A relates.",
        seg="1. A relates., Entity set: ['A']",
        ret={"A relates.": "['r1', 'r2']"},
        inf="True, fine.",
    )
    pipeline = Pipeline(g, tg, backend, k=5, shots=12)
    conclusion = pipeline.run(claim_query(g, tg, "A relates.", ["A"]))
    relations = conclusion.trace.retrieval[0]["relations"]
    assert len(relations) <= 2


def test_empty_candidate_pool_is_a_retrieval_error():
    g = KnowledgeGraph.from_triples([("A", "r1", "B"), ("C", "r2", "D")])
    tg = build_type_graph(g)
    backend = scripted("A relates to C.", seg="1. A and C., Entity set: ['A' ## 'C']")
    pipeline = Pipeline(g, tg, backend, k=5, shots=12)
    with pytest.raises(PipelineError) as err:
        pipeline.run(claim_query(g, tg, "A relates to C.", ["A", "C"]))
    assert err.value.stage == "retrieval"
    assert isinstance(err.value.cause, RetrievalError)


def test_question_subsentences_share_the_nhop_pool(metaqa_graph, metaqa_type_graph):
    backend = mock_backend("mock_metaqa_2hop.jsonl")
    pipeline = Pipeline(metaqa_graph, metaqa_type_graph, backend, k=3, shots=12)
    seed = resolve_mention("Deborah Van Valkenburgh", metaqa_graph, metaqa_type_graph)
    query = Query.question("when did the films starred by Deborah Van Valkenburgh release?", seed, 2)
    from kg_reason.pipeline import StageTrace

    trace = StageTrace()
    subs = pipeline.segment(query, trace)
    retrieved = pipeline.retrieve(subs, query, trace)
    assert len(subs) == 2
    offered = [entry["offered"] for entry in trace.retrieval]
    assert offered[0] == offered[1] == ["release_year", "starred_actors"]
    assert retrieved[1].relations == ("starred_actors",)
    assert retrieved[2].relations == ("release_year",)


def test_a_one_relation_pool_is_taken_without_a_call(crewed_flight_graph, crewed_flight_type_graph):
    backend = CountingBackend(scripted(CREWED_FLIGHT, seg=SATELLITE, inf="True, fine."))
    pipeline = Pipeline(crewed_flight_graph, crewed_flight_type_graph, backend, k=5, shots=12)
    conclusion = pipeline.run(crewed_flight_query(crewed_flight_graph, crewed_flight_type_graph))
    assert dict(backend.calls) == {"segmentation": 1, "inference": 1}
    assert conclusion.trace.retrieval == [
        {
            "index": 1,
            "offered": ["crewMembers"],
            "relations": ["crewMembers"],
            "notes": ["one offered relation: taken without a call"],
        }
    ]
    assert conclusion.evidence.labels() == [("Apollo_8", "crewMembers", "William_Anders")]


def test_a_one_relation_pool_ignores_a_reply_without_a_list(crewed_flight_graph, crewed_flight_type_graph):
    # Sending this pool would raise ParseError on the reply; no call is made.
    sentence = "William Anders was a crew member of an artificial satellite."
    backend = scripted(
        CREWED_FLIGHT, seg=SATELLITE, ret={sentence: "I cannot tell."}, inf="True, fine."
    )
    pipeline = Pipeline(crewed_flight_graph, crewed_flight_type_graph, backend, k=5, shots=12)
    conclusion = pipeline.run(crewed_flight_query(crewed_flight_graph, crewed_flight_type_graph))
    assert conclusion.result.label == SUPPORTED
    assert conclusion.trace.retrieval[0]["relations"] == ["crewMembers"]


# --- assembly ---------------------------------------------------------------------


def test_assembly_matches_city_country_chain(factkg_graph, factkg_type_graph):
    claim = "Al-Taqaddum Air Base is located in Fallujah which is not in Iraq."
    backend = scripted(
        claim,
        seg=(
            "1. Al-Taqaddum Air Base is located in Fallujah., Entity set: ['Al-Taqaddum_Air_Base' ## 'Fallujah']\n"
            "2. Fallujah is not in Iraq., Entity set: ['Fallujah' ## 'Iraq']"
        ),
        ret={"Al-Taqaddum Air Base is located in Fallujah.": "['city', 'cityServed']"},
        inf="False, the evidence shows that Fallujah is in Iraq.",
    )
    pipeline = Pipeline(factkg_graph, factkg_type_graph, backend, k=5, shots=12)
    query = claim_query(
        factkg_graph, factkg_type_graph, claim, ["Al-Taqaddum_Air_Base", "Fallujah", "Iraq"]
    )
    conclusion = pipeline.run(query)
    assert set(conclusion.evidence.labels()) == {
        ("Al-Taqaddum_Air_Base", "city", "Fallujah"),
        ("Al-Taqaddum_Air_Base", "cityServed", "Fallujah"),
        ("Fallujah", "country", "Iraq"),
    }
    assert conclusion.result.label == REFUTED


def metaqa_two_hop_query(g, tg):
    seed = resolve_mention("Deborah Van Valkenburgh", g, tg)
    return Query.question("when did the films starred by Deborah Van Valkenburgh release?", seed, 2)


def test_variable_binding_bridges_hops(metaqa_graph, metaqa_type_graph):
    backend = mock_backend("mock_metaqa_2hop.jsonl")
    pipeline = Pipeline(metaqa_graph, metaqa_type_graph, backend, k=3, shots=12)
    conclusion = pipeline.run(metaqa_two_hop_query(metaqa_graph, metaqa_type_graph))
    assert set(conclusion.evidence.labels()) == {
        ("Mean Guns", "starred_actors", "Deborah Van Valkenburgh"),
        ("Mean Guns", "release_year", "1997"),
    }
    assert conclusion.result.entity == "1997"


def test_unanchored_subsentence_is_an_assembly_error(metaqa_graph, metaqa_type_graph):
    backend = scripted(
        "when did the movies release?", seg="1. The movies released., Entity set: ['movies']"
    )
    pipeline = Pipeline(metaqa_graph, metaqa_type_graph, backend, k=3, shots=12)
    seed = resolve_mention("Six Shooter", metaqa_graph, metaqa_type_graph)
    with pytest.raises(PipelineError) as err:
        pipeline.run(Query.question("when did the movies release?", seed, 1))
    assert err.value.stage == "retrieval"
    assert isinstance(err.value.cause, RetrievalError)
    assert str(err.value.cause) == "sub-sentence 1 has no anchored entities: 'The movies released.'"
    # timed under its own key all the same
    assert list(err.value.trace.timings) == ["segmentation", "retrieval", "assembly"]


def test_type_filter_drops_mismatched_endpoints():
    g = KnowledgeGraph.from_triples(
        [("A", "rel", "B"), ("A", "rel", "C")],
        [("B", "good"), ("C", "bad")],
    )
    tg = build_type_graph(g)
    backend = scripted(
        "A has a good thing.",
        seg="1. A has a good thing., Entity set: ['A' ## 'good']",
        inf="True, fine.",
    )
    pipeline = Pipeline(g, tg, backend, k=5, shots=12)
    conclusion = pipeline.run(claim_query(g, tg, "A has a good thing.", ["A"]))
    assert conclusion.evidence.labels() == [("A", "rel", "B")]


def test_untyped_endpoints_pass_the_type_filter():
    g = KnowledgeGraph.from_triples(
        [("A", "rel", "B"), ("T", "rel", "Z")], [("T", "good")]
    )
    tg = build_type_graph(g)
    backend = scripted(
        "A has a good thing.",
        seg="1. A has a good thing., Entity set: ['A' ## 'good']",
        inf="True, fine.",
    )
    pipeline = Pipeline(g, tg, backend, k=5, shots=12)
    conclusion = pipeline.run(claim_query(g, tg, "A has a good thing.", ["A"]))
    # B carries no type record, so the type mention does not exclude it
    assert conclusion.evidence.labels() == [("A", "rel", "B")]


def test_evidence_order_follows_graph_load_order(factkg_graph, factkg_type_graph):
    claim = "Alfredo Zitarrosa was not born in Uruguay."
    backend = scripted(
        claim,
        seg=f"1. {claim}, Entity set: ['Alfredo_Zitarrosa' ## 'Uruguay']",
        ret={claim: "['birthPlace', 'deathPlace']"},
        inf="False, the evidence shows Alfredo Zitarrosa was born in Uruguay.",
    )
    pipeline = Pipeline(factkg_graph, factkg_type_graph, backend, k=5, shots=12)
    conclusion = pipeline.run(
        claim_query(factkg_graph, factkg_type_graph, claim, ["Alfredo_Zitarrosa", "Uruguay"])
    )
    positions = list(conclusion.evidence.positions)
    assert len(positions) >= 2
    assert positions == sorted(positions)


def test_one_subsentence_evidence_lists_each_triple_once_in_load_order():
    # A -> B has both endpoints anchored and A -> A is a self-loop on an anchor, so the
    # match lists each from both sides; the one merge keeps one copy of each
    triples = [("C", "rel", "A"), ("A", "rel", "B"), ("B", "rel", "D"), ("A", "rel", "A")]
    g = KnowledgeGraph.from_triples(triples)
    tg = build_type_graph(g)
    backend = scripted(
        "A rel B.",
        seg="1. A rel B., Entity set: ['A' ## 'B']",
        inf="True, A rel B.",
    )
    pipeline = Pipeline(g, tg, backend, k=5, shots=12)
    conclusion = pipeline.run(claim_query(g, tg, "A rel B.", ["A", "B"]))
    assert len(conclusion.trace.segmentation["subsentences"]) == 1
    assert conclusion.evidence.positions == (0, 1, 2, 3)
    assert conclusion.evidence.labels() == triples


# --- linearize -------------------------------------------------------------------


def test_linearize_empty(metaqa_graph):
    assert linearize(EvidenceGraph(metaqa_graph, ())) == "[]"


def test_linearize_round_trips(crewed_flight_graph, crewed_flight_type_graph):
    backend = mock_backend("mock_crewed_flight.jsonl")
    pipeline = Pipeline(crewed_flight_graph, crewed_flight_type_graph, backend, k=5, shots=12)
    conclusion = pipeline.run(crewed_flight_query(crewed_flight_graph, crewed_flight_type_graph))
    rendered = linearize(conclusion.evidence)
    assert [tuple(t) for t in ast.literal_eval(rendered)] == conclusion.evidence.labels()


@pytest.mark.parametrize(
    "graph, script, make_query",
    [
        ("crewed_flight", "mock_crewed_flight.jsonl", crewed_flight_query),
        ("metaqa", "mock_metaqa_2hop.jsonl", metaqa_two_hop_query),
    ],
)
def test_a_query_labels_its_evidence_once(graph, script, make_query, request, monkeypatch):
    g = request.getfixturevalue(f"{graph}_graph")
    tg = request.getfixturevalue(f"{graph}_type_graph")
    calls = {"label_columns": 0}
    bulk = KnowledgeGraph.label_columns

    def counted_bulk(self, positions):
        calls["label_columns"] += 1
        return bulk(self, positions)

    monkeypatch.setattr(KnowledgeGraph, "label_columns", counted_bulk)
    pipeline = Pipeline(g, tg, mock_backend(script), k=5, shots=12)
    conclusion = pipeline.run(make_query(g, tg))
    assert len(conclusion.evidence) > 0
    assert calls == {"label_columns": 1}
    assert conclusion.trace.to_record()["assembly"]["triples"] == conclusion.evidence.labels()


def test_the_query_path_labels_no_trace_and_the_record_does(monkeypatch):
    g = KnowledgeGraph.from_triples([("A", "r", "B"), ("B", "s", "C"), ("D", "s", "E")])
    tg = build_type_graph(g)
    calls = {"entity_labels": 0, "labels": 0}

    def counted(cls, name):
        method = getattr(cls, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(cls, name, wrapper)

    counted(KnowledgeGraph, "entity_labels")
    counted(EvidenceGraph, "labels")
    claim = "A is r of x, which with D is s of something."
    backend = scripted(
        claim,
        seg=(
            "1. A is r of x., Entity set: ['A' ## 'x']\n"
            "2. x and D are s of something., Entity set: ['x' ## 'D']"
        ),
        inf="True, A reaches C and D reaches E.",
    )
    pipeline = Pipeline(g, tg, backend, k=3, shots=12)
    query = claim_query(g, tg, claim, ["A", "D", "x"])
    conclusion = pipeline.run(query)
    assert conclusion.result.label == SUPPORTED
    assert calls == {"entity_labels": 0, "labels": 0}

    trace = conclusion.trace
    assembly = dict(trace.assembly)
    bindings = {name: (list(m), set(a)) for name, (m, a) in assembly["bindings"].items()}
    first, second = trace.to_record(), trace.to_record()
    assert calls == {"entity_labels": 2, "labels": 2}  # each record labels its own
    assert first == second
    assert first["assembly"] == {
        "triples": [("A", "r", "B"), ("B", "s", "C"), ("D", "s", "E")],
        "empty_evidence": False,
        "bindings": {"x": ["C", "E"]},  # rebound by the second sub-sentence
    }
    assert all(trace.assembly[key] is value for key, value in assembly.items())
    assert trace.assembly["bindings"] == bindings


# --- inference -------------------------------------------------------------------


def test_empty_evidence_still_infers(crewed_flight_graph, crewed_flight_type_graph):
    backend = StaticBackend({"inference": "False, no evidence."})
    pipeline = Pipeline(crewed_flight_graph, crewed_flight_type_graph, backend, k=5, shots=12)
    query = crewed_flight_query(crewed_flight_graph, crewed_flight_type_graph)
    evidence = EvidenceGraph(crewed_flight_graph, ())
    conclusion = pipeline.infer(query, evidence, StageTrace())
    assert conclusion.result.label == REFUTED
    assert len(conclusion.evidence) == 0


def test_a_call_the_script_lacks_is_tagged_with_the_failing_stage(crewed_flight_graph, crewed_flight_type_graph):
    backend = scripted(CREWED_FLIGHT, seg=ALONGSIDE)
    pipeline = Pipeline(crewed_flight_graph, crewed_flight_type_graph, backend, k=5, shots=12)
    with pytest.raises(PipelineError) as err:
        pipeline.run(crewed_flight_query(crewed_flight_graph, crewed_flight_type_graph))
    assert err.value.stage == "retrieval"
    assert type(err.value.cause) is BackendError
    assert re.fullmatch(
        "stage=retrieval hash=[0-9a-f]{64}: no entry for the prompt or for '.+'",
        str(err.value.cause),
    )
    assert err.value.trace.retrieval[-1]["offered"] == ["birthPlace", "crewMembers"]


# --- failed stages keep their exchange ----------------------------------------------


class _FailsAt:
    """Wraps a backend; every call at ``stage`` raises a :class:`BackendError`."""

    def __init__(self, inner, stage: str):
        self.inner = inner
        self.stage = stage

    def complete(self, prompt: str, stage: str) -> str:
        if stage == self.stage:
            raise BackendError(f"{stage} is down")
        return self.inner.complete(prompt, stage)


def test_unparseable_retrieval_reply_stays_in_the_trace(crewed_flight_graph, crewed_flight_type_graph):
    sentence = "William Anders served alongside Frank Borman."
    backend = CountingBackend(scripted(CREWED_FLIGHT, seg=ALONGSIDE, ret={sentence: "I cannot tell."}))
    pipeline = Pipeline(crewed_flight_graph, crewed_flight_type_graph, backend, k=5, shots=12)
    with pytest.raises(PipelineError) as err:
        pipeline.run(crewed_flight_query(crewed_flight_graph, crewed_flight_type_graph))
    assert err.value.stage == "retrieval"
    assert isinstance(err.value.cause, ParseError)
    assert str(err.value.cause) == "no bracketed list in response"
    trace = err.value.trace
    assert list(trace.retrieval[-1]) == ["index", "offered", "prompt", "response"]
    assert trace.retrieval[-1]["index"] == 1
    assert trace.retrieval[-1]["offered"] == ["birthPlace", "crewMembers"]
    assert trace.retrieval[-1]["prompt"].endswith("Top 5 Answer:")
    assert trace.retrieval[-1]["response"] == "I cannot tell."
    assert dict(backend.calls) == {"segmentation": 1, "retrieval": 1}


def test_failed_backend_call_keeps_its_prompt(crewed_flight_graph, crewed_flight_type_graph):
    query = crewed_flight_query(crewed_flight_graph, crewed_flight_type_graph)
    working = CountingBackend(mock_backend("mock_crewed_flight.jsonl"))
    ok = Pipeline(crewed_flight_graph, crewed_flight_type_graph, working, k=5).run(query)
    backend = CountingBackend(_FailsAt(mock_backend("mock_crewed_flight.jsonl"), "inference"))
    pipeline = Pipeline(crewed_flight_graph, crewed_flight_type_graph, backend, k=5, shots=12)
    with pytest.raises(PipelineError) as err:
        pipeline.run(query)
    assert err.value.stage == "inference"
    assert err.value.trace.inference == {"prompt": ok.trace.inference["prompt"]}
    assert backend.calls == working.calls


def test_failed_segmentation_call_counts_as_a_call(crewed_flight_graph, crewed_flight_type_graph):
    backend = CountingBackend(_FailsAt(mock_backend("mock_crewed_flight.jsonl"), "segmentation"))
    pipeline = Pipeline(crewed_flight_graph, crewed_flight_type_graph, backend, k=5, shots=12)
    with pytest.raises(PipelineError) as err:
        pipeline.run(crewed_flight_query(crewed_flight_graph, crewed_flight_type_graph))
    assert err.value.stage == "segmentation"
    assert list(err.value.trace.segmentation) == ["prompt"]
    assert dict(backend.calls) == {"segmentation": 1}


# --- whole-pipeline properties ------------------------------------------------------


def test_each_stage_is_timed_under_its_own_key(crewed_flight_graph, crewed_flight_type_graph):
    backend = mock_backend("mock_crewed_flight.jsonl")
    pipeline = Pipeline(crewed_flight_graph, crewed_flight_type_graph, backend, k=5, shots=12)
    conclusion = pipeline.run(crewed_flight_query(crewed_flight_graph, crewed_flight_type_graph))
    assert list(conclusion.trace.timings) == ["segmentation", "retrieval", "assembly", "inference"]


def test_determinism_identical_runs(crewed_flight_graph, crewed_flight_type_graph):
    results = []
    for _ in range(2):
        backend = mock_backend("mock_crewed_flight.jsonl")
        pipeline = Pipeline(crewed_flight_graph, crewed_flight_type_graph, backend, k=5, shots=12)
        conclusion = pipeline.run(crewed_flight_query(crewed_flight_graph, crewed_flight_type_graph))
        trace = conclusion.trace.to_record()
        trace.pop("timings")
        results.append((conclusion.result, conclusion.evidence.labels(), trace))
    assert results[0] == results[1]


@given(st.text(max_size=120), st.text(max_size=60), st.text(max_size=60))
def test_evidence_is_always_a_subgraph(seg_text, ret_text, inf_text):
    g = KnowledgeGraph.from_triples(
        [("A", "r1", "B"), ("B", "r2", "C"), ("C", "r1", "A")]
    )
    tg = build_type_graph(g)
    backend = StaticBackend(
        {"segmentation": seg_text, "retrieval": ret_text, "inference": inf_text}
    )
    pipeline = Pipeline(g, tg, backend, k=3, shots=12)
    query = Query.claim("A relates to B.", [Mention.concrete("A", g.maybe_entity_id("A"))])
    try:
        conclusion = pipeline.run(query)
    except PipelineError:
        return
    assert set(conclusion.evidence.positions) <= set(range(len(g.head)))


def _random_chain(rng, entities, types, relations):
    """1-3 sub-sentences as (mention specs, retrieved relations); a variable
    one sub-sentence introduces is usually taken up by the next."""
    chain, carried = [], None
    for i in range(rng.randint(1, 3)):
        if carried is not None and rng.random() < 0.8:
            specs = [("variable", carried)]
        else:
            specs = [("entity", rng.choice(entities))]
        # a carried variable meets a type mention often: that is where the
        # order of filtering and binding shows
        if specs[0][0] == "entity":
            second = rng.choice(["entity", "type", "variable", "variable", None])
        else:
            second = rng.choice(["type", "type", "type", "entity", "variable", None])
        if second == "entity":
            specs.append(("entity", rng.choice(entities)))
        elif second == "type" and types:
            specs.append(("type", rng.choice(types)))
        elif second == "variable":
            carried = f"?v{i}"
            specs.append(("variable", carried))
        rng.shuffle(specs)
        # and a label the graph lacks, which assembly ignores
        pool = [*relations, "no_such_relation"]
        retrieved = rng.sample(pool, rng.randint(1, len(pool)))
        chain.append((specs, retrieved))
    return chain


@settings(max_examples=300)
@given(st.integers(0, 20_000))
def test_assembly_matches_the_reference_on_random_graphs(seed):
    rng = random.Random(seed)
    _, relations, triples, type_map = random_graph_data(rng, 12, 5, 40)
    typed = [(e, t) for e, ts in type_map.items() for t in sorted(ts)]
    g = KnowledgeGraph.from_triples(triples, typed)
    tg = build_type_graph(g)
    entities = sorted({e for h, _, t in triples for e in (h, t)})
    types = sorted({t for _, t in typed})
    chain = _random_chain(rng, entities, types, relations)
    resolve = {
        "entity": lambda label: Mention.concrete(label, g.maybe_entity_id(label)),
        "type": lambda label: Mention.type_ref(label, g.maybe_type_id(label)),
        "variable": Mention.variable,
    }
    subsentences = [
        SubSentence(i, f"sub-sentence {i}", tuple(resolve[kind](label) for kind, label in specs))
        for i, (specs, _) in enumerate(chain, start=1)
    ]
    retrieved = {i: RelationCandidates(tuple(rels)) for i, (_, rels) in enumerate(chain, start=1)}
    expected = assemble_reference(triples, type_map, chain)
    pipeline = Pipeline(g, tg, StaticBackend({}), k=3)
    trace = StageTrace()
    if expected is None:
        with pytest.raises(RetrievalError, match=r"^sub-sentence \d+ has no anchored entities: "):
            pipeline.assemble(subsentences, retrieved, trace)
        return
    positions, bindings = expected
    evidence = pipeline.assemble(subsentences, retrieved, trace)
    assert list(evidence.positions) == positions
    assert trace.to_record()["assembly"]["bindings"] == {
        name: sorted(v) for name, v in bindings.items()
    }


def test_first_k_monotonicity_of_evidence(crewed_flight_graph, crewed_flight_type_graph):
    from helpers import FirstKBackend

    seg = (
        "1. William Anders was a crew member of an artificial satellite., Entity set: ['William_Anders' ## 'artificial satellite']\n"
        "2. William Anders received AFIT, M.S. 1962., Entity set: ['William_Anders' ## \"AFIT, M.S. 1962\"]\n"
        "3. William Anders served alongside Frank Borman., Entity set: ['William_Anders' ## 'Frank_Borman']"
    )
    query = crewed_flight_query(crewed_flight_graph, crewed_flight_type_graph)
    sizes = []
    for k in (1, 3, 5, 10):
        backend = FirstKBackend({query.text: seg})
        pipeline = Pipeline(crewed_flight_graph, crewed_flight_type_graph, backend, k=k, shots=12)
        conclusion = pipeline.run(query)
        sizes.append(len(conclusion.evidence))
    assert sizes == sorted(sizes)
