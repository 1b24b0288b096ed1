"""Each raise site of a query's failure kinds, and of the caller's mistakes that
parse_relations and the candidate extractors refuse: the class it raises and its message."""

from __future__ import annotations

import argparse

import pytest

from kg_reason import KnowledgeGraph, Pipeline, build_type_graph, cli
from kg_reason.candidates import (
    Mention,
    RelationCandidates,
    extract_nhop_candidates,
    extract_relation_candidates,
)
from kg_reason.errors import ParseError, QueryError, RetrievalError
from kg_reason.evaluation import QAExample, build_query
from kg_reason.parsing import (
    SubSentence,
    parse_answer,
    parse_relations,
    parse_segmentation,
    parse_verdict,
)
from kg_reason.pipeline import StageTrace

from helpers import StaticBackend

G = KnowledgeGraph.from_triples([("A", "r", "B")])
TG = build_type_graph(G)
A = Mention.concrete("A", G.maybe_entity_id("A"))


def _unanchored_assembly():
    pipeline = Pipeline(G, TG, StaticBackend({}), k=1)
    sub = SubSentence(1, "it holds", (Mention.variable("x"),))
    pipeline.assemble([sub], {1: RelationCandidates(("r",))}, StageTrace())


def _unknown_claim_entity():
    args = argparse.Namespace(command="verify", claim="A r Nobody.", entities=["A", "Nobody"])
    cli._query(args, G, TG)


SITES = {
    "segmentation": (
        lambda: parse_segmentation("no line fits", (), TG, []),
        ParseError,
        "no response line matched the segmentation grammar",
    ),
    "relations-k": (  # a caller's mistake, not a failure kind
        lambda: parse_relations("['r']", ["r"], 0, []),
        ValueError,
        "k must be >= 1, got 0",
    ),
    "relations-unbracketed": (
        lambda: parse_relations("r", ["r"], 1, []),
        ParseError,
        "no bracketed list in response",
    ),
    "verdict": (
        lambda: parse_verdict("Maybe."),
        ParseError,
        "response does not start with True/False: 'Maybe.'",
    ),
    "answer-no-evidence": (
        lambda: parse_answer("B", [], "A"),
        ParseError,
        "cannot ground an answer in empty evidence",
    ),
    "answer-only-the-seed": (
        lambda: parse_answer("It is A.", [("A", "r", "B")], "A"),
        ParseError,
        "the response names only the question's seed",
    ),
    "answer-nothing-named": (
        lambda: parse_answer("I cannot tell.", [("A", "r", "B")], "A"),
        ParseError,
        "no evidence entity appears in the response",
    ),
    "candidates-no-mentions": (  # a caller's mistake: no segmentation yields it
        lambda: extract_relation_candidates([], G, TG),
        ValueError,
        "no mentions given",
    ),
    "candidates-three-mentions": (  # a caller's mistake: no segmentation yields it
        lambda: extract_relation_candidates([A, A, A], G, TG),
        ValueError,
        "a sub-sentence carries at most two mentions, got 3",
    ),
    "candidates-only-variables": (
        lambda: extract_relation_candidates([Mention.variable("x")], G, TG),
        RetrievalError,
        "all mentions are variables; nothing to retrieve from",
    ),
    "candidates-hops": (  # a caller's mistake: Query.question refuses it
        lambda: extract_nhop_candidates(A.ref, 4, G),
        ValueError,
        "hop count must be 1, 2 or 3, got 4",
    ),
    "assembly-unanchored": (
        _unanchored_assembly,
        RetrievalError,
        "sub-sentence 1 has no anchored entities: 'it holds'",
    ),
    "query-unknown-seed": (
        lambda: build_query(QAExample("what is [Z]?", "what is Z?", "Z", 1, ()), G, TG),
        QueryError,
        "unknown entity: 'Z'",
    ),
    "query-unknown-claim-entity": (
        _unknown_claim_entity,
        QueryError,
        "unknown entity: 'Nobody'",
    ),
}


@pytest.mark.parametrize("call, kind, message", SITES.values(), ids=SITES)
def test_each_raise_site_raises_its_kind_with_its_message(call, kind, message):
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind
    assert str(err.value) == message
