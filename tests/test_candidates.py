from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from kg_reason import (
    KnowledgeGraph,
    Mention,
    build_type_graph,
    extract_nhop_candidates,
    extract_relation_candidates,
    resolve_mention,
)
from kg_reason.errors import CandidateError, UnknownEntityError
from kg_reason.evaluation import QAExample, build_query

from helpers import (
    candidate_oracle,
    enumerate_nhop_relations,
    random_graph_data,
    scan_relations_of_entity,
)


def graph_with_types(triples, type_pairs=()):
    g = KnowledgeGraph.from_triples(triples, type_pairs)
    return g, build_type_graph(g)


def concrete(g, label):
    eid = g.maybe_entity_id(label)
    assert eid is not None, label
    return Mention.concrete(label, eid)


def present_entities(g, entities):
    return [e for e in entities if g.maybe_entity_id(e) is not None]


def type_ref(g, label):
    return Mention.type_ref(label, g.maybe_type_id(label))


# --- resolution ---------------------------------------------------------------


def test_resolve_mention_prefers_entities_then_types():
    g, tg = graph_with_types([("A", "r", "B")], [("A", "letter")])
    assert resolve_mention("A", g, tg).kind == "concrete"
    assert resolve_mention("letter", g, tg).kind == "type"
    assert resolve_mention("mystery", g, tg).kind == "variable"


def test_resolve_mention_canonicalizes():
    g, tg = graph_with_types([("Big Star", "r", "B")])
    m = resolve_mention("Big_Star", g, tg)
    assert m.kind == "concrete"
    assert m.ref == g.maybe_entity_id("Big Star")


# --- claim-style extraction ------------------------------------------------------


def test_single_entity_returns_its_relations():
    g, tg = graph_with_types([("A", "club", "B"), ("A", "clubs", "C")])
    got = extract_relation_candidates([concrete(g, "A")], g, tg)
    assert got.relations == ("club", "clubs")


def test_two_entities_intersect():
    g, tg = graph_with_types(
        [("A", "r1", "X"), ("A", "r2", "X"), ("B", "r2", "Y"), ("B", "r3", "Y")]
    )
    got = extract_relation_candidates([concrete(g, "A"), concrete(g, "B")], g, tg)
    assert got.relations == ("r2",)


def test_type_mention_intersects_with_entity_pool():
    g, tg = graph_with_types(
        [("A", "r1", "X"), ("A", "r2", "X"), ("T1ent", "r2", "Z"), ("T1ent", "r9", "Z")],
        [("T1ent", "T1")],
    )
    got = extract_relation_candidates([concrete(g, "A"), type_ref(g, "T1")], g, tg)
    assert got.relations == ("r2",)


def test_all_type_mentions_return_the_type_pool():
    # the all-types path must not intersect with an empty entity pool
    g, tg = graph_with_types(
        [("E1", "r1", "X"), ("E2", "r2", "Y")], [("E1", "T1"), ("E2", "T2")]
    )
    got = extract_relation_candidates([type_ref(g, "T1"), type_ref(g, "T2")], g, tg)
    assert got.relations == ("r1", "r2")


def test_variables_contribute_no_constraint():
    g, tg = graph_with_types([("A", "r1", "X")])
    got = extract_relation_candidates([concrete(g, "A"), Mention.variable("thing")], g, tg)
    assert got.relations == ("r1",)


def test_all_variables_is_an_error():
    g, tg = graph_with_types([("A", "r1", "X")])
    with pytest.raises(CandidateError):
        extract_relation_candidates([Mention.variable("a"), Mention.variable("b")], g, tg)


def test_too_many_mentions_is_an_error():
    g, tg = graph_with_types([("A", "r1", "X")])
    mentions = [concrete(g, "A"), Mention.variable("b"), Mention.variable("c")]
    with pytest.raises(CandidateError):
        extract_relation_candidates(mentions, g, tg)


def test_no_mentions_is_an_error():
    g, tg = graph_with_types([("A", "r1", "X")])
    with pytest.raises(CandidateError):
        extract_relation_candidates([], g, tg)


def test_unknown_entity_surfaces_at_resolution():
    g, tg = graph_with_types([("A", "r1", "X")])
    # resolution never raises; an unknown label is a variable, with no id
    assert resolve_mention("unknown", g, tg) == Mention.variable("unknown")
    assert g.maybe_entity_id("unknown") is None


def _random_mentions(rng, g, tg, entities, type_labels):
    specs = []
    mentions = []
    for _ in range(rng.randint(1, 2)):
        roll = rng.random()
        if roll < 0.5 and present_entities(g, entities):
            label = rng.choice(present_entities(g, entities))
            specs.append(("entity", label))
            mentions.append(concrete(g, label))
        elif roll < 0.85 and type_labels:
            label = rng.choice(sorted(type_labels))
            specs.append(("type", label))
            mentions.append(Mention.type_ref(label, g.maybe_type_id(label)))
        else:
            specs.append(("variable", f"v{rng.randint(0, 5)}"))
            mentions.append(Mention.variable(f"v{rng.randint(0, 5)}"))
    return specs, mentions


@given(st.integers(0, 20_000))
def test_extraction_matches_scan_oracle(seed):
    rng = random.Random(seed)
    entities, _, triples, type_map = random_graph_data(rng, 25, 10, 80)
    g, tg = graph_with_types(triples, [(e, tl) for e, tls in type_map.items() for tl in sorted(tls)])
    type_labels = set().union(*type_map.values()) if type_map else set()
    specs, mentions = _random_mentions(rng, g, tg, entities, type_labels)
    expected = candidate_oracle(specs, triples, type_map)
    if all(kind == "variable" for kind, _ in specs):
        with pytest.raises(CandidateError):
            extract_relation_candidates(mentions, g, tg)
        return
    got = extract_relation_candidates(mentions, g, tg)
    assert set(got.relations) == expected
    assert got.relations == tuple(sorted(got.relations))
    # subset law
    assert set(got.relations) <= {r for _, r, _ in triples}


@given(st.integers(0, 20_000))
def test_adding_a_concrete_mention_never_grows_the_pool(seed):
    rng = random.Random(seed)
    entities, _, triples, _ = random_graph_data(rng, 20, 8, 60)
    g, tg = graph_with_types(triples)
    present = present_entities(g, entities)
    if len(present) < 2:
        return
    a, b = rng.sample(present, 2)
    one = extract_relation_candidates([concrete(g, a)], g, tg)
    two = extract_relation_candidates([concrete(g, a), concrete(g, b)], g, tg)
    assert set(two.relations) <= set(one.relations)


@given(st.integers(0, 20_000))
def test_single_mention_identity(seed):
    rng = random.Random(seed)
    entities, _, triples, _ = random_graph_data(rng, 20, 8, 60)
    g, tg = graph_with_types(triples)
    entity = rng.choice(present_entities(g, entities))
    got = extract_relation_candidates([concrete(g, entity)], g, tg)
    assert set(got.relations) == scan_relations_of_entity(triples, entity)


# --- question-style extraction ------------------------------------------------------


def test_nhop_chain_fixture():
    g, _ = graph_with_types(
        [
            ("movie", "starred_actors", "actor"),
            ("movie2", "starred_actors", "actor"),
            ("movie2", "release_year", "year"),
        ]
    )
    movie = g.maybe_entity_id("movie")
    assert extract_nhop_candidates(movie, 1, g).relations == ("starred_actors",)
    assert extract_nhop_candidates(movie, 3, g).relations == (
        "release_year",
        "starred_actors",
    )


def test_nhop_requires_known_hop_count():
    g, _ = graph_with_types([("a", "r", "b")])
    with pytest.raises(CandidateError):
        extract_nhop_candidates(g.maybe_entity_id("a"), 4, g)


def test_nhop_unknown_seed_propagates():
    # an unknown seed stops at query building and never reaches the pool
    g, tg = graph_with_types([("a", "r", "b")])
    with pytest.raises(UnknownEntityError) as err:
        build_query(QAExample("what is [zz]?", "what is zz?", "zz", 1, ()), g, tg)
    assert "zz" in str(err.value)


@given(st.integers(0, 20_000), st.integers(1, 3))
def test_nhop_matches_path_enumeration(seed, hops):
    rng = random.Random(seed)
    entities, _, triples, _ = random_graph_data(rng, 15, 6, 30)
    g, _ = graph_with_types(triples)
    start = rng.choice(entities)
    if g.maybe_entity_id(start) is None:
        return
    got = extract_nhop_candidates(g.maybe_entity_id(start), hops, g)
    assert set(got.relations) == enumerate_nhop_relations(triples, start, hops)
    assert got.relations == tuple(sorted(got.relations))
