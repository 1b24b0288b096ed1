from __future__ import annotations

import gc
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, strategies as st

from kg_reason import (
    KnowledgeGraph,
    build_type_graph,
    canonical_label,
    load_graph,
    relations_of_entity,
    relations_of_type,
    relations_within_n_hops,
    triples_matching,
)
from kg_reason.errors import GraphLoadError, UnknownEntityError

from helpers import (
    FIXTURES,
    enumerate_nhop_relations,
    nested_loop_type_relations,
    random_graph_data,
    scan_matching,
    scan_relations_of_entity,
)


def write_graph(tmp_path, lines, name="g.tsv"):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


# --- loading ----------------------------------------------------------------


def test_load_two_triples(tmp_path):
    path = write_graph(
        tmp_path,
        ["William_Anders\toccupation\tFighter_pilot", "Apollo_8\tcrewMembers\tWilliam_Anders"],
    )
    g = load_graph(path)
    assert len(g.triples) == 2
    # one id per distinct label: the shared entity interns once
    assert g.num_entities() == 3
    assert g.entity_labels() == {"William_Anders", "Fighter_pilot", "Apollo_8"}
    # relation labels live in their own vocabulary, not among entities
    assert g.relation_labels() == {"occupation", "crewMembers"}
    assert not g.has_entity("occupation")


def test_load_drops_duplicates_with_count(tmp_path):
    path = write_graph(
        tmp_path,
        [
            "William_Anders\toccupation\tFighter_pilot",
            "William_Anders\toccupation\tFighter_pilot",
            "Apollo_8\tcrewMembers\tWilliam_Anders",
        ],
    )
    g = load_graph(path)
    assert len(g.triples) == 2
    assert g.duplicate_count == 1


@given(st.integers(0, 10_000))
def test_positions_keep_first_occurrences_with_injected_duplicates(seed):
    rng = random.Random(seed)
    _, _, triples, _ = random_graph_data(rng, 20, 8, 60)
    stream = list(triples)
    for _ in range(rng.randint(0, 30)):
        # a later copy, spelled with the whitespace that canonicalization trims
        j = rng.randrange(len(stream))
        h, r, t = (x.strip() for x in stream[j])
        stream.insert(rng.randint(j + 1, len(stream)), (f" {h}", f"{r} ", f"{t}\t"))
    first: dict[tuple[str, str, str], None] = {}
    for h, r, t in stream:
        first.setdefault((h.strip(), r.strip(), t.strip()), None)
    g = KnowledgeGraph.from_triples(stream)
    assert [g.triple_labels(t) for t in g.triples] == list(first)
    assert g.duplicate_count == len(stream) - len(first)
    for i, t in enumerate(g.triples):
        assert g.position(t) == i


@contextmanager
def gc_set_to(enabled):
    caller_state = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if caller_state else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_load_restores_caller_gc_state(tmp_path, enabled):
    good = write_graph(tmp_path, ["a\tr\tb", "b\tr\tc"], name="good.tsv")
    bad = write_graph(tmp_path, ["a\tr\tb", "b\tr\tc", "broken line"], name="bad.tsv")
    with gc_set_to(enabled):
        load_graph(good)
        assert gc.isenabled() is enabled
        with pytest.raises(GraphLoadError) as err:
            load_graph(bad)
        assert err.value.line == 3
        assert gc.isenabled() is enabled


def test_gc_paused_while_triples_and_types_are_read():
    seen = []

    def rows(items):
        for item in items:
            seen.append(gc.isenabled())
            yield item

    with gc_set_to(True):
        KnowledgeGraph.from_triples(rows([("a", "r", "b")]), rows([("a", "T")]))
        assert gc.isenabled()
    assert seen == [False, False]


def test_load_malformed_line_reports_line_number(tmp_path):
    for bad in ("broken line", "a\t \tb"):
        path = write_graph(tmp_path, ["a\tr\tb", bad])
        with pytest.raises(GraphLoadError) as err:
            load_graph(path)
        assert err.value.line == 2


def test_load_empty_file_is_an_error(tmp_path):
    path = write_graph(tmp_path, ["# only a comment"])
    with pytest.raises(GraphLoadError):
        load_graph(path)


def test_load_skips_comments_and_blank_lines(tmp_path):
    path = write_graph(tmp_path, ["# header", "", "a\tr\tb"])
    g = load_graph(path)
    assert len(g.triples) == 1


def test_types_file_interns_isolated_entities(tmp_path):
    triples = write_graph(tmp_path, ["a\tr\tb"])
    types = write_graph(tmp_path, ["lonely\tsome type"], name="t.tsv")
    g = load_graph(triples, types)
    assert g.has_entity("lonely")
    assert relations_of_entity(g, "lonely") == set()


def test_multi_type_entities(tmp_path):
    triples = write_graph(tmp_path, ["a\tr\tb"])
    types = write_graph(tmp_path, ["a\tt1", "a\tt2"], name="t.tsv")
    g = load_graph(triples, types)
    tg = build_type_graph(g)
    assert relations_of_type(tg, "t1") == {"r"}
    assert relations_of_type(tg, "t2") == {"r"}


def test_canonicalization_unifies_space_and_underscore():
    g = KnowledgeGraph.from_triples([("William Anders", "r", "b"), ("William_Anders", "q", "c")])
    assert g.num_entities() == 3
    assert relations_of_entity(g, "William_Anders") == {"r", "q"}
    assert canonical_label(" William_Anders ") == "William Anders"


def test_canonicalization_is_idempotent_on_edge_underscores():
    g = KnowledgeGraph.from_triples([("_a", "r", "b"), ("a", "r", "c")])
    assert g.num_entities() == 3
    for label in ("_a", "a_", "__a_b__", " _a_ ", "_", "a__b"):
        once = canonical_label(label)
        assert canonical_label(once) == once, label


def test_relation_labels_are_case_sensitive():
    g = KnowledgeGraph.from_triples([("a", "birthPlace", "b"), ("a", "birthplace", "c")])
    assert g.relation_labels() == {"birthPlace", "birthplace"}


def test_determinism_two_loads_agree(tmp_path):
    lines = ["a\tr1\tb", "c\tr2\ta", "b\tr1\tc"]
    p1 = write_graph(tmp_path, lines, name="one.tsv")
    p2 = write_graph(tmp_path, lines, name="two.tsv")
    g1, g2 = load_graph(p1), load_graph(p2)
    assert g1.triples == g2.triples
    assert [g1.triple_labels(t) for t in g1.triples] == [g2.triple_labels(t) for t in g2.triples]


# --- relations_of_entity ------------------------------------------------------


def test_relations_of_entity_union_of_directions():
    g = KnowledgeGraph.from_triples([("A", "r1", "B"), ("C", "r2", "A")])
    assert relations_of_entity(g, "A", "both") == {"r1", "r2"}
    assert relations_of_entity(g, "A", "outgoing") == {"r1"}
    assert relations_of_entity(g, "A", "incoming") == {"r2"}


def test_relations_of_entity_unknown_label():
    g = KnowledgeGraph.from_triples([("a", "r", "b")])
    with pytest.raises(UnknownEntityError) as err:
        relations_of_entity(g, "nobody")
    assert "nobody" in str(err.value)


def test_relations_of_entity_bad_direction():
    g = KnowledgeGraph.from_triples([("a", "r", "b")])
    with pytest.raises(ValueError):
        relations_of_entity(g, "a", "sideways")


@given(st.integers(0, 10_000))
def test_relations_of_entity_matches_scan(seed):
    rng = random.Random(seed)
    entities, _, triples, type_map = random_graph_data(rng, 20, 8, 60)
    g = KnowledgeGraph.from_triples(triples, _pairs(type_map))
    entity = rng.choice(entities)
    if not g.has_entity(entity):
        return
    for direction in ("outgoing", "incoming", "both"):
        assert relations_of_entity(g, entity, direction) == scan_relations_of_entity(
            triples, entity, direction
        )


def _pairs(type_map):
    return [(e, tl) for e, tls in type_map.items() for tl in sorted(tls)]


# --- type graph ----------------------------------------------------------------


def test_type_graph_single_edge_projection():
    g = KnowledgeGraph.from_triples([("A", "r1", "B")], [("A", "T1")])
    tg = build_type_graph(g)
    assert relations_of_type(tg, "T1") == {"r1"}


def test_type_graph_union_over_entities_of_same_type():
    g = KnowledgeGraph.from_triples(
        [("A", "r1", "B"), ("C", "r2", "D")], [("A", "T1"), ("C", "T1")]
    )
    tg = build_type_graph(g)
    assert relations_of_type(tg, "T1") == {"r1", "r2"}


def test_type_graph_empty_types_is_flagged_not_an_error():
    g = KnowledgeGraph.from_triples([("a", "r", "b")])
    tg = build_type_graph(g)
    assert tg.empty
    assert tg.type_relations == {}


def test_relations_of_unknown_type_is_empty():
    g = KnowledgeGraph.from_triples([("a", "r", "b")], [("a", "T1")])
    tg = build_type_graph(g)
    assert relations_of_type(tg, "never heard of it") == set()


@given(st.integers(0, 10_000))
def test_type_graph_matches_nested_loop_oracle(seed):
    rng = random.Random(seed)
    _, _, triples, type_map = random_graph_data(rng, 20, 8, 60)
    g = KnowledgeGraph.from_triples(triples, _pairs(type_map))
    tg = build_type_graph(g)
    oracle = nested_loop_type_relations(triples, type_map)
    for type_label in set().union(*type_map.values()) if type_map else set():
        assert relations_of_type(tg, type_label) == oracle.get(type_label, set())


@given(st.integers(0, 10_000))
def test_type_graph_soundness(seed):
    # every relation in a bucket is incident to some entity of that type
    rng = random.Random(seed)
    _, _, triples, type_map = random_graph_data(rng, 15, 6, 40)
    g = KnowledgeGraph.from_triples(triples, _pairs(type_map))
    tg = build_type_graph(g)
    for tid, rel_ids in tg.type_relations.items():
        type_label = g.type_label(tid)
        carriers = [e for e, tls in type_map.items() if type_label in tls]
        incident = set().union(*(scan_relations_of_entity(triples, e) for e in carriers))
        assert {g.relation_label(r) for r in rel_ids} <= incident


# --- n-hop ----------------------------------------------------------------------


def test_nhop_chain():
    g = KnowledgeGraph.from_triples([("A", "r1", "B"), ("B", "r2", "C")])
    assert relations_within_n_hops(g, "A", 1) == {"r1"}
    assert relations_within_n_hops(g, "A", 2) == {"r1", "r2"}


def test_nhop_treats_edges_as_undirected():
    g = KnowledgeGraph.from_triples([("B", "r1", "A"), ("C", "r2", "B")])
    assert relations_within_n_hops(g, "A", 2) == {"r1", "r2"}


def test_nhop_rejects_zero():
    g = KnowledgeGraph.from_triples([("a", "r", "b")])
    with pytest.raises(ValueError):
        relations_within_n_hops(g, "a", 0)


def test_nhop_unknown_seed():
    g = KnowledgeGraph.from_triples([("a", "r", "b")])
    with pytest.raises(UnknownEntityError):
        relations_within_n_hops(g, "zz", 1)


@given(st.integers(0, 10_000), st.integers(1, 3))
def test_nhop_matches_path_enumeration(seed, n):
    rng = random.Random(seed)
    entities, _, triples, _ = random_graph_data(rng, 15, 6, 30)
    g = KnowledgeGraph.from_triples(triples)
    start = rng.choice(entities)
    if not g.has_entity(start):
        return
    assert relations_within_n_hops(g, start, n) == enumerate_nhop_relations(triples, start, n)


@given(st.integers(0, 10_000), st.integers(1, 2))
def test_nhop_monotone_in_n(seed, n):
    rng = random.Random(seed)
    entities, _, triples, _ = random_graph_data(rng, 15, 6, 30)
    g = KnowledgeGraph.from_triples(triples)
    start = rng.choice(entities)
    if not g.has_entity(start):
        return
    assert relations_within_n_hops(g, start, n) <= relations_within_n_hops(g, start, n + 1)


# --- triples_matching -------------------------------------------------------------


def test_matching_empty_inputs():
    g = KnowledgeGraph.from_triples([("a", "r", "b")])
    assert triples_matching(g, set(), {"r"}) == []
    assert triples_matching(g, {"a"}, set()) == []


def test_matching_fixture_edge(crewed_flight_graph):
    found = triples_matching(crewed_flight_graph, {"William_Anders"}, {"crewMembers"})
    assert [crewed_flight_graph.triple_labels(t) for t in found] == [
        ("Apollo_8", "crewMembers", "William_Anders")
    ]


def test_matching_unknown_labels_match_nothing():
    g = KnowledgeGraph.from_triples([("a", "r", "b")])
    assert triples_matching(g, {"zz"}, {"r"}) == []
    assert triples_matching(g, {"a"}, {"zz"}) == []


@given(st.integers(0, 10_000))
def test_matching_equals_full_scan(seed):
    rng = random.Random(seed)
    entities, relations, triples, _ = random_graph_data(rng, 20, 8, 60)
    g = KnowledgeGraph.from_triples(triples)
    endpoints = set(rng.sample(entities, rng.randint(0, min(4, len(entities)))))
    rels = set(rng.sample(relations, rng.randint(0, min(3, len(relations)))))
    got = [g.triple_labels(t) for t in triples_matching(g, endpoints, rels)]
    assert got == scan_matching(triples, endpoints, rels)


def test_matching_returns_load_order(factkg_graph):
    found = triples_matching(
        factkg_graph,
        {"Alfredo_Zitarrosa"},
        {"deathPlace", "birthPlace"},
    )
    positions = [factkg_graph.position(t) for t in found]
    assert positions == sorted(positions)


def test_fixture_graph_counts():
    g = load_graph(str(FIXTURES / "crewed_flight_graph.tsv"), str(FIXTURES / "crewed_flight_types.tsv"))
    assert len(g.triples) == 7
    assert relations_of_entity(g, "William Anders") == {
        "crewMembers",
        "almaMater",
        "occupation",
        "birthPlace",
    }
