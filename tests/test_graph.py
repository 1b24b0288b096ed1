from __future__ import annotations

import gc
import random
import tracemalloc
from contextlib import contextmanager

import pytest
from hypothesis import given, strategies as st

from kg_reason import KnowledgeGraph, build_type_graph, canonical_label, load_graph
from kg_reason.errors import GraphLoadError
from kg_reason.graph import gather, match_triples_by_id, relations_within_n_hops

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


# The graph answers in ids; these resolve the test's labels on the way in
# and render relation ids on the way out, so the oracles can compare labels.


def relation_labels(g, relation_ids):
    return {g.relation_label(r) for r in relation_ids}


def entity_relations(g, entity):
    return relation_labels(g, g.incident_relation_ids(g.maybe_entity_id(entity)))


def type_relations(tg, type_label):
    tid = tg.resolve_type(type_label)
    return set() if tid is None else relation_labels(tg.graph, tg.relation_ids_for(tid))


def nhop_relations(g, seed, n):
    return relation_labels(g, relations_within_n_hops(g, g.maybe_entity_id(seed), n))


def matching(g, endpoints, relations):
    endpoint_ids = {e for e in map(g.maybe_entity_id, endpoints) if e is not None}
    relation_ids = {r for r in map(g.maybe_relation_id, relations) if r is not None}
    return match_triples_by_id(g, endpoint_ids, relation_ids)


# --- loading ----------------------------------------------------------------


def test_load_two_triples(tmp_path):
    path = write_graph(
        tmp_path,
        ["William_Anders\toccupation\tFighter_pilot", "Apollo_8\tcrewMembers\tWilliam_Anders"],
    )
    g = load_graph(path)
    assert len(g.triples) == 2
    # one id per distinct label: the shared entity interns once
    ids = [g.maybe_entity_id(e) for e in ("William_Anders", "Fighter_pilot", "Apollo_8")]
    assert sorted(ids) == [0, 1, 2]
    assert g.entity_labels(ids) == ["William_Anders", "Fighter_pilot", "Apollo_8"]
    assert g.label_triples(range(len(g.triples))) == [g.triple_labels(t) for t in g.triples] == [
        ("William_Anders", "occupation", "Fighter_pilot"),
        ("Apollo_8", "crewMembers", "William_Anders"),
    ]
    # relation labels live in their own vocabulary, not among entities
    assert relation_labels(g, (t.relation for t in g.triples)) == {"occupation", "crewMembers"}
    assert g.maybe_entity_id("occupation") is None


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
    assert g.label_triples(range(len(g.triples))) == list(first)
    assert g.duplicate_count == len(stream) - len(first)
    for i, t in enumerate(g.triples):
        assert i in match_triples_by_id(g, {t.head}, {t.relation})


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
    assert g.maybe_entity_id("lonely") is not None
    assert entity_relations(g, "lonely") == set()


def test_multi_type_entities(tmp_path):
    triples = write_graph(tmp_path, ["a\tr\tb"])
    types = write_graph(tmp_path, ["a\tt1", "a\tt2"], name="t.tsv")
    g = load_graph(triples, types)
    tg = build_type_graph(g)
    assert type_relations(tg, "t1") == {"r"}
    assert type_relations(tg, "t2") == {"r"}


def test_canonicalization_unifies_space_and_underscore():
    g = KnowledgeGraph.from_triples([("William Anders", "r", "b"), ("William_Anders", "q", "c")])
    assert g.maybe_entity_id("William Anders") == g.maybe_entity_id("William_Anders") == 0
    assert g.maybe_entity_id("c") == 2
    assert entity_relations(g, "William_Anders") == {"r", "q"}
    assert canonical_label(" William_Anders ") == "William Anders"


def test_canonicalization_is_idempotent_on_edge_underscores():
    g = KnowledgeGraph.from_triples([("_a", "r", "b"), ("a", "r", "c")])
    assert [g.maybe_entity_id(e) for e in ("_a", "a", "b", "c")] == [0, 0, 1, 2]
    for label in ("_a", "a_", "__a_b__", " _a_ ", "_", "a__b"):
        once = canonical_label(label)
        assert canonical_label(once) == once, label


def test_relation_labels_are_case_sensitive():
    g = KnowledgeGraph.from_triples([("a", "birthPlace", "b"), ("a", "birthplace", "c")])
    ids = [g.maybe_relation_id(r) for r in ("birthPlace", "birthplace", "BirthPlace")]
    assert ids == [0, 1, None]


def test_determinism_two_loads_agree(tmp_path):
    lines = ["a\tr1\tb", "c\tr2\ta", "b\tr1\tc"]
    p1 = write_graph(tmp_path, lines, name="one.tsv")
    p2 = write_graph(tmp_path, lines, name="two.tsv")
    g1, g2 = load_graph(p1), load_graph(p2)
    assert g1.triples == g2.triples
    assert g1.label_triples(range(len(g1.triples))) == g2.label_triples(range(len(g2.triples)))


# --- an entity's relations ---------------------------------------------------


def test_relations_of_entity_union_of_directions():
    g = KnowledgeGraph.from_triples([("A", "r1", "B"), ("C", "r2", "A")])
    assert entity_relations(g, "A") == {"r1", "r2"}
    assert entity_relations(g, "B") == {"r1"}
    assert entity_relations(g, "C") == {"r2"}


@given(st.integers(0, 10_000))
def test_relations_of_entity_matches_scan(seed):
    rng = random.Random(seed)
    entities, _, triples, type_map = random_graph_data(rng, 20, 8, 60)
    g = KnowledgeGraph.from_triples(triples, _pairs(type_map))
    entity = rng.choice(entities)
    if g.maybe_entity_id(entity) is None:
        return
    assert entity_relations(g, entity) == scan_relations_of_entity(triples, entity)


def _pairs(type_map):
    return [(e, tl) for e, tls in type_map.items() for tl in sorted(tls)]


# --- labelling ------------------------------------------------------------------

# Each form of the same positions: label_triples takes any iterable, and a
# generator can be read only once.
_POSITION_FORMS = {
    "tuple": tuple,
    "list": list,
    "range": lambda r: r,
    "generator": lambda r: (p for p in r),
}


@pytest.mark.parametrize("form", sorted(_POSITION_FORMS))
@pytest.mark.parametrize("count", [0, 1, 2, 500])
def test_gather_and_label_triples_equal_per_position_lookup(count, form):
    # 1,200 triples over 300 entities and 7 relations; heads repeat as a hub's do
    g = KnowledgeGraph.from_triples(
        (f"e{i % 300}", f"r{i % 7}", f"e{(i * 7 + 1) % 300}") for i in range(1200)
    )
    assert len(g.head) == 1200
    entity, relation = g._entities.labels, g._relations.labels
    # descending and strided, so a result in ascending order would not pass
    positions = range(1199, 1199 - 2 * count, -2)
    reference = [(entity[g.head[p]], relation[g.relation[p]], entity[g.tail[p]]) for p in positions]
    assert g.label_triples(_POSITION_FORMS[form](positions)) == reference
    # one index is a 1-tuple, where a bare itemgetter returns the item itself
    heads = gather(g.head, _POSITION_FORMS[form](positions))
    assert heads == tuple(g.head[p] for p in positions)
    assert gather(entity, _POSITION_FORMS[form](heads)) == tuple(h for h, _, _ in reference)


def test_entity_labels_gathers_from_a_set():
    g = KnowledgeGraph.from_triples([("a", "r", "b"), ("c", "r", "d")])
    for ids in (set(), {2}, {0, 3}):
        assert sorted(g.entity_labels(ids)) == sorted("abcd"[i] for i in ids)


# --- type graph ----------------------------------------------------------------


def test_type_graph_single_edge_projection():
    g = KnowledgeGraph.from_triples([("A", "r1", "B")], [("A", "T1")])
    tg = build_type_graph(g)
    assert type_relations(tg, "T1") == {"r1"}


def test_type_graph_union_over_entities_of_same_type():
    g = KnowledgeGraph.from_triples(
        [("A", "r1", "B"), ("C", "r2", "D")], [("A", "T1"), ("C", "T1")]
    )
    tg = build_type_graph(g)
    assert type_relations(tg, "T1") == {"r1", "r2"}


def test_type_graph_without_types_is_empty_not_an_error():
    g = KnowledgeGraph.from_triples([("a", "r", "b")])
    tg = build_type_graph(g)
    assert tg.type_relations == {}


def test_relations_of_unknown_type_is_empty():
    g = KnowledgeGraph.from_triples([("a", "r", "b")], [("a", "T1")])
    tg = build_type_graph(g)
    assert tg.resolve_type("never heard of it") is None
    assert type_relations(tg, "never heard of it") == set()


@given(st.integers(0, 10_000))
def test_type_graph_matches_nested_loop_oracle(seed):
    rng = random.Random(seed)
    _, _, triples, type_map = random_graph_data(rng, 20, 8, 60)
    g = KnowledgeGraph.from_triples(triples, _pairs(type_map))
    tg = build_type_graph(g)
    oracle = nested_loop_type_relations(triples, type_map)
    for type_label in set().union(*type_map.values()) if type_map else set():
        assert type_relations(tg, type_label) == oracle.get(type_label, set())


@given(st.integers(0, 10_000))
def test_type_graph_soundness(seed):
    # every relation in a bucket is incident to some entity of that type
    rng = random.Random(seed)
    _, _, triples, type_map = random_graph_data(rng, 15, 6, 40)
    g = KnowledgeGraph.from_triples(triples, _pairs(type_map))
    tg = build_type_graph(g)
    for type_label in set().union(*type_map.values()) if type_map else set():
        rel_ids = tg.relation_ids_for(tg.resolve_type(type_label))
        carriers = [e for e, tls in type_map.items() if type_label in tls]
        incident = set().union(*(scan_relations_of_entity(triples, e) for e in carriers))
        assert {g.relation_label(r) for r in rel_ids} <= incident


# --- n-hop ----------------------------------------------------------------------


def test_nhop_chain():
    g = KnowledgeGraph.from_triples([("A", "r1", "B"), ("B", "r2", "C")])
    assert nhop_relations(g, "A", 1) == {"r1"}
    assert nhop_relations(g, "A", 2) == {"r1", "r2"}


def test_nhop_treats_edges_as_undirected():
    g = KnowledgeGraph.from_triples([("B", "r1", "A"), ("C", "r2", "B")])
    assert nhop_relations(g, "A", 2) == {"r1", "r2"}


def test_nhop_rejects_zero():
    g = KnowledgeGraph.from_triples([("a", "r", "b")])
    with pytest.raises(ValueError):
        relations_within_n_hops(g, g.maybe_entity_id("a"), 0)


@given(st.integers(0, 10_000), st.integers(1, 3))
def test_nhop_matches_path_enumeration(seed, n):
    rng = random.Random(seed)
    entities, _, triples, _ = random_graph_data(rng, 15, 6, 30)
    g = KnowledgeGraph.from_triples(triples)
    start = rng.choice(entities)
    if g.maybe_entity_id(start) is None:
        return
    assert nhop_relations(g, start, n) == enumerate_nhop_relations(triples, start, n)


@given(st.integers(0, 10_000), st.integers(1, 2))
def test_nhop_monotone_in_n(seed, n):
    rng = random.Random(seed)
    entities, _, triples, _ = random_graph_data(rng, 15, 6, 30)
    g = KnowledgeGraph.from_triples(triples)
    start = rng.choice(entities)
    if g.maybe_entity_id(start) is None:
        return
    assert nhop_relations(g, start, n) <= nhop_relations(g, start, n + 1)


# --- matching -------------------------------------------------------------------


def test_matching_empty_inputs():
    g = KnowledgeGraph.from_triples([("a", "r", "b")])
    assert match_triples_by_id(g, set(), {0}) == []
    assert match_triples_by_id(g, {0}, set()) == []


def test_matching_fixture_edge(crewed_flight_graph):
    g = crewed_flight_graph
    found = matching(g, {"William_Anders"}, {"crewMembers"})
    assert g.label_triples(found) == [
        ("Apollo_8", "crewMembers", "William_Anders")
    ]


def test_matching_unknown_labels_match_nothing():
    g = KnowledgeGraph.from_triples([("a", "r", "b")])
    assert g.maybe_entity_id("zz") is None and g.maybe_relation_id("zz") is None
    assert matching(g, {"zz"}, {"r"}) == []
    assert matching(g, {"a"}, {"zz"}) == []
    # ids the graph never handed out match nothing either
    assert match_triples_by_id(g, {7}, {0}) == []
    assert match_triples_by_id(g, {0}, {7}) == []


@given(st.integers(0, 10_000))
def test_matching_equals_full_scan(seed):
    rng = random.Random(seed)
    entities, relations, triples, _ = random_graph_data(rng, 20, 8, 60)
    g = KnowledgeGraph.from_triples(triples)
    endpoints = set(rng.sample(entities, rng.randint(0, min(4, len(entities)))))
    rels = set(rng.sample(relations, rng.randint(0, min(3, len(relations)))))
    got = g.label_triples(matching(g, endpoints, rels))
    assert got == scan_matching(triples, endpoints, rels)

    # A hub heads a run on every relation and tails runs on all but some.
    hub, others = entities[0], entities[1:]
    triples += [(hub, r, rng.choice(others)) for r in relations]
    in_runs = rng.sample(relations, rng.randint(0, len(relations) - 1))
    triples += [(rng.choice(others), r, hub) for r in in_runs]
    g = KnowledgeGraph.from_triples(triples)
    n_relations = len(relations)  # the hub's runs intern every relation: ids 0..n-1
    leaves = rng.sample(others, rng.randint(0, min(3, len(others))))
    anchors = {g.maybe_entity_id(e) for e in [hub, *leaves]} - {None}
    # the smallest and largest ids, one past the last, and a random subset
    wanted = {0, n_relations - 1, n_relations}
    wanted.update(rng.sample(range(n_relations), rng.randint(0, n_relations)))
    assert match_triples_by_id(g, anchors, wanted) == [
        p for p, (h, r, t) in enumerate(g.triples) if r in wanted and (h in anchors or t in anchors)
    ]


def test_matching_returns_load_order(factkg_graph):
    positions = matching(factkg_graph, {"Alfredo_Zitarrosa"}, {"deathPlace", "birthPlace"})
    assert len(positions) >= 2
    assert positions == sorted(set(positions))


# --- ids the graph never handed out ----------------------------------------------


@pytest.mark.parametrize(
    "triples, types",
    [
        # the last entity has in-edges only, the first out-edges only
        ([("a", "r", "b"), ("b", "q", "c")], []),
        # the last entity has out-edges only
        ([("a", "r", "b"), ("c", "q", "a")], []),
        # the last entity comes from the type file and has no edges
        ([("a", "r", "b"), ("b", "q", "c")], [("lonely", "T")]),
    ],
)
def test_ids_never_handed_out_reach_nothing(triples, types):
    g = KnowledgeGraph.from_triples(triples, types)
    labels = sorted({x for h, _, t in triples for x in (h, t)} | {e for e, _ in types})
    ids = sorted(map(g.maybe_entity_id, labels))
    assert ids == list(range(len(labels)))
    every_relation = {0, 1}
    for bad in (-1, len(ids), 10**9):  # before the first id, one past the last, far beyond
        assert match_triples_by_id(g, {bad}, every_relation) == []
        assert g.incident_relation_ids(bad) == set()
        for n in (1, 2, 3):
            assert relations_within_n_hops(g, bad, n) == set()
    # the ids next to them still answer
    assert match_triples_by_id(g, set(ids), every_relation) == [0, 1]
    assert relations_within_n_hops(g, ids[0], 2) == every_relation


# --- memory ---------------------------------------------------------------------


def memory_test_graph_data():
    """20k random triples over 5,000 entities, each with one or two types."""
    rng = random.Random(7)
    entities = [f"entity_{i}" for i in range(5000)]
    relations = [f"relation{i}" for i in range(50)]
    types = [f"type {i}" for i in range(20)]
    triples = [(rng.choice(entities), rng.choice(relations), rng.choice(entities)) for _ in range(20_000)]
    typed = [(e, t) for e in entities for t in rng.sample(types, rng.randint(1, 2))]
    return triples, typed


def test_graph_and_type_projection_retain_under_400_bytes_per_triple():
    # The bound sits between what a dict-of-dicts adjacency retains on this
    # graph (about 770 bytes per triple) and what the id columns and the
    # compressed sides retain (about 80).
    triples, typed = memory_test_graph_data()
    gc.collect()
    tracemalloc.start()
    try:
        g = KnowledgeGraph.from_triples(triples, typed)
        tg = build_type_graph(g)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tg.type_relations and len(g.triples) > 19_900
    assert retained / len(g.triples) < 400


def test_graph_build_peaks_under_200_bytes_per_triple():
    # The interning scratch (caches, dedup dict, type sets) has to be freed
    # before the sides' sort buffers are made; kept alive through the side
    # build, it takes the peak to about 240 bytes per triple on this graph.
    triples, typed = memory_test_graph_data()
    gc.collect()
    tracemalloc.start()
    try:
        g = KnowledgeGraph.from_triples(triples, typed)
        build_type_graph(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.head) > 19_900
    assert peak / len(g.head) < 200


def test_graph_build_adds_few_gc_tracked_objects():
    # The triples live in int arrays, which the cyclic collector does not
    # track, so a collection after a load need not walk every edge.
    triples, typed = memory_test_graph_data()
    gc.collect()
    with gc_set_to(False):
        before = len(gc.get_objects())
        g = KnowledgeGraph.from_triples(triples, typed)
        added = len(gc.get_objects()) - before
    assert added < len(g.triples) // 20


def test_fixture_graph_counts():
    g = load_graph(str(FIXTURES / "crewed_flight_graph.tsv"), str(FIXTURES / "crewed_flight_types.tsv"))
    assert len(g.triples) == 7
    assert entity_relations(g, "William Anders") == {
        "crewMembers",
        "almaMater",
        "occupation",
        "birthPlace",
    }
