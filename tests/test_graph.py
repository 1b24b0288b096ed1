from __future__ import annotations

import codecs
import gc
import random
import sys
import tracemalloc
from array import array
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from kg_reason import KnowledgeGraph, build_type_graph, canonical_label, errors, load_graph
from kg_reason.errors import GraphLoadError
from kg_reason.graph import gather, match_triples_by_id, merge_positions, relations_within_n_hops

from helpers import (
    FIXTURES,
    enumerate_nhop_relations,
    labelled,
    load_graph_reference,
    nested_loop_type_relations,
    random_graph_data,
    read_tsv_rows,
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
    return nhop_relations(g, entity, 1)


def type_relations(tg, type_label):
    tid = tg.graph.maybe_type_id(type_label)
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
    assert len(g.head) == 2
    # one id per distinct label: the shared entity interns once
    ids = [g.maybe_entity_id(e) for e in ("William_Anders", "Fighter_pilot", "Apollo_8")]
    assert sorted(ids) == [0, 1, 2]
    assert g.entity_labels(ids) == ["William_Anders", "Fighter_pilot", "Apollo_8"]
    assert labelled(g, range(len(g.head))) == [
        ("William_Anders", "occupation", "Fighter_pilot"),
        ("Apollo_8", "crewMembers", "William_Anders"),
    ]
    # relation labels live in their own vocabulary, not among entities
    assert relation_labels(g, g.relation) == {"occupation", "crewMembers"}
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
    assert len(g.head) == 2
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
    assert labelled(g, range(len(g.head))) == list(first)
    assert g.duplicate_count == len(stream) - len(first)
    for i, (head, relation) in enumerate(zip(g.head, g.relation)):
        assert i in match_triples_by_id(g, {head}, {relation})


@pytest.mark.parametrize(
    "triples, entity_types, width",
    [([("a", "r", "b"), ("c", "d")], (), 3), ([("a", "r", "b")], [("a", "t", "u")], 2)],
    ids=["two-field-triple", "three-field-type-row"],
)
def test_from_triples_rejects_a_row_of_the_wrong_width(triples, entity_types, width):
    with pytest.raises(ValueError, match=f"every row must hold {width} fields"):
        KnowledgeGraph.from_triples(triples, entity_types)


@pytest.mark.parametrize(
    "triples, entity_types",
    [
        ([(" ", "r", "t")], ()),
        ([("h", "", "t")], ()),
        ([("h", "r", "  ")], ()),
        ([("h", "r", "t")], [("", "T")]),
        ([("h", "r", "t")], [("h", " ")]),
    ],
    ids=["head", "relation", "tail", "type-entity", "type"],
)
def test_from_triples_refuses_a_blank_field_as_load_graph_does(triples, entity_types, tmp_path):
    with pytest.raises(ValueError, match="^every field must hold a label, not blanks$"):
        KnowledgeGraph.from_triples(triples, entity_types)
    paths = []
    for name, rows in (("triples.tsv", triples), ("types.tsv", entity_types)):
        paths.append(tmp_path / name)
        paths[-1].write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
    with pytest.raises(GraphLoadError, match=":1: empty field$"):
        load_graph(*map(str, paths))


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
    assert len(g.head) == 1


# Comments, blank lines, a "#" inside labels, respellings that canonicalize
# alike, duplicates, and entities only the type file names.
CHUNKED_GRAPH = [
    "# a comment line\twith\ttabs",
    "",
    "William_Anders\toccupation\tFighter_pilot",
    "  # an indented comment",
    "Apollo_8\tcrewMembers\t William Anders ",
    " \t ",
    "William Anders\toccupation\tFighter pilot",
    "C#_(language)\tdesigner#\tAnders_Hejlsberg",
    *(f"e{i % 7}_x\tr{i % 3}\t e{i * 5 % 11} x" for i in range(60)),
    "Apollo 8\tcrewMembers\tFrank_Borman",
]
CHUNKED_TYPES = [
    "# types",
    "William_Anders\tAstronaut",
    "Lonely_one\tPerson",
    "",
    " William Anders \tPerson",
    *(f"e{i % 13} x\tType_{i % 4}" for i in range(40)),
    "Apollo_8\tMission",
    "Only_typed\tMission",
]


def graph_state(g):
    return (
        g._entities.labels, g._relations.labels, g._types.labels,
        g.head, g.relation, g.tail, tuple(g._out), tuple(g._in),
        list(g.entity_types.items()), g.duplicate_count,
    )


@pytest.mark.parametrize("chunk_size", [1, 40])
@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_chunked_load_equals_a_build_from_rows_read_line_by_line(
    chunk_size, ending, tmp_path, monkeypatch
):
    paths = []
    for name, lines in (("g.tsv", CHUNKED_GRAPH), ("t.tsv", CHUNKED_TYPES)):
        paths.append(tmp_path / name)
        paths[-1].write_bytes("".join(line + ending for line in lines).encode("utf-8"))
    monkeypatch.setattr(errors, "CHUNK_SIZE", chunk_size)
    graph_path, types_path = map(str, paths)
    assert len(list(errors.read_chunks(graph_path, GraphLoadError))) > 10
    g = load_graph(graph_path, types_path)
    reference = KnowledgeGraph.from_triples(
        read_tsv_rows(graph_path, 3), read_tsv_rows(types_path, 2)
    )
    assert graph_state(g) == graph_state(reference)
    assert g.duplicate_count > 0 and g.maybe_entity_id("Only typed") is not None
    assert build_type_graph(g).type_relations == build_type_graph(reference).type_relations


# Rows with repeated triples, and the same rows with each repeat dropped.
REPEATED_TRIPLES = {
    "within-one-run": (
        [("a", "r", "b"), ("a", "r", "c"), ("x", "q", "a"), ("a", "r", "b"), ("a", "s", "b"),
         ("a", "r", "c"), ("x", "q", "b"), ("a", "r", "b")],
        [("a", "r", "b"), ("a", "r", "c"), ("x", "q", "a"), ("a", "s", "b"), ("x", "q", "b")],
    ),
    "respelled": (
        [("William_Anders", "occupation", "Fighter_pilot"), ("Apollo_8", "crewMembers", "William_Anders"),
         (" William Anders ", "occupation", "Fighter pilot")],
        [("William_Anders", "occupation", "Fighter_pilot"), ("Apollo_8", "crewMembers", "William_Anders")],
    ),
    "self-loop": (
        [("a", "r", "a"), ("a", "r", "b"), ("b", "r", "a"), ("a", "r", "a"), ("a", "r", "a")],
        [("a", "r", "a"), ("a", "r", "b"), ("b", "r", "a")],
    ),
    "one-triple-only": ([("a", "r", "b")] * 5, [("a", "r", "b")]),
}
REPEATED_TRIPLES_TYPES = [("a", "T"), ("b", "T"), ("b", "U"), ("William Anders", "Astronaut")]


@pytest.mark.parametrize("rows, unique", REPEATED_TRIPLES.values(), ids=list(REPEATED_TRIPLES))
def test_repeated_triples_build_the_graph_of_the_rows_without_them(rows, unique):
    g = KnowledgeGraph.from_triples(rows, REPEATED_TRIPLES_TYPES)
    reference = KnowledgeGraph.from_triples(unique, REPEATED_TRIPLES_TYPES)
    assert reference.duplicate_count == 0 and g.duplicate_count == len(rows) - len(unique)
    *state, _ = graph_state(g)  # all but the duplicate count
    *expected, _ = graph_state(reference)
    assert state == expected
    # dropping the repeats leaves no array with spare room
    for a in (g.head, g.relation, g.tail, *g._out[:4], *g._in[:4]):
        assert sys.getsizeof(a) == sys.getsizeof(array("i", a))


# Labels with respellings that canonicalize alike, "#" inside, and a few
# characters str.strip and str.isspace treat as blank but text mode does not
# treat as line breaks.
_FIELDS = [
    "a", "a_b", "a b", " a_b ", "A", "x#y", "C#_(l)", "\u00e9", "b\u00a0", "\ufeffa", "\x1c",
]
_ENDINGS = [b"\n", b"\r\n", b"\r"]
# inserted anywhere: bytes that are not UTF-8 on their own, a tab, a blank field
_DEFECTS = [b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\t", b"\t \t"]


def _data_line(width):
    fields = st.lists(st.sampled_from(_FIELDS), min_size=width, max_size=width)
    return fields.map(lambda fields: "\t".join(fields).encode("utf-8"))


_COMMENT = st.builds(
    bytes.__add__,
    st.sampled_from([b"", b" ", b"\t"]),
    st.sampled_from([b"#", b"# a note", b"#\tx\ty\tz"]),
)
_BLANK = st.sampled_from([b"", b" ", b" \t ", b"\x0c"])


@st.composite
def tsv_bytes(draw, width):
    """A graph (``width`` 3) or type file (2) as bytes, often with a defect."""
    lines = draw(st.lists(st.one_of(_data_line(width), _COMMENT, _BLANK), max_size=25))
    pieces = [line + draw(st.sampled_from(_ENDINGS)) for line in lines]
    if lines and draw(st.booleans()):
        pieces[-1] = lines[-1]  # no ending on the last line
    for defect in draw(st.lists(st.sampled_from(_DEFECTS), max_size=2)) if pieces else ():
        i = draw(st.integers(0, len(pieces) - 1))
        at = draw(st.integers(0, len(pieces[i])))
        pieces[i] = pieces[i][:at] + defect + pieces[i][at:]
    return (codecs.BOM_UTF8 if draw(st.booleans()) else b"") + b"".join(pieces)


@pytest.fixture(scope="module")
def load_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("load")


def load_outcome(load, *paths):
    try:
        return graph_state(load(*paths))
    except GraphLoadError as exc:
        return str(exc), exc.line


@settings(max_examples=300)
@given(
    graph=tsv_bytes(3),
    types=st.none() | tsv_bytes(2),
    chunk_size=st.integers(1, 64) | st.just(errors.CHUNK_SIZE),
)
def test_load_graph_agrees_with_a_line_by_line_reader(graph, types, chunk_size, load_dir):
    """Chunk by chunk, the loader builds the reference's graph, or raises its
    error at the same line with the same message."""
    paths = [load_dir / "g.tsv"]
    paths[0].write_bytes(graph)
    if types is not None:
        paths.append(load_dir / "t.tsv")
        paths[1].write_bytes(types)
    paths = list(map(str, paths))
    with mock.patch.object(errors, "CHUNK_SIZE", chunk_size):
        loaded = load_outcome(load_graph, *paths)
    assert loaded == load_outcome(load_graph_reference, *paths)


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


def test_entities_with_equal_type_sets_share_one_frozenset():
    pairs = [
        ("d", "U"), ("b", "U"), ("a", "T"), ("b", "T"), ("c", " T "), ("e", "T"), ("a", "T"),
        ("e", "U"), ("f", "V"), ("f", "U_"), ("f", "T"), ("g", "T"), ("g", "V"), ("g", "U"),
    ]
    g = KnowledgeGraph.from_triples([("a", "r", "z")], pairs)
    types = {label: g.entity_types[g.maybe_entity_id(label)] for label in "abcdefg"}
    assert g.entity_labels(g.entity_types) == ["d", "b", "a", "c", "e", "f", "g"]
    t, u, v = map(g.maybe_type_id, "TUV")
    assert types["a"] == {t} and types["b"] == {t, u} and types["f"] == {t, u, v}
    # one type, a repeated pair or a respelled type: the same object
    assert types["a"] is types["c"]
    assert types["d"] == {u}
    # several types, added in any order
    assert types["b"] is types["e"]
    assert types["f"] is types["g"]
    assert len(set(map(id, g.entity_types.values()))) == len(set(g.entity_types.values())) == 4


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
    assert (g1.head, g1.relation, g1.tail) == (g2.head, g2.relation, g2.tail)
    assert labelled(g1, range(len(g1.head))) == labelled(g2, range(len(g2.head)))


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

# Each form of the same positions: label_columns takes any iterable, and a
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
    columns = g.label_columns(_POSITION_FORMS[form](positions))
    assert columns == tuple(tuple(t[i] for t in reference) for i in range(3))
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
    assert g.maybe_type_id("never heard of it") is None
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
        rel_ids = tg.relation_ids_for(g.maybe_type_id(type_label))
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
    assert labelled(g, found) == [
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
    got = labelled(g, matching(g, endpoints, rels))
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
        p
        for p, (h, r, t) in enumerate(zip(g.head, g.relation, g.tail))
        if r in wanted and (h in anchors or t in anchors)
    ]


@given(st.integers(0, 10_000))
def test_matching_with_self_loops_and_both_endpoints_anchored(seed):
    # A triple lies in an out-run and an in-run of the anchors when both of its
    # endpoints are anchors, a self-loop when its one endpoint is.
    rng = random.Random(seed)
    entities, relations, triples, _ = random_graph_data(rng, 12, 5, 60, self_loops=True)
    loop = rng.choice(entities)
    triples.insert(rng.randint(0, len(triples)), (loop, rng.choice(relations), loop))
    g = KnowledgeGraph.from_triples(triples)
    picked = [loop, *rng.choice(triples)[::2]]
    endpoints = set(picked + rng.sample(entities, rng.randint(0, min(3, len(entities)))))
    rels = {r for h, r, t in triples if h in picked and t in picked}
    rels.update(rng.sample(relations, rng.randint(0, len(relations))))
    got = matching(g, endpoints, rels)
    assert labelled(g, got) == scan_matching(triples, endpoints, rels)
    assert got == sorted(set(got))


def test_matching_returns_load_order(factkg_graph):
    positions = matching(factkg_graph, {"Alfredo_Zitarrosa"}, {"deathPlace", "birthPlace"})
    assert len(positions) >= 2
    assert positions == sorted(set(positions))


# lists without inner repeats, each in any order, some empty, overlapping one another
@given(st.lists(st.lists(st.integers(0, 40), unique=True, max_size=12), max_size=5))
def test_merge_positions_is_the_ascending_union(lists):
    assert merge_positions(lists) == sorted(set().union(*lists))


def test_a_graph_built_from_no_triples_answers_empty():
    g = KnowledgeGraph.from_triples([])
    assert g.duplicate_count == 0
    assert not g.head and not g.entity_types
    for n in (1, 2, 3):
        assert relations_within_n_hops(g, 0, n) == set()
    assert match_triples_by_id(g, {0}, {0}) == []
    assert build_type_graph(g).type_relations == {}


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
    assert tg.type_relations and len(g.head) > 19_900
    assert retained / len(g.head) < 400


def test_graph_build_peaks_under_200_bytes_per_triple():
    # The interning scratch (the per-build caches) has to be freed before the
    # sides are sorted. On this graph the build and the type projection peak
    # at about 133 bytes per triple, and at about 170 when a dict keyed by one
    # packed int per triple found the repeats and key-function sorts built
    # the sides.
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


def test_graph_build_scratch_stays_under_60_bytes_per_triple():
    # What a build allocates beyond what the graph keeps. The counting sorts over
    # the id columns take a few int arrays and per-key counts: about 30 bytes per
    # triple on this graph, which holds repeats, so the sides are built twice. A
    # dict keyed by one packed int per triple and key-function sorts over every
    # position took about 93.
    triples, typed = memory_test_graph_data()
    triples += triples[::1000]
    gc.collect()
    tracemalloc.start()
    try:
        g = KnowledgeGraph.from_triples(triples, typed)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.duplicate_count >= 20 and len(g.head) > 19_900
    assert (peak - retained) / len(g.head) < 60


def test_graph_build_adds_few_gc_tracked_objects():
    # The triples live in int arrays, which the cyclic collector does not
    # track, so a collection after a load need not walk every edge.
    triples, typed = memory_test_graph_data()
    gc.collect()
    with gc_set_to(False):
        before = len(gc.get_objects())
        g = KnowledgeGraph.from_triples(triples, typed)
        added = len(gc.get_objects()) - before
    assert added < len(g.head) // 20


def test_fixture_graph_counts():
    g = load_graph(str(FIXTURES / "crewed_flight_graph.tsv"), str(FIXTURES / "crewed_flight_types.tsv"))
    assert len(g.head) == 7
    assert entity_relations(g, "William Anders") == {
        "crewMembers",
        "almaMater",
        "occupation",
        "birthPlace",
    }
