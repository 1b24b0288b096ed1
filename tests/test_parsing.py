from __future__ import annotations

import ast
import re

import pytest
from hypothesis import given, strategies as st

from kg_reason import (
    KnowledgeGraph,
    Mention,
    QA_INFERENCE_TEMPLATE,
    REFUTED,
    RETRIEVAL_TEMPLATE,
    SEGMENTATION_TEMPLATE,
    SUPPORTED,
    VERIFICATION_INFERENCE_TEMPLATE,
    build_type_graph,
    parse_answer,
    parse_relations,
    parse_segmentation,
    parse_verdict,
)
from kg_reason.errors import ParseError


# --- segmentation ------------------------------------------------------------


def q(surfaces):
    return [Mention.variable(s) for s in surfaces]


def test_parse_single_line_claim():
    got = parse_segmentation(
        "1. X's club is Y., Entity set: ['X' ## 'Y']", q(["X", "Y"])
    )
    assert len(got) == 1
    assert got[0].index == 1
    assert got[0].text == "X's club is Y."
    assert [m.surface for m in got[0].mentions] == ["X", "Y"]


def test_parse_two_lines_with_free_variable():
    response = (
        "1. An academic journal is with code IJPHDE., Entity set: ['academic journal' ## \"IJPHDE\"]\n"
        "2. An academic journal is also Acta Math. Hungar., Entity set: ['academic journal' ## \"Acta Math. Hungar.\"]"
    )
    query = q(["Acta Math. Hungar.", "IJPHDE"])
    got = parse_segmentation(response, query)
    assert len(got) == 2
    first = got[0].mentions
    assert {m.surface for m in first} == {"academic journal", "IJPHDE"}
    # IJPHDE resolves to the query mention; the journal is a fresh variable
    assert query[1] in first
    journal = next(m for m in first if m.surface == "academic journal")
    assert journal.kind == "variable"
    assert journal not in query


def test_parse_resolves_against_type_vocabulary():
    g = KnowledgeGraph.from_triples(
        [("Apollo_8", "crewMembers", "William_Anders")], [("Apollo_8", "artificial satellite")]
    )
    tg = build_type_graph(g)
    got = parse_segmentation(
        "1. William Anders was a crew member of an artificial satellite., "
        "Entity set: ['William_Anders' ## 'artificial satellite']",
        [Mention.concrete("William_Anders", g.maybe_entity_id("William_Anders"))],
        tg,
    )
    kinds = {m.surface: m.kind for m in got[0].mentions}
    assert kinds["William_Anders"] == "concrete"
    assert kinds["artificial satellite"] == "type"


def test_three_entities_reject_line_but_keep_the_rest():
    notes: list[str] = []
    response = (
        "1. Bad line., Entity set: ['a' ## 'b' ## 'c']\n"
        "2. Good line., Entity set: ['a' ## 'b']"
    )
    got = parse_segmentation(response, q(["a", "b", "c"]), notes=notes)
    assert len(got) == 1
    assert got[0].text == "Good line."
    assert got[0].index == 1
    assert any("more than two entities" in n for n in notes)


def test_empty_entity_set_skips_the_line_with_a_note():
    notes: list[str] = []
    query = q(["abba"])
    response = (
        "1. Nothing named., Entity set: []\n"
        "2. Only quotes., Entity set: ['' ## \"\"]\n"
        "3. Bare name., Entity set: [ abba ]"
    )
    got = parse_segmentation(response, query, notes=notes)
    assert [(s.index, s.text) for s in got] == [(1, "Bare name.")]
    # an unquoted token is taken as it stands, trimmed, though it starts and ends alike
    assert got[0].mentions == (query[0],)
    assert notes == [
        f"line has an empty entity set: {line!r}" for line in response.splitlines()[:2]
    ]


def test_garbage_lines_collect_notes():
    notes: list[str] = []
    with pytest.raises(ParseError, match="^no response line matched the segmentation grammar$"):
        parse_segmentation("no structure here\nat all", q(["a"]), notes=notes)
    assert len(notes) == 2


def test_sentence_with_interior_commas():
    got = parse_segmentation(
        "2. William Anders received AFIT, M.S. 1962., Entity set: ['William_Anders' ## \"AFIT, M.S. 1962\"]",
        q(["William_Anders", "AFIT, M.S. 1962"]),
    )
    assert got[0].text == "William Anders received AFIT, M.S. 1962."
    assert {m.surface for m in got[0].mentions} == {"William_Anders", "AFIT, M.S. 1962"}


def test_space_underscore_match_between_response_and_query():
    query = q(["Mean_Guns"])
    got = parse_segmentation("1. Mean Guns released., Entity set: ['Mean Guns']", query)
    assert got[0].mentions[0] is query[0]


# --- relations -----------------------------------------------------------------


def test_parse_relations_keeps_offered_order_from_response():
    got = parse_relations("['club', 'clubs']", ["club", "clubs", "parent"], 2)
    assert got.relations == ("club", "clubs")


def test_parse_relations_table_answer_pair():
    offered = ["abbreviation", "placeOfBirth", "owner", "coden"]
    got = parse_relations("['abbreviation', 'coden']", offered, 2)
    assert got.relations == ("abbreviation", "coden")


def test_parse_relations_drops_hallucinations_with_note():
    notes: list[str] = []
    got = parse_relations("['club', 'hallucinated_rel']", ["club", "clubs"], 2, notes)
    assert got.relations == ("club",)
    assert any("hallucinated_rel" in n for n in notes)


def test_parse_relations_falls_back_to_first_k_offered():
    notes: list[str] = []
    got = parse_relations("['nothing', 'matches']", ["r1", "r2", "r3"], 2, notes)
    assert got.relations == ("r1", "r2")
    assert any("falling back" in n for n in notes)


def test_parse_relations_truncates_to_k():
    got = parse_relations("['a', 'b', 'c']", ["a", "b", "c"], 2)
    assert got.relations == ("a", "b")


def test_parse_relations_dedupes():
    got = parse_relations("['a', 'a', 'b']", ["a", "b"], 3)
    assert got.relations == ("a", "b")


def test_parse_relations_case_sensitive():
    got = parse_relations("['birthplace', 'birthPlace']", ["birthPlace"], 2)
    assert got.relations == ("birthPlace",)


def test_parse_relations_without_brackets_is_an_error():
    with pytest.raises(ParseError, match="^no bracketed list in response$"):
        parse_relations("club and clubs", ["club"], 2)


def test_parse_relations_rejects_bad_k():
    with pytest.raises(ParseError, match="^k must be >= 1, got 0$"):
        parse_relations("['a']", ["a"], 0)


_LISTS = st.builds(
    lambda before, items, after: f"{before}[{', '.join(items)}]{after}",
    st.text(max_size=20),
    st.lists(st.one_of(st.just("'r'"), st.just("r"), st.text(max_size=8)), max_size=4),
    st.text(max_size=20),
)


@given(st.one_of(st.text(max_size=60), _LISTS), st.integers(1, 10))
def test_a_one_relation_pool_parses_to_itself_or_fails(reply, k):
    # The premise of taking such a pool without a backend call: no reply can
    # pick anything else from it.
    try:
        got = parse_relations(reply, ["r"], k)
    except ParseError as exc:
        assert str(exc) == "no bracketed list in response"
        return
    assert got.relations == ("r",)


# --- verdicts ---------------------------------------------------------------------


def test_parse_verdict_false_with_rationale():
    got = parse_verdict("False, there is no evidence for Paul Nurse.")
    assert got.label == REFUTED
    assert got.rationale == "there is no evidence for Paul Nurse."


def test_parse_verdict_true():
    assert parse_verdict("True, based on the evidence set, fine.").label == SUPPORTED


def test_parse_verdict_case_insensitive_token():
    assert parse_verdict("true.").label == SUPPORTED
    assert parse_verdict("FALSE, nope.").label == REFUTED


def test_parse_verdict_out_of_grammar():
    with pytest.raises(ParseError, match=r"^response does not start with True/False: 'Maybe\.'$"):
        parse_verdict("Maybe.")


def test_parse_verdict_requires_leading_token():
    with pytest.raises(ParseError, match="^response does not start with True/False: "):
        parse_verdict("the answer is True")


def test_parse_verdict_token_boundary():
    with pytest.raises(ParseError, match="^response does not start with True/False: "):
        parse_verdict("Truestory, yes.")


# --- answers ---------------------------------------------------------------------


def test_parse_answer_finds_entity():
    got = parse_answer("The answer is Short.", [("Six Shooter", "has_genre", "Short")])
    assert got.entity == "Short"
    assert got.rationale == "The answer is Short."


def test_parse_answer_longest_match_wins():
    evidence = [("The Red Baron", "directed_by", "Red")]
    got = parse_answer("It was The Red Baron.", evidence)
    assert got.entity == "The Red Baron"


def test_parse_answer_space_underscore_insensitive():
    got = parse_answer("Meyer Werft built it.", [("AIDAstella", "shipBuilder", "Meyer_Werft")])
    assert got.entity == "Meyer_Werft"


def test_parse_answer_skips_the_seed_when_another_endpoint_is_named():
    evidence = [("Cobra", "starred_actors", "Brigitte Nielsen"), ("Cobra", "release_year", "1986")]
    response = "Brigitte Nielsen appears in Cobra."
    assert parse_answer(response, evidence, "Brigitte_Nielsen").entity == "Cobra"
    # without a seed the longest endpoint still wins
    assert parse_answer(response, evidence).entity == "Brigitte Nielsen"


def test_parse_answer_never_returns_the_seed():
    evidence = [("Cobra", "starred_actors", "Brigitte Nielsen")]
    with pytest.raises(ParseError, match="^the response names only the question's seed$"):
        parse_answer("It is Brigitte Nielsen.", evidence, "Brigitte_Nielsen")
    # without a seed the same endpoint grounds the answer
    assert parse_answer("It is Brigitte Nielsen.", evidence).entity == "Brigitte Nielsen"


@pytest.mark.parametrize(
    "response, message",
    [
        ("It is Brigitte Nielsen.", "the response names only the question's seed"),
        ("It is Brigitte Nielsens.", "no evidence entity appears in the response"),
        ("It is Nielsen.", "no evidence entity appears in the response"),
    ],
    ids=["seed-named", "seed-inside-a-token", "nothing-named"],
)
def test_parse_answer_says_when_the_response_names_only_the_seed(response, message):
    evidence = [("Cobra", "starred_actors", "Brigitte Nielsen")]
    with pytest.raises(ParseError) as err:
        parse_answer(response, evidence, "Brigitte_Nielsen")
    assert str(err.value) == message


@pytest.mark.parametrize(
    "response, expected",
    [
        ("Shorts", None),
        ("It was a shortfall.", None),
        ("Six Shooters", None),
        ("(Short)", "Short"),
        ("short, I think", "Short"),
    ],
)
def test_parse_answer_requires_token_boundaries(response, expected):
    evidence = [("Six Shooter", "has_genre", "Short")]
    if expected is None:
        with pytest.raises(ParseError, match="^no evidence entity appears in the response$"):
            parse_answer(response, evidence)
    else:
        assert parse_answer(response, evidence).entity == expected


def test_parse_answer_no_grounding():
    with pytest.raises(ParseError, match="^no evidence entity appears in the response$"):
        parse_answer("I do not know.", [("a", "r", "b")])


def test_parse_answer_empty_evidence():
    with pytest.raises(ParseError, match="^cannot ground an answer in empty evidence$"):
        parse_answer("anything", [])


# --- round trips over the stored example blocks --------------------------------------


_DIVIDED = re.compile(r"^--> Divided:$", re.MULTILINE)


@pytest.mark.parametrize("block", SEGMENTATION_TEMPLATE.examples)
def test_segmentation_blocks_round_trip(block):
    head, answer = _DIVIDED.split(block, maxsplit=1)
    entity_line = next(l for l in head.splitlines() if l.startswith("Entity set:"))
    surfaces = [
        s.strip().strip("'\"")
        for s in entity_line[len("Entity set: ["):].rstrip("]").split("##")
    ]
    query = [Mention.variable(s) for s in surfaces]
    got = parse_segmentation(answer.strip(), query)
    assert got, block
    assert [s.index for s in got] == list(range(1, len(got) + 1))
    for sub in got:
        assert 1 <= len(sub.mentions) <= 2
        # every mention surface is written somewhere in its own answer line
        assert all(m.surface in answer for m in sub.mentions)


@pytest.mark.parametrize("block", RETRIEVAL_TEMPLATE.examples)
def test_retrieval_blocks_round_trip(block):
    lines = block.splitlines()
    words = ast.literal_eval(lines[1][len("Words set: "):])
    answer = lines[2][len("Top 2 Answer: "):]
    expected = ast.literal_eval(answer)
    got = parse_relations(answer, words, 2)
    assert list(got.relations) == expected
    assert set(got.relations) <= set(words)
    assert len(got.relations) <= 2


@pytest.mark.parametrize("block", VERIFICATION_INFERENCE_TEMPLATE.examples)
def test_verification_blocks_round_trip(block):
    answer = block.split("Answer: ", 1)[1]
    verdict = parse_verdict(answer)
    expected = SUPPORTED if answer.startswith("True") else REFUTED
    assert verdict.label == expected
    assert verdict.rationale == answer.split(", ", 1)[1]


@pytest.mark.parametrize("block", QA_INFERENCE_TEMPLATE.examples)
def test_qa_blocks_round_trip(block):
    lines = block.splitlines()
    evidence = [tuple(t) for t in ast.literal_eval(lines[1][len("Evidence set: "):])]
    answer = lines[2][len("Answer: "):]
    got = parse_answer(answer, evidence)
    assert got.entity == answer


# --- fuzz safety -----------------------------------------------------------------


@given(st.text(max_size=300))
def test_parsers_never_crash_on_arbitrary_text(text):
    offered = ["r1", "r2", "birthPlace"]
    evidence = [("a", "r", "b")]
    for call in (
        lambda: parse_segmentation(text, q(["a", "b"])),
        lambda: parse_relations(text, offered, 2),
        lambda: parse_verdict(text),
        lambda: parse_answer(text, evidence),
    ):
        try:
            call()
        except ParseError:
            pass


@given(st.text(max_size=300), st.integers(1, 5))
def test_retrieved_relations_invariants_hold_under_fuzz(text, k):
    offered = ["r1", "r2", "r3", "club", "clubs"]
    try:
        got = parse_relations(text, offered, k)
    except ParseError:
        return
    assert len(got.relations) <= k
    assert set(got.relations) <= set(offered)
    assert len(set(got.relations)) == len(got.relations)
