from __future__ import annotations

import ast
import re

import pytest
from hypothesis import given, strategies as st

from kg_reason import (
    QA_INFERENCE_TEMPLATE,
    RETRIEVAL_TEMPLATE,
    SEGMENTATION_TEMPLATE,
    VERIFICATION_INFERENCE_TEMPLATE,
    render_entity_set,
    render_prompt,
    render_relation_list,
    render_triple_list,
)
from kg_reason.prompts import MAX_SHOTS, quote_label, task_sentence

from helpers import GOLDEN_BINDINGS, GOLDENS, triple_columns

TEMPLATES = {
    "segmentation": SEGMENTATION_TEMPLATE,
    "retrieval": RETRIEVAL_TEMPLATE,
    "inference": VERIFICATION_INFERENCE_TEMPLATE,
    "qa_inference": QA_INFERENCE_TEMPLATE,
}


# --- quoting and list rendering -------------------------------------------------


def test_quote_switches_on_apostrophes():
    assert render_entity_set(["Ahmad_Kadhim_Assad", "Al-Zawra'a_SC"]) == (
        "['Ahmad_Kadhim_Assad' ## \"Al-Zawra'a_SC\"]"
    )


def test_single_entity_set_has_no_separator():
    assert render_entity_set(["Meyer_Werft"]) == "['Meyer_Werft']"


def test_relation_list_rendering():
    assert render_relation_list(["club", "clubs"]) == "['club', 'clubs']"


def test_triple_list_empty_renders_brackets():
    assert render_triple_list([], [], []) == "[]"


def test_triple_list_single():
    assert render_triple_list(["Six Shooter"], ["has_genre"], ["Short"]) == (
        "[['Six Shooter', 'has_genre', 'Short']]"
    )


def test_triple_list_round_trips_through_literal_eval():
    triples = [
        ("Six Shooter", "has_genre", "Short"),
        ("Big Momma's House", "starred_actors", "Martin Lawrence"),
    ]
    rendered = render_triple_list(*triple_columns(triples))
    assert [tuple(t) for t in ast.literal_eval(rendered)] == triples


def test_triple_list_quotes_an_apostrophe_in_the_last_triple_only():
    triples = [("Hub", "has_genre", f"Short {i}") for i in range(50)]
    triples.append(("Hub", "starred_actors", "Big Momma's House"))
    rows = [f"['Hub', 'has_genre', 'Short {i}']" for i in range(50)]
    rows.append("""['Hub', 'starred_actors', "Big Momma's House"]""")
    assert render_triple_list(*triple_columns(triples)) == "[" + ", ".join(rows) + "]"


# a small vocabulary, so that labels repeat across triples as a hub's do
_LABELS = st.sampled_from(
    ["Hub", "Big Momma's House", "O'Brien", "has_genre", "Short", "a b", "", "a', 'b", 'say "hi"']
)
_TRIPLES = st.lists(st.tuples(_LABELS, _LABELS, _LABELS | st.text(alphabet="ab' _", max_size=4)))


def _per_element(triples):
    """The reference rendering: every label quoted in turn by quote_label."""
    return "[" + ", ".join("[" + ", ".join(map(quote_label, t)) + "]" for t in triples) + "]"


@given(_TRIPLES)
def test_triple_list_equals_per_element_rendering(triples):
    rendered = render_triple_list(*triple_columns(triples))
    assert rendered == _per_element(triples)
    assert [tuple(t) for t in ast.literal_eval(rendered)] == triples


# Labels with double quotes and non-ASCII text, and no apostrophe; the quoted
# column's labels hold apostrophes but no double quote, so that every label
# still reads back through literal_eval.
_PLAIN = st.text(alphabet='ab _-"éü中ß', max_size=5)
_QUOTED = st.text(alphabet="ab _'éü中", max_size=5)


@given(st.integers(0, 2), st.data())
def test_triple_list_finds_an_apostrophe_in_any_one_column(column, data):
    rows = data.draw(st.integers(0, 12))
    columns = [data.draw(st.lists(_PLAIN, min_size=rows, max_size=rows)) for _ in range(3)]
    columns[column] = data.draw(st.lists(_QUOTED, min_size=rows, max_size=rows))
    if rows:
        # at least one apostrophe, in that column only
        at = data.draw(st.integers(0, rows - 1))
        columns[column][at] += "'"
    triples = list(zip(*columns))
    rendered = render_triple_list(*columns)
    assert rendered == _per_element(triples)
    assert [tuple(t) for t in ast.literal_eval(rendered)] == triples


# --- render contract --------------------------------------------------------------


def test_render_is_pure():
    bindings = {"CLAIM": "x", "ENTITY_SET": "['x']"}
    a = render_prompt(SEGMENTATION_TEMPLATE, bindings, 12)
    b = render_prompt(SEGMENTATION_TEMPLATE, bindings, 12)
    assert a == b


def test_render_missing_binding_names_the_placeholder():
    with pytest.raises(ValueError, match="^no binding for placeholder ENTITY_SET$"):
        render_prompt(SEGMENTATION_TEMPLATE, {"CLAIM": "x"}, 12)


def test_render_unused_binding_is_an_error():
    bindings = {"CLAIM": "x", "ENTITY_SET": "['x']", "EXTRA": "y"}
    with pytest.raises(ValueError, match=r"^bindings name no placeholder: \['EXTRA'\]$"):
        render_prompt(SEGMENTATION_TEMPLATE, bindings, 12)


@pytest.mark.parametrize("shots", [0, 13])
def test_render_shot_range(shots):
    with pytest.raises(ValueError, match=f"^shots must be between 1 and 12, got {shots}$"):
        render_prompt(SEGMENTATION_TEMPLATE, {"CLAIM": "x", "ENTITY_SET": "['x']"}, shots)


def test_no_residual_markers_after_rendering():
    for name, (template, bindings) in GOLDEN_BINDINGS.items():
        rendered = render_prompt(template, bindings, 12)
        assert "<<<<" not in rendered, name


def test_top_k_substitutes_every_occurrence():
    rendered = render_prompt(
        RETRIEVAL_TEMPLATE,
        {"SENTENCE": "s", "RELATION_SET": "['r']", "TOP_K": "2"},
        4,
    )
    assert "Top 2 Answer:" in rendered.splitlines()[-1]
    assert "Find the top 2 elements" in rendered
    assert "pick out any 2 elements" in rendered


def test_shots_truncate_from_the_front():
    rendered = render_prompt(
        SEGMENTATION_TEMPLATE, {"CLAIM": "x", "ENTITY_SET": "['x']"}, 4
    )
    assert "Sentence A:" in rendered
    assert "Sentence D:" in rendered
    assert "Sentence E:" not in rendered
    assert "Sentence L:" not in rendered


def test_placeholder_valued_bindings_are_not_rescanned():
    for claim in ("weird <<<<ENTITY_SET>>>> claim", "<<<<CLAIM>>>>"):
        rendered = render_prompt(
            SEGMENTATION_TEMPLATE, {"CLAIM": claim, "ENTITY_SET": "['x']"}, 4
        )
        # the placeholder-looking text inside the claim value survives untouched
        assert rendered.endswith(f"Sentence: {claim}\nEntity set: ['x']\n--> Divided:")
        # and the next render starts from the template again
        bindings = {"CLAIM": "y", "ENTITY_SET": "['y']"}
        assert render_prompt(SEGMENTATION_TEMPLATE, bindings, 4) == _replace_render(
            SEGMENTATION_TEMPLATE, bindings, 4
        )


# --- the pre-split body -------------------------------------------------------------

# Two binding sets per template, neither holding placeholder-like text, so
# that string replacement gives the single-pass result.
_BINDING_SETS = {
    "segmentation": (
        {"CLAIM": "AIDAstella was built by Meyer Werft.", "ENTITY_SET": "['AIDAstella']"},
        {"CLAIM": "x", "ENTITY_SET": "['a' ## \"b's\"]"},
    ),
    "retrieval": (
        {"SENTENCE": "s one", "RELATION_SET": "['r1', 'r2']", "TOP_K": "5"},
        {"SENTENCE": "", "RELATION_SET": "[]", "TOP_K": "12"},
    ),
    "inference": (
        {"CLAIM": "c", "EVIDENCE_SET": "[['h', 'r', 't']]"},
        {"CLAIM": "another claim", "EVIDENCE_SET": "[]"},
    ),
    "qa_inference": (
        {"CLAIM": "what is q?", "EVIDENCE_SET": "[['a', 'r', 'b'], ['b', 'r', 'c']]"},
        {"CLAIM": "q2", "EVIDENCE_SET": "[]"},
    ),
}


def _replace_render(template, bindings, shots):
    body = template.header + "\n\n".join(template.examples[:shots]) + template.footer
    for name, value in bindings.items():
        body = body.replace(f"<<<<{name}>>>>", value)
    return body


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_cached_split_renders_as_string_replacement(name):
    template = TEMPLATES[name]
    first, second = _BINDING_SETS[name]
    for shots in range(1, MAX_SHOTS + 1):
        # interleaved and repeated: a render must leave the cached pieces as they were
        for bindings in (first, second, first, second):
            assert render_prompt(template, bindings, shots) == _replace_render(
                template, bindings, shots
            )


def test_render_errors_name_the_first_missing_placeholder_in_body_order():
    with pytest.raises(ValueError, match=r"^no binding for placeholder TOP_K$"):
        render_prompt(RETRIEVAL_TEMPLATE, {}, 2)
    # a missing placeholder is reported before an unused binding
    with pytest.raises(ValueError, match=r"^no binding for placeholder SENTENCE$"):
        render_prompt(RETRIEVAL_TEMPLATE, {"TOP_K": "2", "EXTRA": "x"}, 2)
    with pytest.raises(ValueError, match=r"^bindings name no placeholder: \['A', 'B'\]$"):
        render_prompt(SEGMENTATION_TEMPLATE, {"CLAIM": "x", "ENTITY_SET": "[]", "B": "", "A": ""}, 2)


# --- golden bytes -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GOLDEN_BINDINGS))
@pytest.mark.parametrize("shots", [4, 8, 12])
def test_rendered_prompts_match_goldens(name, shots):
    template, bindings = GOLDEN_BINDINGS[name]
    rendered = render_prompt(template, bindings, shots).encode("utf-8")
    golden = (GOLDENS / f"{name}_{shots}shot.txt").read_bytes()
    assert rendered == golden


def test_every_template_stores_twelve_examples():
    for template in TEMPLATES.values():
        assert len(template.examples) == 12


# --- the sentence a prompt asks about ------------------------------------------------

# Text a sentence may hold that looks like a footer: its line openings, a whole
# footer of each template, and newlines.
_FOOTER_LIKE = [
    "\n",
    "\nEntity set: ",
    "\nWords set: ",
    "\nEvidence set: ",
    "Your Task)\nSentence: ",
    *(re.sub("<<<<[A-Z_]+>>>>", "x", t.footer) for t in TEMPLATES.values()),
]
_SENTENCES = st.lists(st.one_of(st.text(), st.sampled_from(_FOOTER_LIKE)), max_size=6).map("".join)
# Rendered sets hold no newline: graph labels cannot, and claim entities do not.
_LABELS = st.lists(st.text(st.characters(blacklist_characters="\n")), min_size=1, max_size=3)


def _task_bindings(name: str, sentence: str, labels: list[str], k: int) -> dict[str, str]:
    if name == "segmentation":
        return {"CLAIM": sentence, "ENTITY_SET": render_entity_set(labels)}
    if name == "retrieval":
        return {"SENTENCE": sentence, "RELATION_SET": render_relation_list(labels), "TOP_K": str(k)}
    return {"CLAIM": sentence, "EVIDENCE_SET": render_triple_list(labels, labels, labels)}


@pytest.mark.parametrize("name", sorted(TEMPLATES))
@given(shots=st.integers(1, MAX_SHOTS), sentence=_SENTENCES, labels=_LABELS, k=st.integers(1, 10))
def test_task_sentence_recovers_any_bound_sentence(name, shots, sentence, labels, k):
    prompt = render_prompt(TEMPLATES[name], _task_bindings(name, sentence, labels, k), shots)
    assert task_sentence(prompt) == sentence


@pytest.mark.parametrize("name", sorted(TEMPLATES))
@pytest.mark.parametrize("shots", range(1, MAX_SHOTS + 1))
def test_task_sentence_reads_every_footer_like_text_at_every_shot_count(name, shots):
    for sentence in ["", *_FOOTER_LIKE, "".join(_FOOTER_LIKE), "".join(reversed(_FOOTER_LIKE))]:
        bindings = _task_bindings(name, sentence, ["a\rb", "Entity set: 'c'"], 5)
        assert task_sentence(render_prompt(TEMPLATES[name], bindings, shots)) == sentence


def test_a_prompt_without_a_task_footer_asks_about_no_sentence():
    assert task_sentence("Sentence: x\nEntity set: ['x']\n--> Divided:") is None
    assert task_sentence(SEGMENTATION_TEMPLATE.footer + " trailing text") is None
