from __future__ import annotations

import ast

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
from kg_reason.errors import RenderError
from kg_reason.prompts import quote_label

from helpers import GOLDEN_BINDINGS, GOLDENS

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
    assert render_triple_list([]) == "[]"


def test_triple_list_single():
    assert render_triple_list([("Six Shooter", "has_genre", "Short")]) == (
        "[['Six Shooter', 'has_genre', 'Short']]"
    )


def test_triple_list_round_trips_through_literal_eval():
    triples = [
        ("Six Shooter", "has_genre", "Short"),
        ("Big Momma's House", "starred_actors", "Martin Lawrence"),
    ]
    rendered = render_triple_list(triples)
    assert [tuple(t) for t in ast.literal_eval(rendered)] == triples


def test_triple_list_quotes_an_apostrophe_in_the_last_triple_only():
    triples = [("Hub", "has_genre", f"Short {i}") for i in range(50)]
    triples.append(("Hub", "starred_actors", "Big Momma's House"))
    rows = [f"['Hub', 'has_genre', 'Short {i}']" for i in range(50)]
    rows.append("""['Hub', 'starred_actors', "Big Momma's House"]""")
    assert render_triple_list(triples) == "[" + ", ".join(rows) + "]"


# a small vocabulary, so that labels repeat across triples as a hub's do
_LABELS = st.sampled_from(
    ["Hub", "Big Momma's House", "O'Brien", "has_genre", "Short", "a b", "", "a', 'b", 'say "hi"']
)
_TRIPLES = st.lists(st.tuples(_LABELS, _LABELS, _LABELS | st.text(alphabet="ab' _", max_size=4)))


@given(_TRIPLES)
def test_triple_list_equals_per_element_rendering(triples):
    reference = "[" + ", ".join(
        "[" + ", ".join(quote_label(x) for x in t) + "]" for t in triples
    ) + "]"
    rendered = render_triple_list(triples)
    assert rendered == reference
    assert [tuple(t) for t in ast.literal_eval(rendered)] == triples


# --- render contract --------------------------------------------------------------


def test_render_is_pure():
    bindings = {"CLAIM": "x", "ENTITY_SET": "['x']"}
    a = render_prompt(SEGMENTATION_TEMPLATE, bindings, 12)
    b = render_prompt(SEGMENTATION_TEMPLATE, bindings, 12)
    assert a == b


def test_render_missing_binding_names_the_placeholder():
    with pytest.raises(RenderError) as err:
        render_prompt(SEGMENTATION_TEMPLATE, {"CLAIM": "x"}, 12)
    assert "ENTITY_SET" in str(err.value)


def test_render_unused_binding_is_an_error():
    bindings = {"CLAIM": "x", "ENTITY_SET": "['x']", "EXTRA": "y"}
    with pytest.raises(RenderError):
        render_prompt(SEGMENTATION_TEMPLATE, bindings, 12)


@pytest.mark.parametrize("shots", [0, 13])
def test_render_shot_range(shots):
    with pytest.raises(RenderError):
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
    rendered = render_prompt(
        SEGMENTATION_TEMPLATE,
        {"CLAIM": "weird <<<<ENTITY_SET>>>> claim", "ENTITY_SET": "['x']"},
        4,
    )
    # the placeholder-looking text inside the claim value survives untouched
    assert "weird <<<<ENTITY_SET>>>> claim" in rendered


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
