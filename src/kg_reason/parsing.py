"""Parsers for the structured responses each stage expects.

All parsers accept arbitrary UTF-8 text and either return a value or raise
:class:`~kg_reason.errors.ParseError`, the failure kind of a reply that
cannot be used, with a message saying why; they never raise anything else.
Callers may pass a ``notes`` list to collect trace remarks about skipped
lines or dropped items.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass

from .candidates import Mention, RelationCandidates, type_or_variable
from .errors import ParseError
from .graph import TypeGraph, canonical_label

SUPPORTED = "Supported"
REFUTED = "Refuted"


@dataclass(frozen=True)
class SubSentence:
    """One segmented unit with its entity mentions (at most two)."""

    index: int
    text: str
    mentions: tuple[Mention, ...]


@dataclass(frozen=True)
class Verdict:
    label: str  # SUPPORTED | REFUTED
    rationale: str


@dataclass(frozen=True)
class AnswerCandidate:
    entity: str
    rationale: str


_SEGMENT_LINE = re.compile(
    r"^\s*\d+\.\s*(?P<text>.*),\s*Entity set:\s*\[(?P<entities>.*)\]\s*$"
)


def _unquote(token: str) -> str:
    token = token.strip()
    if len(token) >= 2 and token[0] == token[-1] and token[0] in ("'", '"'):
        return token[1:-1]
    return token


def parse_segmentation(
    response: str,
    query_mentions: Sequence[Mention],
    type_graph: TypeGraph | None = None,
    notes: list[str] | None = None,
) -> list[SubSentence]:
    """Parse numbered ``<n>. <sentence>, Entity set: [...]`` lines.

    Entity surfaces are resolved against the query's mentions first, then
    the type vocabulary, and otherwise become variables. Lines that fail the
    grammar, or that carry more than two entities, are skipped with a note.
    Raises :class:`ParseError` when no line parses.
    """
    by_surface = {canonical_label(m.surface): m for m in query_mentions}
    parsed: list[SubSentence] = []
    for raw_line in response.splitlines():
        if not raw_line.strip():
            continue
        match = _SEGMENT_LINE.match(raw_line)
        if match is None:
            _note(notes, f"line failed grammar: {raw_line!r}")
            continue
        surfaces = [_unquote(t) for t in re.split(r"\s*##\s*", match.group("entities"))]
        surfaces = [s for s in surfaces if s]
        if not surfaces:
            _note(notes, f"line has an empty entity set: {raw_line!r}")
            continue
        if len(surfaces) > 2:
            _note(notes, f"line carries more than two entities: {raw_line!r}")
            continue
        mentions = tuple(
            by_surface.get(canonical_label(s)) or type_or_variable(s, type_graph) for s in surfaces
        )
        parsed.append(SubSentence(len(parsed) + 1, match.group("text").strip(), mentions))
    if not parsed:
        raise ParseError("no response line matched the segmentation grammar")
    return parsed


_BRACKETED = re.compile(r"\[([^\[\]]*)\]")
_QUOTED = re.compile(r"'([^']*)'|\"([^\"]*)\"")


def parse_relations(
    response: str,
    offered: Sequence[str],
    k: int,
    notes: list[str] | None = None,
) -> RelationCandidates:
    """Parse the first bracketed list and filter it against the offered pool.

    Items are matched case-sensitively; unmatched items are dropped with a
    note. The result keeps response order, has no duplicates, and is
    truncated to k. If every item was dropped, the first k offered labels
    are used instead. Raises :class:`ParseError` when no bracketed
    list is present.
    """
    if k < 1:
        raise ParseError(f"k must be >= 1, got {k}")
    match = _BRACKETED.search(response)
    if match is None:
        raise ParseError("no bracketed list in response")
    inner = match.group(1)
    items = [a or b for a, b in _QUOTED.findall(inner)]
    if not items:
        items = [piece.strip() for piece in inner.split(",") if piece.strip()]
    offered_set = set(offered)
    kept: list[str] = []
    for item in items:
        if item in offered_set:
            if item not in kept:
                kept.append(item)
        else:
            _note(notes, f"dropped relation not in the offered set: {item!r}")
    if not kept:
        _note(notes, "no offered relation matched; falling back to the first k offered")
        kept = list(offered[:k])
    return RelationCandidates(tuple(kept[:k]))


_VERDICT_TOKEN = re.compile(r"^\s*(true|false)\b", re.IGNORECASE)


def parse_verdict(response: str) -> Verdict:
    """Map a leading True/False token to a verdict.

    The rationale is whatever follows the first comma. Raises
    :class:`ParseError` when neither token leads the response.
    """
    match = _VERDICT_TOKEN.match(response)
    if match is None:
        raise ParseError(f"response does not start with True/False: {response[:80]!r}")
    label = SUPPORTED if match.group(1).lower() == "true" else REFUTED
    rationale = response.split(",", 1)[1].strip() if "," in response else ""
    return Verdict(label, rationale)


def parse_answer(
    response: str, evidence: Sequence[tuple[str, str, str]], seed: str | None = None
) -> AnswerCandidate:
    """Ground the response in the evidence endpoints.

    The answer is the longest evidence endpoint label (canonicalized,
    case-insensitive) that the response mentions as whole tokens, never the
    question's ``seed``. The full response is kept as the rationale. Raises
    :class:`ParseError` when the evidence is empty or no endpoint
    but the seed is mentioned, with a message of its own when the seed is.
    """
    if not evidence:
        raise ParseError("cannot ground an answer in empty evidence")
    labels: dict[str, str] = {}  # comparison form -> first spelling in the evidence
    # each distinct spelling is canonicalized once, in order of first appearance
    for spelling in dict.fromkeys(x for head, _, tail in evidence for x in (head, tail)):
        labels.setdefault(canonical_label(spelling).lower(), spelling)
    seed_key = None if seed is None else canonical_label(seed).lower()
    haystack = canonical_label(response).lower()
    # the substring test first, so only labels present compile a pattern
    mentioned = [
        needle
        for needle in labels
        if needle
        and needle in haystack
        and re.search(rf"(?<!\w){re.escape(needle)}(?!\w)", haystack)
    ]
    others = [needle for needle in mentioned if needle != seed_key]
    if mentioned and not others:
        raise ParseError("the response names only the question's seed")
    if not others:
        raise ParseError("no evidence entity appears in the response")
    return AnswerCandidate(entity=labels[max(others, key=len)], rationale=response)


def _note(notes: list[str] | None, message: str) -> None:
    if notes is not None:
        notes.append(message)
