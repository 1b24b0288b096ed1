"""Relation candidate extraction for sub-sentences.

Two routes produce the candidate pool a sub-sentence's relation is chosen
from: schema intersection over the relations within one hop of each entity
mention (claim verification), and the union of relations within n hops of a
seed entity (question answering). Both read the graph with one walker.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import RetrievalError
from .graph import KnowledgeGraph, TypeGraph, relations_within_n_hops

CONCRETE = "concrete"
TYPE_REF = "type"
VARIABLE = "variable"
HOPS = (1, 2, 3)  # the hop counts a question may span


@dataclass(frozen=True)
class Mention:
    """One entity mention inside a sub-sentence.

    ``ref`` holds the interned entity id for concrete mentions, the interned
    type id for type mentions, and the variable name (its exact surface) for
    variables.
    """

    kind: str
    surface: str
    ref: int | str | None = None

    @classmethod
    def concrete(cls, surface: str, entity_id: int) -> "Mention":
        return cls(CONCRETE, surface, entity_id)

    @classmethod
    def type_ref(cls, surface: str, type_id: int) -> "Mention":
        return cls(TYPE_REF, surface, type_id)

    @classmethod
    def variable(cls, surface: str) -> "Mention":
        return cls(VARIABLE, surface, surface)


def resolve_mention(
    surface: str, g: KnowledgeGraph, tg: TypeGraph | None = None
) -> Mention:
    """Resolve a surface form: graph entity first, then type, then variable."""
    eid = g.maybe_entity_id(surface)
    if eid is not None:
        return Mention.concrete(surface, eid)
    return type_or_variable(surface, tg)


def type_or_variable(surface: str, tg: TypeGraph | None) -> Mention:
    """A type mention when ``tg`` knows the surface as a type, else a variable."""
    tid = None if tg is None else tg.graph.maybe_type_id(surface)
    if tid is not None:
        return Mention.type_ref(surface, tid)
    return Mention.variable(surface)


@dataclass(frozen=True)
class RelationCandidates:
    """One sub-sentence's offered relation pool, sorted by label, or the backend's pick from it."""

    relations: tuple[str, ...]


def extract_relation_candidates(
    mentions: Iterable[Mention], g: KnowledgeGraph, tg: TypeGraph
) -> RelationCandidates:
    """Candidate pool for a claim sub-sentence.

    Concrete mentions contribute the intersection of their relations within
    one hop; type mentions contribute the union of their type's relation
    buckets, intersected with the concrete pool when both are present. When
    every mention is a type, the type pool is returned directly rather than
    intersecting with the empty concrete pool. Variables contribute nothing.
    """
    mentions = tuple(mentions)
    if not mentions:
        raise RetrievalError("no mentions given")
    if len(mentions) > 2:
        raise RetrievalError(f"a sub-sentence carries at most two mentions, got {len(mentions)}")
    entity_pool: set[int] | None = None
    type_ids: list[int] = []
    for m in mentions:
        if m.kind == CONCRETE:
            rels = relations_within_n_hops(g, m.ref, 1)
            entity_pool = rels if entity_pool is None else entity_pool & rels
        elif m.kind == TYPE_REF:
            type_ids.append(m.ref)
    if entity_pool is None and not type_ids:
        raise RetrievalError("all mentions are variables; nothing to retrieve from")
    if type_ids:
        type_pool: set[int] = set()
        for tid in type_ids:
            type_pool.update(tg.relation_ids_for(tid))
        result = type_pool if entity_pool is None else entity_pool & type_pool
    else:
        result = entity_pool
    return RelationCandidates(tuple(sorted(g.relation_label(r) for r in result)))


def extract_nhop_candidates(
    seed_id: int, hops: int, g: KnowledgeGraph
) -> RelationCandidates:
    """Candidate pool for a question: relations within ``hops`` of the seed entity."""
    if hops not in HOPS:
        raise RetrievalError(f"hop count must be 1, 2 or 3, got {hops}")
    rels = relations_within_n_hops(g, seed_id, hops)
    return RelationCandidates(tuple(sorted(g.relation_label(r) for r in rels)))
