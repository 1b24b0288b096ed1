"""In-memory knowledge graph with adjacency indexes and a type projection.

The graph interns entity, relation and type labels to dense integer ids.
Entity and type labels are compared after canonicalization (surrounding
whitespace trimmed, underscores unified with spaces), so ``William Anders``
and ``William_Anders`` name the same entity. Relation labels are compared
case-sensitively and verbatim.

A triple's id is its load position in ``triples``. The adjacency indexes
map entity -> relation -> other endpoint -> position, so duplicate checks
and load-order matching both read them. Queries take and return ids and
positions; labels are resolved and rendered by the callers.

Graphs are immutable once built and safe for concurrent readers.
"""

from __future__ import annotations

import functools
import gc
from collections import defaultdict, deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import NamedTuple

from .errors import GraphLoadError, reading


def canonical_label(label: str) -> str:
    """Canonical comparison form for entity and type labels."""
    return label.replace("_", " ").strip()


class Triple(NamedTuple):
    """One directed edge, all fields interned ids of the owning graph."""

    head: int
    relation: int
    tail: int


class Interner:
    """Bidirectional label table handing out dense integer ids."""

    def __init__(self, canonicalize: Callable[[str], str] | None = None):
        self._canonicalize = canonicalize or str.strip
        self._by_key: dict[str, int] = {}
        self.labels: list[str] = []  # indexed by id; read-only outside intern

    def intern(self, label: str) -> int:
        key = self._canonicalize(label)
        found = self._by_key.get(key)
        if found is not None:
            return found
        new_id = len(self.labels)
        self._by_key[key] = new_id
        self.labels.append(label.strip())
        return new_id

    def lookup(self, label: str) -> int | None:
        return self._by_key.get(self._canonicalize(label))

    def label(self, ident: int) -> str:
        return self.labels[ident]


class KnowledgeGraph:
    """Indexed triple store. Use :func:`load_graph` or :meth:`from_triples`."""

    def __init__(self) -> None:
        self._entities = Interner(canonical_label)
        self._relations = Interner()
        self._types = Interner(canonical_label)
        self.triples: tuple[Triple, ...] = ()
        # head -> relation -> tail -> position, and tail -> relation -> head -> position
        self.out_index: dict[int, dict[int, dict[int, int]]] = {}
        self.in_index: dict[int, dict[int, dict[int, int]]] = {}
        self.entity_types: dict[int, frozenset[int]] = {}
        self.duplicate_count = 0

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[tuple[str, str, str]],
        entity_types: Iterable[tuple[str, str]] = (),
    ) -> "KnowledgeGraph":
        """Build a graph from label triples and optional (entity, type) pairs."""
        # The build only allocates, so a cyclic GC pass would free nothing.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            g = cls()
            # per-build caches, so each distinct spelling is canonicalized once
            entity_id, relation_id, type_id = (
                functools.cache(table.intern) for table in (g._entities, g._relations, g._types)
            )
            out_index, in_index, ordered = g.out_index, g.in_index, []
            for head, relation, tail in triples:
                h, r, t = entity_id(head), relation_id(relation), entity_id(tail)
                by_relation = out_index.get(h)
                if by_relation is None:
                    by_relation = out_index[h] = {}
                tails = by_relation.get(r)
                if tails is None:
                    tails = by_relation[r] = {}
                elif t in tails:
                    g.duplicate_count += 1
                    continue
                position = tails[t] = len(ordered)
                ordered.append(tuple.__new__(Triple, (h, r, t)))
                by_relation = in_index.get(t)
                if by_relation is None:
                    in_index[t] = {r: {h: position}}
                elif r in by_relation:
                    by_relation[r][h] = position
                else:
                    by_relation[r] = {h: position}
            g.triples = tuple(ordered)
            typed: defaultdict[int, set[int]] = defaultdict(set)
            for entity, type_label in entity_types:
                typed[entity_id(entity)].add(type_id(type_label))
            g.entity_types = {eid: frozenset(ts) for eid, ts in typed.items()}
            return g
        finally:
            if gc_was_enabled:
                gc.enable()

    # label/id plumbing -------------------------------------------------

    def maybe_entity_id(self, label: str) -> int | None:
        return self._entities.lookup(label)

    def relation_label(self, ident: int) -> str:
        return self._relations.label(ident)

    def maybe_relation_id(self, label: str) -> int | None:
        return self._relations.lookup(label)

    def maybe_type_id(self, label: str) -> int | None:
        return self._types.lookup(label)

    def entity_labels(self, ids: Iterable[int]) -> list[str]:
        return list(map(self._entities.labels.__getitem__, ids))

    def label_triples(self, triples: Iterable[Triple]) -> list[tuple[str, str, str]]:
        """``(head, relation, tail)`` labels of each triple, in order."""
        entity, relation = self._entities.labels, self._relations.labels
        return [(entity[h], relation[r], entity[t]) for h, r, t in triples]

    def triple_labels(self, t: Triple) -> tuple[str, str, str]:
        """Labels of one triple; use :meth:`label_triples` for many."""
        entity = self._entities.labels
        return entity[t.head], self._relations.labels[t.relation], entity[t.tail]

    # id-level queries ---------------------------------------------------

    def incident_relation_ids(self, eid: int) -> set[int]:
        """Relations on edges where the entity is head or tail."""
        return self.out_index.get(eid, {}).keys() | self.in_index.get(eid, {}).keys()

    def neighbor_ids(self, eid: int) -> set[int]:
        nbrs: set[int] = set()
        for index in (self.out_index, self.in_index):
            for others in index.get(eid, {}).values():
                nbrs.update(others)
        return nbrs


@dataclass
class TypeGraph:
    """Projection mapping each entity type to the relations incident to
    entities carrying that type.
    """

    graph: KnowledgeGraph
    type_relations: dict[int, frozenset[int]]

    def resolve_type(self, label: str) -> int | None:
        return self.graph.maybe_type_id(label)

    def relation_ids_for(self, tid: int) -> frozenset[int]:
        return self.type_relations.get(tid, frozenset())


def load_graph(triples_path: str, types_path: str | None = None) -> KnowledgeGraph:
    """Load a graph from a tab-separated triple file and optional type file.

    Triple lines are ``head<TAB>relation<TAB>tail``; type lines are
    ``entity<TAB>type``. Lines starting with ``#`` and blank lines are
    skipped. Duplicate triples are dropped and counted on the returned
    graph. Entities appearing only in the type file are still interned.
    """
    types = _read_tsv(types_path, 2) if types_path is not None else ()
    g = KnowledgeGraph.from_triples(_read_tsv(triples_path, 3), types)
    if not g.triples:
        raise GraphLoadError(triples_path, None, "no triples in file")
    return g


def _read_tsv(path: str, width: int):
    with reading(path, functools.partial(GraphLoadError, path)) as handle:
        for lineno, raw in enumerate(handle, start=1):
            if not raw.strip() or raw.lstrip().startswith("#"):
                continue
            # the field strip also removes the line ending
            fields = raw.split("\t")
            if len(fields) != width:
                raise GraphLoadError(
                    path, lineno, f"expected {width} tab-separated fields, got {len(fields)}"
                )
            stripped = tuple(map(str.strip, fields))
            if not all(stripped):
                raise GraphLoadError(path, lineno, "empty field")
            yield stripped


def build_type_graph(g: KnowledgeGraph) -> TypeGraph:
    """Project the graph onto its type vocabulary.

    Each type maps to the union of relations incident (either direction) to
    the entities carrying it. A graph without type assignments produces an
    empty projection.
    """
    acc: dict[int, set[int]] = {}
    for eid, tids in g.entity_types.items():
        rels = g.incident_relation_ids(eid)
        for tid in tids:
            acc.setdefault(tid, set()).update(rels)
    return TypeGraph(graph=g, type_relations={t: frozenset(r) for t, r in acc.items()})


def relations_within_n_hops(g: KnowledgeGraph, seed_id: int, n: int) -> set[int]:
    """Ids of relations on edges reachable within n undirected hops.

    An edge is within hop i when one endpoint sits at distance i - 1 from
    the seed, so the result is the union of relations incident to every
    node at distance <= n - 1.
    """
    if n < 1:
        raise ValueError("hop count must be >= 1")
    distances = {seed_id: 0}
    frontier = deque([seed_id])
    while frontier:
        node = frontier.popleft()
        if distances[node] >= n - 1:
            continue
        for nbr in g.neighbor_ids(node):
            if nbr not in distances:
                distances[nbr] = distances[node] + 1
                frontier.append(nbr)
    rels: set[int] = set()
    for node in distances:  # every node reached is within n - 1 hops
        rels.update(g.incident_relation_ids(node))
    return rels


def match_triples_by_id(
    g: KnowledgeGraph, endpoint_ids: set[int], relation_ids: set[int]
) -> list[int]:
    """Load positions, ascending and deduplicated, of the triples whose
    relation is in ``relation_ids`` and whose head or tail is in
    ``endpoint_ids``. Ids the graph never handed out match nothing.
    """
    positions: set[int] = set()
    for eid in endpoint_ids:
        for index in (g.out_index, g.in_index):
            by_relation = index.get(eid)
            if by_relation:
                for rid in by_relation.keys() & relation_ids:
                    positions.update(by_relation[rid].values())
    return sorted(positions)
