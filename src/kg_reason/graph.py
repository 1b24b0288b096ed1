"""In-memory knowledge graph with compressed adjacency and a type projection.

The graph interns entity, relation and type labels to dense integer ids.
Entity and type labels are compared after canonicalization (surrounding
whitespace trimmed, underscores unified with spaces), so ``William Anders``
and ``William_Anders`` name the same entity. Relation labels are compared
case-sensitively and verbatim.

Each distinct triple is stored once, at its load position in three id
columns (``head``, ``relation`` and ``tail``); the position is the triple's
id. The adjacency is kept once per direction, as a compressed sparse row
"side" of stdlib arrays: the positions sorted by (anchor entity, relation),
cut into one run per (entity, relation) pair. Queries take and return ids
and positions; labels are resolved and rendered by the callers.

Graphs are immutable once built and safe for concurrent readers.
"""

from __future__ import annotations

import functools
from array import array
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence, Sized
from dataclasses import dataclass
from itertools import accumulate, chain, compress, islice, repeat
from operator import itemgetter, ne, sub
from typing import NamedTuple, TypeVar

from .errors import GraphLoadError, read_chunks


def canonical_label(label: str) -> str:
    """Canonical comparison form for entity and type labels."""
    return label.replace("_", " ").strip()


_T = TypeVar("_T")


def gather(seq: Sequence[_T], indexes: Iterable[int]) -> tuple[_T, ...]:
    """``tuple(seq[i] for i in indexes)``, fetched in C by one ``itemgetter`` call."""
    if not isinstance(indexes, Sized):
        indexes = tuple(indexes)
    if len(indexes) > 1:
        return itemgetter(*indexes)(seq)
    # itemgetter of one index returns the item itself, not a 1-tuple
    return tuple(map(seq.__getitem__, indexes))


class Interner:
    """Bidirectional label table handing out dense integer ids."""

    def __init__(self, canonicalize: Callable[[str], str] | None = None):
        self._canonicalize = canonicalize or str.strip
        self._by_key: dict[str, int] = {}
        self.labels: list[str] = []  # indexed by id; read-only outside intern

    def intern(self, label: str) -> int:
        new_id = len(self.labels)
        found = self._by_key.setdefault(self._canonicalize(label), new_id)
        if found == new_id:
            self.labels.append(label.strip())
        return found

    def lookup(self, label: str) -> int | None:
        return self._by_key.get(self._canonicalize(label))


class _Side(NamedTuple):
    """One direction of the adjacency, in compressed sparse row form.

    ``perm`` holds every triple position, sorted stably by (anchor entity,
    relation), so positions keep load order inside each run of equal keys.
    Run ``i`` has relation ``run_relation[i]`` and covers
    ``perm[run_start[i]:run_start[i + 1]]``. Entity ``e`` owns the runs
    ``first_run[e]`` up to ``first_run[e + 1]``, in ascending relation id.
    ``other`` is the graph's column of far endpoints, indexed by position.
    """

    first_run: array
    run_relation: array
    run_start: array
    perm: array
    other: array

    @classmethod
    def build(
        cls,
        anchor: array,
        relation: array,
        other: array,
        by_relation: array,
        n_entities: int,
        find_repeats: bool = True,
    ) -> tuple["_Side", bytearray]:
        """The side keyed on ``anchor`` (the heads, or the tails), and a mask of the triples
        to keep: 0 at each position whose far endpoint appeared earlier in its run, if
        ``find_repeats``, else all 1. ``perm`` is ``by_relation``, every position sorted
        stably by relation, counting-sorted by anchor.
        """
        perm = _counting_sort(anchor, n_entities, by_relation)
        run_relation, run_start = array("i"), array("i")
        keep = bytearray(b"\1") * len(perm)
        runs_of = [0] * (n_entities + 1)  # runs per entity, one slot on
        last_anchor = last_relation = -1
        for i, p in enumerate(perm):
            a, r = anchor[p], relation[p]
            if r != last_relation or a != last_anchor:
                last_anchor, last_relation = a, r
                run_start.append(i)
                run_relation.append(r)
                runs_of[a + 1] += 1
                if find_repeats:
                    seen = {other[p]}
            elif find_repeats:
                if other[p] in seen:
                    keep[p] = 0  # a repeated triple
                else:
                    seen.add(other[p])
        run_start.append(len(perm))
        first_run = array("i", accumulate(runs_of))
        # [:] copies an array to its exact size: one grown item by item keeps spare room
        return cls(first_run[:], run_relation[:], run_start[:], perm, other), keep


def _counting_sort(keys: array, n_keys: int, order: Iterable[int]) -> array:
    """``order``, which holds every position once, sorted stably by ``keys``."""
    count = [0] * n_keys
    for k in keys:
        count[k] += 1
    free = list(accumulate(count, initial=0))  # each key's next slot in the output
    out = array("i", [0]) * len(keys)  # sized exactly, as array("i", bytes(...)) is not
    for p in order:
        k = keys[p]
        out[free[k]] = p
        free[k] += 1
    return out


class KnowledgeGraph:
    """Indexed triple store. Use :func:`load_graph` or :meth:`from_triples`."""

    def __init__(self, triples: Iterable[list[str]], entity_types: Iterable[list[str]]) -> None:
        """Build from flat field chunks, three fields per triple and two per (entity, type) pair."""
        self._entities = Interner(canonical_label)
        self._relations = Interner()
        self._types = Interner(canonical_label)
        # the interning scratch dies with _intern's frame, before the sides are sorted
        self._intern(triples, entity_types)
        n_entities, n_relations = len(self._entities.labels), len(self._relations.labels)
        self.duplicate_count = 0
        while True:  # twice at most: again once the repeated triples are dropped
            by_rel = _counting_sort(self.relation, n_relations, range(len(self.relation)))
            self._out, keep = _Side.build(self.head, self.relation, self.tail, by_rel, n_entities)
            if all(keep):
                break
            self.duplicate_count = keep.count(0)
            cols = (self.head, self.relation, self.tail)
            self.head, self.relation, self.tail = (array("i", compress(c, keep))[:] for c in cols)
        # the head side's pass dropped every repeat, so the tail side has none to find
        self._in = _Side.build(self.tail, self.relation, self.head, by_rel, n_entities, False)[0]

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[tuple[str, str, str]],
        entity_types: Iterable[tuple[str, str]] = (),
    ) -> "KnowledgeGraph":
        """Build a graph from label triples and optional (entity, type) pairs."""
        return cls(_flat_batches(triples, 3), _flat_batches(entity_types, 2))

    def _intern(self, triples: Iterable[list[str]], entity_types: Iterable[list[str]]) -> None:
        """Fill the label tables, the id columns (repeated triples too) and ``entity_types``."""
        # per-build caches, so each distinct spelling is canonicalized once
        entity_id = functools.cache(self._entities.intern)
        relation_id = functools.cache(self._relations.intern)
        head, relation, tail = array("i"), array("i"), array("i")
        for flat in triples:
            relation.extend(map(relation_id, flat[1::3]))
            del flat[1::3]  # heads and tails now alternate, in line order
            ends = array("i", map(entity_id, flat))
            head.extend(ends[::2])
            tail.extend(ends[1::2])
        # one entry per triple, indexed by load position; read-only outside the build
        self.head, self.relation, self.tail = head[:], relation[:], tail[:]  # exact size
        # each entity's type set grows one type at a time, as the one frozenset of its members
        self.entity_types: dict[int, frozenset[int]] = {}
        shared: dict[frozenset[int], frozenset[int]] = {}  # one frozenset per distinct type set

        @functools.cache  # per spelling, like the caches above
        def one_type(label: str) -> frozenset[int]:
            single = frozenset((self._types.intern(label),))
            return shared.setdefault(single, single)

        for flat in entity_types:
            for eid, single in zip(map(entity_id, flat[::2]), map(one_type, flat[1::2])):
                held = self.entity_types.setdefault(eid, single)  # an entity's first type
                if held is not single:
                    grown = held | single
                    self.entity_types[eid] = shared.setdefault(grown, grown)

    # label/id plumbing -------------------------------------------------

    def maybe_entity_id(self, label: str) -> int | None:
        return self._entities.lookup(label)

    def relation_label(self, ident: int) -> str:
        return self._relations.labels[ident]

    def maybe_relation_id(self, label: str) -> int | None:
        return self._relations.lookup(label)

    def maybe_type_id(self, label: str) -> int | None:
        return self._types.lookup(label)

    def entity_labels(self, ids: Iterable[int]) -> list[str]:
        return list(gather(self._entities.labels, ids))

    def label_columns(self, positions: Iterable[int]) -> tuple[tuple[str, ...], ...]:
        """The head, relation and tail labels of the triple at each position, in order."""
        if not isinstance(positions, Sized):
            positions = tuple(positions)
        entity, relation = self._entities.labels, self._relations.labels
        # column by column, so that one id tuple at a time is alive
        heads = gather(entity, gather(self.head, positions))
        relations = gather(relation, gather(self.relation, positions))
        return heads, relations, gather(entity, gather(self.tail, positions))


@dataclass
class TypeGraph:
    """Projection mapping each entity type to the relations incident to
    entities carrying that type.
    """

    graph: KnowledgeGraph
    type_relations: dict[int, frozenset[int]]

    def relation_ids_for(self, tid: int) -> frozenset[int]:
        return self.type_relations.get(tid, frozenset())


def load_graph(triples_path: str, types_path: str | None = None) -> KnowledgeGraph:
    """Load a graph from a tab-separated triple file and optional type file.

    Triple lines are ``head<TAB>relation<TAB>tail``; type lines are
    ``entity<TAB>type``. Lines starting with ``#`` and blank lines are
    skipped. Duplicate triples are dropped and counted on the returned
    graph. Entities appearing only in the type file are still interned.
    """
    types = () if types_path is None else _read_tsv(types_path, 2)
    g = KnowledgeGraph(_read_tsv(triples_path, 3), types)
    if not g.head:
        raise GraphLoadError(triples_path, None, "no triples in file")
    return g


def _flat_batches(rows: Iterable[Sequence[str]], width: int) -> Iterator[list[str]]:
    """The rows' fields, flat, a few thousand rows at a time; a blank field is refused,
    as :func:`load_graph` refuses it."""
    rows = iter(rows)
    while batch := list(islice(rows, 4096)):
        if any(map(ne, map(len, batch), repeat(width))):
            raise ValueError(f"every row must hold {width} fields")
        fields = list(chain.from_iterable(batch))
        if not all(map(str.strip, fields)):
            raise ValueError("every field must hold a label, not blanks")
        yield fields


def _read_tsv(path: str, width: int) -> Iterator[list[str]]:
    """Each chunk's data lines as flat stripped fields, ``width`` to a line."""
    for first, lines in read_chunks(path, functools.partial(GraphLoadError, path)):
        joined = "\t".join(lines)
        fields = joined.split("\t")
        # Every line holds width fields exactly when the total is width a line and every
        # line ending sits in a last-column field: a line of the wrong width changes the
        # total, or moves its own ending, or a later line's, off the last column.
        ends = "".join(fields[width - 1 :: width])
        fields = list(map(str.strip, fields))  # the strip also removes the line ending
        # "#" may start a comment
        if (
            "#" in joined
            or "" in fields
            or len(fields) != width * len(lines)
            or ends.count("\n") != len(lines) - (not lines[-1].endswith("\n"))
        ):
            fields = []  # line by line: skip comments and blanks, raise at a bad line
            for lineno, raw in enumerate(lines, start=first):
                if raw.isspace() or raw.lstrip().startswith("#"):
                    continue
                row = raw.split("\t")
                if len(row) != width:
                    raise GraphLoadError(
                        path, lineno, f"expected {width} tab-separated fields, got {len(row)}"
                    )
                fields += map(str.strip, row)
                if "" in fields[-width:]:
                    raise GraphLoadError(path, lineno, "empty field")
        yield fields


def build_type_graph(g: KnowledgeGraph) -> TypeGraph:
    """Project the graph onto its type vocabulary.

    Each type maps to the union of relations incident (either direction) to
    the entities carrying it. A graph without type assignments produces an
    empty projection.
    """
    pairs: set[tuple[frozenset[int] | None, int]] = set()  # (type set, relation)
    for first_run, run_relation, *_ in (g._out, g._in):
        # each run's entity: entity e repeated once per run it owns
        run_entity = chain.from_iterable(
            map(repeat, range(len(first_run) - 1), map(sub, first_run[1:], first_run))
        )
        pairs.update(zip(map(g.entity_types.get, run_entity), run_relation))
    acc: list[set[int]] = [set() for _ in g._types.labels]  # every type has an entity
    for tids, rid in pairs:
        for tid in tids or ():
            acc[tid].add(rid)
    return TypeGraph(graph=g, type_relations=dict(enumerate(map(frozenset, acc))))


def relations_within_n_hops(g: KnowledgeGraph, seed_id: int, n: int) -> set[int]:
    """Ids of relations on edges reachable within n undirected hops.

    An edge is within hop i when one endpoint sits at distance i - 1 from
    the seed, so the result is the union of relations incident to every
    node at distance <= n - 1.
    """
    if n < 1:
        raise ValueError("hop count must be >= 1")
    rels: set[int] = set()
    if not 0 <= seed_id < len(g._out.first_run) - 1:
        return rels  # an id the graph never handed out
    sides = (g._out, g._in)
    every_relation = len(g._relations.labels)
    reached = {seed_id}
    frontier = reached
    # the frontier sits at distance n - 1 - hops_left from the seed
    for hops_left in range(n - 1, -1, -1):
        ahead: set[int] = set()
        for node in frontier:
            for first_run, run_relation, run_start, perm, other in sides:
                lo, hi = first_run[node], first_run[node + 1]
                if lo != hi:
                    rels.update(run_relation[lo:hi])
                    if hops_left:
                        ahead.update(map(other.__getitem__, perm[run_start[lo] : run_start[hi]]))
            if len(rels) == every_relation:
                return rels  # no node left can add a relation
        frontier = ahead - reached
        reached |= frontier
    return rels


def match_triples_by_id(
    g: KnowledgeGraph, endpoint_ids: set[int], relation_ids: set[int]
) -> list[int]:
    """Load positions, ascending and deduplicated, of the triples whose
    relation is in ``relation_ids`` and whose head or tail is in
    ``endpoint_ids``. Ids the graph never handed out match nothing.
    """
    wanted = sorted(relation_ids)
    known = len(g._out.first_run) - 1  # the ids handed out are 0 .. known - 1
    anchors = [eid for eid in endpoint_ids if 0 <= eid < known]
    found = []
    for first_run, run_relation, run_start, perm, _ in (g._out, g._in):
        positions: list[int] = []
        for eid in anchors:
            lo, hi = first_run[eid], first_run[eid + 1]
            # the entity's runs ascend by relation id, so each wanted one is a bisection
            for rid in wanted:
                lo = bisect_left(run_relation, rid, lo, hi)
                if lo == hi:
                    break
                if run_relation[lo] == rid:
                    positions += perm[run_start[lo] : run_start[lo + 1]]
        found.append(positions)
    # a side's runs are disjoint slices of a permutation, so no side repeats a position
    return merge_positions(found)


def merge_positions(lists: Iterable[list[int]]) -> list[int]:
    """The ascending union of position lists, none of which repeats a position."""
    filled = list(filter(None, lists))
    if len(filled) == 1:
        return sorted(filled[0])
    merged = sorted(chain.from_iterable(filled))
    # a position repeats only across lists, where sorting puts its copies side by side
    return list(compress(merged, map(ne, merged, chain((-1,), merged))))
