"""Three-stage orchestration: segment, retrieve, assemble evidence, infer.

The pipeline holds only immutable shared state (graph, type projection,
backend, defaults), so one instance may serve many queries concurrently.
Each run produces a :class:`Conclusion` carrying the evidence graph and a
full stage trace; on failure the trace travels with the raised
:class:`~kg_reason.errors.PipelineError`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Union

from .backends import Backend
from .candidates import (
    CONCRETE,
    HOPS,
    TYPE_REF,
    VARIABLE,
    Mention,
    RelationCandidates,
    extract_nhop_candidates,
    extract_relation_candidates,
)
from .errors import KGReasonError, ParseError, PipelineError, QueryError, RetrievalError
from .graph import KnowledgeGraph, TypeGraph, gather, match_triples_by_id, merge_positions
from .parsing import (
    AnswerCandidate,
    SubSentence,
    Verdict,
    parse_answer,
    parse_relations,
    parse_segmentation,
    parse_verdict,
)
from .prompts import (
    MAX_SHOTS,
    QA_INFERENCE_TEMPLATE,
    RETRIEVAL_TEMPLATE,
    SEGMENTATION_TEMPLATE,
    VERIFICATION_INFERENCE_TEMPLATE,
    PromptTemplate,
    render_entity_set,
    render_prompt,
    render_relation_list,
    render_triple_list,
)

CLAIM = "claim"
QUESTION = "question"
DEFAULT_K = {CLAIM: 5, QUESTION: 3}  # relations retrieved per sub-sentence, as in the paper


@dataclass(frozen=True)
class Query:
    """A claim to verify or a question to answer, with its seed mentions."""

    kind: str
    text: str
    mentions: tuple[Mention, ...]
    hops: int | None = None

    @classmethod
    def claim(cls, text: str, mentions: tuple[Mention, ...] | list[Mention]) -> "Query":
        mentions = tuple(mentions)
        if not text.strip():
            raise QueryError("claim text is empty")
        if not any(m.kind in (CONCRETE, TYPE_REF) for m in mentions):
            raise QueryError("a claim needs at least one concrete or type mention")
        return cls(CLAIM, text, mentions)

    @classmethod
    def question(cls, text: str, seed: Mention, hops: int) -> "Query":
        if not text.strip():
            raise QueryError("question text is empty")
        if seed.kind != CONCRETE:
            raise QueryError(f"a question needs a concrete seed, got {seed.kind} {seed.surface!r}")
        if hops not in HOPS:
            raise QueryError(f"hops must be 1, 2 or 3, got {hops}")
        return cls(QUESTION, text, (seed,), hops)

    @property
    def seed(self) -> Mention:
        return self.mentions[0]


@dataclass
class EvidenceGraph:
    """Retrieved sub-graph: the load positions of its triples, ascending, deduplicated.

    The triples are labelled once, at construction, into three label
    columns, which the inference prompt renders; :meth:`labels` zips them
    into one list of triples on each call, for the trace record and the
    answer parser.
    """

    graph: KnowledgeGraph
    positions: tuple[int, ...]
    columns: tuple[tuple[str, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.columns = self.graph.label_columns(self.positions)

    def __len__(self) -> int:
        return len(self.positions)

    def labels(self) -> list[tuple[str, str, str]]:
        return list(zip(*self.columns))


def linearize(evidence: EvidenceGraph) -> str:
    """Render the evidence triples for prompt inclusion; ``[]`` when empty."""
    return render_triple_list(*evidence.columns)


def bound_entities(g: KnowledgeGraph, matched: list[int], anchors: set[int]) -> set[int]:
    """The entities a variable is bound to, from its binding's source: the
    endpoints of the positions its sub-sentence kept, outside that sub-sentence's anchors."""
    entities = set(gather(g.head, matched))
    entities.update(gather(g.tail, matched))
    entities -= anchors
    return entities


def _assembly_record(evidence: EvidenceGraph, bindings: dict) -> dict:
    g = evidence.graph
    return {
        "triples": evidence.labels(),
        "empty_evidence": not evidence.positions,
        "bindings": {
            name: sorted(g.entity_labels(bound_entities(g, *source)))
            for name, source in bindings.items()
        },
    }


@dataclass
class StageTrace:
    """Raw prompts, responses and parsed artifacts for every executed stage."""

    segmentation: dict | None = None
    retrieval: list[dict] = field(default_factory=list)
    assembly: dict | None = None  # {"evidence": ..., "bindings": {name: (matched, anchors)}}
    inference: dict | None = None
    timings: dict[str, float] = field(default_factory=dict)

    def to_record(self) -> dict:
        """The trace as plain data; the assembly's triples and bindings are labelled here."""
        return {
            "segmentation": self.segmentation,
            "retrieval": self.retrieval,
            "assembly": None if self.assembly is None else _assembly_record(**self.assembly),
            "inference": self.inference,
            "timings": self.timings,
        }


@dataclass
class Conclusion:
    result: Union[Verdict, AnswerCandidate]
    evidence: EvidenceGraph
    trace: StageTrace


def _mention_record(m: Mention) -> dict:
    return {"kind": m.kind, "surface": m.surface}


class Pipeline:
    """Runs queries against one graph through a pluggable backend."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        type_graph: TypeGraph,
        backend: Backend,
        *,
        k: int,
        shots: int = MAX_SHOTS,
    ):
        if type(k) is not int or k < 1:  # bools refused too
            raise ValueError(f"k must be an int >= 1, got {k}")
        if type(shots) is not int or not 1 <= shots <= MAX_SHOTS:
            raise ValueError(f"shots must be an int between 1 and {MAX_SHOTS}, got {shots}")
        self.graph = graph
        self.type_graph = type_graph
        self.backend = backend
        self.k = k
        self.shots = shots

    # stages --------------------------------------------------------------

    def _ask(self, template: PromptTemplate, bindings: dict[str, str], record: dict) -> str:
        """The one backend call site: render, send, and keep the exchange in
        ``record``, the prompt before the call and the response after it."""
        prompt = record["prompt"] = render_prompt(template, bindings, self.shots)
        response = record["response"] = self.backend.complete(prompt, template.stage)
        return response

    def segment(self, query: Query, trace: StageTrace) -> list[SubSentence]:
        """Split the query into sub-sentences via the segmentation prompt.

        One-hop questions whose response fails the grammar degrade to a
        single sub-sentence spanning the whole question.
        """
        record = trace.segmentation = {}
        entity_set = render_entity_set([m.surface for m in query.mentions])
        bindings = {"CLAIM": query.text, "ENTITY_SET": entity_set}
        response = self._ask(SEGMENTATION_TEMPLATE, bindings, record)
        notes: list[str] = []
        record["notes"] = notes
        try:
            subsentences = parse_segmentation(
                response, query.mentions, self.type_graph, notes
            )
        except ParseError:
            if query.kind == QUESTION and query.hops == 1:
                notes.append("parse failed; fell back to the whole question")
                subsentences = [SubSentence(1, query.text, query.mentions)]
            else:
                raise
        record["subsentences"] = [
            {"index": s.index, "text": s.text, "mentions": [_mention_record(m) for m in s.mentions]}
            for s in subsentences
        ]
        return subsentences

    def retrieve(
        self,
        subsentences: list[SubSentence],
        query: Query,
        trace: StageTrace,
    ) -> dict[int, RelationCandidates]:
        """Pick up to k relations per sub-sentence from its candidate pool.

        Claims build the pool per sub-sentence from its mentions; questions
        share the n-hop pool of the seed across all sub-sentences. A pool of
        one relation is taken as it is, without a backend call: every reply
        :func:`parse_relations` accepts would keep that relation, named or
        through its first-k fallback. Its record has no prompt or response.
        Larger pools are always sent, even when they hold k or fewer
        relations, because the model may pick fewer than k.
        """
        shared: RelationCandidates | None = None
        if query.kind == QUESTION:
            shared = extract_nhop_candidates(query.seed.ref, query.hops, self.graph)
        retrieved: dict[int, RelationCandidates] = {}
        for sub in subsentences:
            offered = (
                shared
                if shared is not None
                else extract_relation_candidates(sub.mentions, self.graph, self.type_graph)
            )
            if not offered.relations:
                raise RetrievalError(
                    f"no candidate relations for sub-sentence {sub.index}: {sub.text!r}"
                )
            record = {"index": sub.index, "offered": list(offered.relations)}
            trace.retrieval.append(record)
            if len(offered.relations) == 1:
                parsed, notes = offered, ["one offered relation: taken without a call"]
            else:
                relation_set = render_relation_list(offered.relations)
                bindings = {"SENTENCE": sub.text, "RELATION_SET": relation_set, "TOP_K": str(self.k)}
                response = self._ask(RETRIEVAL_TEMPLATE, bindings, record)
                notes = []
                parsed = parse_relations(response, offered.relations, self.k, notes)
            retrieved[sub.index] = parsed
            record["relations"] = list(parsed.relations)
            record["notes"] = notes
        return retrieved

    def assemble(
        self,
        subsentences: list[SubSentence],
        retrieved: dict[int, RelationCandidates],
        trace: StageTrace,
    ) -> EvidenceGraph:
        """Collect matching triples sub-sentence by sub-sentence.

        A binding environment carries variable values forward: each
        sub-sentence anchors on its concrete mentions plus the current
        bindings of its variables, matches triples over its retrieved
        relations, drops triples whose non-anchor endpoint contradicts a
        type mention, then rebinds its variables to the matched endpoints
        outside the anchor set. A binding is kept as its source and resolved
        to entities only where it is read: by a later anchor, and by the
        trace record.
        """
        g = self.graph
        bindings: dict[str, tuple[list[int], set[int]]] = {}  # sources, see bound_entities
        runs: list[list[int]] = []  # each sub-sentence's matched positions, unordered
        for sub in subsentences:
            relation_ids = set(map(g.maybe_relation_id, retrieved[sub.index].relations)) - {None}
            anchors: set[int] = set()
            for m in sub.mentions:
                if m.kind == CONCRETE:
                    anchors.add(m.ref)
                elif m.kind == VARIABLE and m.ref in bindings:
                    anchors.update(bound_entities(g, *bindings[m.ref]))
            if not anchors:
                raise RetrievalError(
                    f"sub-sentence {sub.index} has no anchored entities: {sub.text!r}"
                )
            matched = match_triples_by_id(g, anchors, relation_ids)
            type_ids = {m.ref for m in sub.mentions if m.kind == TYPE_REF}
            if type_ids:
                matched = [p for p in matched if _endpoints_fit_types(g, p, anchors, type_ids)]
            for m in sub.mentions:
                if m.kind == VARIABLE:
                    bindings[m.ref] = (matched, anchors)
            runs.append(matched)
        evidence = EvidenceGraph(g, tuple(merge_positions(runs)))
        trace.assembly = {"evidence": evidence, "bindings": bindings}
        return evidence

    def infer(
        self,
        query: Query,
        evidence: EvidenceGraph,
        trace: StageTrace,
    ) -> Conclusion:
        """Derive a verdict (claims) or a grounded answer entity (questions)."""
        template = (
            QA_INFERENCE_TEMPLATE if query.kind == QUESTION else VERIFICATION_INFERENCE_TEMPLATE
        )
        record = trace.inference = {}
        response = self._ask(
            template, {"CLAIM": query.text, "EVIDENCE_SET": linearize(evidence)}, record
        )
        if query.kind == QUESTION:
            result: Verdict | AnswerCandidate = parse_answer(
                response, evidence.labels(), query.seed.surface
            )
            record["answer"] = result.entity
        else:
            result = parse_verdict(response)
            record["verdict"] = result.label
        return Conclusion(result=result, evidence=evidence, trace=trace)

    # end to end -----------------------------------------------------------

    def run(self, query: Query) -> Conclusion:
        """Run all stages; failures are wrapped with their stage name.

        Evidence assembly is timed under its own key, "assembly", but its
        failures count as part of the graph-retrieval stage. The partial
        trace is attached to the raised error.
        """
        trace = StageTrace()
        subsentences = self._stage(
            "segmentation", trace, lambda: self.segment(query, trace)
        )
        retrieved = self._stage(
            "retrieval", trace, lambda: self.retrieve(subsentences, query, trace)
        )
        evidence = self._stage(
            "assembly",
            trace,
            lambda: self.assemble(subsentences, retrieved, trace),
            fails_as="retrieval",
        )
        return self._stage("inference", trace, lambda: self.infer(query, evidence, trace))

    def _stage(self, name: str, trace: StageTrace, thunk, *, fails_as: str | None = None):
        """Run ``thunk`` timed under ``name``; a failure reports stage ``fails_as or name``."""
        start = time.perf_counter()
        try:
            return thunk()
        except KGReasonError as exc:
            raise PipelineError(fails_as or name, exc, trace) from exc
        finally:
            trace.timings[name] = time.perf_counter() - start


def _endpoints_fit_types(
    g: KnowledgeGraph, position: int, anchors: set[int], type_ids: set[int]
) -> bool:
    # Entities without recorded types pass unfiltered.
    for endpoint in (g.head[position], g.tail[position]):
        if endpoint in anchors:
            continue
        recorded = g.entity_types.get(endpoint)
        if recorded and not (recorded & type_ids):
            return False
    return True
