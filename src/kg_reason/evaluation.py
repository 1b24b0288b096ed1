"""Dataset loaders and the batch evaluation harness.

Verification datasets are line-delimited JSON records with ``claim``,
``entities``, ``label`` and an optional ``type``. Question datasets follow
the ``question with [seed]<TAB>answer|answer`` text convention. The harness
scores verification by verdict accuracy and questions by Hits@1, counting
pipeline errors as incorrect under the stage that failed.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .candidates import HOPS, VARIABLE, resolve_mention
from .errors import (
    FileError,
    KGReasonError,
    PipelineError,
    QueryError,
    read_lines,
    writing,
)
from .graph import KnowledgeGraph, TypeGraph, canonical_label
from .parsing import REFUTED, SUPPORTED, AnswerCandidate
from .pipeline import Conclusion, Pipeline, Query, StageTrace

REASONING_TYPES = ("one-hop", "conjunction", "existence", "multi-hop", "negation")

_STAGES = ("query", "segmentation", "retrieval", "inference")


@dataclass(frozen=True)
class VerificationExample:
    claim: str
    entities: tuple[str, ...]
    gold: str  # SUPPORTED | REFUTED
    reasoning_type: str | None = None


@dataclass(frozen=True)
class QAExample:
    question: str  # original text, seed still bracketed
    text: str  # prompt text, brackets removed
    seed: str
    hops: int
    gold_answers: tuple[str, ...]


def load_verification_dataset(path: str) -> list[VerificationExample]:
    """Load claim records from a line-delimited JSON file."""
    examples: list[VerificationExample] = []
    for lineno, line in read_lines(path):
        try:
            record = json.loads(line.strip())
            claim = record["claim"]
            entities = record["entities"]
            label = _normalize_label(path, lineno, record["label"])
        except json.JSONDecodeError as exc:
            raise FileError(path, lineno, f"bad JSON ({exc})") from exc
        except (KeyError, TypeError) as exc:
            raise FileError(path, lineno, f"missing field ({exc})") from exc
        if not isinstance(claim, str) or not claim.strip():
            raise FileError(path, lineno, f"claim must be a non-blank string: {claim!r}")
        if not isinstance(entities, list) or not all(
            isinstance(e, str) and e.strip() for e in entities
        ):
            raise FileError(
                path, lineno, f"entities must be a list of non-blank strings: {entities!r}"
            )
        if not entities:
            raise FileError(path, lineno, "entities must be non-empty")
        reasoning = record.get("type")
        if reasoning is not None:
            reasoning = str(reasoning).strip().lower()
            if reasoning not in REASONING_TYPES:
                raise FileError(path, lineno, f"unknown reasoning type {reasoning!r}")
        examples.append(VerificationExample(claim, tuple(entities), label, reasoning))
    if not examples:
        raise FileError(path, None, "dataset is empty")
    return examples


def _normalize_label(path: str, lineno: int, raw: object) -> str:
    label = str(raw).strip().lower()
    if label == "supported":
        return SUPPORTED
    if label == "refuted":
        return REFUTED
    raise FileError(path, lineno, f"unknown label {raw!r}")


_BRACKETED_SEED = re.compile(r"\[([^\[\]]+)\]")


def split_seed(question: str) -> tuple[str, str]:
    """Split a question into its prompt text (brackets removed) and its seed.

    Raises :class:`QueryError` unless exactly one ``[bracketed]`` seed is present, and not blank.
    """
    seeds = _BRACKETED_SEED.findall(question)
    if len(seeds) != 1:
        raise QueryError(f"expected exactly one bracketed seed, got {len(seeds)}")
    if seeds[0].isspace():
        raise QueryError("the bracketed seed is blank")
    return _BRACKETED_SEED.sub(lambda m: m.group(1), question).strip(), seeds[0]


def load_qa_dataset(path: str, hops: int) -> list[QAExample]:
    """Load ``question<TAB>answer|answer`` lines; the seed sits in brackets."""
    if hops not in HOPS:
        raise ValueError(f"hops must be 1, 2 or 3, got {hops}")
    examples: list[QAExample] = []
    for lineno, line in read_lines(path):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 2:
            raise FileError(path, lineno, "expected question<TAB>answers")
        question, answer_field = parts
        try:
            text, seed = split_seed(question)
        except QueryError as exc:
            raise FileError(path, lineno, str(exc)) from exc
        answers = tuple(a.strip() for a in answer_field.split("|") if a.strip())
        if not answers:
            raise FileError(path, lineno, "no gold answers")
        examples.append(QAExample(question, text, seed, hops, answers))
    if not examples:
        raise FileError(path, None, "dataset is empty")
    return examples


@dataclass
class EvalReport:
    """One run's metrics and configuration echo, counted only by :meth:`from_records`."""

    n: int
    correct: int
    metric_name: str  # "accuracy" | "hits_at_1"
    metric_value: float
    mean_evidence_triples: float | None
    stage_failures: dict[str, int]
    config: dict = field(default_factory=dict)

    @classmethod
    def from_records(cls, records: Iterable[dict], metric_name: str, config: dict) -> EvalReport:
        """Fold trace records, each scored ``correct``, one at a time; none is a ``ValueError``."""
        n = correct = evidence = 0
        failures = dict.fromkeys(_STAGES, 0)
        for n, record in enumerate(records, start=1):
            correct += record["correct"]
            if "error" in record:
                failures[record["error"]["stage"]] += 1
            else:
                evidence += record["evidence_size"]
        if not n:
            raise ValueError("no records to fold")
        concluded = n - sum(failures.values())
        mean_evidence = evidence / concluded if concluded else None
        return cls(n, correct, metric_name, correct / n, mean_evidence, failures, config)

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "correct": self.correct,
            self.metric_name: self.metric_value,
            "mean_evidence_triples": self.mean_evidence_triples,
            "stage_failures": self.stage_failures,
            "config": self.config,
        }

    def to_text(self) -> str:
        lines = [
            f"examples:          {self.n}",
            f"correct:           {self.correct}",
            f"{self.metric_name + ':':<18} {self.metric_value:.4f}",
        ]
        if self.mean_evidence_triples is not None:
            lines.append(f"mean evidence:     {self.mean_evidence_triples:.2f}")
        failures = {s: c for s, c in self.stage_failures.items() if c}
        lines.append(f"stage failures:    {failures or 'none'}")
        lines.append(f"config:            {self.config}")
        return "\n".join(lines)


def build_query(
    example: VerificationExample | QAExample, g: KnowledgeGraph, tg: TypeGraph
) -> Query:
    """Turn a dataset example into a pipeline query.

    A claim entity that names nothing in the graph becomes a variable; a
    question seed that names nothing raises :class:`QueryError`
    (``unknown entity: 'X'``), as does an example :class:`Query` refuses.
    """
    if isinstance(example, VerificationExample):
        mentions = tuple(resolve_mention(label, g, tg) for label in example.entities)
        return Query.claim(example.claim, mentions)
    seed = resolve_mention(example.seed, g, tg)
    if seed.kind == VARIABLE:
        raise QueryError(f"unknown entity: {example.seed!r}")
    return Query.question(example.text, seed, example.hops)


def trace_record(pipeline: Pipeline, source: str, outcome: Conclusion | KGReasonError) -> dict:
    """One query's trace record: its input, ``k`` and ``shots``, then its outcome.

    ``outcome`` is the run's :class:`Conclusion`, the :class:`PipelineError`
    it raised, or the :class:`KGReasonError` raised while building the query
    (stage "query", no trace). ``trace`` is the run's :class:`StageTrace`,
    labelled only by :func:`append_trace`, when the record is written.
    """
    record: dict = {"input": source, "k": pipeline.k, "shots": pipeline.shots}
    if isinstance(outcome, PipelineError):
        record["error"] = {"stage": outcome.stage, "message": str(outcome.cause)}
        record["trace"] = outcome.trace
    elif isinstance(outcome, KGReasonError):
        record["error"] = {"stage": "query", "message": str(outcome)}
        record["trace"] = None
    else:
        result = outcome.result
        record["predicted"] = result.entity if isinstance(result, AnswerCandidate) else result.label
        record["evidence_size"] = len(outcome.evidence)
        record["trace"] = outcome.trace
    return record


def append_trace(path: str, record: dict) -> None:
    """Append one trace record to ``path`` as a line of JSON."""
    with writing(path) as out:
        out.write(json.dumps(record, ensure_ascii=False, default=StageTrace.to_record) + "\n")


def evaluate(
    dataset: Sequence[VerificationExample] | Sequence[QAExample],
    pipeline: Pipeline,
    *,
    width: int = 1,
    trace_path: str | None = None,
) -> EvalReport:
    """Run ``pipeline`` over the dataset on ``width`` worker threads and report.

    The report is :meth:`EvalReport.from_records` of each example's
    :func:`trace_record` with its ``correct`` flag, folded as the records
    come: a failed example scores as incorrect and counts under its stage,
    "query" when it cannot be turned into a query. When ``trace_path`` is
    given, each record is appended as soon as it and every earlier one are
    done, so records keep dataset order and a run that raises keeps the
    records finished before it. The report's ``config`` echoes the
    pipeline's ``k`` and ``shots``, the width and the backend:
    ``"<endpoint> (<model>)"`` for a backend carrying a ``config``, and the
    backend's class name otherwise. Raises :class:`ValueError` before any
    query for an empty dataset, one that mixes claims and questions, or a
    ``width`` not an int >= 1.
    """
    if not dataset:
        raise ValueError("dataset is empty")
    is_qa = isinstance(dataset[0], QAExample)
    if any(isinstance(example, QAExample) is not is_qa for example in dataset):
        raise ValueError("dataset mixes claims and questions")
    if type(width) is not int or width < 1:  # bools refused too
        raise ValueError(f"width must be >= 1 and an int, got {width!r}")
    g, tg, backend = pipeline.graph, pipeline.type_graph, pipeline.backend
    config = {"k": pipeline.k, "shots": pipeline.shots, "width": width}
    config["backend"] = type(backend).__name__
    backend_config = getattr(backend, "config", None)
    if backend_config is not None:
        config["backend"] = f"{backend_config.endpoint} ({backend_config.model})"

    def run_one(example) -> dict:
        try:
            outcome = pipeline.run(build_query(example, g, tg))
        except KGReasonError as exc:
            outcome = exc
        record = trace_record(pipeline, example.question if is_qa else example.claim, outcome)
        if "error" in record:
            record["correct"] = False
        elif is_qa:
            gold = {canonical_label(a) for a in example.gold_answers}
            record["correct"] = canonical_label(record["predicted"]) in gold
        else:
            record["correct"] = record["predicted"] == example.gold
        return record

    def records():
        with ThreadPoolExecutor(max_workers=width) as pool:
            for record in pool.map(run_one, dataset):
                if trace_path is not None:
                    append_trace(trace_path, record)
                yield record

    return EvalReport.from_records(records(), "hits_at_1" if is_qa else "accuracy", config)


def write_report(report: EvalReport | Sequence[EvalReport], path: str) -> None:
    """Write one report, or a grid's list of them, as indented JSON."""
    if isinstance(report, EvalReport):
        record: dict | list[dict] = report.to_record()
    else:
        record = [r.to_record() for r in report]
    with writing(path, "w") as out:
        out.write(json.dumps(record, ensure_ascii=False, indent=2) + "\n")
