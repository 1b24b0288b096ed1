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
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .backends import Backend, MockBackend
from .candidates import VARIABLE, resolve_mention
from .errors import (
    DatasetLoadError,
    KGReasonError,
    PipelineError,
    QueryError,
    UnknownEntityError,
    reading,
)
from .graph import KnowledgeGraph, TypeGraph, canonical_label
from .parsing import REFUTED, SUPPORTED, AnswerCandidate
from .pipeline import Conclusion, Pipeline, Query

REASONING_TYPES = ("one-hop", "conjunction", "existence", "multi-hop", "negation")

_STAGES = ("query", "segmentation", "retrieval", "inference")


class OrderBoundScriptError(ValueError):
    """A mock script with sequence entries was asked to run on several workers."""


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
    for lineno, record in _read_jsonl(path):
        try:
            claim = record["claim"]
            entities = tuple(record["entities"])
            label = _normalize_label(path, lineno, record["label"])
        except (KeyError, TypeError) as exc:
            raise DatasetLoadError(path, lineno, f"missing field ({exc})") from exc
        if not entities:
            raise DatasetLoadError(path, lineno, "entities must be non-empty")
        reasoning = record.get("type")
        if reasoning is not None:
            reasoning = str(reasoning).strip().lower()
            if reasoning not in REASONING_TYPES:
                raise DatasetLoadError(path, lineno, f"unknown reasoning type {reasoning!r}")
        examples.append(VerificationExample(claim, entities, label, reasoning))
    if not examples:
        raise DatasetLoadError(path, None, "dataset is empty")
    return examples


def _normalize_label(path: str, lineno: int, raw: object) -> str:
    label = str(raw).strip().lower()
    if label == "supported":
        return SUPPORTED
    if label == "refuted":
        return REFUTED
    raise DatasetLoadError(path, lineno, f"unknown label {raw!r}")


def _read_jsonl(path: str):
    with reading(path, partial(DatasetLoadError, path)) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetLoadError(path, lineno, f"bad JSON ({exc})") from exc


_BRACKETED_SEED = re.compile(r"\[([^\[\]]+)\]")


def split_seed(question: str) -> tuple[str, str]:
    """Split a question into its prompt text (brackets removed) and its seed.

    Raises :class:`QueryError` unless exactly one ``[bracketed]`` seed is present.
    """
    seeds = _BRACKETED_SEED.findall(question)
    if len(seeds) != 1:
        raise QueryError(f"expected exactly one bracketed seed, got {len(seeds)}")
    return _BRACKETED_SEED.sub(lambda m: m.group(1), question).strip(), seeds[0]


def load_qa_dataset(path: str, hops: int) -> list[QAExample]:
    """Load ``question<TAB>answer|answer`` lines; the seed sits in brackets."""
    examples: list[QAExample] = []
    with reading(path, partial(DatasetLoadError, path)) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DatasetLoadError(path, lineno, "expected question<TAB>answers")
            question, answer_field = parts
            try:
                text, seed = split_seed(question)
            except QueryError as exc:
                raise DatasetLoadError(path, lineno, str(exc)) from exc
            answers = tuple(a.strip() for a in answer_field.split("|") if a.strip())
            if not answers:
                raise DatasetLoadError(path, lineno, "no gold answers")
            examples.append(QAExample(question, text, seed, hops, answers))
    if not examples:
        raise DatasetLoadError(path, None, "dataset is empty")
    return examples


@dataclass
class EvalReport:
    """Aggregate metrics for one harness run, with its configuration echo."""

    n: int
    correct: int
    metric_name: str  # "accuracy" | "hits_at_1"
    metric_value: float
    mean_evidence_triples: float | None
    mean_evidence_by_gold: dict[str, float] | None
    stage_failures: dict[str, int]
    config: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "correct": self.correct,
            self.metric_name: self.metric_value,
            "mean_evidence_triples": self.mean_evidence_triples,
            "mean_evidence_by_gold": self.mean_evidence_by_gold,
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
        if self.mean_evidence_by_gold:
            for gold, mean in sorted(self.mean_evidence_by_gold.items()):
                lines.append(f"  {gold:<16} {mean:.2f}")
        failures = {s: c for s, c in self.stage_failures.items() if c}
        lines.append(f"stage failures:    {failures or 'none'}")
        lines.append(f"config:            {self.config}")
        return "\n".join(lines)


def build_query(
    example: VerificationExample | QAExample, g: KnowledgeGraph, tg: TypeGraph
) -> Query:
    """Turn a dataset example into a pipeline query.

    A claim entity that names nothing in the graph becomes a variable; a
    question seed that names nothing raises :class:`UnknownEntityError`.
    """
    if isinstance(example, VerificationExample):
        mentions = tuple(resolve_mention(label, g, tg) for label in example.entities)
        return Query.claim(example.claim, mentions)
    seed = resolve_mention(example.seed, g, tg)
    if seed.kind == VARIABLE:
        raise UnknownEntityError(example.seed)
    return Query.question(example.text, seed, example.hops)


def trace_record(pipeline: Pipeline, source: str, outcome: Conclusion | KGReasonError) -> dict:
    """One query's trace record: its input, ``k`` and ``shots``, then its outcome.

    ``outcome`` is the run's :class:`Conclusion`, the :class:`PipelineError`
    it raised, or the :class:`KGReasonError` raised while building the query
    (stage "query", no trace).
    """
    record: dict = {"input": source, "k": pipeline.k, "shots": pipeline.shots}
    if isinstance(outcome, PipelineError):
        record["error"] = {"stage": outcome.stage, "message": str(outcome.cause)}
        record["trace"] = outcome.trace.to_record() if outcome.trace else None
    elif isinstance(outcome, KGReasonError):
        record["error"] = {"stage": "query", "message": str(outcome)}
        record["trace"] = None
    else:
        result = outcome.result
        record["predicted"] = result.entity if isinstance(result, AnswerCandidate) else result.label
        record["evidence_size"] = len(outcome.evidence)
        record["trace"] = outcome.trace.to_record()
    return record


def append_trace(path: str, record: dict) -> None:
    """Append one trace record to ``path`` as a line of JSON."""
    with open(path, "a", encoding="utf-8") as out:
        out.write(json.dumps(record, ensure_ascii=False) + "\n")


def evaluate(
    dataset: Sequence[VerificationExample] | Sequence[QAExample],
    g: KnowledgeGraph,
    tg: TypeGraph,
    backend: Backend,
    *,
    k: int,
    shots: int = 12,
    width: int = 1,
    trace_path: str | None = None,
) -> EvalReport:
    """Run the pipeline over the dataset on ``width`` worker threads and aggregate metrics.

    Per-example failures are data: they score as incorrect and increment
    the failing stage's counter; an example that cannot be turned into a
    query fails at the "query" stage. When ``trace_path`` is given, each
    example's :func:`trace_record`, with its ``correct`` flag, is appended
    as soon as it and every earlier example are done, so records keep
    dataset order and a run that raises keeps the records finished before
    it. The report's ``config["backend"]`` reads ``"<endpoint> (<model>)"``
    for a backend carrying a ``config``, and the backend's class name
    otherwise. Raises :class:`ValueError` before any query for an empty
    dataset, ``width < 1`` or an out-of-range ``k`` or ``shots``, and its
    subclass :class:`OrderBoundScriptError` for ``width > 1`` on an order-bound
    :class:`MockBackend`, whose sequence entries replay in call order.
    """
    if not dataset:
        raise ValueError("dataset is empty")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if width > 1 and isinstance(backend, MockBackend) and backend.order_bound:
        raise OrderBoundScriptError(
            f"the mock script's sequence entries replay in call order and need width 1, got"
            f" width {width}; run at width 1, or use hash entries keyed by prompt hash"
        )
    config = getattr(backend, "config", None)
    if config is not None:
        backend_desc = f"{config.endpoint} ({config.model})"
    else:
        backend_desc = type(backend).__name__
    pipeline = Pipeline(g, tg, backend, k=k, shots=shots)
    is_qa = isinstance(dataset[0], QAExample)

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

    correct = 0
    failures = dict.fromkeys(_STAGES, 0)
    sizes: list[int] = []
    gold_sizes: dict[str, list[int]] = {SUPPORTED: [], REFUTED: []}
    with ThreadPoolExecutor(max_workers=width) as pool:
        for example, record in zip(dataset, pool.map(run_one, dataset)):
            if trace_path is not None:
                append_trace(trace_path, record)
            correct += record["correct"]
            if "error" in record:
                failures[record["error"]["stage"]] += 1
                continue
            sizes.append(record["evidence_size"])
            if not is_qa:
                gold_sizes[example.gold].append(record["evidence_size"])
    return EvalReport(
        n=len(dataset),
        correct=correct,
        metric_name="hits_at_1" if is_qa else "accuracy",
        metric_value=correct / len(dataset),
        mean_evidence_triples=_mean(sizes),
        mean_evidence_by_gold=None if is_qa else {g: _mean(s) for g, s in gold_sizes.items() if s},
        stage_failures=failures,
        config={"k": k, "shots": shots, "width": width, "backend": backend_desc},
    )


def _mean(values: list[int]) -> float | None:
    return sum(values) / len(values) if values else None


def ablate(
    dataset: Sequence[VerificationExample] | Sequence[QAExample],
    g: KnowledgeGraph,
    tg: TypeGraph,
    make_backend: Callable[[], Backend],
    *,
    k_values: Sequence[int],
    shot_values: Sequence[int],
    width: int = 1,
    trace_path: str | None = None,
) -> list[EvalReport]:
    """One evaluate run per (k, shots) grid cell, k-major.

    ``make_backend`` is called once per cell, so each cell gets a fresh
    backend and scripted sequence replay starts over.
    """
    if not k_values or not shot_values:
        raise ValueError("k_values and shot_values must be non-empty")
    return [
        evaluate(
            dataset, g, tg, make_backend(), k=k, shots=shots, width=width, trace_path=trace_path
        )
        for k in k_values
        for shots in shot_values
    ]


def write_report(report: EvalReport | Sequence[EvalReport], path: str) -> None:
    """Write one report, or a grid's list of them, as indented JSON."""
    if isinstance(report, EvalReport):
        record: dict | list[dict] = report.to_record()
    else:
        record = [r.to_record() for r in report]
    Path(path).write_text(json.dumps(record, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
