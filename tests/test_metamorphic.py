"""Metamorphic relations over whole runs: graph-file edits that change no outcome.

Each relation edits the lines of a suite's graph file, loads the result and
runs every query of the suite again. Every verdict or answer, stage error and
evidence label set must stay as it was on the file as written. The relations:

- the graph file's lines in another order;
- respelled duplicate lines appended: entity labels with spaces and
  underscores swapped or with surrounding spaces, relation labels with
  surrounding spaces only, since relations otherwise compare verbatim;
- triples between existing entities, under relation labels that no query
  retrieves.

Entity labels are compared in ``canonical_label`` form, because the
interner keeps the first spelling it reads. The suites are the four fixture
suites with their mock scripts, and two small kgbench graphs answered by the
benchmark's oracle backend.
"""

from __future__ import annotations

import random
import subprocess
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from kg_reason import (
    KGReasonError,
    Pipeline,
    PipelineError,
    build_type_graph,
    canonical_label,
    load_graph,
    load_qa_dataset,
    load_verification_dataset,
)
from kg_reason.evaluation import QAExample, VerificationExample, build_query
from kg_reason.parsing import AnswerCandidate
from kg_reason.prompts import task_sentence

from helpers import FIXTURES, mock_backend

KGBENCH = FIXTURES.parents[1] / "kgbench"
sys.path.insert(0, str(KGBENCH))
from oracle import Oracle, OracleBackend, load_queries  # noqa: E402

SHUFFLES = 30
UNRELATED_SEEDS = 20
UNRELATED_TRIPLES = 15


@dataclass(frozen=True)
class Suite:
    name: str
    graph_lines: tuple[str, ...]  # the triple lines of the graph file, comments dropped
    types_path: str | None
    examples: list
    make_backend: Callable[[], object]
    k: int


def _triple_lines(path: Path) -> tuple[str, ...]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return tuple(line for line in lines if line.strip() and not line.lstrip().startswith("#"))


def _fixture_suite(name: str) -> Suite:
    if name == "verification":
        return Suite(
            name,
            _triple_lines(FIXTURES / "factkg_graph.tsv"),
            str(FIXTURES / "factkg_types.tsv"),
            load_verification_dataset(str(FIXTURES / "verification.jsonl")),
            lambda: mock_backend("mock_factkg.jsonl"),
            5,
        )
    hops = int(name[3])
    return Suite(
        name,
        _triple_lines(FIXTURES / "metaqa_graph.tsv"),
        None,
        load_qa_dataset(str(FIXTURES / f"{name}.txt"), hops),
        lambda: mock_backend(f"mock_metaqa_{hops}hop.jsonl"),
        3,
    )


def _kgbench_suite(kind: str, out: Path) -> Suite:
    """A 500-triple, 60-query graph from the benchmark's generator, seed 1."""
    subprocess.run(
        [sys.executable, str(KGBENCH / "gen.py"), kind, "--seed", "1", "--out", str(out),
         "--triples", "500", "--queries", "60"],
        check=True, capture_output=True, timeout=120,
    )
    queries = load_queries(out / "queries.jsonl")
    examples = [
        VerificationExample(q["text"], tuple(q["entities"]), q["label"], q["type"])
        if q["kind"] == "claim"
        else QAExample(q["question"], q["text"], q["seed"], q["hops"], tuple(q["answers"]))
        for q in queries
    ]
    types = out / "types.tsv"
    return Suite(
        kind,
        _triple_lines(out / "graph.tsv"),
        str(types) if types.exists() else None,
        examples,
        lambda: OracleBackend(Oracle(queries)),
        5 if kind == "factkg" else 3,
    )


FIXTURE_SUITES = ["verification", "qa_1hop", "qa_2hop", "qa_3hop"]
KGBENCH_SUITES = ["factkg", "metaqa"]


@pytest.fixture(scope="module", params=FIXTURE_SUITES + KGBENCH_SUITES)
def suite(request, tmp_path_factory) -> Suite:
    if request.param in KGBENCH_SUITES:
        return _kgbench_suite(request.param, tmp_path_factory.mktemp(request.param))
    return _fixture_suite(request.param)


def _run(suite: Suite, lines, directory: Path) -> list[tuple[tuple, tuple]]:
    """Each query's outcome over a graph file of ``lines``, and the
    sub-sentence and picked relations of each of its retrieval steps."""
    path = directory / "graph.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    g = load_graph(str(path), suite.types_path)
    tg = build_type_graph(g)
    pipeline = Pipeline(g, tg, suite.make_backend(), k=suite.k)
    runs: list[tuple[tuple, tuple]] = []
    for example in suite.examples:
        try:
            conclusion = pipeline.run(build_query(example, g, tg))
        except PipelineError as exc:
            outcome: tuple = ("error", exc.stage, str(exc.cause))
            trace = exc.trace.to_record() if exc.trace else {}
        except KGReasonError as exc:
            outcome, trace = ("error", "query", str(exc)), {}
        else:
            result = conclusion.result
            if isinstance(result, AnswerCandidate):
                predicted = canonical_label(result.entity)
            else:
                predicted = result.label
            evidence = {
                (canonical_label(head), relation, canonical_label(tail))
                for head, relation, tail in conclusion.evidence.labels()
            }
            outcome, trace = (predicted, evidence), conclusion.trace.to_record()
        subsentences = trace.get("segmentation", {}).get("subsentences", [])
        texts = {sub["index"]: sub["text"] for sub in subsentences}
        picks = tuple(
            (texts[step["index"]], tuple(step.get("relations", ())))
            for step in trace.get("retrieval", [])
        )
        runs.append((outcome, picks))
    return runs


def _outcomes(suite: Suite, lines, directory: Path) -> list[tuple]:
    return [outcome for outcome, _ in _run(suite, lines, directory)]


class _RetrievalBySentence:
    """A fixture suite's mock script for segmentation and inference, with each
    retrieval call answered by the relations picked for its sub-sentence."""

    def __init__(self, inner, picked: dict[str, tuple[str, ...]]):
        self.inner = inner
        self.picked = picked

    def complete(self, prompt: str, stage: str) -> str:
        if stage == "retrieval":
            return repr(list(self.picked[task_sentence(prompt)]))
        return self.inner.complete(prompt, stage)


def _answering_as_picked(suite: Suite, runs) -> Suite:
    """``suite`` with retrieval answered as in ``runs``, whatever the pool offers."""
    picked: dict[str, tuple[str, ...]] = {}
    for _, picks in runs:
        for text, relations in picks:
            assert picked.setdefault(text, relations) == relations, text
    script = suite.make_backend
    return replace(suite, make_backend=lambda: _RetrievalBySentence(script(), picked))


_SWAP = str.maketrans(" _", "_ ")


def _respelled(line: str, rng: random.Random) -> str:
    head, relation, tail = line.split("\t")

    def entity(label: str) -> str:
        return rng.choice([label.translate(_SWAP), f"  {label} ", f" {label.translate(_SWAP)} "])

    return "\t".join((entity(head), f" {relation}  ", entity(tail)))


def test_shuffled_graph_lines_change_no_outcome(suite, tmp_path):
    expected = _outcomes(suite, suite.graph_lines, tmp_path)
    for seed in range(SHUFFLES):
        lines = list(suite.graph_lines)
        random.Random(seed).shuffle(lines)
        assert _outcomes(suite, lines, tmp_path) == expected, f"seed {seed}"


def test_respelled_duplicate_lines_change_no_outcome(suite, tmp_path):
    expected = _outcomes(suite, suite.graph_lines, tmp_path)
    for seed in range(SHUFFLES):
        rng = random.Random(seed)
        lines = list(suite.graph_lines)
        rng.shuffle(lines)
        lines += [_respelled(line, rng) for line in lines]
        assert _outcomes(suite, lines, tmp_path) == expected, f"seed {seed}"


@pytest.mark.parametrize("prefix", ["!", "~"], ids=["sorting-first", "sorting-last"])
def test_unrelated_triples_change_no_outcome_of_a_query_that_picks_as_before(
    suite, prefix, tmp_path
):
    """Triples between existing entities, under new relation labels that sort
    before (or after) every relation, placed at random lines of the file.

    The relation speaks for a query only while it retrieves what it retrieved
    before. An added triple can grow a one-relation pool, which is taken
    without a call, to two, which is sent and needs a reply the fixture
    script does not hold. So the fixture suites answer each retrieval call
    with the relations the run on the file as written picked for its
    sub-sentence, and every fixture query counts. The kgbench oracle picks
    the gold relation, then the offered ones in offered order, so an added
    triple can change its picks two ways: a new label offered early enough
    is picked, and for a question, an added edge can bring other relations
    within the seed's n hops, and so into the offered pool. Those queries
    are left out and counted.
    """
    baseline = _run(suite, suite.graph_lines, tmp_path)
    if suite.name in FIXTURE_SUITES:
        suite = _answering_as_picked(suite, baseline)
    relations = {line.split("\t")[1] for line in suite.graph_lines}
    labels = [f"{prefix}unrelated_{i}" for i in range(UNRELATED_TRIPLES)]
    if prefix == "!":
        assert max(labels) < min(relations)
    else:
        assert min(labels) > max(relations)
    entities = sorted({field for line in suite.graph_lines for field in line.split("\t")[::2]})
    counted = 0
    for seed in range(UNRELATED_SEEDS):
        rng = random.Random(seed)
        lines = list(suite.graph_lines)
        for label in labels:
            triple = f"{rng.choice(entities)}\t{label}\t{rng.choice(entities)}"
            lines.insert(rng.randrange(len(lines) + 1), triple)
        for i, ((expected, picks), (outcome, now_picks)) in enumerate(
            zip(baseline, _run(suite, lines, tmp_path))
        ):
            if now_picks == picks:
                counted += 1
                assert outcome == expected, f"seed {seed}, query {i}"
    runs = UNRELATED_SEEDS * len(suite.examples)
    if suite.name in FIXTURE_SUITES:
        assert counted == runs
    else:
        assert counted > runs // 3
