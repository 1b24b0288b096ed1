from __future__ import annotations

import json

import pytest

from kg_reason import (
    REFUTED,
    SUPPORTED,
    evaluate,
    load_qa_dataset,
    load_verification_dataset,
)
from kg_reason.backends import BackendConfig, HttpBackend, MockBackend, MockEntry, prompt_hash
from kg_reason.errors import DatasetLoadError, OutputError, QueryError
from kg_reason.evaluation import (
    EvalReport,
    ablate,
    append_trace,
    build_query,
    split_seed,
    write_report,
)
from kg_reason.pipeline import StageTrace

from helpers import (
    CountingBackend,
    EXPECTED_QA_ANSWERS,
    EXPECTED_QA_EVIDENCE,
    EXPECTED_VERIFICATION_EVIDENCE,
    EXPECTED_VERIFICATION_VERDICTS,
    FIXTURES,
    FirstKBackend,
    mock_backend,
    segmentations_from_script,
)


# --- verification loader ------------------------------------------------------


def test_load_verification_fixture():
    examples = load_verification_dataset(str(FIXTURES / "verification.jsonl"))
    assert len(examples) == 12
    assert examples[0].gold == SUPPORTED
    assert examples[4].gold == REFUTED


def test_load_one_claim_per_reasoning_type():
    examples = load_verification_dataset(str(FIXTURES / "reasoning_types.jsonl"))
    assert [e.reasoning_type for e in examples] == [
        "one-hop",
        "conjunction",
        "existence",
        "multi-hop",
        "negation",
    ]


def test_label_normalization(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"claim": "c", "entities": ["e"], "label": "SUPPORTED"}\n'
        '{"claim": "c2", "entities": ["e"], "label": "refuted"}\n',
        encoding="utf-8",
    )
    examples = load_verification_dataset(str(path))
    assert examples[0].gold == SUPPORTED
    assert examples[1].gold == REFUTED


def test_missing_entities_field_is_a_load_error(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"claim": "c", "label": "Supported"}\n', encoding="utf-8")
    with pytest.raises(DatasetLoadError) as err:
        load_verification_dataset(str(path))
    assert err.value.line == 1


def test_unknown_label_is_a_load_error(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"claim": "c", "entities": ["e"], "label": "maybe"}\n', encoding="utf-8")
    with pytest.raises(DatasetLoadError):
        load_verification_dataset(str(path))


@pytest.mark.parametrize(
    "claim, entities",
    [
        ("Alfredo Zitarrosa was born in Uruguay.", [5, "Uruguay"]),
        (7, ["Alfredo_Zitarrosa", "Uruguay"]),
        ("Alfredo Zitarrosa was born in Uruguay.", "Uruguay"),
    ],
)
def test_fields_of_the_wrong_type_are_a_load_error(tmp_path, claim, entities):
    path = tmp_path / "d.jsonl"
    records = [
        {"claim": "c", "entities": ["e"], "label": "Supported"},
        {"claim": claim, "entities": entities, "label": "Supported"},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    with pytest.raises(DatasetLoadError) as err:
        load_verification_dataset(str(path))
    assert err.value.line == 2
    assert str(err.value).startswith(f"{path}:2: ")


@pytest.mark.parametrize(
    "load", [load_verification_dataset, lambda path: load_qa_dataset(path, 1)], ids=["jsonl", "qa"]
)
def test_a_dataset_of_blank_lines_is_a_load_error(load, tmp_path):
    path = tmp_path / "d"
    path.write_text("\n  \n", encoding="utf-8")
    with pytest.raises(DatasetLoadError) as err:
        load(str(path))
    assert err.value.line is None
    assert str(err.value) == f"{path}: dataset is empty"


# --- question loader ------------------------------------------------------------


def test_load_qa_line():
    examples = load_qa_dataset(str(FIXTURES / "qa_1hop.txt"), 1)
    assert len(examples) == 3
    first = examples[0]
    assert first.seed == "Brigitte Nielsen"
    assert first.gold_answers == ("Cobra", "Red Sonja")
    assert first.text == "what films does Brigitte Nielsen appear in?"


def test_qa_line_without_tab_is_a_load_error(tmp_path):
    path = tmp_path / "qa.txt"
    path.write_text("what does [X] do?\n", encoding="utf-8")
    with pytest.raises(DatasetLoadError):
        load_qa_dataset(str(path), 1)


def test_qa_line_with_two_seeds_is_a_load_error(tmp_path):
    path = tmp_path / "qa.txt"
    path.write_text("what do [X] and [Y] do?\tZ\n", encoding="utf-8")
    with pytest.raises(DatasetLoadError):
        load_qa_dataset(str(path), 1)


def test_qa_line_with_no_seed_is_a_load_error(tmp_path):
    path = tmp_path / "qa.txt"
    path.write_text("what does X do?\tZ\n", encoding="utf-8")
    with pytest.raises(DatasetLoadError):
        load_qa_dataset(str(path), 1)


@pytest.mark.parametrize("hops", [0, 4, 5, -1])
def test_qa_loader_rejects_a_hop_count_before_opening_the_file(hops, tmp_path):
    with pytest.raises(ValueError, match=f"hops must be 1, 2 or 3, got {hops}"):
        load_qa_dataset(str(tmp_path / "no such file"), hops)


@pytest.mark.parametrize("hops", [1, 2, 3])
def test_split_seed_agrees_with_the_loader(hops):
    for example in load_qa_dataset(str(FIXTURES / f"qa_{hops}hop.txt"), hops):
        assert split_seed(example.question) == (example.text, example.seed)
    for bad in ("what does X do?", "what do [X] and [Y] do?", "what is [ ]?"):
        with pytest.raises(QueryError):
            split_seed(bad)


def test_helen_mack_style_line(tmp_path):
    path = tmp_path / "qa.txt"
    path.write_text("what does [Helen Mack] star in?\tThe Son of Kong|She\n", encoding="utf-8")
    examples = load_qa_dataset(str(path), 1)
    assert examples[0].seed == "Helen Mack"
    assert examples[0].gold_answers == ("The Son of Kong", "She")


# --- evaluation -----------------------------------------------------------------


def test_scripted_verification_suite_scores_perfectly(factkg_graph, factkg_type_graph):
    examples = load_verification_dataset(str(FIXTURES / "verification.jsonl"))
    report = evaluate(
        examples, factkg_graph, factkg_type_graph, mock_backend("mock_factkg.jsonl"), k=5
    )
    assert report.n == 12
    assert report.correct == 12
    assert report.metric_name == "accuracy"
    assert report.metric_value == 1.0
    assert all(count == 0 for count in report.stage_failures.values())


def test_flipped_inference_response_costs_accuracy_and_counts(tmp_path, factkg_graph, factkg_type_graph):
    # corrupt the final inference entry so that one example fails its parse
    source = (FIXTURES / "mock_factkg.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in source]
    inference = [r for r in records if r["stage"] == "inference"]
    inference[-1]["response"] = "Maybe."
    path = tmp_path / "flipped.jsonl"
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
    )
    examples = load_verification_dataset(str(FIXTURES / "verification.jsonl"))
    report = evaluate(
        examples, factkg_graph, factkg_type_graph, MockBackend.from_path(str(path)), k=5
    )
    assert report.correct == report.n - 1
    assert report.metric_value == pytest.approx((report.n - 1) / report.n)
    assert report.stage_failures["inference"] == 1


def test_mean_evidence_matches_hand_count(factkg_graph, factkg_type_graph):
    examples = load_verification_dataset(str(FIXTURES / "verification.jsonl"))
    report = evaluate(
        examples, factkg_graph, factkg_type_graph, mock_backend("mock_factkg.jsonl"), k=5
    )
    sizes = [len(e) for e in EXPECTED_VERIFICATION_EVIDENCE]
    assert report.mean_evidence_triples == pytest.approx(sum(sizes) / len(sizes))


@pytest.mark.parametrize("hops", [1, 2, 3])
def test_scripted_qa_suites_score_perfectly(hops, metaqa_graph, metaqa_type_graph):
    examples = load_qa_dataset(str(FIXTURES / f"qa_{hops}hop.txt"), hops)
    report = evaluate(
        examples,
        metaqa_graph,
        metaqa_type_graph,
        mock_backend(f"mock_metaqa_{hops}hop.jsonl"),
        k=3,
    )
    assert report.metric_name == "hits_at_1"
    assert report.metric_value == 1.0


def test_hits_at_1_is_order_insensitive(tmp_path, metaqa_graph, metaqa_type_graph):
    path = tmp_path / "qa.txt"
    path.write_text(
        "what films does [Brigitte Nielsen] appear in?\tRed Sonja|Cobra\n", encoding="utf-8"
    )
    examples = load_qa_dataset(str(path), 1)
    question = "what films does Brigitte Nielsen appear in?"
    backend = MockBackend(
        [
            MockEntry("segmentation", "sentence", question,
                      "1. Brigitte Nielsen appears in films., Entity set: ['Brigitte Nielsen' ## 'films']"),
            MockEntry("inference", "sentence", question, "Cobra"),
        ]
    )
    report = evaluate(examples, metaqa_graph, metaqa_type_graph, backend, k=3)
    assert report.metric_value == 1.0


def test_hits_at_1_canonicalizes_labels(tmp_path, factkg_graph, factkg_type_graph):
    # gold uses spaces, the graph label uses underscores
    path = tmp_path / "qa.txt"
    path.write_text("who built [AIDAstella]?\tMeyer Werft\n", encoding="utf-8")
    examples = load_qa_dataset(str(path), 1)
    sub = "AIDAstella was built by a company."
    backend = MockBackend(
        [
            MockEntry("segmentation", "sentence", "who built AIDAstella?",
                      f"1. {sub}, Entity set: ['AIDAstella' ## 'company']"),
            MockEntry("retrieval", "sentence", sub, "['shipBuilder']"),
            MockEntry("inference", "sentence", "who built AIDAstella?", "Meyer_Werft"),
        ]
    )
    report = evaluate(examples, factkg_graph, factkg_type_graph, backend, k=3)
    assert report.metric_value == 1.0


def test_trace_dump_allows_metric_recomputation(tmp_path, metaqa_graph, metaqa_type_graph):
    examples = load_qa_dataset(str(FIXTURES / "qa_1hop.txt"), 1)
    trace_path = tmp_path / "trace.jsonl"
    report = evaluate(
        examples,
        metaqa_graph,
        metaqa_type_graph,
        mock_backend("mock_metaqa_1hop.jsonl"),
        k=3,
        trace_path=str(trace_path),
    )
    records = [json.loads(line) for line in trace_path.read_text(encoding="utf-8").splitlines()]
    assert len(records) == report.n
    assert sum(1 for r in records if r["correct"]) == report.correct
    mean = sum(r["evidence_size"] for r in records) / len(records)
    assert mean == pytest.approx(report.mean_evidence_triples)
    # every record keeps the raw prompts and responses for inspection
    assert all(r["trace"]["segmentation"]["prompt"] for r in records)
    assert all(r["trace"]["inference"]["response"] for r in records)


def _read_trace(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


_GHOST_CLAIM = '{"claim": "Ghost claim.", "entities": ["NoSuchEntity"], "label": "Supported"}\n'


@pytest.mark.parametrize(
    "suite",
    ["verification", "verification+ghost", "ghost", "qa_1hop", "qa_2hop", "qa_3hop"],
)
def test_a_trace_read_back_folds_to_the_returned_report(
    suite, tmp_path, factkg_graph, factkg_type_graph, metaqa_graph, metaqa_type_graph
):
    if suite.startswith("qa"):
        hops = int(suite[3])
        examples = load_qa_dataset(str(FIXTURES / f"{suite}.txt"), hops)
        g, tg, script, k = metaqa_graph, metaqa_type_graph, f"mock_metaqa_{hops}hop.jsonl", 3
    else:
        # the ghost claim names nothing in the graph: it fails at the "query" stage
        dataset = tmp_path / "claims.jsonl"
        claims = (FIXTURES / "verification.jsonl").read_text(encoding="utf-8")
        lines = {"verification": claims, "verification+ghost": claims + _GHOST_CLAIM}
        dataset.write_text(lines.get(suite, _GHOST_CLAIM), encoding="utf-8")
        examples = load_verification_dataset(str(dataset))
        g, tg, script, k = factkg_graph, factkg_type_graph, "mock_factkg.jsonl", 5
    trace_path = tmp_path / "trace.jsonl"
    report = evaluate(examples, g, tg, mock_backend(script), k=k, trace_path=str(trace_path))
    folded = EvalReport.from_records(_read_trace(trace_path), report.metric_name, report.config)
    assert folded == report
    assert report.n == len(examples)


def test_evaluate_labels_traces_only_for_a_trace_file(
    tmp_path, monkeypatch, factkg_graph, factkg_type_graph
):
    # Labelling a trace's evidence and bindings is a record's costliest part,
    # and a report reads none of it.
    labelled = []
    to_record = StageTrace.to_record
    monkeypatch.setattr(StageTrace, "to_record", lambda self: labelled.append(self) or to_record(self))
    examples = load_verification_dataset(str(FIXTURES / "verification.jsonl"))

    def run(**kwargs):
        backend = mock_backend("mock_factkg.jsonl")
        return evaluate(examples, factkg_graph, factkg_type_graph, backend, k=5, **kwargs)

    untraced = run()
    assert labelled == []
    trace_path = tmp_path / "trace.jsonl"
    assert run(trace_path=str(trace_path)) == untraced
    assert len(labelled) == sum(r["trace"] is not None for r in _read_trace(trace_path)) > 0


def test_every_ablate_cell_folds_from_its_trace_records(tmp_path, metaqa_graph, metaqa_type_graph):
    examples = load_qa_dataset(str(FIXTURES / "qa_1hop.txt"), 1)
    seg = segmentations_from_script("mock_metaqa_1hop.jsonl")
    trace_path = tmp_path / "trace.jsonl"
    reports = ablate(
        examples,
        metaqa_graph,
        metaqa_type_graph,
        FirstKBackend(seg),
        k_values=[1, 3],
        shot_values=[4, 12],
        trace_path=str(trace_path),
    )
    cells: dict[tuple[int, int], list[dict]] = {}
    for record in _read_trace(trace_path):
        cells.setdefault((record["k"], record["shots"]), []).append(record)
    assert list(cells) == [(r.config["k"], r.config["shots"]) for r in reports]
    for report, records in zip(reports, cells.values()):
        assert EvalReport.from_records(records, report.metric_name, report.config) == report


def test_folding_no_records_is_a_value_error():
    with pytest.raises(ValueError, match="no records"):
        EvalReport.from_records(iter([]), "accuracy", {})


def test_evaluation_with_worker_pool_matches_sequential(tmp_path, metaqa_graph, metaqa_type_graph):
    for hops in (1, 2):
        examples = load_qa_dataset(str(FIXTURES / f"qa_{hops}hop.txt"), hops)
        seg = segmentations_from_script(f"mock_metaqa_{hops}hop.jsonl")
        reports, traces = {}, {}
        for width in (1, 4):
            trace_path = tmp_path / f"trace-{hops}hop-width{width}.jsonl"
            reports[width] = evaluate(
                examples,
                metaqa_graph,
                metaqa_type_graph,
                FirstKBackend(seg),
                k=3,
                width=width,
                trace_path=str(trace_path),
            )
            traces[width] = _records_without_timings(trace_path)
        assert reports[4].correct == reports[1].correct
        assert reports[4].mean_evidence_triples == reports[1].mean_evidence_triples
        # records come out in dataset order, whatever order the workers finish in
        assert [r["input"] for r in traces[1]] == [e.question for e in examples]
        assert traces[4] == traces[1]


def _records_without_timings(path) -> list[dict]:
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for record in records:
        record["trace"].pop("timings")
    return records


class _Recorder:
    """Wraps a backend; keeps every call's (stage, prompt hash, response)."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[tuple[str, str, str]] = []

    def complete(self, prompt: str, stage: str) -> str:
        response = self.inner.complete(prompt, stage)
        self.calls.append((stage, prompt_hash(prompt), response))
        return response


def _scored(script, width, trace_path, g, tg, examples, k):
    """The report (less its width) and the timing-free trace records of one run."""
    report = evaluate(
        examples, g, tg, MockBackend.from_path(str(script)), k=k, width=width,
        trace_path=str(trace_path),
    ).to_record()
    del report["config"]["width"]
    return report, _records_without_timings(trace_path)


@pytest.mark.parametrize("suite", ["factkg", "qa_1hop", "qa_2hop", "qa_3hop"])
def test_scripts_score_the_same_at_every_width(suite, tmp_path, request):
    """The fixture's sentence script, and a hash script recorded from it, give
    one report and one set of trace records at every width, run after run."""
    if suite == "factkg":
        examples = load_verification_dataset(str(FIXTURES / "verification.jsonl"))
        graph, script, k = "factkg", FIXTURES / "mock_factkg.jsonl", 5
    else:
        hops = int(suite[3])
        examples = load_qa_dataset(str(FIXTURES / f"{suite}.txt"), hops)
        graph, script, k = "metaqa", FIXTURES / f"mock_metaqa_{hops}hop.jsonl", 3
    g = request.getfixturevalue(f"{graph}_graph")
    tg = request.getfixturevalue(f"{graph}_type_graph")
    recorder = _Recorder(MockBackend.from_path(str(script)))
    evaluate(examples, g, tg, recorder, k=k)
    hashed = tmp_path / "hashed.jsonl"
    hashed.write_text(
        "".join(
            json.dumps({"stage": stage, "match_kind": "hash", "key": digest, "response": response})
            + "\n"
            for stage, digest, response in dict.fromkeys(recorder.calls)
        ),
        encoding="utf-8",
    )
    expected = _scored(script, 1, tmp_path / "expected.jsonl", g, tg, examples, k)
    assert expected[0]["correct"] == len(examples)
    for path in (script, hashed):
        for width in (1, 4, 16):
            for run in range(3):
                trace_path = tmp_path / f"{path.stem}-{width}-{run}.jsonl"
                scored = _scored(path, width, trace_path, g, tg, examples, k)
                assert scored == expected, (path.name, width, run)


class _CrashesOnThirdQuery:
    """Wraps a backend; raises a non-package error on the third query's first call."""

    def __init__(self, inner):
        self.inner = inner
        self.queries = 0

    def complete(self, prompt: str, stage: str) -> str:
        if stage == "segmentation":
            self.queries += 1
            if self.queries == 3:
                raise RuntimeError("backend crashed")
        return self.inner.complete(prompt, stage)


def test_trace_keeps_the_records_finished_before_a_crash(
    tmp_path, factkg_graph, factkg_type_graph
):
    examples = load_verification_dataset(str(FIXTURES / "verification.jsonl"))
    trace_path = tmp_path / "trace.jsonl"
    backend = _CrashesOnThirdQuery(mock_backend("mock_factkg.jsonl"))
    with pytest.raises(RuntimeError, match="backend crashed"):
        evaluate(
            examples, factkg_graph, factkg_type_graph, backend, k=5, trace_path=str(trace_path)
        )
    records = [json.loads(line) for line in trace_path.read_text(encoding="utf-8").splitlines()]
    assert [r["input"] for r in records] == [e.claim for e in examples[:2]]
    assert all(r["correct"] for r in records)


def test_query_builder_rejects_nothing_but_stage_counts_catch_failures(
    tmp_path, factkg_graph, factkg_type_graph
):
    # an unresolvable claim (entities absent from graph and type map) fails
    # before segmentation and is counted under the "query" stage
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"claim": "Ghost claim.", "entities": ["NoSuchEntity"], "label": "Supported"}\n',
        encoding="utf-8",
    )
    examples = load_verification_dataset(str(path))
    backend = MockBackend([])
    report = evaluate(examples, factkg_graph, factkg_type_graph, backend, k=5)
    assert report.correct == 0
    assert report.stage_failures["query"] == 1
    assert report.stage_failures["segmentation"] == 0


def test_backend_echo_names_endpoint_and_model_or_class(tmp_path, factkg_graph, factkg_type_graph):
    # the ghost claim fails at the query stage, so no request is ever sent
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"claim": "Ghost claim.", "entities": ["NoSuchEntity"], "label": "Supported"}\n',
        encoding="utf-8",
    )
    examples = load_verification_dataset(str(path))
    http = HttpBackend(BackendConfig(endpoint="http://localhost:1", model="m1", max_retries=0))
    report = evaluate(examples, factkg_graph, factkg_type_graph, http, k=5)
    assert report.config["backend"] == "http://localhost:1 (m1)"
    report = evaluate(examples, factkg_graph, factkg_type_graph, MockBackend([]), k=5)
    assert report.config["backend"] == "MockBackend"


# --- ablation grid ----------------------------------------------------------------


@pytest.mark.parametrize(
    "k, shots",
    # a float or a bool gets past a range check alone, then fails mid-run or runs
    [(0, 12), (-1, 12), (3, 0), (3, 13), (2.5, 12), (True, 12), ("3", 12), (3, 12.0), (3, True)],
)
def test_out_of_range_k_or_shots_fails_before_any_query(k, shots, metaqa_graph, metaqa_type_graph):
    examples = load_qa_dataset(str(FIXTURES / "qa_1hop.txt"), 1)
    backend = CountingBackend(mock_backend("mock_metaqa_1hop.jsonl"))
    with pytest.raises(ValueError, match="k must be|shots must be"):
        evaluate(examples, metaqa_graph, metaqa_type_graph, backend, k=k, shots=shots)
    with pytest.raises(ValueError, match="k must be|shots must be"):
        ablate(
            examples, metaqa_graph, metaqa_type_graph, backend,
            k_values=[k], shot_values=[shots],
        )
    assert backend.total_calls == 0


@pytest.mark.parametrize("width", [0, -5])
def test_width_below_one_fails_before_any_query(width, metaqa_graph, metaqa_type_graph):
    examples = load_qa_dataset(str(FIXTURES / "qa_1hop.txt"), 1)
    backend = CountingBackend(mock_backend("mock_metaqa_1hop.jsonl"))
    with pytest.raises(ValueError, match="width must be >= 1"):
        evaluate(examples, metaqa_graph, metaqa_type_graph, backend, k=3, width=width)
    with pytest.raises(ValueError, match="width must be >= 1"):
        ablate(
            examples, metaqa_graph, metaqa_type_graph, backend,
            k_values=[3], shot_values=[12], width=width,
        )
    assert backend.total_calls == 0


@pytest.mark.parametrize("width", [2.5, 2.0, True, "2"])
def test_width_that_is_not_an_int_fails_before_any_query(width, metaqa_graph, metaqa_type_graph):
    # a bool ran and was reported as "width": true
    examples = load_qa_dataset(str(FIXTURES / "qa_1hop.txt"), 1)
    backend = CountingBackend(mock_backend("mock_metaqa_1hop.jsonl"))
    with pytest.raises(ValueError, match="width must be >= 1 and an int, got"):
        evaluate(examples, metaqa_graph, metaqa_type_graph, backend, k=3, width=width)
    with pytest.raises(ValueError, match="width must be >= 1 and an int, got"):
        ablate(
            examples, metaqa_graph, metaqa_type_graph, backend,
            k_values=[3], shot_values=[12], width=width,
        )
    assert backend.total_calls == 0


@pytest.mark.parametrize("k_values, shot_values", [([], [12]), ([3], [])])
def test_empty_dataset_or_grid_fails_before_any_query(
    k_values, shot_values, metaqa_graph, metaqa_type_graph
):
    examples = load_qa_dataset(str(FIXTURES / "qa_1hop.txt"), 1)
    backend = CountingBackend(mock_backend("mock_metaqa_1hop.jsonl"))
    with pytest.raises(ValueError, match="^dataset is empty$"):
        evaluate([], metaqa_graph, metaqa_type_graph, backend, k=3)
    with pytest.raises(ValueError, match="^k_values and shot_values must be non-empty$"):
        ablate(
            examples, metaqa_graph, metaqa_type_graph, backend,
            k_values=k_values, shot_values=shot_values,
        )
    assert backend.total_calls == 0


def test_ablate_grid_size_and_config_echo(metaqa_graph, metaqa_type_graph):
    examples = load_qa_dataset(str(FIXTURES / "qa_1hop.txt"), 1)
    seg = segmentations_from_script("mock_metaqa_1hop.jsonl")
    reports = ablate(
        examples,
        metaqa_graph,
        metaqa_type_graph,
        FirstKBackend(seg),
        k_values=[1, 3, 5],
        shot_values=[12],
    )
    assert len(reports) == 3
    assert [r.config["k"] for r in reports] == [1, 3, 5]
    assert all(r.config["shots"] == 12 for r in reports)


def test_ablate_runs_every_cell_on_its_one_backend(metaqa_graph, metaqa_type_graph):
    examples = load_qa_dataset(str(FIXTURES / "qa_2hop.txt"), 2)
    one_cell = CountingBackend(mock_backend("mock_metaqa_2hop.jsonl"))
    evaluate(examples, metaqa_graph, metaqa_type_graph, one_cell, k=3)
    backend = CountingBackend(mock_backend("mock_metaqa_2hop.jsonl"))
    reports = ablate(
        examples, metaqa_graph, metaqa_type_graph, backend, k_values=[3], shot_values=[4, 8, 12]
    )
    # sentence keys hold at every shot count
    assert [r.correct for r in reports] == [len(examples)] * 3
    assert backend.total_calls == 3 * one_cell.total_calls


def test_ablate_trace_records_name_their_cell(tmp_path, metaqa_graph, metaqa_type_graph):
    examples = load_qa_dataset(str(FIXTURES / "qa_1hop.txt"), 1)
    seg = segmentations_from_script("mock_metaqa_1hop.jsonl")
    trace_path = tmp_path / "trace.jsonl"
    ablate(
        examples,
        metaqa_graph,
        metaqa_type_graph,
        FirstKBackend(seg),
        k_values=[1, 3],
        shot_values=[12],
        trace_path=str(trace_path),
    )
    records = [json.loads(line) for line in trace_path.read_text(encoding="utf-8").splitlines()]
    assert [r["k"] for r in records] == [1] * len(examples) + [3] * len(examples)
    assert all(r["shots"] == 12 for r in records)


def test_ablate_mean_evidence_non_decreasing_in_k(metaqa_graph, metaqa_type_graph):
    examples = load_qa_dataset(str(FIXTURES / "qa_3hop.txt"), 3)
    seg = segmentations_from_script("mock_metaqa_3hop.jsonl")
    reports = ablate(
        examples,
        metaqa_graph,
        metaqa_type_graph,
        FirstKBackend(seg),
        k_values=[1, 3, 5, 10],
        shot_values=[12],
    )
    means = [r.mean_evidence_triples for r in reports]
    assert all(a <= b for a, b in zip(means, means[1:]))


def test_ablate_is_deterministic(metaqa_graph, metaqa_type_graph):
    examples = load_qa_dataset(str(FIXTURES / "qa_2hop.txt"), 2)
    seg = segmentations_from_script("mock_metaqa_2hop.jsonl")

    def run():
        return [
            (r.correct, r.mean_evidence_triples, r.config["k"])
            for r in ablate(
                examples,
                metaqa_graph,
                metaqa_type_graph,
                FirstKBackend(seg),
                k_values=[1, 3],
                shot_values=[4, 12],
            )
        ]

    assert run() == run()


# --- expected evidence tables (sanity for the frozen data itself) --------------------


def test_frozen_tables_align_with_datasets():
    verification = load_verification_dataset(str(FIXTURES / "verification.jsonl"))
    assert len(verification) == len(EXPECTED_VERIFICATION_EVIDENCE)
    assert len(verification) == len(EXPECTED_VERIFICATION_VERDICTS)
    for hops in (1, 2, 3):
        qa = load_qa_dataset(str(FIXTURES / f"qa_{hops}hop.txt"), hops)
        assert len(qa) == len(EXPECTED_QA_EVIDENCE[hops])
        assert len(qa) == len(EXPECTED_QA_ANSWERS[hops])
        for example, answer in zip(qa, EXPECTED_QA_ANSWERS[hops]):
            assert answer in example.gold_answers


def test_build_query_kinds(factkg_graph, factkg_type_graph):
    examples = load_verification_dataset(str(FIXTURES / "verification.jsonl"))
    query = build_query(examples[0], factkg_graph, factkg_type_graph)
    assert query.kind == "claim"
    qa = load_qa_dataset(str(FIXTURES / "qa_1hop.txt"), 1)
    question = build_query(qa[0], factkg_graph.__class__.from_triples([("Brigitte Nielsen", "r", "x")]), factkg_type_graph)
    assert question.kind == "question"
    assert question.seed.kind == "concrete"


def test_output_file_that_cannot_be_opened_is_an_output_error(tmp_path):
    # The CLI turns a directory away up front; a library caller meets it when the file is opened.
    for write in (lambda path: append_trace(path, {}), lambda path: write_report([], path)):
        with pytest.raises(OutputError) as info:
            write(str(tmp_path))
        assert info.value.path == str(tmp_path)
