from __future__ import annotations

import json
import subprocess
import sys

import pytest

from kg_reason import cli
from kg_reason.backends import BackendConfig, HttpBackend, MockBackend
from kg_reason.cli import main

from helpers import FIXTURES

FACTKG = str(FIXTURES / "factkg_graph.tsv")
FACTKG_TYPES = str(FIXTURES / "factkg_types.tsv")
METAQA = str(FIXTURES / "metaqa_graph.tsv")


def verify_args(script="mock_cli_verify.jsonl"):
    return [
        "verify",
        "--graph", FACTKG,
        "--types", FACTKG_TYPES,
        "--backend", f"mock:{FIXTURES / script}",
        "--claim", "Al-Taqaddum Air Base is located in Fallujah which is not in Iraq.",
        "--entities", "Al-Taqaddum_Air_Base", "Fallujah", "Iraq",
    ]


def test_verify_prints_verdict_and_evidence(capsys):
    assert main(verify_args()) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "Refuted"
    assert "Evidence: " in lines[1]
    assert lines[1].count("], [") == 2  # three linearized triples
    assert "'Al-Taqaddum_Air_Base', 'city', 'Fallujah'" in lines[1]


def test_answer_prints_the_entity(capsys):
    code = main(
        [
            "answer",
            "--graph", METAQA,
            "--backend", f"mock:{FIXTURES / 'mock_cli_answer.jsonl'}",
            "--question", "what type of film is [Six Shooter]?",
            "--hops", "1",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "Short"


@pytest.mark.parametrize(
    "question",
    ["what type of film is Six Shooter?", "is [Six Shooter] a [Short]?", "what is [ ]?"],
)
def test_answer_without_exactly_one_seed_is_a_data_error(question, capsys):
    code = main(
        [
            "answer",
            "--graph", METAQA,
            "--backend", f"mock:{FIXTURES / 'mock_cli_answer.jsonl'}",
            "--question", question,
            "--hops", "1",
        ]
    )
    assert code == 2
    assert "bracketed seed" in capsys.readouterr().err


def test_answer_with_unknown_seed_names_the_entity(capsys):
    code = main(
        [
            "answer",
            "--graph", METAQA,
            "--backend", f"mock:{FIXTURES / 'mock_cli_answer.jsonl'}",
            "--question", "what type of film is [Nobody Here]?",
            "--hops", "1",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.strip() == "error: unknown entity: 'Nobody Here'"


def test_missing_graph_flag_is_a_usage_error(capsys):
    code = main(["verify", "--claim", "x", "--entities", "y", "--backend", "mock:z"])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error():
    assert main(["frobnicate"]) == 1


def test_hops_on_verification_eval_is_rejected_before_work(tmp_path):
    code = main(
        [
            "eval",
            "--task", "verification",
            "--dataset", str(FIXTURES / "verification.jsonl"),
            "--graph", FACTKG,
            "--backend", "mock:nonexistent.jsonl",
            "--hops", "2",
        ]
    )
    assert code == 1


def test_missing_graph_file_is_a_data_error(capsys):
    args = verify_args()
    args[args.index(FACTKG)] = "/nonexistent/graph.tsv"
    assert main(args) == 2


def test_unknown_entity_is_a_data_error():
    args = verify_args()
    args[-1] = "Not_A_Real_Entity"
    assert main(args) == 2


def test_exhausted_mock_script_is_a_backend_error(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    args = verify_args()
    args[args.index(f"mock:{FIXTURES / 'mock_cli_verify.jsonl'}")] = f"mock:{empty}"
    assert main(args) == 3


def test_missing_mock_script_is_a_backend_error(capsys):
    assert main(verify_args("no_such_script.jsonl")) == 3
    err = capsys.readouterr().err
    assert err.startswith("backend error: ")
    assert "no_such_script.jsonl" in err
    assert len(err.splitlines()) == 1


def with_bad_line(tmp_path, fixture):
    """A copy of a fixture file with a non-UTF-8 line appended; returns
    (path, number of the bad line)."""
    data = (FIXTURES / fixture).read_bytes()
    path = tmp_path / f"bad_{fixture}"
    path.write_bytes(data + b"\xff\n")
    return str(path), data.count(b"\n") + 1


def test_graph_file_not_utf8_is_a_one_line_data_error(tmp_path, capsys):
    graph, lineno = with_bad_line(tmp_path, "factkg_graph.tsv")
    args = verify_args()
    args[args.index(FACTKG)] = graph
    assert main(args) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {graph}:{lineno}: not UTF-8 (invalid start byte)"
    ]


@pytest.mark.parametrize(
    "task, fixture, hops",
    [("verification", "verification.jsonl", None), ("qa", "qa_1hop.txt", "1")],
)
def test_dataset_not_utf8_is_a_one_line_data_error(task, fixture, hops, tmp_path, capsys):
    dataset, lineno = with_bad_line(tmp_path, fixture)
    args = grid_args("eval")
    args[args.index("verification")] = task
    args[args.index(str(FIXTURES / "verification.jsonl"))] = dataset
    if hops:
        args += ["--hops", hops]
    assert main(args) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {dataset}:{lineno}: not UTF-8 (invalid start byte)"
    ]


def test_mock_script_not_utf8_is_a_one_line_backend_error(tmp_path, capsys):
    script, lineno = with_bad_line(tmp_path, "mock_cli_verify.jsonl")
    args = verify_args()
    args[args.index(f"mock:{FIXTURES / 'mock_cli_verify.jsonl'}")] = f"mock:{script}"
    assert main(args) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"backend error: stage=- hash=-: {script}:{lineno}: not UTF-8 (invalid start byte)"
    ]


def grid_args(command):
    args = [
        command,
        "--task", "verification",
        "--dataset", str(FIXTURES / "verification.jsonl"),
        "--graph", FACTKG,
        "--types", FACTKG_TYPES,
        "--backend", f"mock:{FIXTURES / 'mock_factkg.jsonl'}",
    ]
    if command == "ablate":
        args += ["--k-values", "5", "--shot-values", "12"]
    return args


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("eval", "--shots", "13"),
        ("eval", "--shots", "0"),
        ("eval", "--k", "0"),
        ("eval", "--width", "0"),
        ("eval", "--width", "-3"),
        ("verify", "--k", "-1"),
        ("verify", "--shots", "13"),
        # the later value of a repeated flag wins over grid_args' own
        ("ablate", "--k-values", ","),
        ("ablate", "--k-values", "3,0"),
        ("ablate", "--shot-values", ","),
        ("ablate", "--shot-values", "12,13"),
    ],
)
def test_out_of_range_number_is_a_usage_error(command, flag, value, capsys):
    args = verify_args() if command == "verify" else grid_args(command)
    assert main(args + [flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"usage error: argument {flag}: ")


def config_error(**setting) -> str:
    """The message of the ValueError that BackendConfig raises for one bad setting."""
    with pytest.raises(ValueError) as err:
        BackendConfig(endpoint="http://127.0.0.1:9", **setting)
    return str(err.value)


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "1e999"])
def test_timeout_out_of_range_is_a_usage_error_before_any_work(value, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("kg_reason.cli.load_graph", lambda *a: calls.append("load_graph"))
    monkeypatch.setattr(HttpBackend, "complete", lambda self, prompt, stage: calls.append(stage))
    args = grid_args("eval")
    args[args.index(f"mock:{FIXTURES / 'mock_factkg.jsonl'}")] = "http://127.0.0.1:9"
    assert main(args + ["--timeout", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {config_error(timeout=float(value))}\n"
    assert calls == []


@pytest.mark.parametrize("value", ["-1", "-7"])
def test_retries_below_zero_is_a_usage_error_before_any_work(value, tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("kg_reason.cli.load_graph", lambda *a: calls.append("load_graph"))
    # checked before the report's missing directory is
    report = str(tmp_path / "missing" / "report.json")
    assert main(grid_args("eval") + ["--retries", value, "--report", report]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {config_error(max_retries=int(value))}\n"
    assert calls == []


@pytest.mark.parametrize(
    "flag, value, bounds",
    [
        ("--temperature", "-0.1", "at least 0"),
        ("--temperature", "nan", "at least 0"),
        ("--temperature", "inf", "at least 0"),
        ("--temperature", "1e999", "at least 0"),
        ("--top-p", "-0.1", "between 0 and 1"),
        ("--top-p", "1.5", "between 0 and 1"),
        ("--top-p", "nan", "between 0 and 1"),
        ("--top-p", "inf", "between 0 and 1"),
        ("--top-p", "x", None),
    ],
)
def test_sampling_setting_out_of_range_is_a_usage_error_before_any_work(
    flag, value, bounds, capsys, monkeypatch
):
    calls = []
    monkeypatch.setattr("kg_reason.cli.load_graph", lambda *a: calls.append("load_graph"))
    assert main(verify_args() + [flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    if bounds is None:  # not a number: argparse's message
        message = f"argument {flag}: invalid float value: {value!r}"
    else:
        message = config_error(**{flag[2:].replace("-", "_"): float(value)})
    assert captured.err == f"usage error: {message}\n"
    assert calls == []


@pytest.mark.parametrize(
    "flags, config",
    [
        ([], {}),
        (
            ["--model", "m", "--temperature", "0", "--top-p", "1"]
            + ["--retries", "0", "--timeout", "7.5"],
            {"model": "m", "temperature": 0.0, "top_p": 1.0, "max_retries": 0, "timeout": 7.5},
        ),
    ],
    ids=["defaults", "given"],
)
def test_backend_flags_reach_the_backend_config(flags, config, monkeypatch, capsys):
    built = []
    make_backend = cli.make_backend

    def recording(config):
        built.append(config)
        return make_backend(config)

    monkeypatch.setattr(cli, "make_backend", recording)
    assert main(verify_args() + flags) == 0
    endpoint = f"mock:{FIXTURES / 'mock_cli_verify.jsonl'}"
    assert built == [BackendConfig(endpoint=endpoint, **config)]


@pytest.mark.parametrize("command", ["eval", "ablate"])
def test_qa_batch_without_hops_is_a_usage_error(command, capsys):
    args = grid_args(command)
    args[args.index("verification")] = "qa"
    assert main(args) == 1
    assert capsys.readouterr().err == "usage error: --hops is required for --task qa\n"


@pytest.mark.parametrize("k", [1, 2])
def test_given_k_overrides_the_task_default(k, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    trace_path = tmp_path / "trace.jsonl"
    assert main(grid_args("eval") + ["--k", str(k), "--report", str(report_path)]) == 0
    assert json.loads(report_path.read_text(encoding="utf-8"))["config"]["k"] == k
    assert main(verify_args() + ["--k", str(k), "--trace", str(trace_path)]) == 0
    (record,) = [json.loads(l) for l in trace_path.read_text(encoding="utf-8").splitlines()]
    assert record["k"] == k


@pytest.mark.parametrize("flag, value", [("--k", "1"), ("--shots", "4")])
def test_ablate_takes_no_k_or_shots(flag, value, capsys):
    # the grid comes from --k-values and --shot-values alone
    assert main(grid_args("ablate") + [flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: unrecognized arguments: {flag} {value}\n"


def test_unparseable_response_is_a_data_error(tmp_path):
    script = tmp_path / "bad.jsonl"
    records = [
        json.loads(line)
        for line in (FIXTURES / "mock_cli_verify.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert records[-1]["stage"] == "inference"
    records[-1]["response"] = "Maybe."
    script.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
    )
    trace_path = tmp_path / "trace.jsonl"
    args = verify_args() + ["--trace", str(trace_path)]
    args[args.index(f"mock:{FIXTURES / 'mock_cli_verify.jsonl'}")] = f"mock:{script}"
    assert main(args) == 2
    (record,) = [json.loads(l) for l in trace_path.read_text(encoding="utf-8").splitlines()]
    assert record["error"]["stage"] == "inference"
    assert record["error"]["message"]
    assert record["trace"]["inference"]["response"] == "Maybe."


def test_unparseable_retrieval_reply_is_in_the_trace_record(tmp_path, capsys):
    script = tmp_path / "bad_retrieval.jsonl"
    lines = (FIXTURES / "mock_cli_verify.jsonl").read_text(encoding="utf-8").splitlines()
    bad = json.loads(lines[1])  # sub-sentence 1's reply; its pool is city and cityServed
    bad["response"] = "Fallujah is a city."
    lines[1] = json.dumps(bad, ensure_ascii=False)
    script.write_text("\n".join(lines) + "\n", encoding="utf-8")
    trace_path = tmp_path / "trace.jsonl"
    assert main(verify_args(str(script)) + ["--trace", str(trace_path)]) == 2
    assert capsys.readouterr().err == "error[retrieval]: no bracketed list in response\n"
    (record,) = [json.loads(l) for l in trace_path.read_text(encoding="utf-8").splitlines()]
    assert record["error"] == {"stage": "retrieval", "message": "no bracketed list in response"}
    (failed,) = record["trace"]["retrieval"]
    assert list(failed) == ["index", "offered", "prompt", "response"]
    assert failed["offered"] == ["city", "cityServed"]
    assert "Al-Taqaddum Air Base is located in Fallujah." in failed["prompt"]
    assert failed["response"] == "Fallujah is a city."
    assert record["trace"]["inference"] is None


@pytest.mark.parametrize("command", ["eval", "ablate"])
def test_a_script_scores_the_same_at_any_width(command, tmp_path, capsys):
    reports, traces = [], []
    for width in ("1", "4"):
        report, trace = tmp_path / f"report-{width}.json", tmp_path / f"trace-{width}.jsonl"
        args = ["--width", width, "--report", str(report), "--trace", str(trace)]
        assert main(grid_args(command) + args) == 0
        reports.append(json.loads(report.read_text(encoding="utf-8")))
        traces.append([json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()])
        for record in traces[-1]:
            del record["trace"]["timings"]
    for report in reports:
        for cell in report if command == "ablate" else [report]:
            assert cell["correct"] == 12
            del cell["config"]["width"]
    assert reports[0] == reports[1]
    assert traces[0] == traces[1]


@pytest.mark.parametrize(
    "args, flag",
    [(grid_args("eval"), "--report"), (grid_args("eval"), "--trace"), (verify_args(), "--trace")],
)
def test_output_under_a_missing_directory_fails_before_any_backend_call(
    args, flag, tmp_path, capsys, monkeypatch
):
    calls = []
    monkeypatch.setattr(MockBackend, "complete", lambda self, prompt, stage: calls.append(stage))
    path = tmp_path / "missing" / "out.json"
    assert main(args + [flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: no such directory\n"
    assert calls == []


@pytest.mark.parametrize(
    "args, flag",
    [(grid_args("eval"), "--report"), (grid_args("eval"), "--trace"), (verify_args(), "--trace")],
)
def test_output_path_that_is_a_directory_fails_before_any_backend_call(
    args, flag, tmp_path, capsys, monkeypatch
):
    calls = []
    monkeypatch.setattr(MockBackend, "complete", lambda self, prompt, stage: calls.append(stage))
    assert main(args + [flag, str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path}: is a directory\n"
    assert calls == []


def test_report_path_that_is_a_directory_is_a_data_error(tmp_path, capsys):
    assert main(grid_args("eval") + ["--report", str(tmp_path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {tmp_path}: ")


def test_eval_writes_report_and_exits_zero(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(
        [
            "eval",
            "--task", "qa",
            "--dataset", str(FIXTURES / "qa_1hop.txt"),
            "--hops", "1",
            "--graph", METAQA,
            "--backend", f"mock:{FIXTURES / 'mock_metaqa_1hop.jsonl'}",
            "--report", str(report_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "hits_at_1" in out
    record = json.loads(report_path.read_text(encoding="utf-8"))
    assert record["n"] == 3
    assert record["hits_at_1"] == 1.0
    assert record["config"]["k"] == 3  # task default


def test_eval_exit_zero_even_with_failures(tmp_path, capsys):
    # an empty mock script fails every example; the harness still completes
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    code = main(
        [
            "eval",
            "--task", "qa",
            "--dataset", str(FIXTURES / "qa_1hop.txt"),
            "--hops", "1",
            "--graph", METAQA,
            "--backend", f"mock:{empty}",
        ]
    )
    assert code == 0
    assert "0.0000" in capsys.readouterr().out


def test_default_k_follows_task(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    main(
        [
            "eval",
            "--task", "verification",
            "--dataset", str(FIXTURES / "verification.jsonl"),
            "--graph", FACTKG,
            "--types", FACTKG_TYPES,
            "--backend", f"mock:{FIXTURES / 'mock_factkg.jsonl'}",
            "--report", str(report_path),
        ]
    )
    record = json.loads(report_path.read_text(encoding="utf-8"))
    assert record["config"]["k"] == 5
    assert record["config"]["shots"] == 12


def test_trace_flag_writes_records(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    args = verify_args() + ["--trace", str(trace_path)]
    assert main(args) == 0
    records = [json.loads(l) for l in trace_path.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 1
    assert records[0]["predicted"] == "Refuted"
    assert records[0]["evidence_size"] == 3
    assert records[0]["trace"]["segmentation"]["prompt"]


def _answer_args(question):
    return [
        "answer",
        "--graph", METAQA,
        "--backend", f"mock:{FIXTURES / 'mock_cli_answer.jsonl'}",
        "--question", question,
        "--hops", "1",
    ]


@pytest.mark.parametrize(
    "args, source, stderr",
    [
        (
            verify_args()[:-1] + ["NoSuch"],
            "Al-Taqaddum Air Base is located in Fallujah which is not in Iraq.",
            "error: unknown entity: 'NoSuch'",
        ),
        (
            _answer_args("what type of film is Six Shooter?"),
            "what type of film is Six Shooter?",
            "error: expected exactly one bracketed seed, got 0",
        ),
        (
            _answer_args("what type of film is [Nobody Here]?"),
            "what type of film is [Nobody Here]?",
            "error: unknown entity: 'Nobody Here'",
        ),
    ],
    ids=["unknown-entity", "seedless-question", "unknown-seed"],
)
def test_input_errors_write_a_query_stage_record(args, source, stderr, tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    assert main(args + ["--trace", str(trace_path)]) == 2
    assert capsys.readouterr().err.strip() == stderr
    (record,) = [json.loads(l) for l in trace_path.read_text(encoding="utf-8").splitlines()]
    assert record == {
        "input": source,
        "k": 3 if args[0] == "answer" else 5,
        "shots": 12,
        "error": {"stage": "query", "message": stderr.removeprefix("error: ")},
        "trace": None,
    }


def test_ablate_command_runs_grid(tmp_path, capsys):
    code = main(
        [
            "ablate",
            "--task", "qa",
            "--dataset", str(FIXTURES / "qa_1hop.txt"),
            "--hops", "1",
            "--graph", METAQA,
            "--backend", f"mock:{FIXTURES / 'mock_metaqa_1hop.jsonl'}",
            "--k-values", "1,3",
            "--shot-values", "12",
            "--report", str(tmp_path / "grid_report.json"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "--- k=1 shots=12" in out
    assert "--- k=3 shots=12" in out
    records = json.loads((tmp_path / "grid_report.json").read_text(encoding="utf-8"))
    assert len(records) == 2


def test_subprocess_entrypoint_exit_code():
    result = subprocess.run(
        [sys.executable, "-m", "kg_reason.cli", "verify", "--claim", "x"],
        capture_output=True,
        text=True,
        cwd=str(FIXTURES.parents[1]),
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 1
