"""The contract every input file shares through ``errors.read_lines``: blank
and whitespace-only lines are skipped but counted, so an error names the
line's number in the file, and no file is left open after an error."""

from __future__ import annotations

import pytest

from kg_reason import MockBackend, load_graph, load_qa_dataset, load_verification_dataset
from kg_reason import errors
from kg_reason.errors import DatasetLoadError, GraphLoadError, MockScriptError


@pytest.mark.parametrize(
    "load, malformed, error, message",
    [
        (load_verification_dataset, "{not json", DatasetLoadError, "bad JSON ("),
        (lambda path: load_qa_dataset(path, 1), "no tab here", DatasetLoadError,
         "expected question<TAB>answers"),
        (MockBackend.from_path, "{not json", MockScriptError, "bad record ("),
        (load_graph, "broken line", GraphLoadError, "expected 3 tab-separated fields"),
        (load_verification_dataset, '{"claim": "c", "entities": [], "label": "Supported"}',
         DatasetLoadError, "entities must be non-empty"),
        (load_verification_dataset,
         '{"claim": "c", "entities": ["e"], "label": "Supported", "type": "two-hop"}',
         DatasetLoadError, "unknown reasoning type 'two-hop'"),
        (lambda path: load_qa_dataset(path, 1), "what is [s]?\t | ", DatasetLoadError,
         "no gold answers"),
    ],
    ids=[
        "verification-jsonl", "qa-tsv", "mock-script", "graph-tsv",
        "verification-no-entities", "verification-unknown-type", "qa-no-answers",
    ],
)
def test_blank_lines_count_toward_the_reported_line(
    load, malformed, error, message, tmp_path, monkeypatch
):
    path = tmp_path / "input"
    path.write_text("\n" + "  \t\n" + malformed + "\n" + "more\n", encoding="utf-8")
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(errors, "open", recording_open, raising=False)
    with pytest.raises(error) as err:
        load(str(path))
    assert f"{path}:3: {message}" in str(err.value)
    assert opened and all(handle.closed for handle in opened)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_byte_that_is_not_utf8_is_blamed_on_its_line_for_every_line_ending(
    ending, tmp_path
):
    path = tmp_path / "graph.tsv"
    lines = [b"a\tr\tb", b"", b"c\tr\t\xff", b"d\tr\te"]
    path.write_bytes(b"".join(line + ending.encode() for line in lines))
    with pytest.raises(GraphLoadError) as err:
        load_graph(str(path))
    assert str(err.value) == f"{path}:3: not UTF-8 (invalid start byte)"
