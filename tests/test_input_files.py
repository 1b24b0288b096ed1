"""The contract every input file shares through ``errors.read_chunks``: blank
and whitespace-only lines are skipped but counted, so an error names the
line's number in the file, however the file is cut into chunks; the first
bad line is reported, whether its bytes are not UTF-8 or its content is
malformed; a leading byte-order mark is dropped; and no file is left open
after an error."""

from __future__ import annotations

import pytest

from kg_reason import (
    VERIFICATION_INFERENCE_TEMPLATE,
    MockBackend,
    load_graph,
    load_qa_dataset,
    load_verification_dataset,
    render_prompt,
)
from kg_reason import errors
from kg_reason.errors import DatasetLoadError, GraphLoadError, MockScriptError

_CLAIM_C_PROMPT = render_prompt(VERIFICATION_INFERENCE_TEMPLATE, {"CLAIM": "c", "EVIDENCE_SET": "[]"}, 12)


# one malformed record or line per case, for every kind of input file
malformed_lines = pytest.mark.parametrize(
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
        (load_verification_dataset, '{"claim": "  ", "entities": ["e"], "label": "Supported"}',
         DatasetLoadError, "claim must be a non-blank string: '  '"),
        (load_verification_dataset, '{"claim": "c", "entities": ["e", " "], "label": "Supported"}',
         DatasetLoadError, "entities must be a list of non-blank strings: ['e', ' ']"),
        (lambda path: load_qa_dataset(path, 1), "what is [ ]?\tZ", DatasetLoadError,
         "the bracketed seed is blank"),
    ],
    ids=[
        "verification-jsonl", "qa-tsv", "mock-script", "graph-tsv",
        "verification-no-entities", "verification-unknown-type", "qa-no-answers",
        "verification-blank-claim", "verification-blank-entity", "qa-blank-seed",
    ],
)


@malformed_lines
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


@malformed_lines
def test_a_bad_line_is_reported_before_a_later_byte_that_is_not_utf8(
    load, malformed, error, message, tmp_path
):
    # all in one chunk and in text mode's first decoding block
    path = tmp_path / "input"
    path.write_bytes(b"\n" + malformed.encode() + b"\n\n\n\xff\n")
    with pytest.raises(error) as err:
        load(str(path))
    assert f"{path}:2: {message}" in str(err.value)


@pytest.mark.parametrize("chunk_size", [1, 40, errors.CHUNK_SIZE])
@pytest.mark.parametrize(
    "data, reported",
    [
        (b"a\ta\t\x1c\n\n\n\n#\n\xc3", ":1: empty field"),
        (b"a\tr\tb\nbad line\n" + b"c\tr\td\n" * 10 + b"e\tr\t\xff\n",
         ":2: expected 3 tab-separated fields, got 1"),
        (b"a\tr\tb\nbad line\n" + b"c\tr\td\n" * 10_000 + b"e\tr\t\xff\n",
         ":2: expected 3 tab-separated fields, got 1"),
        # the last line, without an ending
        (b"a\tr\tb\nc\tr", ":2: expected 3 tab-separated fields, got 2"),
        (b"a\tr\tb\nc\tr\td\te", ":2: expected 3 tab-separated fields, got 4"),
        # no comment or blank line, so a chunk of several lines is checked as a whole:
        # its field total is right, and a line ending is off the last column
        (b"a\tr\tb\na\tr\tb\tc\td\ne\nf\tr\tg\n", ":2: expected 3 tab-separated fields, got 5"),
        (b"a\tr\tb\tc\nd\te", ":1: expected 3 tab-separated fields, got 4"),
    ],
    ids=[
        "empty-field", "bad-line-near-above", "bad-line-far-above",
        "too-few-last-unended", "too-many-last-unended",
        "total-right-ending-off", "total-right-last-unended",
    ],
)
def test_the_first_bad_line_is_reported_whatever_the_chunk_size(
    data, reported, chunk_size, tmp_path, monkeypatch
):
    monkeypatch.setattr(errors, "CHUNK_SIZE", chunk_size)
    path = tmp_path / "graph.tsv"
    path.write_bytes(data)
    with pytest.raises(GraphLoadError) as err:
        load_graph(str(path))
    assert str(err.value) == f"{path}{reported}"


_TOO_MANY, _TOO_FEW = "a\tr\tb\tc", "d\te"


@pytest.mark.parametrize(
    "bad_lines, message",
    [
        ([_TOO_MANY], "expected 3 tab-separated fields, got 4"),
        ([_TOO_FEW], "expected 3 tab-separated fields, got 2"),
        # one chunk's field total is right for these two; a line ending is off the last column
        ([_TOO_MANY, _TOO_FEW], "expected 3 tab-separated fields, got 4"),
        (["a\tr\tb\tc\td", "e"], "expected 3 tab-separated fields, got 5"),
        (["a\t \tb"], "empty field"),
    ],
    ids=["too-many", "too-few", "counts-cancel-out", "total-right-ending-off", "empty-field"],
)
def test_a_bad_line_in_a_later_chunk_is_reported_at_its_own_line(
    bad_lines, message, tmp_path, monkeypatch
):
    monkeypatch.setattr(errors, "CHUNK_SIZE", 40)
    path = tmp_path / "graph.tsv"
    good = ["a\tr\tb", "# comment", "", "c\tr\td"] * 10
    path.write_text("\n".join(good + bad_lines + good) + "\n", encoding="utf-8")
    chunks = errors.read_chunks(str(path), GraphLoadError)
    first, lines = next(chunk for chunk in chunks if bad_lines[0] + "\n" in chunk[1])
    assert first > 1 and all(line + "\n" in lines for line in bad_lines)  # together, not first
    with pytest.raises(GraphLoadError) as err:
        load_graph(str(path))
    assert str(err.value) == f"{path}:{len(good) + 1}: {message}"


def test_a_byte_that_is_not_utf8_in_a_later_chunk_is_reported_at_its_line(tmp_path):
    # past the first text-mode decoding block, so chunks before it are read
    good = b"a\tr\tb\n" * 3000
    path = tmp_path / "graph.tsv"
    path.write_bytes(good + b"c\tr\t\xff\n" + good)
    with pytest.raises(GraphLoadError) as err:
        load_graph(str(path))
    assert str(err.value) == f"{path}:3001: not UTF-8 (invalid start byte)"


@pytest.mark.parametrize(
    "load, first_line, check",
    [
        (lambda path: load_graph(path), "Alice\tknows\tBob",
         lambda g: g.maybe_entity_id("Alice") == 0 and g.entity_labels([0]) == ["Alice"]),
        (load_verification_dataset, '{"claim": "c", "entities": ["Alice"], "label": "Supported"}',
         lambda examples: examples[0].entities == ("Alice",)),
        (lambda path: load_qa_dataset(path, 1), "who knows [Alice]?\tBob",
         lambda examples: examples[0].question == "who knows [Alice]?"),
        (MockBackend.from_path,
         '{"stage": "inference", "match_kind": "sentence", "key": "c", "response": "True"}',
         lambda backend: backend.complete(_CLAIM_C_PROMPT, "inference") == "True"),
    ],
    ids=["graph-tsv", "verification-jsonl", "qa-tsv", "mock-script"],
)
def test_a_leading_byte_order_mark_is_not_part_of_the_first_line(
    load, first_line, check, tmp_path
):
    path = tmp_path / "input"
    path.write_bytes(b"\xef\xbb\xbf" + first_line.encode("utf-8") + b"\n")
    assert check(load(str(path)))
