"""Exception hierarchy for the kg_reason package."""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import TextIO


class KGReasonError(Exception):
    """Base class for all errors raised by this package."""


def read_lines(
    path: str, error: Callable[[int | None, str], KGReasonError]
) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` for each non-blank line of a UTF-8 text file.

    Lines keep their ending and are numbered from 1, blank ones counted.
    ``error(line, message)`` builds the error to raise; ``line`` is None when
    the file cannot be opened. Text-mode reads decode in blocks, so a
    ``UnicodeDecodeError`` may surface lines before its culprit; the file is
    then rescanned, on that error path only, for the first bad line. A
    caller that stops early, or raises, closes the file by dropping the
    generator.
    """
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise error(None, str(exc)) from exc
    with handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                if not line.isspace():
                    yield lineno, line
        except UnicodeDecodeError as exc:
            raise error(_undecodable_line(path), f"not UTF-8 ({exc.reason})") from exc


def writing(path: str, mode: str = "a") -> TextIO:
    """Open a UTF-8 text file for output, mapping I/O failures to :class:`OutputError`."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise OutputError(path, exc.strerror or str(exc)) from exc


def _undecodable_line(path: str) -> int | None:
    # Latin-1 decodes every byte, so lines split and count as in the UTF-8 read.
    with open(path, encoding="latin-1") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                line.encode("latin-1").decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return None


class LoadError(KGReasonError):
    """An input file could not be read or parsed; ``line`` is None for the whole file."""

    def __init__(self, path: str, line: int | None, message: str):
        self.path = path
        self.line = line
        where = f"{path}:{line}" if line is not None else path
        super().__init__(f"{where}: {message}")


class GraphLoadError(LoadError):
    """A graph or type file could not be parsed."""


class UnknownEntityError(KGReasonError):
    """An entity label was not found in the graph."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"unknown entity: {label!r}")


class DatasetLoadError(LoadError):
    """A dataset file could not be parsed."""


class OutputError(KGReasonError):
    """A trace or report file could not be written."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class RenderError(KGReasonError):
    """Prompt rendering failed (missing/unused binding or bad shot count)."""


class BackendError(KGReasonError):
    """A completion backend failed to produce a response."""


class MockScriptError(BackendError):
    """A mock script line or entry breaks a rule, or no entry matches a request."""

    def __init__(self, stage: str, prompt_hash: str, message: str):
        self.stage = stage
        self.prompt_hash = prompt_hash
        self.message = message
        super().__init__(f"stage={stage} hash={prompt_hash}: {message}")


class ParseError(KGReasonError):
    """Base class for response parsing failures."""


class SegmentationParseError(ParseError):
    """No line of the segmentation response matched the grammar."""


class RelationParseError(ParseError):
    """No bracketed relation list was found in the response."""


class VerdictParseError(ParseError):
    """The response did not start with a True/False token."""


class AnswerGroundingError(ParseError):
    """No evidence entity could be grounded in the answer response."""


class CandidateError(KGReasonError):
    """Relation candidate extraction was called with unusable mentions."""


class RetrievalError(KGReasonError):
    """A sub-sentence had no candidate relations to offer."""


class AssemblyError(KGReasonError):
    """Evidence assembly hit a sub-sentence with no anchored entities."""


class QueryError(KGReasonError):
    """A query object violated its construction contract."""


class PipelineError(KGReasonError):
    """Wraps a stage failure, keeping the partial trace for inspection."""

    def __init__(self, stage: str, cause: Exception, trace=None):
        self.stage = stage
        self.cause = cause
        self.trace = trace
        super().__init__(f"{stage}: {cause}")
