"""The kg_reason exception hierarchy, and the file readers and writer that raise its errors.

A query fails in one of four ways, one class each: :class:`QueryError` (the
input cannot become a query; raised by ``Query``, ``split_seed``,
``build_query`` and the command line), :class:`RetrievalError` (the graph
offers a sub-sentence nothing to match; raised by the candidate extractors and
``Pipeline.retrieve`` and ``Pipeline.assemble``), :class:`ParseError` (a
backend reply cannot be used; raised by the parsers of ``parsing``) and
:class:`BackendError` (no reply at all; raised by the backends). A failed run
wraps its cause in :class:`PipelineError`, whose ``stage`` names the stage the
failure is charged to; the cause's message says what happened.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import TextIO


class KGReasonError(Exception):
    """Base class for all errors raised by this package."""


# Characters per chunk: enough to make per-chunk passes cheap per line, few
# enough to add nothing to a load's peak RSS (64K characters added 0.4 MB).
CHUNK_SIZE = 1 << 14
ErrorFactory = Callable[[int | None, str], KGReasonError]


def read_chunks(path: str, error: ErrorFactory) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(number of its first line, lines)`` per ``readlines(CHUNK_SIZE)`` of a file.

    Lines keep their endings and count from 1, blank ones too; a leading
    byte-order mark is dropped. ``error(line, message)`` builds the error to
    raise, ``line`` None for a file that cannot be opened. A byte that is not
    UTF-8 decodes to a lone surrogate, which UTF-8 text cannot hold; the first
    line with one raises after the lines above it are yielded, wherever the
    chunks fall. A caller that stops early, or raises, closes the file by
    dropping the generator.
    """
    try:
        handle = open(path, encoding="utf-8-sig", errors="surrogateescape")
    except OSError as exc:
        raise error(None, str(exc)) from exc
    with handle:
        first = 1
        while lines := handle.readlines(CHUNK_SIZE):
            try:
                "".join(lines).encode("utf-8")
            except UnicodeEncodeError:
                for i, line in enumerate(lines):
                    try:
                        line.encode("utf-8", "surrogateescape").decode("utf-8")
                    except UnicodeDecodeError as exc:
                        yield first, lines[:i]
                        raise error(first + i, f"not UTF-8 ({exc.reason})") from exc
            yield first, lines
            first += len(lines)


def read_lines(path: str, error: ErrorFactory) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` for each non-blank line of :func:`read_chunks`."""
    for first, lines in read_chunks(path, error):
        for lineno, line in enumerate(lines, start=first):
            if not line.isspace():
                yield lineno, line


def writing(path: str, mode: str = "a") -> TextIO:
    """Open a UTF-8 text file for output, mapping I/O failures to :class:`OutputError`."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise OutputError(path, exc.strerror or str(exc)) from exc


class LoadError(KGReasonError):
    """An input file could not be read or parsed; ``line`` is None for the whole file."""

    def __init__(self, path: str, line: int | None, message: str):
        self.path = path
        self.line = line
        where = f"{path}:{line}" if line is not None else path
        super().__init__(f"{where}: {message}")


class GraphLoadError(LoadError):
    """A graph or type file could not be parsed."""


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
    """A backend reply cannot be used: a segmentation, relation list, verdict or answer."""


class RetrievalError(KGReasonError):
    """The graph offers a sub-sentence nothing to match: no usable mention, no
    candidate relation, no anchored entity, or a hop count outside 1 to 3."""


class QueryError(KGReasonError):
    """An input cannot become a query: blank text, not one bracketed seed, an
    unknown entity, no concrete or type mention, or a hop count outside 1 to 3."""


class PipelineError(KGReasonError):
    """Wraps a stage failure, keeping the partial trace for inspection."""

    def __init__(self, stage: str, cause: Exception, trace=None):
        self.stage = stage
        self.cause = cause
        self.trace = trace
        super().__init__(f"{stage}: {cause}")
