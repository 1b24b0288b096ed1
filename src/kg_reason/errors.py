"""The kg_reason exception hierarchy, and the file readers and writer that raise its errors.

Any file the program reads or writes (graph, types, either dataset kind, mock
script, trace or report) fails one way, with :class:`FileError`, which names
the file and, for a fault of one line, the line. A caller's mistake, such as
a ``k`` of 0 or a mock entry with an unknown stage, raises ``ValueError``.

A query fails in one of four ways, one class each: :class:`QueryError` (the
input cannot become a query; raised by ``Query``, ``split_seed``,
``build_query`` and the command line), :class:`RetrievalError` (the graph
offers a sub-sentence nothing to match; raised by
``extract_relation_candidates``, ``Pipeline.retrieve`` and
``Pipeline.assemble``), :class:`ParseError` (a backend reply cannot be used;
raised by the parsers of ``parsing``) and :class:`BackendError` (no reply at
all; raised by the backends). A failed run
wraps its cause in :class:`PipelineError`, whose ``stage`` names the stage the
failure is charged to; the cause's message says what happened.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TextIO


class KGReasonError(Exception):
    """Base class for all errors raised by this package."""


class FileError(KGReasonError):
    """A file could not be read, parsed or written; ``line`` is None for the whole file."""

    def __init__(self, path: str, line: int | None, message: str):
        self.path = path
        self.line = line
        where = f"{path}:{line}" if line is not None else path
        super().__init__(f"{where}: {message}")


# Characters per chunk: enough to make per-chunk passes cheap per line, few
# enough to add nothing to a load's peak RSS (64K characters added 0.4 MB).
CHUNK_SIZE = 1 << 14


def read_chunks(path: str) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(number of its first line, lines)`` per ``readlines(CHUNK_SIZE)`` of a file.

    Lines keep their endings and count from 1, blank ones too; a leading
    byte-order mark is dropped. A file that cannot be opened raises
    :class:`FileError` without a line. A byte that is not UTF-8 decodes to a
    lone surrogate, which UTF-8 text cannot hold; the first line with one
    raises after the lines above it are yielded, wherever the chunks fall. A
    caller that stops early, or raises, closes the file by dropping the
    generator.
    """
    try:
        handle = open(path, encoding="utf-8-sig", errors="surrogateescape")
    except OSError as exc:
        raise FileError(path, None, exc.strerror or str(exc)) from exc
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
                        raise FileError(path, first + i, f"not UTF-8 ({exc.reason})") from exc
            yield first, lines
            first += len(lines)


def read_lines(path: str) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` for each non-blank line of :func:`read_chunks`."""
    for first, lines in read_chunks(path):
        for lineno, line in enumerate(lines, start=first):
            if not line.isspace():
                yield lineno, line


def writing(path: str, mode: str = "a") -> TextIO:
    """Open a UTF-8 text file for output, mapping I/O failures to :class:`FileError`."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise FileError(path, None, exc.strerror or str(exc)) from exc


class BackendError(KGReasonError):
    """A completion backend failed to produce a response."""


class ParseError(KGReasonError):
    """A backend reply cannot be used: a segmentation, relation list, verdict or answer."""


class RetrievalError(KGReasonError):
    """The graph offers a sub-sentence nothing to match: no usable mention, no
    candidate relation, or no anchored entity."""


class QueryError(KGReasonError):
    """An input cannot become a query: blank text, not one bracketed seed, an
    unknown entity, no concrete or type mention, or a hop count outside 1 to 3."""


class PipelineError(KGReasonError):
    """Wraps a stage failure, keeping the partial trace for inspection."""

    def __init__(self, stage: str, cause: Exception, trace):
        self.stage = stage
        self.cause = cause
        self.trace = trace
        super().__init__(f"{stage}: {cause}")
