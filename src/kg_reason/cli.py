"""Command-line interface.

Subcommands: ``verify`` (one claim), ``answer`` (one question) and ``eval``
(a dataset of claims, or of questions when ``--hops`` is given, once per cell
of its comma-separated ``--k`` and ``--shots`` lists). Exit codes: 0 success,
1 usage error, 2 data or load error (including unparseable responses), 3
backend error.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from collections.abc import Callable

from .backends import BackendConfig, make_backend
from .candidates import HOPS, VARIABLE, resolve_mention
from .errors import BackendError, FileError, KGReasonError, PipelineError, QueryError
from .evaluation import (
    QAExample,
    append_trace,
    build_query,
    evaluate,
    load_qa_dataset,
    load_verification_dataset,
    split_seed,
    trace_record,
    write_report,
)
from .graph import KnowledgeGraph, TypeGraph, build_type_graph, load_graph
from .pipeline import CLAIM, DEFAULT_K, QUESTION, Pipeline, Query, linearize
from .prompts import MAX_SHOTS

_USAGE_EXIT = 1
_DATA_EXIT = 2
_BACKEND_EXIT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)


def _int_in(low: int, high: int | None = None) -> Callable[[str], int]:
    """argparse type: an integer from ``low`` to ``high`` (unbounded if None)."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < low or (high is not None and value > high):
            bounds = f"at least {low}" if high is None else f"between {low} and {high}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    return integer


def _int_list(item: Callable[[str], int]) -> Callable[[str], list[int]]:
    """argparse type: a non-empty comma-separated list, each entry checked by ``item``."""

    def integer_list(text: str) -> list[int]:
        values = [item(v) for v in text.split(",") if v]
        if not values:
            raise argparse.ArgumentTypeError("expected at least one value")
        return values

    return integer_list


_K = _int_in(1)
_SHOTS = _int_in(1, MAX_SHOTS)


def _build_parser() -> _Parser:
    parser = _Parser(prog="kg-reason", description="Knowledge-graph reasoning pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser, grid: bool = False) -> None:
        p.add_argument("--graph", required=True, help="tab-separated triple file")
        p.add_argument("--types", help="tab-separated entity/type file")
        p.add_argument(
            "--backend",
            required=True,
            help="base URL of a chat-completions server, or mock:<script-path>",
        )
        p.add_argument("--model", default=BackendConfig.model)
        # BackendConfig checks these four once they are parsed
        p.add_argument("--temperature", type=float, default=BackendConfig.temperature)
        p.add_argument("--top-p", type=float, default=BackendConfig.top_p)
        p.add_argument("--retries", type=int, default=BackendConfig.max_retries)
        p.add_argument("--timeout", type=float, default=BackendConfig.timeout)
        # eval's are comma-separated lists, e.g. 1,3,5: one run per (k, shots) cell
        each = _int_list if grid else lambda item: item
        p.add_argument("--shots", type=each(_SHOTS), default=[MAX_SHOTS] if grid else MAX_SHOTS)
        p.add_argument("--k", type=each(_K))
        p.add_argument("--trace", help="append per-query trace records to this file")

    verify = sub.add_parser("verify", help="verify one claim")
    add_common(verify)
    verify.add_argument("--claim", required=True)
    verify.add_argument("--entities", required=True, nargs="+")

    answer = sub.add_parser("answer", help="answer one question")
    add_common(answer)
    answer.add_argument("--question", required=True, help="question with the seed in [brackets]")
    answer.add_argument("--hops", required=True, type=int, choices=HOPS)

    batch = sub.add_parser(
        "eval", help="evaluate over a dataset once per cell of the comma-separated --k and --shots"
    )
    add_common(batch, grid=True)
    batch.add_argument("--dataset", required=True)
    batch.add_argument(
        "--hops", type=int, choices=HOPS, help="read the dataset as questions of this many hops"
    )
    batch.add_argument("--width", type=_int_in(1), default=1, help="worker pool width")
    batch.add_argument("--report", help="write the machine-readable report here")
    return parser


def _backend_config(args: argparse.Namespace) -> BackendConfig:
    return BackendConfig(
        endpoint=args.backend,
        model=args.model,
        temperature=args.temperature,
        top_p=args.top_p,
        max_retries=args.retries,
        timeout=args.timeout,
    )


def _default_k(qa: bool) -> int:
    return DEFAULT_K[QUESTION if qa else CLAIM]


def _query(args: argparse.Namespace, g: KnowledgeGraph, tg: TypeGraph) -> Query:
    """The ``verify`` claim or the ``answer`` question of the command line."""
    if args.command == "answer":
        text, seed = split_seed(args.question)
        return build_query(QAExample(args.question, text, seed, args.hops, ()), g, tg)
    # Unlike a dataset claim, a claim given here must name only known entities.
    mentions = tuple(resolve_mention(label, g, tg) for label in args.entities)
    for mention in mentions:
        if mention.kind == VARIABLE:
            raise QueryError(f"unknown entity: {mention.surface!r}")
    return Query.claim(args.claim, mentions)


def _cmd_query(args: argparse.Namespace, config: BackendConfig) -> int:
    """``verify`` and ``answer``: build one query, run it, print the result.

    An input that cannot be turned into a query is traced, like a failed
    run, before its error exits.
    """
    qa = args.command == "answer"
    g = load_graph(args.graph, args.types)
    tg = build_type_graph(g)
    backend = make_backend(config)
    pipeline = Pipeline(g, tg, backend, k=args.k or _default_k(qa), shots=args.shots)
    try:
        outcome = pipeline.run(_query(args, g, tg))
    except KGReasonError as exc:
        outcome = exc
    record = trace_record(pipeline, args.question if qa else args.claim, outcome)
    if args.trace is not None:
        append_trace(args.trace, record)
    if isinstance(outcome, KGReasonError):
        raise outcome
    print(record["predicted"])
    if not qa:
        print(f"Evidence: {linearize(outcome.evidence)}")
    return 0


def _cmd_batch(args: argparse.Namespace, config: BackendConfig) -> int:
    """``eval``: one run per (k, shots) cell, k-major, all on one backend.

    A run of more than one cell heads each text report with its cell and
    writes the ``--report`` as a list; a one-cell run writes one object.
    """
    qa = args.hops is not None
    if qa:
        dataset = load_qa_dataset(args.dataset, args.hops)
    else:
        dataset = load_verification_dataset(args.dataset)
    g = load_graph(args.graph, args.types)
    tg = build_type_graph(g)
    backend = make_backend(config)
    k_values = args.k or [_default_k(qa)]
    pipelines = (
        Pipeline(g, tg, backend, k=k, shots=shots) for k in k_values for shots in args.shots
    )
    reports = [evaluate(dataset, p, width=args.width, trace_path=args.trace) for p in pipelines]
    grid = len(reports) > 1
    for report in reports:
        if grid:
            print(f"--- k={report.config['k']} shots={report.config['shots']}")
        print(report.to_text())
    if args.report:
        write_report(reports if grid else reports[0], args.report)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            config = _backend_config(args)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        # Fail before any work whose output could not be kept; verify and answer have no --report.
        for path in (args.trace, getattr(args, "report", None)):
            # the words that opening the path would raise, as errors.writing gives them
            if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
                raise FileError(path, None, os.strerror(errno.ENOENT))
            if path is not None and os.path.isdir(path):
                raise FileError(path, None, os.strerror(errno.EISDIR))
        return (_cmd_batch if args.command == "eval" else _cmd_query)(args, config)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return _BACKEND_EXIT
    except PipelineError as exc:
        print(f"error[{exc.stage}]: {exc.cause}", file=sys.stderr)
        if isinstance(exc.cause, BackendError):
            return _BACKEND_EXIT
        return _DATA_EXIT
    except KGReasonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DATA_EXIT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
