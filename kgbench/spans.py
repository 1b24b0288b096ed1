"""Span tracing from outside the program, and the per-layer metrics.

The tracer wraps the public functions the pipeline calls, by replacing
every name in the ``kg_reason`` modules that is bound to the original
function (so call sites that imported the name directly are covered too).
A function that a later commit renamed or removed is reported as an absent
layer instead of failing the run. Spans stay in memory until the run ends.

A span is ``[name, start, end, parent, query id, info, child time]``;
its self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import threading
import time

# (span name, module, attribute, class or None, info extractor name)
TARGETS = (
    ("load_graph", "kg_reason.graph", "load_graph", None, "rss"),
    ("build_type_graph", "kg_reason.graph", "build_type_graph", None, None),
    ("segment", "kg_reason.pipeline", "segment", "Pipeline", "length"),
    ("retrieve", "kg_reason.pipeline", "retrieve", "Pipeline", None),
    ("assemble", "kg_reason.pipeline", "assemble", "Pipeline", "length"),
    ("infer", "kg_reason.pipeline", "infer", "Pipeline", None),
    ("candidates.claim", "kg_reason.candidates", "extract_relation_candidates", None, "pool"),
    ("candidates.nhop", "kg_reason.candidates", "extract_nhop_candidates", None, "nhop"),
    ("match", "kg_reason.graph", "match_triples_by_id", None, "length"),
    ("render_prompt", "kg_reason.prompts", "render_prompt", None, "prompt"),
    ("render_triple_list", "kg_reason.prompts", "render_triple_list", None, None),
    ("parse_segmentation", "kg_reason.parsing", "parse_segmentation", None, None),
    ("parse_relations", "kg_reason.parsing", "parse_relations", None, "notes"),
    ("parse_verdict", "kg_reason.parsing", "parse_verdict", None, None),
    ("parse_answer", "kg_reason.parsing", "parse_answer", None, None),
)
PARSERS = ("parse_segmentation", "parse_relations", "parse_verdict", "parse_answer")
QUERY_TARGETS = tuple(t for t in TARGETS if t[0] not in ("load_graph", "build_type_graph"))
SETUP_TARGETS = tuple(t for t in TARGETS if t[0] in ("load_graph", "build_type_graph"))
_PLACEHOLDER = "<<<<{}>>>>"


def rss_mb() -> float:
    """Current resident set size of this process, in MB."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _info(kind, args, kwargs, result, before):
    if kind == "length":
        return len(result)
    if kind == "pool":
        return len(result.relations)
    if kind == "nhop":
        hops = args[1] if len(args) > 1 else kwargs.get("hops")
        return (hops, len(result.relations))
    if kind == "rss":
        return rss_mb() - before
    if kind == "prompt":
        template = args[0] if args else kwargs["template"]
        bindings = args[1] if len(args) > 1 else kwargs["bindings"]
        footer = template.footer
        for name, value in bindings.items():
            footer = footer.replace(_PLACEHOLDER.format(name), value)
        size = len(result.encode("utf-8"))
        return (template.stage, size, size - len(footer.encode("utf-8")))
    if kind == "notes":
        notes = args[3] if len(args) > 3 else kwargs.get("notes") or []
        dropped = sum(n.startswith("dropped relation") for n in notes)
        fallback = any(n.startswith("no offered relation matched") for n in notes)
        return (dropped, fallback)
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []  # (owner, name, original)

    # span bookkeeping ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_query(self, qid) -> None:
        self._local.qid = qid
        self._stack().append(["query", time.perf_counter(), None, None, qid, None, 0.0])

    def end_query(self) -> None:
        span = self._stack().pop()
        span[2] = time.perf_counter()
        self.spans.append(span)
        self._local.qid = None

    def _wrap(self, fn, name, info_kind):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = [name, time.perf_counter(), None, parent, getattr(tracer._local, "qid", None), None, 0.0]
            before = rss_mb() if info_kind == "rss" else 0.0
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = ("raised", type(exc).__name__)
                raise
            else:
                if info_kind is not None:
                    try:
                        span[5] = _info(info_kind, args, kwargs, result, before)
                    except (AttributeError, TypeError, KeyError, IndexError):
                        pass  # a later signature; the span still counts
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[6] += span[2] - span[1]
                tracer.spans.append(span)

        return traced

    # installing wrappers ---------------------------------------------------

    def install(self, targets) -> None:
        for name, module, attr, cls, info_kind in targets:
            try:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self._mark_absent(name)
                continue
            wrapped = self._wrap(original, name, info_kind)
            if cls is not None:
                self._patch(owner, attr, wrapped)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "kg_reason":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def wrap_backend(self, backend) -> None:
        """Trace ``complete`` on one backend instance."""
        original = getattr(backend, "complete", None)
        if original is None:
            self._mark_absent("backend.complete")
            return
        try:
            backend.complete = self._wrap(original, "backend.complete", None)
        except AttributeError:
            self._mark_absent("backend.complete")
        else:
            # Deleting the instance attribute brings the class's method back.
            self._patched.append((backend, "complete", None))

    def remove(self) -> None:
        """Undo every wrapper, newest first."""
        for owner, name, original in reversed(self._patched):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, owner, name: str, wrapped) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapped)

    def _mark_absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    def write(self, path) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                record = {
                    "id": i, "name": s[0], "start": s[1], "end": s[2],
                    "parent": ids.get(id(s[3])) if s[3] is not None else None,
                    "query": s[4], "info": s[5], "self": s[2] - s[1] - s[6],
                }
                out.write(json.dumps(record) + "\n")


# --- per-layer metrics -------------------------------------------------------

PER_LAYER = (
    ("graph.load_s", "s"),
    ("graph.load_triples_per_s", "1/s"),
    ("graph.load_rss_mb", "MB"),
    ("graph.type_projection_s", "s"),
    ("graph.match.calls_per_query", "count"),
    ("graph.match.ms_per_query", "ms"),
    ("graph.match.triples_per_call", "count"),
    ("candidates.claim.ms_p50", "ms"),
    ("candidates.claim.pool_size_mean", "count"),
    ("pipeline.segment.self_ms_p50", "ms"),
    ("pipeline.retrieve.self_ms_p50", "ms"),
    ("pipeline.assemble.self_ms_p50", "ms"),
    ("pipeline.assemble.self_ms_p90", "ms"),
    ("pipeline.infer.self_ms_p50", "ms"),
    ("pipeline.subsentences_per_query", "count"),
    ("pipeline.evidence_triples_mean", "count"),
    ("pipeline.evidence_triples_max", "count"),
    ("prompts.render.ms_per_query", "ms"),
    ("prompts.linearize.ms_per_query", "ms"),
    ("prompts.bytes_per_call.segmentation", "bytes"),
    ("prompts.bytes_per_call.retrieval", "bytes"),
    ("prompts.bytes_per_call.inference", "bytes"),
    ("prompts.static_prefix_share", "ratio"),
    ("parsing.ms_per_query", "ms"),
    ("parsing.relation_fallback_share", "ratio"),
    ("parsing.dropped_relations_per_call", "count"),
    ("parsing.grounding_failures", "count"),
    ("backends.calls_per_query", "count"),
    ("backends.rounds_per_query", "count"),
    ("backends.wait_ms_per_query", "ms"),
    ("backends.overhead_ms_per_call", "ms"),
    ("backends.connections_per_call", "count"),
    ("backends.attempts_per_call", "count"),
    ("backends.fake_self_ms_per_query", "ms"),
    ("process.cpu_util", "ratio"),
    ("trace.overhead_share", "ratio"),
)
# Reported only by runs that build n-hop pools (qa-multihop, which
# BENCHMARK.json does not gate on), so no gated run reports a constant 0.
NHOP_LAYER = (
    ("candidates.nhop.hub_ms_p50", "ms"),
    ("candidates.nhop.leaf_ms_p50", "ms"),
    ("candidates.nhop.hop3_ms_p90", "ms"),
    ("candidates.nhop.pool_size_mean", "count"),
)

def _pct(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


def _rounds(intervals) -> int:
    rounds, end = 0, float("-inf")
    for s, e in sorted(intervals):
        if s >= end:
            rounds += 1
        end = max(end, e)
    return rounds


def per_layer(tracer: Tracer, context: dict) -> dict[str, float]:
    """Per-layer values from the spans; ``context`` carries the counts the
    spans cannot see (seed classes, triples loaded, stub counters, the
    untraced passes' CPU share, the median (scaled) query times of the
    untraced and the traced passes over the same queries)."""
    by: dict[str, list[list]] = {}
    for s in tracer.spans:
        by.setdefault(s[0], []).append(s)
    queries = [s for s in by.get("query", ()) if s[4] is not None]
    nq = max(1, len(queries))
    ms = lambda s: (s[2] - s[1]) * 1e3  # noqa: E731
    self_ms = lambda s: (s[2] - s[1] - s[6]) * 1e3  # noqa: E731
    total_ms = lambda name: sum(ms(s) for s in by.get(name, ()))  # noqa: E731
    out: dict[str, float] = {}

    loads = by.get("load_graph", [])
    load_s = statistics.median([ms(s) / 1e3 for s in loads]) if loads else 0.0
    out["graph.load_s"] = load_s
    out["graph.load_triples_per_s"] = context["triples"] / load_s if load_s else 0.0
    out["graph.load_rss_mb"] = loads[0][5] if loads and isinstance(loads[0][5], float) else 0.0
    proj = [ms(s) / 1e3 for s in by.get("build_type_graph", ())]
    out["graph.type_projection_s"] = statistics.median(proj) if proj else 0.0

    match = by.get("match", [])
    out["graph.match.calls_per_query"] = len(match) / nq
    out["graph.match.ms_per_query"] = total_ms("match") / nq
    out["graph.match.triples_per_call"] = _mean([s[5] for s in match if isinstance(s[5], int)])

    claim = by.get("candidates.claim", [])
    out["candidates.claim.ms_p50"] = _pct([ms(s) for s in claim], 0.5)
    out["candidates.claim.pool_size_mean"] = _mean([s[5] for s in claim if isinstance(s[5], int)])
    nhop = by.get("candidates.nhop", [])
    if nhop:
        seed_class = context.get("seed_class", {})
        out["candidates.nhop.hub_ms_p50"] = _pct([ms(s) for s in nhop if seed_class.get(s[4]) == "hub"], 0.5)
        out["candidates.nhop.leaf_ms_p50"] = _pct([ms(s) for s in nhop if seed_class.get(s[4]) == "leaf"], 0.5)
        out["candidates.nhop.hop3_ms_p90"] = _pct(
            [ms(s) for s in nhop if isinstance(s[5], tuple) and s[5][0] == 3], 0.9)
        out["candidates.nhop.pool_size_mean"] = _mean([s[5][1] for s in nhop if isinstance(s[5], tuple)])

    for stage in ("segment", "retrieve", "assemble", "infer"):
        out[f"pipeline.{stage}.self_ms_p50"] = _pct([self_ms(s) for s in by.get(stage, ())], 0.5)
    out["pipeline.assemble.self_ms_p90"] = _pct([self_ms(s) for s in by.get("assemble", ())], 0.9)
    out["pipeline.subsentences_per_query"] = sum(
        s[5] for s in by.get("segment", ()) if isinstance(s[5], int)) / nq
    evidence = [s[5] for s in by.get("assemble", ()) if isinstance(s[5], int)]
    out["pipeline.evidence_triples_mean"] = _mean(evidence)
    out["pipeline.evidence_triples_max"] = float(max(evidence, default=0))

    out["prompts.render.ms_per_query"] = total_ms("render_prompt") / nq
    out["prompts.linearize.ms_per_query"] = total_ms("render_triple_list") / nq
    rendered = [s[5] for s in by.get("render_prompt", ()) if isinstance(s[5], tuple) and len(s[5]) == 3]
    for stage in ("segmentation", "retrieval", "inference"):
        out[f"prompts.bytes_per_call.{stage}"] = _mean([r[1] for r in rendered if r[0] == stage])
    total_bytes = sum(r[1] for r in rendered)
    out["prompts.static_prefix_share"] = sum(r[2] for r in rendered) / total_bytes if total_bytes else 0.0

    out["parsing.ms_per_query"] = sum(total_ms(p) for p in PARSERS) / nq
    notes = [s[5] for s in by.get("parse_relations", ()) if isinstance(s[5], tuple) and len(s[5]) == 2
             and s[5][0] != "raised"]
    out["parsing.relation_fallback_share"] = _mean([float(n[1]) for n in notes])
    out["parsing.dropped_relations_per_call"] = _mean([n[0] for n in notes])
    out["parsing.grounding_failures"] = float(sum(
        1 for s in by.get("parse_answer", ()) if isinstance(s[5], tuple) and s[5][0] == "raised"))

    calls = by.get("backend.complete", [])
    per_query: dict[object, list[tuple[float, float]]] = {}
    for s in calls:
        per_query.setdefault(s[4], []).append((s[1], s[2]))
    out["backends.calls_per_query"] = len(calls) / nq
    out["backends.rounds_per_query"] = sum(_rounds(v) for v in per_query.values()) / nq
    wait_ms = sum(_union(v) for v in per_query.values()) * 1e3 / nq
    out["backends.wait_ms_per_query"] = wait_ms
    service_ms = context.get("service_ms") or 0.0
    out["backends.overhead_ms_per_call"] = _mean([ms(s) for s in calls]) - service_ms if calls else 0.0
    stub = context.get("stub")
    out["backends.connections_per_call"] = stub["connections"] / len(calls) if stub and calls else 0.0
    out["backends.attempts_per_call"] = stub["requests"] / len(calls) if stub and calls else 0.0
    out["backends.fake_self_ms_per_query"] = (
        stub["oracle_s"] * 1e3 / nq if stub else wait_ms)

    out["process.cpu_util"] = context["cpu_util"]
    # 1 - traced qps / untraced qps, over the same queries.
    out["trace.overhead_share"] = 1 - context["untraced_s"] / context["traced_s"] if context["traced_s"] else 0.0
    return out

