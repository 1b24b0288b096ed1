"""kg-reason benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root::

    python3 kgbench/run.py --workload verify-hub --seed 1 --seconds 10 --trace 0

The run generates its inputs from ``--seed`` (see ``gen.py``), sets the
program up at least ``SETUPS`` times (``load_graph`` + ``build_type_graph``
+ ``Pipeline``) and keeps the last graph. Then it drives ``build_query`` +
``Pipeline.run`` over the whole query list, pass after pass, in a closed
loop of ``width`` threads, for ``--seconds``. Every answer is checked
against the generator's gold. The latencies are each query's median over
the passes; on workloads without backend wait they are first scaled to a
reference host speed (see ``probe``). With ``--trace 1`` untraced and
traced passes alternate, and the per-layer metrics are reported instead.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".kgbench"
# Set-up runs at least SETUPS times and for about SETUP_SECONDS, so that
# small graphs get enough repetitions for a steady median.
SETUPS = 3
SETUP_SECONDS = 3.0
# On a workload without backend wait, a width-1 client runs ``probe`` before
# every PROBE_EVERY-th query. Each query's latency is scaled by
# REFERENCE_PROBE_S / the median of the last three probe times, i.e. to what
# it would be on a host that runs the probe in REFERENCE_PROBE_S (the
# baseline host in its fast state, README.md).
PROBE_EVERY = 20
REFERENCE_PROBE_S = 0.0007
_PROBE_WORDS = [f"w{i}" for i in range(500)]


@dataclass(frozen=True)
class Workload:
    kind: str  # generator: "factkg" or "metaqa"
    triples: int
    queries: int
    k: int
    width: int
    mix: str = "reasoning"
    service_ms: float | None = None  # loopback stub latency; None = in-process oracle


# Why each workload exists, and what it bypasses, is in BENCHMARK.json and
# README.md. qa-multihop is runnable but not in BENCHMARK.json: its heavy-tailed
# query cost made its spread across seeds too wide to gate on (README.md).
# A pass runs the whole query list; a run makes several passes.
WORKLOADS = {
    "verify-hub": Workload("factkg", 250_000, 1000, k=5, width=1),
    "qa-multihop": Workload("metaqa", 135_000, 300, k=3, width=1),
    "verify-http": Workload("factkg", 20_000, 120, k=5, width=2, mix="subsentences", service_ms=20.0),
}

END_TO_END = (
    ("setup_s", "s"),
    ("qps", "queries/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("correct_share", "ratio"),
)


def fail(message: str, code: int = 2):
    print(f"kgbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def generate(name: str, wl: Workload, seed: int, scale: float, out: Path) -> dict:
    cmd = [
        sys.executable, str(HERE / "gen.py"), wl.kind, "--seed", str(seed), "--out", str(out),
        "--triples", str(max(500, int(wl.triples * scale))),
        "--queries", str(max(60, int(wl.queries * scale))), "--mix", wl.mix,
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        fail(f"generator failed for {name}:\n{done.stderr}")
    return json.loads((out / "meta.json").read_text(encoding="utf-8"))


class Stub:
    """The loopback chat-completions stub, in its own process."""

    def __init__(self, queries: Path, width: int, service_ms: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--queries", str(queries),
             "--width", str(width), "--service-ms", str(service_ms)],
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            fail("stub server did not start")
        self.url = f"http://127.0.0.1:{int(line)}"

    def stats(self) -> dict:
        import requests

        return requests.get(self.url + "/stats", timeout=10).json()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def probe() -> float:
    """Seconds that a fixed piece of pure-Python work takes now: integer
    arithmetic, a small dict of lists, sorting and string formatting, the
    kinds of work a query does. It touches nothing of the program, so its
    time follows the host's speed alone."""
    t0 = time.perf_counter()
    x = 0
    for i in range(5000):
        x += i * i % 7
    groups: dict[str, list] = {}
    for i, w in enumerate(_PROBE_WORDS):
        groups.setdefault(w[:3], []).append((w, i))
    ", ".join("[%r, %d]" % kv for kv in sorted((k, len(v)) for k, v in groups.items()))
    return time.perf_counter() - t0


def run_pass(run_one, n_queries: int, width: int, deadline: float | None = None, tracer=None,
             scaled: bool = False):
    """One pass over queries ``0 .. n_queries-1`` by ``width`` clients, each
    sending its next query once its last one finished. With a ``deadline``,
    no query starts after it, so the pass may end early. With ``scaled``
    (width 1 only), the client probes the host's speed before every
    PROBE_EVERY-th query.

    Returns (records, elapsed s, cpu s); a record is (query index, latency
    s, outcome, scale), and latency * scale is the latency at the
    reference host speed (scale 1 when not ``scaled``).
    """
    indexes = iter(range(n_queries))  # shared by the clients
    records: list[tuple[int, float, tuple, float]] = []

    def client() -> None:
        local = []
        probes: list[float] = []
        scale = 1.0
        for i in indexes:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if scaled and len(local) % PROBE_EVERY == 0:
                probes = probes[-2:] + [probe()]
                scale = REFERENCE_PROBE_S / statistics.median(probes)
            if tracer is not None:
                tracer.begin_query(i)
            t0 = time.perf_counter()
            outcome = run_one(i)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end_query()
            local.append((i, t1 - t0, outcome, scale))
        records.extend(local)

    cpu0 = time.process_time()
    start = time.perf_counter()
    if width == 1:
        client()
    else:
        threads = [threading.Thread(target=client) for _ in range(width)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return records, time.perf_counter() - start, time.process_time() - cpu0


def typical_latencies(passes, scaled: bool = True) -> dict[int, float]:
    """Each query's median latency over the passes, in s; scaled to the
    reference host speed unless ``scaled`` is false."""
    samples: dict[int, list[float]] = {}
    for records, _, _ in passes:
        for i, latency, _, scale in records:
            samples.setdefault(i, []).append(latency * scale if scaled else latency)
    return {i: statistics.median(values) for i, values in samples.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="kg-reason benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="test only: shrink graph and query counts for the smoke tests")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "kg_reason" / "__init__.py").is_file():
        fail(f"no kg_reason sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    # A terminated run still stops its stub and removes its inputs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    wl = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        meta = generate(args.workload, wl, args.seed, args.scale, work)
        result = measure(args, wl, meta, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, wl: Workload, meta: dict, work: Path) -> dict:
    """Set-ups and timed passes over the whole query list.

    Each pass builds its own Pipeline, and passes run until ``--seconds``
    of passes have gone by. Every pass's outcomes are checked; the timings
    use each query's median latency over the passes. On a workload without
    backend wait the latencies are scaled to the reference host speed first,
    which takes the host's changes of speed out of them. With ``--trace 1``
    untraced and traced passes alternate, so that both see the same queries.
    """
    import kg_reason
    from kg_reason.evaluation import QAExample, VerificationExample, build_query

    from oracle import Oracle, OracleBackend, load_queries
    from spans import NHOP_LAYER, PER_LAYER, QUERY_TARGETS, SETUP_TARGETS, Tracer, per_layer

    queries = load_queries(work / "queries.jsonl")
    examples = [
        VerificationExample(q["text"], tuple(q["entities"]), q["label"], q["type"])
        if q["kind"] == "claim"
        else QAExample(q["question"], q["text"], q["seed"], q["hops"], tuple(q["answers"]))
        for q in queries
    ]
    tracer = Tracer() if args.trace else None
    # Every set-up builds its Pipeline on the in-process oracle; the passes
    # build theirs on the workload's own backend.
    oracle = OracleBackend(Oracle(queries))
    types_path = work / "types.tsv"
    current: dict = {}
    setup_times: list[float] = []
    setup_scaled: list[float] = []  # at the reference host speed

    def set_up() -> float:
        """One timed set-up, after freeing the previous graph. Set-up is CPU
        work on every workload, so it is scaled by the probes around it."""
        current.clear()
        gc.collect()
        probes = [probe() for _ in range(3)]
        if tracer:
            tracer.install(SETUP_TARGETS)
        t0 = time.perf_counter()
        graph = kg_reason.load_graph(str(work / "graph.tsv"), str(types_path) if types_path.exists() else None)
        type_graph = kg_reason.build_type_graph(graph)
        kg_reason.Pipeline(graph, type_graph, oracle, k=wl.k)
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.remove()
        probes += [probe() for _ in range(3)]
        current.update(graph=graph, type_graph=type_graph)
        setup_times.append(elapsed)
        setup_scaled.append(elapsed * REFERENCE_PROBE_S / statistics.median(probes))
        return elapsed

    def run_one(i: int) -> tuple:
        try:
            conclusion = current["pipeline"].run(build_query(examples[i], current["graph"], current["type_graph"]))
        except kg_reason.PipelineError as exc:
            return ("error", exc.stage)
        except kg_reason.KGReasonError:
            return ("error", "query")
        except Exception as exc:  # noqa: BLE001 - a crash is a counted outcome
            return ("error", "crash:" + type(exc).__name__)
        result = conclusion.result
        return ("done", result.entity if queries[i]["kind"] == "question" else result.label)

    def setups_wanted() -> int:
        return max(SETUPS, math.ceil(SETUP_SECONDS / statistics.median(setup_times)))

    # The repeated set-ups are spread over the timed phase, between passes,
    # so that they sample the host over the whole run rather than over a few
    # seconds. The stub starts after the first set-up, so its start-up
    # overlaps none of them.
    set_up()
    stub = None
    try:
        if wl.service_ms is not None:
            stub = Stub(work / "queries.jsonl", wl.width, wl.service_ms)
            backend = kg_reason.HttpBackend(kg_reason.BackendConfig(endpoint=stub.url))
        else:
            backend = oracle
        n = len(queries)
        # Only a query that never waits for a backend takes time in
        # proportion to the host's speed.
        scaled = wl.service_ms is None
        untraced, traced = [], []
        stub_delta: dict[str, float] = {}
        spent = 0.0  # seconds of passes
        gc.collect()
        deadline = time.perf_counter() + args.seconds
        # The first pass (and with tracing the first traced one) always
        # completes, so that every query has a latency.
        while not untraced or (tracer is not None and not traced) or time.perf_counter() < deadline:
            current["pipeline"] = kg_reason.Pipeline(current["graph"], current["type_graph"], backend, k=wl.k)
            if tracer is None or len(untraced) == len(traced):
                untraced.append(run_pass(run_one, n, wl.width, deadline if untraced else None, scaled=scaled))
                spent += untraced[-1][1]
            else:
                before = stub.stats() if stub else None
                tracer.install(QUERY_TARGETS)
                tracer.wrap_backend(backend)
                traced.append(run_pass(run_one, n, wl.width, deadline if traced else None, tracer, scaled))
                tracer.remove()
                spent += traced[-1][1]
                if stub:
                    after = stub.stats()
                    for key in after:
                        stub_delta[key] = stub_delta.get(key, 0) + after[key] - before[key]
            while len(setup_times) < 1 + int((setups_wanted() - 1) * min(1.0, spent / args.seconds)):
                deadline += set_up()
        while len(setup_times) < setups_wanted():
            set_up()
    finally:
        if stub is not None:
            stub.close()

    failures: dict[str, int] = {}
    timed = [r for records, _, _ in untraced + traced for r in records]
    for i, _, outcome, _ in timed:
        q = queries[i]
        if outcome[0] == "error":
            bucket = outcome[1]
        elif q["kind"] == "claim":
            bucket = None if outcome[1] == q["label"] else "wrong"
        else:
            bucket = None if outcome[1] in q["answers"] else "wrong"
        if bucket:
            failures[bucket] = failures.get(bucket, 0) + 1
    attempted, failed = len(timed), sum(failures.values())

    typical = typical_latencies(untraced)
    print(f"workload {args.workload} seed {args.seed}")
    print("sizes " + json.dumps(meta, sort_keys=True))
    print(f"width {wl.width}, k {wl.k}, setups {len(setup_times)}, backend "
          + (f"HttpBackend -> loopback stub ({wl.service_ms:g} ms)" if stub else "in-process oracle"))
    print(f"failed_share = {failed / attempted:.6f} ratio ({failed} of {attempted} queries); "
          f"by stage: {json.dumps(failures, sort_keys=True) if failures else 'none'}")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced, over {n} queries; "
          f"{len(setup_times)} set-ups took {min(setup_times):.3f}-{max(setup_times):.3f} s, "
          f"median {statistics.median(setup_times):.4g} s unscaled")
    if tracer is None:
        latencies = sorted(v * 1e3 for v in typical.values())
        deciles = (statistics.quantiles(latencies, n=10, method="inclusive")
                   if len(latencies) > 1 else latencies * 9)
        values = {
            "setup_s": statistics.median(setup_scaled),
            # Little's law for a closed loop: width clients, no think time.
            "qps": wl.width * 1e3 / statistics.fmean(latencies),
            "latency_p50_ms": deciles[4],
            "latency_p90_ms": deciles[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "correct_share": (attempted - failed) / attempted,
        }
        all_records = [r for records, _, _ in untraced for r in records]
        print(f"latency samples {len(latencies)} ({sum(l > deciles[8] for l in latencies)} above p90); "
              f"throughput of all passes {len(all_records) / sum(e for _, e, _ in untraced):.4g}, "
              f"of the first {len(untraced[0][0]) / untraced[0][1]:.4g}, "
              f"of the fastest {max(len(r) / e for r, e, _ in untraced):.4g} queries/s")
        if scaled:
            scales = sorted(r[3] for r in all_records)
            raw = sorted(v * 1e3 for v in typical_latencies(untraced, scaled=False).values())
            print(f"host speed: latencies scaled by {scales[0]:.3g}-{scales[-1]:.3g}, median "
                  f"{statistics.median(scales):.4g} (reference probe {REFERENCE_PROBE_S * 1e3:g} ms); "
                  f"unscaled qps {wl.width * 1e3 / statistics.fmean(raw):.5g}, "
                  f"p50 {statistics.median(raw):.5g} ms")
        units = dict(END_TO_END)
    else:
        typical_traced = typical_latencies(traced)
        both = typical.keys() & typical_traced.keys()
        context = {
            "triples": meta["triples"],
            "seed_class": {i: q.get("seed_class") for i, q in enumerate(queries)},
            "service_ms": wl.service_ms,
            "stub": stub_delta if stub else None,
            "cpu_util": sum(c for _, _, c in untraced) / sum(e for _, e, _ in untraced),
            "untraced_s": sum(typical[i] for i in both),
            "traced_s": sum(typical_traced[i] for i in both),
        }
        values = per_layer(tracer, context)
        print("absent layers (their metrics read 0): "
              + (", ".join(tracer.absent) if tracer.absent else "none"))
        print(f"traced queries {sum(len(r) for r, _, _ in traced)}, spans {len(tracer.spans)}")
        tracer.write(WORK / f"{args.workload}.spans.jsonl")
        units = dict(PER_LAYER)
        units.update((name, unit) for name, unit in NHOP_LAYER if name in values)
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
