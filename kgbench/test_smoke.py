"""Tiny-size smoke runs of every workload; never gates on timings.

    python3 -m pytest kgbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
from run import WORKLOADS
from spans import NHOP_LAYER, PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.02"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_outputs_are_checked_and_named(workload, trace):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if trace and workload == "qa-multihop":
        expected.update(NHOP_LAYER)
    assert expected == {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "failed_share = " in done.stdout


def test_benchmark_spec_lists_every_per_layer_metric():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("kind", ["factkg", "metaqa"])
def test_generator_is_a_function_of_its_seed(tmp_path, kind):
    # Separate processes with different string-hash seeds must agree.
    for out, hash_seed in (("a", "1"), ("b", "2")):
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), kind, "--seed", "5", "--out", str(tmp_path / out),
             "--triples", "3000", "--queries", "40"],
            check=True, capture_output=True, env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
    for name in ("graph.tsv", "queries.jsonl", "meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_gold_matches_the_generated_graph(tmp_path):
    gen.factkg(7, tmp_path, 5000, 100)
    triples = {tuple(line.rstrip("\n").split("\t")) for line in open(tmp_path / "graph.tsv")}
    for line in open(tmp_path / "queries.jsonl"):
        q = json.loads(line)
        present = all(tuple(t) in triples for t in q["check"])
        assert present == ((q["label"] == "Supported") != q["negated"])


def test_missing_layer_is_reported_absent_not_raised():
    tracer = Tracer()
    tracer.install([("gone", "kg_reason.graph", "no_such_function", None, None),
                    ("gone_module", "kg_reason.no_such_module", "f", None, None)])
    assert tracer.absent == ["gone", "gone_module"]


def test_removed_wrappers_restore_the_originals():
    sys.path.insert(0, str(ROOT / "src"))
    import kg_reason
    from spans import SETUP_TARGETS

    before = (kg_reason.load_graph, kg_reason.build_type_graph)

    class Backend:
        def complete(self, prompt):
            return prompt

    backend = Backend()
    tracer = Tracer()
    tracer.install(SETUP_TARGETS)
    tracer.wrap_backend(backend)
    assert kg_reason.load_graph is not before[0]
    assert "complete" in vars(backend)
    tracer.remove()
    assert (kg_reason.load_graph, kg_reason.build_type_graph) == before
    assert "complete" not in vars(backend)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "kgbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run("verify-hub", 0, cwd=tmp_path, script=tmp_path / "kgbench" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()
