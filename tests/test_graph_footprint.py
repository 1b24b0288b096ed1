from __future__ import annotations

import subprocess
import sys

from helpers import FIXTURES

ROOT = FIXTURES.parents[1]


def test_graph_footprint_prints_each_measure_per_triple():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "graph_footprint.py"), "verify-http",
         "--seed", "1", "--scale", "0.05"],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT),
    )
    assert done.returncode == 0, done.stderr
    rows = dict(line.split("\t") for line in done.stdout.splitlines())
    assert list(rows) == [
        "triples", "setup_s", "retained_bytes_per_triple", "peak_bytes_per_triple", "ru_maxrss_mb",
    ]
    assert int(rows["triples"]) >= 500
    retained, peak = float(rows["retained_bytes_per_triple"]), float(rows["peak_bytes_per_triple"])
    assert 0 < retained <= peak
    assert float(rows["setup_s"]) > 0 and float(rows["ru_maxrss_mb"]) > 0
