from __future__ import annotations

import re
import subprocess
import sys

from helpers import FIXTURES

ROOT = FIXTURES.parents[1]


def digests(workload: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "query_digests.py"), workload,
         "--seed", "1", "--scale", "0.004"],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_query_digests_cover_every_query_and_repeat_exactly():
    first = digests("qa-multihop")
    # 60 queries at this scale, one line each, then the digest of them all
    assert len(first) == 61
    for i, line in enumerate(first[:-1]):
        assert re.fullmatch(rf"{i}\t[0-9a-f]{{64}}", line)
    assert re.fullmatch(r"all\t[0-9a-f]{64}", first[-1])
    assert digests("qa-multihop") == first
