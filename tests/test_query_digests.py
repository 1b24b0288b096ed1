from __future__ import annotations

import re

import pytest

from helpers import DIGEST_RUNS, DIGEST_SCALE, digest_golden, query_digests


def test_query_digests_cover_every_query_and_repeat_exactly():
    first = query_digests("qa-multihop", 1, 0.004).splitlines()
    # 60 queries at this scale, one line each, then the digests of them all:
    # the record digest, then the outcome digest
    assert len(first) == 61
    for i, line in enumerate(first[:-1]):
        assert re.fullmatch(rf"{i}\t[0-9a-f]{{64}}\t[0-9a-f]{{64}}", line)
        record, outcome = line.split("\t")[1:]
        assert record != outcome
    assert re.fullmatch(r"all\t[0-9a-f]{64}\t[0-9a-f]{64}", first[-1])
    assert query_digests("qa-multihop", 1, 0.004).splitlines() == first


def by_query(text: str) -> dict[str, tuple[str, str]]:
    rows = (line.split("\t") for line in text.splitlines())
    return {key: (record, outcome) for key, record, outcome in rows}


@pytest.mark.parametrize(("workload", "seed"), DIGEST_RUNS)
def test_every_query_keeps_its_golden_record_and_outcome(workload, seed):
    """Each query of the workload ends with the trace record and the outcome
    frozen in goldens/digests/ (scripts/make_goldens.py writes them)."""
    golden = by_query(digest_golden(workload, seed).read_text(encoding="utf-8"))
    now = by_query(query_digests(workload, seed, DIGEST_SCALE))
    changed = []
    for key in {**golden, **now}:
        if key not in now or key not in golden:
            changed.append(f"query {key}: {'gone' if key not in now else 'new'}")
        elif now[key] != golden[key]:
            record, outcome = (a != b for a, b in zip(now[key], golden[key]))
            column = "both" if record and outcome else "record" if record else "outcome"
            changed.append(f"query {key}: {column}")
    assert not changed, f"{workload} seed {seed} at scale {DIGEST_SCALE}:\n" + "\n".join(changed)
