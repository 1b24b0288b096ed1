"""Regenerate the golden files under tests/goldens/.

The prompt goldens freeze the rendered bytes of every stage template at 4, 8
and 12 shots for one fixed binding set (defined once in tests/helpers.py).
The digest goldens under tests/goldens/digests/ freeze every query's record
and outcome digest from scripts/query_digests.py, for the workloads and
seeds in tests/helpers.py. Run from the repository root:

    python scripts/make_goldens.py

Inspect the diff before committing; the byte-exactness tests compare
against these files.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from kg_reason.prompts import render_prompt  # noqa: E402

from helpers import (  # noqa: E402
    DIGEST_RUNS,
    DIGEST_SCALE,
    GOLDEN_BINDINGS,
    GOLDENS,
    digest_golden,
    query_digests,
)


def main() -> None:
    GOLDENS.mkdir(parents=True, exist_ok=True)
    for name, (template, bindings) in GOLDEN_BINDINGS.items():
        for shots in (4, 8, 12):
            path = GOLDENS / f"{name}_{shots}shot.txt"
            path.write_bytes(render_prompt(template, bindings, shots).encode("utf-8"))
            print(f"wrote {path}")
    for workload, seed in DIGEST_RUNS:
        path = digest_golden(workload, seed)
        path.parent.mkdir(exist_ok=True)
        path.write_text(query_digests(workload, seed, DIGEST_SCALE), encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
