"""Shared test machinery: scan-based oracles, random graph generation,
programmatic backends, and the frozen expected evidence for the fixture
suites. Oracles work on raw label triples so they stay independent of the
indexed implementation they check.
"""

from __future__ import annotations

import ast
import codecs
import json
import random
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from kg_reason import (
    KnowledgeGraph,
    MockBackend,
    QA_INFERENCE_TEMPLATE,
    RETRIEVAL_TEMPLATE,
    SEGMENTATION_TEMPLATE,
    VERIFICATION_INFERENCE_TEMPLATE,
    build_type_graph,
    render_entity_set,
    render_relation_list,
    render_triple_list,
)
from kg_reason.errors import FileError
from kg_reason.prompts import task_sentence

FIXTURES = Path(__file__).parent / "fixtures"
GOLDENS = Path(__file__).parent / "goldens"
ROOT = Path(__file__).parents[1]

# The per-query digest goldens under goldens/digests/: the output of
# scripts/query_digests.py for each workload and seed at this scale.
DIGEST_RUNS = [
    (workload, seed) for workload in ("verify-hub", "verify-http", "qa-multihop") for seed in (1, 2)
]
DIGEST_SCALE = 0.2


def digest_golden(workload: str, seed: int) -> Path:
    return GOLDENS / "digests" / f"{workload}-seed{seed}.txt"


def query_digests(workload: str, seed: int, scale: float) -> str:
    """The output of scripts/query_digests.py for one workload and seed, run
    in a subprocess from this checkout's sources."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "query_digests.py"), workload,
         "--seed", str(seed), "--scale", str(scale)],
        capture_output=True, text=True, timeout=300, cwd=str(ROOT),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout

# Bindings behind the checked-in golden prompt files; shared with
# scripts/make_goldens.py so the frozen bytes and the test agree on inputs.
_GOLDEN_CLAIM = "Ahmad Kadhim Assad's club is Al-Zawra'a SC."
GOLDEN_BINDINGS = {
    "segmentation": (
        SEGMENTATION_TEMPLATE,
        {
            "CLAIM": _GOLDEN_CLAIM,
            "ENTITY_SET": render_entity_set(["Ahmad_Kadhim_Assad", "Al-Zawra'a_SC"]),
        },
    ),
    "retrieval": (
        RETRIEVAL_TEMPLATE,
        {
            "SENTENCE": _GOLDEN_CLAIM,
            "RELATION_SET": render_relation_list(
                [
                    "club",
                    "clubs",
                    "parent",
                    "spouse",
                    "birthPlace",
                    "deathYear",
                    "leaderName",
                    "awards",
                    "award",
                    "vicepresident",
                    "vicePresident",
                ]
            ),
            "TOP_K": "2",
        },
    ),
    "inference": (
        VERIFICATION_INFERENCE_TEMPLATE,
        {
            "CLAIM": _GOLDEN_CLAIM,
            "EVIDENCE_SET": render_triple_list(["Ahamad_Kadhim"], ["clubs"], ["Al-Zawra'a SC"]),
        },
    ),
    "qa_inference": (
        QA_INFERENCE_TEMPLATE,
        {
            "CLAIM": "what type of film is Six Shooter?",
            "EVIDENCE_SET": render_triple_list(["Six Shooter"], ["has_genre"], ["Short"]),
        },
    ),
}


def labelled(g, positions):
    """The ``(head, relation, tail)`` labels of the triples at ``positions``, in order."""
    return list(zip(*g.label_columns(positions)))


def decoded_lines(path):
    """Yield ``(line number, line)`` for each line of a file, read one line at
    a time: the bytes split after each LF, CRLF and CR, as text mode splits
    them, and a leading byte-order mark is dropped. Each line is decoded
    alone, ending included; the first that is not UTF-8 raises
    ``load_graph``'s :class:`FileError`."""
    with open(path, "rb") as handle:
        data = handle.read().removeprefix(codecs.BOM_UTF8)
    raw = re.split(rb"(?<=\n)|(?<=\r)(?!\n)", data)
    for lineno, line in enumerate(raw[:-1] if not raw[-1] else raw, start=1):
        try:
            yield lineno, line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FileError(path, lineno, f"not UTF-8 ({exc.reason})") from None


def read_tsv_rows(path, width):
    """The rows of a graph or type file read one line at a time, as the
    reference for ``load_graph``'s chunked reader: each line of
    :func:`decoded_lines` is checked before the next is read, so the first
    bad line raises, with ``load_graph``'s message. Blank lines and lines
    whose first non-blank character is ``#`` are skipped; every other line
    must hold ``width`` tab-separated fields, non-blank once stripped."""
    rows = []
    for lineno, line in decoded_lines(path):
        if line.isspace() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != width:
            message = f"expected {width} tab-separated fields, got {len(fields)}"
            raise FileError(path, lineno, message)
        fields = tuple(field.strip() for field in fields)
        if not all(fields):
            raise FileError(path, lineno, "empty field")
        rows.append(fields)
    return rows


def load_graph_reference(triples_path, types_path=None):
    """``load_graph`` from rows read by :func:`read_tsv_rows`: the triple
    file first, then the type file, then the check for a triple."""
    rows = read_tsv_rows(triples_path, 3)
    types = [] if types_path is None else read_tsv_rows(types_path, 2)
    if not rows:
        raise FileError(triples_path, None, "no triples in file")
    return KnowledgeGraph.from_triples(rows, types)


def triple_columns(triples):
    """The head, relation and tail columns of a list of label triples."""
    return tuple([t[i] for t in triples] for i in range(3))


# --- scan oracles ---------------------------------------------------------


def scan_relations_of_entity(triples, entity, direction="both"):
    rels = set()
    for h, r, t in triples:
        if direction in ("outgoing", "both") and h == entity:
            rels.add(r)
        if direction in ("incoming", "both") and t == entity:
            rels.add(r)
    return rels


def nested_loop_type_relations(triples, type_map):
    """type label -> relation set, by scanning all triples per typed entity."""
    out = defaultdict(set)
    for entity, type_labels in type_map.items():
        rels = scan_relations_of_entity(triples, entity)
        for tl in type_labels:
            out[tl] |= rels
    return dict(out)


def enumerate_nhop_relations(triples, seed, n):
    """Relations on edges of any simple path of length <= n from the seed."""
    adjacency = defaultdict(list)
    for h, r, t in triples:
        adjacency[h].append((t, r))
        adjacency[t].append((h, r))
    found = set()

    def walk(node, visited, depth):
        if depth == n:
            return
        for nbr, rel in adjacency[node]:
            if nbr in visited:
                continue
            found.add(rel)
            walk(nbr, visited | {nbr}, depth + 1)

    walk(seed, {seed}, 0)
    return found


def scan_matching(triples, endpoints, relations):
    endpoints, relations = set(endpoints), set(relations)
    return [
        (h, r, t)
        for h, r, t in dict.fromkeys(triples)
        if r in relations and (h in endpoints or t in endpoints)
    ]


def candidate_oracle(mention_specs, triples, type_map):
    """Transliteration of the candidate extraction procedure over scans.

    ``mention_specs`` is a list of ("entity", label) / ("type", label) /
    ("variable", name) pairs. Mirrors the intersect-entities,
    union-types behaviour including the all-types path.
    """
    entity_pool = None
    type_labels = []
    for kind, label in mention_specs:
        if kind == "type":
            type_labels.append(label)
        elif kind == "entity":
            rels = scan_relations_of_entity(triples, label)
            entity_pool = rels if entity_pool is None else entity_pool & rels
    if type_labels:
        type_pool = set()
        for wanted in type_labels:
            for entity, carried in type_map.items():
                if wanted in carried:
                    type_pool |= scan_relations_of_entity(triples, entity)
        return type_pool if entity_pool is None else entity_pool & type_pool
    return entity_pool if entity_pool is not None else set()


def assemble_reference(triples, type_map, subsentences):
    """Transliteration of evidence assembly over scans.

    ``subsentences`` is a list of (mention specs, retrieved relation labels)
    pairs, the specs as for :func:`candidate_oracle`. For each sub-sentence
    in order: the anchors are its entities plus the current bindings of its
    variables; it keeps every triple whose relation was retrieved and that
    touches an anchor; it drops a triple if an endpoint outside the anchors
    has recorded types and none of them is among its type mentions; then it
    rebinds each of its variables to the kept endpoints outside the anchors.
    Returns the kept load positions, ascending, and the bindings, or None
    when a sub-sentence has no anchor.
    """
    edges = list(dict.fromkeys(triples))  # load positions: first occurrences, in order
    positions, bindings = set(), {}
    for specs, relations in subsentences:
        anchors = {label for kind, label in specs if kind == "entity"}
        for kind, name in specs:
            if kind == "variable":
                anchors |= bindings.get(name, set())
        if not anchors:
            return None
        types = {label for kind, label in specs if kind == "type"}
        kept = [
            p
            for p, (h, r, t) in enumerate(edges)
            if r in relations and (h in anchors or t in anchors)
        ]
        if types:
            kept = [
                p
                for p in kept
                if all(
                    e in anchors or not type_map.get(e) or type_map[e] & types
                    for e in edges[p][::2]
                )
            ]
        ends = {e for p in kept for e in edges[p][::2]} - anchors
        for kind, name in specs:
            if kind == "variable":
                bindings[name] = ends
        positions.update(kept)
    return sorted(positions), bindings


# --- random instances -------------------------------------------------------


def random_graph_data(
    rng: random.Random, max_entities=50, max_relations=20, max_triples=200, self_loops=False
):
    n_entities = rng.randint(2, max_entities)
    n_relations = rng.randint(1, max_relations)
    entities = [f"e{i}" for i in range(n_entities)]
    relations = [f"r{i}" for i in range(n_relations)]
    triples = []
    for _ in range(rng.randint(1, max_triples)):
        if self_loops:
            h, t = rng.choice(entities), rng.choice(entities)
        else:
            h, t = rng.sample(entities, 2)
        triples.append((h, rng.choice(relations), t))
    type_map = {}
    type_labels = [f"t{i}" for i in range(rng.randint(1, 8))]
    for e in entities:
        if rng.random() < 0.4:
            count = rng.randint(1, min(2, len(type_labels)))
            type_map[e] = set(rng.sample(type_labels, count))
    return entities, relations, triples, type_map


# --- programmatic backends ---------------------------------------------------

_TASK_WORDS = re.compile(r"\nWords set: (?P<words>\[.*\])\nTop \d+ Answer:$", re.DOTALL)
_TASK_EVIDENCE = re.compile(r"\nEvidence set: (?P<evidence>.*)\nAnswer:$", re.DOTALL)


class FirstKBackend:
    """Deterministic backend: replays fixed segmentations keyed by query
    text and answers every retrieval prompt with the full offered list, so
    the parser keeps exactly the first k offered relations.
    """

    def __init__(self, segmentations: dict[str, str]):
        self.segmentations = segmentations

    def complete(self, prompt: str, stage: str) -> str:
        if stage == "segmentation":
            return self.segmentations[task_sentence(prompt)]
        if stage == "retrieval":
            return _TASK_WORDS.search(prompt).group("words")
        if "Now let's answer the Question" in prompt:
            return _TASK_EVIDENCE.search(prompt).group("evidence")
        return "False, scripted deterministic run."


class CountingBackend:
    """Wraps a backend, counting calls per stage."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: dict[str, int] = defaultdict(int)

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())

    def complete(self, prompt: str, stage: str) -> str:
        self.calls[stage] += 1
        return self.inner.complete(prompt, stage)


class StaticBackend:
    """Returns one canned response per stage."""

    def __init__(self, by_stage: dict[str, str]):
        self.by_stage = by_stage

    def complete(self, prompt: str, stage: str) -> str:
        return self.by_stage[stage]


def mock_backend(name: str) -> MockBackend:
    return MockBackend.from_path(str(FIXTURES / name))


def segmentations_from_script(name: str) -> dict[str, str]:
    """A fixture script's segmentation replies by the query text they answer,
    for driving :class:`FirstKBackend` over a fixture dataset."""
    records = map(json.loads, (FIXTURES / name).read_text(encoding="utf-8").splitlines())
    return {r["key"]: r["response"] for r in records if r["stage"] == "segmentation"}


# a type projection that knows no type, so the parsers read every unmatched surface as a variable
NO_TYPES = build_type_graph(KnowledgeGraph.from_triples([("a", "r", "b")]))


def qa_block(block: str) -> tuple[str, list[tuple[str, str, str]], str]:
    """A stored question-answering example block's seed, evidence and answer.

    The seed is the evidence endpoint, other than the answer, that the
    question names, as a pipeline run would pass it to ``parse_answer``.
    """
    question, evidence_line, answer_line = block.splitlines()
    evidence = [tuple(t) for t in ast.literal_eval(evidence_line[len("Evidence set: "):])]
    answer = answer_line[len("Answer: "):]
    (seed,) = {x for h, _, t in evidence for x in (h, t) if x in question and x != answer}
    return seed, evidence, answer


# --- frozen expected evidence for the fixture suites -------------------------

# Verification rows, aligned with verification.jsonl order. Frozen by
# hand-tracing each scripted decomposition over the fixture graph; the
# end-to-end tests must reproduce these sets exactly (order-free).
EXPECTED_VERIFICATION_EVIDENCE = [
    {("AIDAstella", "shipBuilder", "Meyer_Werft")},
    {
        ("AIDAstella", "shipOperator", "AIDA_Cruises"),
        ("AIDAstella", "shipBuilder", "Meyer_Werft"),
    },
    {("Meyer_Werft", "parentCompany", "Meyer_Neptun_Group")},
    {
        ("AIDAstella", "shipBuilder", "Meyer_Werft"),
        ("Meyer_Werft", "location", "Papenburg"),
    },
    {
        ("AIDAstella", "shipBuilder", "Meyer_Werft"),
        ("Meyer_Werft", "location", "Papenburg"),
    },
    {
        ("Agra_Airport", "location", "India"),
        ("India", "leader", "Narendra_Modi"),
        ("India", "leaderName", "Narendra_Modi"),
        ("Narendra_Modi", "birthPlace", "India"),
    },
    {
        ("103_Colmore_Row", "location", "Birmingham"),
        ("103_Colmore_Row", "floorCount", "23"),
        ("103_Colmore_Row", "completionDate", "1976"),
        ("103_Colmore_Row", "buildingEndDate", "1976"),
    },
    {
        ("Alfredo_Zitarrosa", "deathPlace", "Uruguay"),
        ("Alfredo_Zitarrosa", "birthPlace", "Uruguay"),
        ("Montevideo", "country", "Uruguay"),
        ("Alfredo_Zitarrosa", "deathPlace", "Montevideo"),
        ("Alfredo_Zitarrosa", "birthPlace", "Montevideo"),
        ("Uruguay", "capital", "Montevideo"),
        ("Uruguay", "leader", "Raúl_Fernando_Sendic_Rodríguez"),
        ("Uruguay", "leaderName", "Raúl_Fernando_Sendic_Rodríguez"),
    },
    {
        ("Al-Taqaddum_Air_Base", "city", "Fallujah"),
        ("Al-Taqaddum_Air_Base", "cityServed", "Fallujah"),
        ("Fallujah", "country", "Iraq"),
    },
    {
        ("Adare_Manor", "country", "Republic_of_Ireland"),
        ("Republic_of_Ireland", "leader", "Enda_Kenny"),
        ("Republic_of_Ireland", "leaderName", "Enda_Kenny"),
        ("Adare_Manor", "locationCountry", "Republic_of_Ireland"),
        ("Republic_of_Ireland", "demonym", "Irish_people"),
    },
    {("AIDAstella", "shipOperator", "AIDA_Cruises")},
    {
        ("Alfredo_Zitarrosa", "deathPlace", "Uruguay"),
        ("Alfredo_Zitarrosa", "birthPlace", "Uruguay"),
        ("Alfredo_Zitarrosa", "deathPlace", "Montevideo"),
        ("Alfredo_Zitarrosa", "birthPlace", "Montevideo"),
    },
]

EXPECTED_VERIFICATION_VERDICTS = [
    "Supported",
    "Supported",
    "Supported",
    "Supported",
    "Refuted",
    "Supported",
    "Supported",
    "Supported",
    "Refuted",
    "Supported",
    "Refuted",
    "Refuted",
]

# Question rows per hop file, aligned with the qa_*hop.txt order; frozen
# the same way as the verification rows.
EXPECTED_QA_EVIDENCE = {
    1: [
        {
            ("Cobra", "starred_actors", "Brigitte Nielsen"),
            ("Red Sonja", "starred_actors", "Brigitte Nielsen"),
        },
        {("The Red Baron", "directed_by", "Nikolai Müllerschön")},
        {("Six Shooter", "has_genre", "Short")},
    ],
    2: [
        {
            ("Mean Guns", "starred_actors", "Deborah Van Valkenburgh"),
            ("Mean Guns", "release_year", "1997"),
        },
        {
            ("The Duellists", "directed_by", "Ridley Scott"),
            ("The Counselor", "directed_by", "Ridley Scott"),
        },
        {
            ("Food, Inc.", "written_by", "Robert Kenner"),
            ("Food, Inc.", "has_genre", "Documentary"),
        },
    ],
    3: [
        {
            ("The Lives of a Bengal Lancer", "written_by", "John L. Balderston"),
            ("Frankenstein", "written_by", "John L. Balderston"),
            ("Frankenstein", "has_genre", "Horror"),
        },
        {
            ("Seeking Justice", "starred_actors", "Nicolas Cage"),
            ("World Trade Center", "starred_actors", "Nicolas Cage"),
            ("World Trade Center", "release_year", "2006"),
        },
        {
            ("A Thin Line Between Love and Hate", "directed_by", "Martin Lawrence"),
            ("Big Momma's House", "starred_actors", "Martin Lawrence"),
            ("Big Momma's House", "has_genre", "Comedy"),
            ("A Thin Line Between Love and Hate", "written_by", "Martin Lawrence"),
            ("A Thin Line Between Love and Hate", "starred_actors", "Martin Lawrence"),
        },
    ],
}

EXPECTED_QA_ANSWERS = {
    1: ["Cobra", "The Red Baron", "Short"],
    2: ["1997", "The Counselor", "Documentary"],
    3: ["Horror", "2006", "Comedy"],
}
