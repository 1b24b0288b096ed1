"""Seeded synthetic inputs for the kg-reason benchmark.

Two generators, each a pure function of its seed and sizes:

* ``factkg``: a typed graph shaped like FactKG's DBpedia slice (Kim et al.
  2023, arXiv 2305.06590). Every relation has a domain and a range type,
  endpoints are drawn Zipf-skewed inside their type, so a few hubs carry
  thousands of edges. Claims cover the five FactKG reasoning types in the
  proportions of FactKG's test split.
* ``metaqa``: an untyped movie graph shaped like MetaQA/WikiMovies (Zhang et
  al. 2018, arXiv 1709.04071) with its nine relations. Questions are an even
  1/2/3-hop mix over hub and leaf seeds, and a stated share of them reuses a
  seed (with its hop count) that an earlier question already asked.

The program under test sees only ``graph.tsv`` (and ``types.tsv``) through
``load_graph``. ``queries.jsonl`` holds each query with its gold verdict or
answer set and the decomposition the oracle backend replays. ``meta.json``
records the sizes. Run from the repository root::

    python3 kgbench/gen.py factkg --seed 1 --out /tmp/x --triples 20000 --queries 100
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import random
from collections import Counter, defaultdict
from pathlib import Path

# Claims per reasoning type in FactKG's test split (Kim et al. 2023), which
# the "reasoning" mix follows. Conjunctions have two or three parts (three
# or four entities), evenly; that split is a choice, not a FactKG figure.
FACTKG_TEST_SPLIT = {
    "one-hop": 1914, "conjunction": 3069, "existence": 870, "multi-hop": 1719, "negation": 1470,
}
VARIABLE = "something"
# Seeds the shape of the FactKG-like graph, which does not vary with --seed.
FACTKG_SHAPE_SEED = 1

TYPE_NAMES = (
    "Person", "Athlete", "Settlement", "Country", "Company", "Film", "Album",
    "Song", "Building", "Airport", "University", "SportsTeam", "Ship", "Book",
    "Politician", "Artist", "River", "Mountain", "Band", "Newspaper",
    "TelevisionShow", "Organisation", "Species", "Language", "Award", "Food",
    "Automobile", "Aircraft", "Stadium", "Museum", "Bridge", "Lake", "Island",
    "Journal", "Currency", "Religion", "MilitaryUnit", "Spacecraft", "Painting",
    "Festival",
)
_REL_HEADS = (
    "birth", "death", "home", "main", "former", "current", "founding", "parent",
    "leader", "owner", "record", "capital", "chief", "head", "resting", "alma",
)
_REL_TAILS = (
    "Place", "Date", "Team", "Club", "Name", "Company", "Country", "City",
    "Region", "Label", "Builder", "Operator", "Location", "Language", "Genre",
    "Award", "Party", "School", "Designer", "Owner",
)
_SYLLABLES = (
    "ka", "lo", "mi", "ren", "ta", "vo", "sel", "dar", "ni", "qu", "bra", "tor",
    "el", "an", "ost", "ri", "mun", "pa", "gel", "zi", "cor", "ul", "fen", "hal",
    "is", "ber", "ok", "sta", "vin", "ada", "lem", "tus", "ro", "gan", "ye", "phi",
)

class Labels:
    """Unique, case-insensitively distinct labels made of pseudo-words."""

    WORDS = [
        "".join(parts).capitalize()
        for n in (2, 3)
        for parts in itertools.product(_SYLLABLES, repeat=n)
    ]

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set[str] = set()

    def make(self, words: int, reserved: set[str] = frozenset()) -> str:
        while True:
            label = " ".join(self.rng.choices(self.WORDS, k=words))
            key = label.casefold()
            if key not in self.seen and key not in reserved:
                self.seen.add(key)
                return label


def _zipf_cum(n: int, offset: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (i + offset) for i in range(n)))


def _apportion(total: int, weights: list[float]) -> list[int]:
    """Largest-remainder split of ``total`` by ``weights``; every share >= 1."""
    s = sum(weights)
    raw = [total * w / s for w in weights]
    counts = [max(1, int(x)) for x in raw]
    order = sorted(range(len(raw)), key=lambda i: raw[i] - int(raw[i]), reverse=True)
    for i in order[: max(0, total - sum(counts))]:
        counts[i] += 1
    return counts


def _pick(rng: random.Random, items: list, cum: list[float]):
    return items[bisect.bisect_left(cum, rng.random() * cum[-1])]


class Graph:
    """Generator-side adjacency over label triples."""

    def __init__(self, triples: list[tuple[str, str, str]]):
        self.set = set(triples)
        self.adj: dict[str, list[tuple[str, str, str]]] = defaultdict(list)
        self.heads: dict[str, list[str]] = defaultdict(list)
        self.tails: dict[str, list[str]] = defaultdict(list)
        for t in triples:
            h, r, tl = t
            self.adj[h].append(t)
            self.adj[tl].append(t)
            self.heads[r].append(h)
            self.tails[r].append(tl)

    def degree(self, e: str) -> int:
        return len(self.adj.get(e, ()))

    def neighbors(self, e: str, relation: str) -> set[str]:
        return {h if tl == e else tl for h, r, tl in self.adj.get(e, ()) if r == relation}


def _write_tsv(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8") as out:
        out.writelines("\t".join(row) + "\n" for row in rows)


def _write_queries(path: Path, queries: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as out:
        for q in queries:
            out.write(json.dumps(q, ensure_ascii=False) + "\n")


# --- FactKG-like ------------------------------------------------------------


def factkg(seed: int, out: Path, triples: int, queries: int, mix: str = "reasoning") -> dict:
    """Typed hub-skewed graph plus claims; ``mix`` is ``reasoning`` (the five
    FactKG reasoning types, weighted as ``FACTKG_TEST_SPLIT``) or
    ``subsentences`` (1, 2 or 3 sub-sentences, evenly).

    The seed draws the entity names, and so every label and claim text. The
    shape (degrees, edges, types, and the triples the claims are built on)
    comes from ``FACTKG_SHAPE_SEED`` and is the same for every seed, so that
    every seed asks the program for the same work and the spread between
    seeds is the host's alone."""
    rng = random.Random(FACTKG_SHAPE_SEED)
    n_types = len(TYPE_NAMES)
    n_relations = 200
    n_entities = max(n_types * 4, triples * 2 // 5)
    labels = Labels(random.Random(seed))
    reserved = {t.casefold() for t in TYPE_NAMES} | {VARIABLE}
    type_sizes = _apportion(n_entities, [1.0 / (i + 2) for i in range(n_types)])
    members: list[list[str]] = []
    member_cum: list[list[float]] = []
    entity_types: dict[str, list[str]] = {}
    for t, size in enumerate(type_sizes):
        ents = [labels.make(2, reserved) for _ in range(size)]
        members.append(ents)
        member_cum.append(_zipf_cum(size, 1.5))
        for e in ents:
            entity_types[e] = [TYPE_NAMES[t]]
    for e, ts in entity_types.items():
        if rng.random() < 0.25:
            extra = TYPE_NAMES[rng.randrange(n_types)]
            if extra not in ts:
                ts.append(extra)
    rel_names = [a + b for a, b in itertools.product(_REL_HEADS, _REL_TAILS)]
    rng.shuffle(rel_names)
    rel_names = rel_names[:n_relations]
    # Domain and range types follow from the relation's frequency rank; the
    # 40 most frequent relations join the 10 largest types.
    domains = [j % 10 if j < 40 else (j * 7) % n_types for j in range(n_relations)]
    ranges = [(j * 3 + 1) % 10 if j < 40 else (j * 11 + 3) % n_types for j in range(n_relations)]
    per_rel = _apportion(triples, [1.0 / (j + 3) for j in range(n_relations)])
    found: set[tuple[str, str, str]] = set()
    ordered: list[tuple[str, str, str]] = []
    for j, rel in enumerate(rel_names):
        want, tries = per_rel[j], 0
        d, r = domains[j], ranges[j]
        while want and tries < 8:
            heads = rng.choices(members[d], cum_weights=member_cum[d], k=want)
            tails = rng.choices(members[r], cum_weights=member_cum[r], k=want)
            for h, tl in zip(heads, tails):
                t = (h, rel, tl)
                if h != tl and t not in found:
                    found.add(t)
                    ordered.append(t)
                    want -= 1
            tries += 1
    rng.shuffle(ordered)
    g = Graph(ordered)
    used = {e for t in ordered for e in (t[0], t[2])}
    type_rows = [(e, t) for e in sorted(used) for t in entity_types[e]]
    type_rel: dict[str, set[str]] = defaultdict(set)
    for h, r, tl in ordered:
        for e in (h, tl):
            for t in entity_types[e]:
                type_rel[t].add(r)

    builder = _ClaimBuilder(rng, g, entity_types, type_rel)
    if mix == "reasoning":
        plan = _weighted_plan(FACTKG_TEST_SPLIT, queries)
    else:
        plan = [("one-hop", "conjunction", "conjunction")[i % 3] for i in range(queries)]
    # Anchor triples are ranked by the degree of their busier endpoint and
    # picked at golden-ratio quantiles of that ranking: every prefix of the
    # claim list spans light and hub claims evenly, so any timed window sees
    # the same spread of claim cost.
    degree = Counter(e for t in ordered for e in (t[0], t[2]))
    order = sorted(range(len(ordered)), key=lambda i: max(degree[ordered[i][0]], degree[ordered[i][2]]))
    claims: list[dict] = []
    slot: Counter = Counter()
    offset = {kind: rng.random() for kind in sorted(set(plan))}
    for n, kind in enumerate(plan):
        supported = (slot[kind] % 2) == 0
        if mix == "reasoning":
            parts = 2 + (slot[kind] // 2) % 2
        else:
            parts = 2 + n % 3 // 2
        u = (offset[kind] + slot[kind] * 0.6180339887498949) % 1.0
        slot[kind] += 1
        start = int(u * len(order))
        for attempt in range(200):
            base = ordered[order[(start + attempt * 7919) % len(order)]]
            claim = builder.build(kind, base, supported, parts)
            if claim is not None:
                claims.append(claim)
                break
        else:
            raise RuntimeError(f"could not build a {kind} claim")
    for i, c in enumerate(claims):
        c["id"] = i

    out.mkdir(parents=True, exist_ok=True)
    _write_tsv(out / "graph.tsv", ordered)
    _write_tsv(out / "types.tsv", type_rows)
    _write_queries(out / "queries.jsonl", claims)
    meta = {
        "kind": "factkg",
        "seed": seed,
        "triples": len(ordered),
        "entities": len(used),
        "relations": len({t[1] for t in ordered}),
        "types": len({t for _, t in type_rows}),
        "top_hub_degree": degree.most_common(1)[0][1],
        "queries": len(claims),
        "reasoning_mix": dict(sorted(Counter(c["type"] for c in claims).items())),
        "subsentence_mix": _sub_mix(claims),
        "supported_share": round(sum(c["label"] == "Supported" for c in claims) / len(claims), 4),
        "repeated_seed_share": 0.0,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    return meta


def _weighted_plan(weights: dict[str, int], n: int) -> list[str]:
    """``n`` kinds in proportion to ``weights``, spread so that every prefix
    keeps the proportions (smooth weighted round-robin)."""
    total = sum(weights.values())
    credit = dict.fromkeys(weights, 0)
    plan = []
    for _ in range(n):
        for kind, weight in weights.items():
            credit[kind] += weight
        pick = max(credit, key=credit.get)
        credit[pick] -= total
        plan.append(pick)
    return plan


def _sub_mix(queries: list[dict]) -> dict[str, int]:
    return {str(k): v for k, v in sorted(Counter(len(q["subs"]) for q in queries).items())}


def _sub(text: str, entities: list[str], relation: str) -> dict:
    return {"text": text, "entities": entities, "relation": relation}


class _ClaimBuilder:
    """Builds one claim of a reasoning type around a base triple.

    Refuted (and negated-supported) claims swap one endpoint for an entity
    that carries the same relation, so the candidate pool stays non-empty
    and the verdict, not an empty intersection, decides.
    """

    def __init__(self, rng, g: Graph, entity_types, type_rel):
        self.rng, self.g = rng, g
        self.entity_types, self.type_rel = entity_types, type_rel

    def build(self, kind: str, base, supported: bool, parts: int) -> dict | None:
        """``parts`` is the number of parts of a conjunction."""
        if kind == "conjunction":
            return self._conjunction(base, supported, parts)
        return getattr(self, "_" + kind.replace("-", "_"))(base, supported)

    def _corrupt(self, t, swap_tail: bool = True, avoid: set[str] = frozenset()):
        """A triple like ``t`` with one endpoint replaced so it is absent."""
        h, r, tl = t
        pool = self.g.tails[r] if swap_tail else self.g.heads[r]
        for _ in range(30):
            cand = self.rng.choice(pool)
            new = (h, r, cand) if swap_tail else (cand, r, tl)
            if cand not in (h, tl) and cand not in avoid and new not in self.g.set:
                return new
        return None

    def _claim(self, kind, text, entities, subs, check, label, negated=False):
        return {
            "kind": "claim", "type": kind, "text": text, "entities": entities,
            "label": label, "subs": subs, "check": [list(c) for c in check],
            "negated": negated,
        }

    def _one_hop(self, base, supported):
        t = base if supported else self._corrupt(base)
        if t is None:
            return None
        text = f"{t[0]} has {t[1]} {t[2]}."
        return self._claim("one-hop", text, [t[0], t[2]], [_sub(text, [t[0], t[2]], t[1])],
                           [t], "Supported" if supported else "Refuted")

    def _negation(self, base, supported):
        # A negated claim holds exactly when its triple is absent.
        t = self._corrupt(base) if supported else base
        if t is None:
            return None
        text = f"{t[0]} does not have {t[1]} {t[2]}."
        return self._claim("negation", text, [t[0], t[2]], [_sub(text, [t[0], t[2]], t[1])],
                           [t], "Supported" if supported else "Refuted", negated=True)

    def _conjunction(self, base, supported, parts: int):
        anchor = base[0] if self.rng.random() < 0.5 else base[2]
        others = [t for t in self.g.adj[anchor] if t != base]
        if len(others) < parts - 1:
            return None
        picked = [base] + self.rng.sample(others, parts - 1)
        ends = [t[2] if t[0] == anchor else t[0] for t in picked]
        if len(set(ends)) != parts or anchor in ends:
            return None
        if not supported:
            t = picked[-1]
            bad = self._corrupt(t, swap_tail=t[0] == anchor, avoid=set(ends) | {anchor})
            if bad is None:
                return None
            picked[-1] = bad
            ends[-1] = bad[2] if bad[0] == anchor else bad[0]
        subs = [_sub(f"{t[0]} has {t[1]} {t[2]}.", [anchor, e], t[1]) for t, e in zip(picked, ends)]
        text = " and ".join(s["text"][:-1] for s in subs) + "."
        return self._claim("conjunction", text, [anchor] + ends, subs, picked,
                           "Supported" if supported else "Refuted")

    def _existence(self, base, supported):
        h, r, tl = base
        anchor, other = (h, tl) if self.rng.random() < 0.5 else (tl, h)
        if supported:
            type_label, check = self.entity_types[other][0], base
        else:
            near = set()
            for e in self.g.neighbors(anchor, r):
                near.update(self.entity_types[e])
            choices = sorted(t for t, rels in self.type_rel.items() if r in rels and t not in near)
            if not choices:
                return None
            type_label = self.rng.choice(choices)
            stand_in = f"some {type_label}"
            check = (anchor, r, stand_in) if anchor == h else (stand_in, r, anchor)
        text = f"{anchor} has {r} some {type_label}."
        return self._claim("existence", text, [anchor, type_label],
                           [_sub(text, [anchor, type_label], r)], [check],
                           "Supported" if supported else "Refuted")

    def _multi_hop(self, base, supported):
        first = base
        a, m = (first[0], first[2]) if self.rng.random() < 0.5 else (first[2], first[0])
        seconds = [t for t in self.g.adj[m] if t != first and a not in (t[0], t[2])]
        if not seconds:
            return None
        second = self.rng.choice(seconds)
        b = second[2] if second[0] == m else second[0]
        if not supported:
            r1, r2 = first[1], second[1]
            reachable = set()
            for mid in self.g.neighbors(a, r1):
                reachable |= self.g.neighbors(mid, r2)
            bad = self._corrupt(second, swap_tail=second[0] == m, avoid=reachable | {a})
            if bad is None:
                return None
            second = bad
            b = second[2] if second[0] == m else second[0]
        s1 = _sub(f"{a} has {first[1]} {VARIABLE}.", [a, VARIABLE], first[1])
        s2 = _sub(f"{VARIABLE} has {second[1]} {b}.", [VARIABLE, b], second[1])
        text = f"{a} has {first[1]} {VARIABLE} that has {second[1]} {b}."
        return self._claim("multi-hop", text, [a, b], [s1, s2], [first, second],
                           "Supported" if supported else "Refuted")


# --- MetaQA-like -----------------------------------------------------------

# (hops, seed kind, path of (relation, direction), question template). "out"
# follows movie -> attribute, "in" goes back from the attribute to movies.
# Movie-seeded 2-hop questions bind genre hubs after their first hop and cost
# ten times the person-seeded ones; with 2 of 8 such templates the cheap
# questions are ~58% of the mix, which keeps the latency median off the gap
# between the two groups.
QA_TEMPLATES = (
    (1, "movie", (("directed_by", "out"),), "who directed [{}]?"),
    (1, "movie", (("starred_actors", "out"),), "who acted in [{}]?"),
    (1, "movie", (("has_genre", "out"),), "what genre is [{}]?"),
    (1, "person", (("starred_actors", "in"),), "what films did [{}] act in?"),
    (1, "person", (("written_by", "in"),), "what did [{}] write?"),
    (2, "movie", (("directed_by", "out"), ("directed_by", "in")), "which films share the director of [{}]?"),
    (2, "movie", (("starred_actors", "out"), ("starred_actors", "in")), "which films share actors with [{}]?"),
    (2, "person", (("written_by", "in"), ("has_genre", "out")), "what genres are the films written by [{}] in?"),
    (2, "person", (("starred_actors", "in"), ("release_year", "out")), "when did the films starred by [{}] release?"),
    (2, "person", (("directed_by", "in"), ("starred_actors", "out")), "who acted in the films directed by [{}]?"),
    (2, "person", (("directed_by", "in"), ("in_language", "out")), "what languages are the films directed by [{}] in?"),
    (2, "person", (("starred_actors", "in"), ("directed_by", "out")), "who directed the films starred by [{}]?"),
    (2, "person", (("written_by", "in"), ("release_year", "out")), "when were the films written by [{}] released?"),
    (3, "movie", (("written_by", "out"), ("written_by", "in"), ("directed_by", "out")),
     "who directed the films written by the writer of [{}]?"),
    (3, "movie", (("starred_actors", "out"), ("starred_actors", "in"), ("has_genre", "out")),
     "what genres are the films that share actors with [{}]?"),
    (3, "person", (("directed_by", "in"), ("starred_actors", "out"), ("starred_actors", "in")),
     "which films star the actors of films directed by [{}]?"),
    (3, "person", (("starred_actors", "in"), ("directed_by", "out"), ("directed_by", "in")),
     "which films share directors with the films starred by [{}]?"),
)
_QA_VARIABLES = ("the films", "the people", "the things")


# Share of questions that reuse a seed (and hop count) asked earlier.
REPEAT_SHARE = 0.3


def metaqa(seed: int, out: Path, triples: int, queries: int) -> dict:
    """Untyped movie graph with the nine MetaQA relations plus questions."""
    rng = random.Random(seed)
    labels = Labels(rng)
    per_movie = {
        "directed_by": 1.1, "written_by": 1.3, "starred_actors": 2.6, "release_year": 1.0,
        "in_language": 0.6, "has_tags": 1.2, "has_genre": 1.2, "has_imdb_votes": 0.4,
        "has_imdb_rating": 0.4,
    }
    n_movies = max(20, int(triples / sum(per_movie.values())))
    n_people = max(20, n_movies * 6 // 5)
    movies = [labels.make(rng.choice((2, 3))) for _ in range(n_movies)]
    people = [labels.make(2) for _ in range(n_people)]
    attr = {
        "release_year": [str(y) for y in range(2020, 1920, -1)],
        "in_language": [labels.make(1) for _ in range(40)],
        "has_tags": [labels.make(1).lower() for _ in range(max(10, n_movies // 8))],
        "has_genre": [labels.make(1) for _ in range(24)],
        "has_imdb_votes": ["famous", "popular", "unknown", "obscure"],
        # 0.1-step ratings, most common near 6.5
        "has_imdb_rating": [f"{x / 10:.1f}" for x in sorted(range(10, 100), key=lambda x: abs(x - 65))],
    }
    for rel in ("directed_by", "written_by", "starred_actors"):
        attr[rel] = people
    # Zipf offsets: the most prolific person has about a hundred films; the
    # largest language holds ~16% of the language edges, the largest genre
    # ~8% of the genre edges, the busiest year ~3%.
    offsets = {"directed_by": 150.0, "written_by": 150.0, "starred_actors": 150.0, "release_year": 20.0,
               "in_language": 2.0, "has_tags": 10.0, "has_genre": 12.0, "has_imdb_rating": 20.0}
    cum = {rel: _zipf_cum(len(vals), offsets.get(rel, 1.5)) for rel, vals in attr.items()}
    found: set[tuple[str, str, str]] = set()
    ordered: list[tuple[str, str, str]] = []
    for m in movies:
        for rel, mean in per_movie.items():
            n = int(mean) + (rng.random() < mean - int(mean))
            for _ in range(n):
                t = (m, rel, _pick(rng, attr[rel], cum[rel]))
                if t not in found:
                    found.add(t)
                    ordered.append(t)
    rng.shuffle(ordered)
    g = Graph(ordered)

    seedable = {"movie": [m for m in movies if g.degree(m)],
                "person": [p for p in people if g.degree(p)]}
    # Hub seeds sit between the 95th and 99th degree percentile of movies and
    # people (the extreme head is left out so every seed's hubs are alike);
    # leaf seeds sit at or below the median.
    ranked = sorted(seedable["movie"] + seedable["person"], key=g.degree)
    n = len(ranked)
    classes = {e: "leaf" for e in ranked[: n // 2]}
    classes.update((e, "hub") for e in ranked[n * 95 // 100: n * 99 // 100])
    kind_of = {e: k for k, es in seedable.items() for e in es}
    pools = {(k, c): [e for e in es if classes.get(e) == c]
             for k, es in seedable.items() for c in ("hub", "leaf")}

    def answers(seed_label: str, path) -> list[str]:
        frontier = {seed_label}
        for rel, direction in path:
            nxt: set[str] = set()
            for e in frontier:
                for h, r, tl in g.adj.get(e, ()):
                    if r == rel and (h == e if direction == "out" else tl == e):
                        nxt.add(tl if direction == "out" else h)
            frontier = nxt
        frontier.discard(seed_label)
        return sorted(frontier)

    def question(template, seed_label: str, seed_class: str, repeat: bool) -> dict | None:
        hops, _, path, pattern = template
        gold = answers(seed_label, path)
        if not gold:
            return None
        names = [seed_label] + list(_QA_VARIABLES[:hops])
        subs = []
        for i, (rel, direction) in enumerate(path):
            src, dst = names[i], names[i + 1]
            head, tail = (src, dst) if direction == "out" else (dst, src)
            subs.append(_sub(f"{head} {rel} {tail}.", [src, dst], rel))
        asked = pattern.format(seed_label)
        return {
            "kind": "question", "question": asked, "text": asked.replace("[", "").replace("]", ""),
            "seed": seed_label, "hops": hops, "seed_class": seed_class, "repeat": repeat,
            "answers": gold, "subs": subs,
        }

    by_hops = defaultdict(list)
    for tpl in QA_TEMPLATES:
        by_hops[tpl[0]].append(tpl)
    out_q: list[dict] = []
    asked: list[tuple[str, int, str]] = []
    seen: set[tuple[str, int]] = set()
    fresh_by_hops: Counter = Counter()
    while len(out_q) < queries:
        hops = len(out_q) % 3 + 1
        q = None
        if asked and rng.random() < REPEAT_SHARE:
            same = [a for a in asked if a[1] == hops]
            if same:
                seed_label, _, seed_class = rng.choice(same)
                tpls = [t for t in by_hops[hops] if t[1] == kind_of[seed_label]]
                rng.shuffle(tpls)
                for tpl in tpls:
                    q = question(tpl, seed_label, seed_class, True)
                    if q is not None:
                        break
        if q is None:
            # Round-robin over (template, seed class) per hop count, so every
            # seed gets the same mix of question shapes.
            tpls = by_hops[hops]
            turn = fresh_by_hops[hops]
            fresh_by_hops[hops] += 1
            for t in range(turn, turn + 2 * len(tpls)):
                tpl = tpls[t % len(tpls)]
                seed_class = ("hub", "leaf")[(t // len(tpls)) % 2]
                pool = pools[(tpl[1], seed_class)]
                for _ in range(50 if pool else 0):
                    seed_label = rng.choice(pool)
                    if (seed_label, hops) not in seen:
                        q = question(tpl, seed_label, seed_class, False)
                        if q is not None:
                            break
                if q is not None:
                    break
            else:
                raise RuntimeError(f"could not build a {hops}-hop question")
            asked.append((seed_label, hops, seed_class))
            seen.add((seed_label, hops))
        q["id"] = len(out_q)
        out_q.append(q)

    out.mkdir(parents=True, exist_ok=True)
    _write_tsv(out / "graph.tsv", ordered)
    _write_queries(out / "queries.jsonl", out_q)
    degrees = Counter(e for t in ordered for e in (t[0], t[2]))
    meta = {
        "kind": "metaqa",
        "seed": seed,
        "triples": len(ordered),
        "entities": len(degrees),
        "relations": len({t[1] for t in ordered}),
        "types": 0,
        "top_hub_degree": degrees.most_common(1)[0][1],
        "queries": len(out_q),
        "hop_mix": {str(h): sum(q["hops"] == h for q in out_q) for h in (1, 2, 3)},
        "subsentence_mix": _sub_mix(out_q),
        "hub_seed_share": round(sum(q["seed_class"] == "hub" for q in out_q) / len(out_q), 4),
        "repeated_seed_share": round(sum(q["repeat"] for q in out_q) / len(out_q), 4),
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    return meta


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("kind", choices=("factkg", "metaqa"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--triples", type=int, required=True)
    ap.add_argument("--queries", type=int, required=True)
    ap.add_argument("--mix", choices=("reasoning", "subsentences"), default="reasoning")
    args = ap.parse_args(argv)
    out = Path(args.out)
    if args.kind == "factkg":
        meta = factkg(args.seed, out, args.triples, args.queries, args.mix)
    else:
        meta = metaqa(args.seed, out, args.triples, args.queries)
    print(json.dumps(meta))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
