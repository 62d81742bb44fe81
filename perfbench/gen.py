"""Seeded synthetic inputs whose right answers are known.

Every document carries planted ``head | relation | tail`` lines, which the
mock extractor (and the stand-in, which answers with the same rules) passes
through unchanged. Some documents repeat a fact first planted in an earlier
document, so construction has duplicates to merge; the first source wins.
Each eval query is written from one fact that appears in exactly one
document, and that document is its gold.

The program only ever sees the files written by ``write``; the planted facts
and gold documents stay in the returned ``Inputs`` for the checks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

RELATIONS = (
    "founded", "acquired", "develops", "supplies", "funds", "audits",
    "partners_with", "located_in", "owns", "licenses", "operates",
    "maintains", "sponsors", "advises", "hosts", "trains", "insures",
    "designs", "distributes", "regulates", "inspects", "leases",
    "manufactures", "publishes", "supports", "rivals", "employs",
    "certifies", "exports_to", "imports_from", "mentors", "merged_with",
)
KINDS = (
    "Labs", "Systems", "Group", "Works", "Harbor", "Valley", "Institute",
    "Foundry", "Collective", "Alliance", "Studio", "Council", "Port",
    "Guild", "Networks", "Holdings",
)
TOPICS = (
    "logistics", "navigation", "weather", "finance", "shipping", "energy",
    "mapping", "robotics", "farming", "medicine", "textiles", "mining",
    "aviation", "software", "printing", "brewing", "forestry", "fishing",
)
_ONSETS = "b c d f g h j k l m n p r s t v w z br cr dr fl gr kr pl st tr".split()
_VOWELS = "a e i o u ai ea io ou".split()
DIM = 256  # embedding dimension of every config, and of the stand-in's embeddings


@dataclass(frozen=True)
class Sizes:
    entities: int
    triplets: int
    repeat_share: float  # share of documents that also repeat an earlier fact
    queries: int


@dataclass
class Inputs:
    docs: list[tuple[str, str]]  # (doc_id, text), corpus order
    facts: list[tuple[str, str, str]]  # distinct planted facts
    first_source: dict[tuple[str, str, str], str]
    queries: list[tuple[str, str, str]]  # (query_id, query, gold doc_id)
    doc_facts: dict[str, list[tuple[str, str, str]]]  # facts planted in each document

    def gold(self) -> dict[str, set[str]]:
        return {qid: {doc} for qid, _, doc in self.queries}


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(3)).capitalize()


def generate(seed: int, sizes: Sizes) -> Inputs:
    rng = random.Random(seed)
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < sizes.entities:
        word = _word(rng)
        if word.lower() in seen:
            continue
        seen.add(word.lower())
        names.append(f"{word} {rng.choice(KINDS)}")
    facts: list[tuple[str, str, str]] = []
    fact_set: set[tuple[str, str, str]] = set()
    # Heads take turns, so out-degrees differ by at most one and the cost
    # of a query depends little on which fact it was written from.
    while len(facts) < sizes.triplets:
        head = names[len(facts) % len(names)]
        tail = rng.choice(names)
        fact = (head, rng.choice(RELATIONS), tail)
        if tail != head and fact not in fact_set:
            fact_set.add(fact)
            facts.append(fact)
    rng.shuffle(facts)
    docs: list[tuple[str, str]] = []
    doc_facts: dict[str, list[tuple[str, str, str]]] = {}
    first_source: dict[tuple[str, str, str], str] = {}
    mentions: dict[tuple[str, str, str], int] = {}
    width = len(str(len(facts)))
    for i, fact in enumerate(facts):
        doc_id = f"doc{i:0{width}d}"
        planted = [fact]
        if i > 0 and rng.random() < sizes.repeat_share:
            planted.append(facts[rng.randrange(i)])
        head, rel, tail = fact
        prose = (
            f"Field notes on {rng.choice(TOPICS)} and {rng.choice(TOPICS)}: "
            f"{head} and {tail} appear together in this report, "
            f"filed under {rel.replace('_', ' ')}."
        )
        text = "\n".join([prose] + [f"{h} | {r} | {t}" for h, r, t in planted])
        docs.append((doc_id, text))
        doc_facts[doc_id] = planted
        for f in planted:
            first_source.setdefault(f, doc_id)
            mentions[f] = mentions.get(f, 0) + 1
    single = [f for f in facts if mentions[f] == 1]
    picked = rng.sample(single, min(sizes.queries, len(single)))
    out_tails: dict[str, list[str]] = {}
    for head, _, tail in facts:
        out_tails.setdefault(head, []).append(tail)
    short = lambda e: e.split()[0]  # noqa: E731
    verb = lambda r: r.replace("_", " ")  # noqa: E731
    queries = []
    for n, (head, rel, tail) in enumerate(picked):
        # A query names entities by their unique word and brings in another
        # neighbour of the head and one of the tail, so the judge keeps a
        # few triplets and completion has paths to search between them.
        x1 = rng.choice([t for t in out_tails[head] if t != tail] or [tail])
        x2 = rng.choice([t for t in out_tails.get(tail, []) if t != head] or [head])
        query = (
            f"Which party does {short(head)} {verb(rel)}, "
            f"and what ties {short(tail)} to {short(x1)} and {short(x2)}?"
        )
        queries.append((f"q{n:04d}", query, first_source[(head, rel, tail)]))
    return Inputs(docs, facts, first_source, queries, doc_facts)


def write_corpus(inputs: Inputs, path: Path) -> Path:
    with path.open("w", encoding="utf-8") as fh:
        for doc_id, text in inputs.docs:
            fh.write(json.dumps({"doc_id": doc_id, "text": text}) + "\n")
    return path


def write_eval(queries: list[tuple[str, str, str]], path: Path) -> Path:
    with path.open("w", encoding="utf-8") as fh:
        for qid, query, gold in queries:
            fh.write(json.dumps({"query_id": qid, "query": query, "relevant_doc_ids": [gold]}) + "\n")
    return path


def write_config(path: Path, root: Path, artifacts: Path, corpus: Path, base_url: str | None) -> Path:
    """A kgcqr config with the shipped parameter defaults and dim ``DIM``; the
    server listens on a free port, and without ``base_url`` the provider
    address is left at its default (for ``--mock`` runs)."""
    lines = [
        *([f"provider.base_url = {base_url}"] if base_url else []),
        f"provider.embedding_dim = {DIM}",
        f"paths.kg = {artifacts}",
        f"paths.doc_index = {artifacts / 'doc.idx'}",
        f"paths.ttr_index = {artifacts / 'ttr.idx'}",
        f"paths.templates_dir = {root / 'templates'}",
        f"paths.corpus = {corpus}",
        "server.bind_addr = 127.0.0.1",
        "server.port = 0",
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
