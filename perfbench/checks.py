"""Correctness checks, each computed apart from the program under test.

Every function returns a list of error strings; an empty list means the
output passed. Rankings are checked against a numpy brute force over
document rows embedded here, metrics against their textbook definitions,
built artifacts against the generator's planted facts, and the index file
against a reader of its documented layout.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

RANK_TOL = 1e-9
FUSE_TOL = 1e-6
ROW_TOL = 1e-6
METRIC_TOL = 1e-12


def embedder(dim: int, wire: bool):
    """The embedding kgcqr should hold for a text: ``mock_embed``, and when
    it crossed the HTTP boundary, renormalized there in float64 as the wire
    contract says."""
    from kgcqr.mocks import mock_embed

    def embed(text: str) -> np.ndarray:
        v = mock_embed(text, dim).values
        if wire:
            a = v.astype(np.float64)
            v = (a / np.linalg.norm(a)).astype(np.float32)
        return v

    return embed


class DocRows:
    """Document vectors for brute-force ranking, ordered by (-score, doc_id)."""

    def __init__(self, ids: list[str], rows: np.ndarray):
        self.ids = ids
        self.rows = rows.astype(np.float64)
        self.pos = {d: i for i, d in enumerate(ids)}
        self.id_rank = np.empty(len(ids), dtype=np.int64)
        self.id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))

    def check(self, vec, ranking, k: int) -> list[str]:
        """``ranking`` ([(doc_id, score)]) must be the top ``k`` of the brute
        force: same ids in the same order, scores within RANK_TOL. Entries
        whose reference scores differ by at most RANK_TOL may swap."""
        scores = self.rows @ np.asarray(vec, dtype=np.float64)
        order = np.lexsort((self.id_rank, -scores))[: min(k, len(self.ids))]
        errors = []
        got = [d for d, _ in ranking]
        if len(set(got)) != len(got):
            errors.append("ranking repeats a doc_id")
        if len(got) != len(order):
            errors.append(f"ranking has {len(got)} entries, expected {len(order)}")
        for i, (doc, score) in enumerate(ranking):
            j = self.pos.get(doc)
            if j is None:
                errors.append(f"rank {i}: unknown doc_id {doc!r}")
                continue
            if abs(score - scores[j]) > RANK_TOL:
                errors.append(f"rank {i}: score {score!r} != brute force {scores[j]!r} for {doc}")
            if i < len(order):
                e = order[i]
                if e != j and not (0 < abs(scores[e] - scores[j]) <= RANK_TOL):
                    errors.append(f"rank {i}: got {doc}, brute force has {self.ids[e]}")
        return errors[:5]


def expected_fused(query: str, context: str, alpha: float, embed) -> np.ndarray:
    """alpha*E(query) + (1-alpha)*E(context); E(query) alone when the
    context is empty."""
    v_q = embed(query).astype(np.float64)
    return alpha * v_q + (1.0 - alpha) * embed(context).astype(np.float64) if context else v_q


def fused_errors(fused, query: str, context: str, alpha: float, embed) -> list[str]:
    expected = expected_fused(query, context, alpha, embed)
    err = float(np.max(np.abs(np.asarray(fused, dtype=np.float64) - expected)))
    return [] if err <= FUSE_TOL else [f"fused vector off by {err:.3g}"]


def subgraph_errors(subgraph, planted: set, extracted: int, added: int, k_complete: int) -> list[str]:
    errors = []
    bare = [tuple(t) for t in subgraph]
    foreign = [t for t in bare if t not in planted]
    if foreign:
        errors.append(f"subgraph holds triplets never planted: {foreign[:2]}")
    if len(set(bare)) != len(bare):
        errors.append("subgraph repeats a triplet")
    if added > k_complete or len(bare) > extracted + added:
        errors.append(f"completion added {added} (K={k_complete}) to {extracted} extracted, size {len(bare)}")
    return errors


def literal_metrics(rankings: dict[str, list[str]], gold: dict[str, set[str]], k: int = 25):
    """mAP and recall@k straight from their definitions."""
    ap_sum = recall_sum = 0.0
    for qid, relevant in gold.items():
        hits, precisions = 0, []
        for rank, doc in enumerate(rankings[qid], start=1):
            if doc in relevant:
                hits += 1
                precisions.append(hits / rank)
        ap_sum += sum(precisions) / len(relevant)
        recall_sum += len(relevant.intersection(rankings[qid][:k])) / len(relevant)
    return ap_sum / len(gold), recall_sum / len(gold)


def metric_errors(name: str, program: float, literal: float) -> list[str]:
    if abs(program - literal) <= METRIC_TOL:
        return []
    return [f"{name}: program {program!r} != literal {literal!r}"]


def ttr_sentence(fact) -> str:
    head, rel, tail = fact
    return f"{head} {rel.replace('_', ' ')} {tail}."


def graph_errors(records: list[dict], facts: list, first_source: dict) -> list[str]:
    """The built triplets are the distinct planted facts, each once, with the
    stand-in's ttr sentence and its first source document."""
    errors = []
    built = [(r["head"], r["relation"], r["tail"]) for r in records]
    planted = set(facts)
    if len(set(built)) != len(built):
        errors.append("built graph repeats a triplet")
    dropped = planted - set(built)
    foreign = set(built) - planted
    if dropped:
        errors.append(f"{len(dropped)} planted facts missing, e.g. {sorted(dropped)[0]}")
    if foreign:
        errors.append(f"{len(foreign)} foreign triplets, e.g. {sorted(foreign)[0]}")
    for r, t in zip(records, built):
        if t in planted and r["ttr"] != ttr_sentence(t):
            errors.append(f"ttr of {t} is {r['ttr']!r}")
            break
        if t in planted and r["source_doc_id"] != first_source[t]:
            errors.append(f"source of {t} is {r['source_doc_id']}, expected {first_source[t]}")
            break
    return errors


def read_triplets(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_index(path: Path) -> tuple[int, list[str], np.ndarray]:
    """Parse the index layout: magic, u32 version, u32 dim, u64 count, then
    per entry a u32 key length, the key and dim float32 values."""
    data = path.read_bytes()
    magic, _version, dim, count = struct.unpack_from("<8sIIQ", data, 0)
    if magic != b"KGCQRIX1":
        raise ValueError(f"{path}: bad magic {magic!r}")
    offset, keys = 24, []
    rows = np.empty((count, dim), dtype=np.float32)
    for i in range(count):
        (klen,) = struct.unpack_from("<I", data, offset)
        keys.append(data[offset + 4 : offset + 4 + klen].decode("utf-8"))
        offset += 4 + klen
        rows[i] = np.frombuffer(data, dtype="<f4", count=dim, offset=offset)
        offset += 4 * dim
    return dim, keys, rows


def index_errors(keys: list[str], rows: np.ndarray, expected: dict[str, str], embed, sample=None) -> list[str]:
    """Keys equal the expected ones (key -> text embedded); rows equal the
    embedding of their text within float32 tolerance, on ``sample`` keys
    or all of them."""
    errors = []
    if sorted(keys) != sorted(expected):
        missing = set(expected) - set(keys)
        extra = set(keys) - set(expected)
        errors.append(f"index keys differ: {len(missing)} missing, {len(extra)} extra")
        return errors
    pos = {k: i for i, k in enumerate(keys)}
    for key in sample if sample is not None else keys:
        err = float(np.max(np.abs(rows[pos[key]] - embed(expected[key]))))
        if err > ROW_TOL:
            errors.append(f"index row for {key!r} off by {err:.3g}")
            break
    return errors


def reply_errors(status: int, payload: dict | None, top_n: int, n_docs: int) -> list[str]:
    """An HTTP /retrieve reply: 200, top_n unique doc ids, scores not rising."""
    if status != 200 or payload is None:
        return [f"HTTP {status}"]
    ranking = payload.get("ranking", [])
    ids = [r["doc_id"] for r in ranking]
    scores = [r["score"] for r in ranking]
    errors = []
    if len(ids) != min(top_n, n_docs) or len(set(ids)) != len(ids):
        errors.append(f"{len(ids)} entries, {len(set(ids))} unique, expected {min(top_n, n_docs)}")
    if any(b > a for a, b in zip(scores, scores[1:])):
        errors.append("scores increase down the ranking")
    return errors


def accounting_errors(calls: dict, traces: list[dict]) -> list[str]:
    """For dense queries the stand-in must have seen one query embed, one
    judge call per extracted triplet, one generate call per non-empty
    subgraph and one context embed per non-empty context."""
    want_embed = sum(1 + bool(t["context"]) for t in traces)
    want_judge = sum(t["stages"]["extract"]["triplets"] for t in traces)
    want_generate = sum(1 for t in traces if t["subgraph"])
    errors = []
    for kind, want in (("embed", want_embed), ("judge", want_judge), ("generate", want_generate)):
        if calls.get(kind, 0) != want:
            errors.append(f"stand-in saw {calls.get(kind, 0)} {kind} calls, expected {want}")
    return errors
