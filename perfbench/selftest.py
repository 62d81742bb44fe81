"""Self-tests of the benchmark's checks: each is fed a right output, which it
must accept, and deliberately wrong ones, which it must reject.

Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import standin  # noqa: E402


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def _docs():
    inputs = gen.generate(7, gen.Sizes(entities=30, triplets=60, repeat_share=0.3, queries=5))
    embed = checks.embedder(64, wire=False)
    rows = checks.DocRows([d for d, _ in inputs.docs], np.stack([embed(t) for _, t in inputs.docs]))
    return inputs, embed, rows


def _top(rows: checks.DocRows, vec, k: int):
    scores = rows.rows @ vec
    order = sorted(range(len(rows.ids)), key=lambda i: (-scores[i], rows.ids[i]))[:k]
    return [(rows.ids[i], float(scores[i])) for i in order]


def test_ranking_check():
    inputs, embed, rows = _docs()
    vec = 0.7 * embed(inputs.queries[0][1]).astype(np.float64) + 0.3 * embed("context text").astype(np.float64)
    good = _top(rows, vec, 10)
    expect(rows.check(vec, good, 10) == [], "right ranking rejected")
    swapped = list(good)
    i = next(i for i in range(9) if good[i][1] != good[i + 1][1])
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    expect(rows.check(vec, swapped, 10), "swapped pair accepted")
    off = [(d, s + 1e-6) if n == 3 else (d, s) for n, (d, s) in enumerate(good)]
    expect(rows.check(vec, off, 10), "score off by 1e-6 accepted")
    expect(rows.check(vec, good[:-1] + [("nope", good[-1][1])], 10), "foreign doc accepted")
    expect(rows.check(vec, good[:-1] + [good[0]], 10), "repeated doc accepted")
    expect(rows.check(vec, good[:9], 10), "short ranking accepted")
    wrong = good[:9] + [_top(rows, vec, 11)[10]]
    expect(rows.check(vec, wrong, 10), "ranking missing the 10th doc accepted")


def test_fused_check():
    embed = checks.embedder(64, wire=True)
    q, ctx = "which party does x fund", "x funds y."
    fused = 0.7 * embed(q).astype(np.float64) + 0.3 * embed(ctx).astype(np.float64)
    expect(checks.fused_errors(fused, q, ctx, 0.7, embed) == [], "right fused vector rejected")
    expect(checks.fused_errors(fused + 1e-5, q, ctx, 0.7, embed), "perturbed fused vector accepted")
    expect(checks.fused_errors(fused, q, "", 0.7, embed), "fused vector of a dropped context accepted")


def test_subgraph_check():
    planted = {("a", "r", "b"), ("b", "r", "c")}
    expect(checks.subgraph_errors([("a", "r", "b")], planted, 1, 0, 20) == [], "right subgraph rejected")
    expect(checks.subgraph_errors([("a", "r", "x")], planted, 1, 0, 20), "foreign triplet accepted")
    expect(checks.subgraph_errors([("a", "r", "b"), ("b", "r", "c")], planted, 1, 1, 0), "added > K accepted")
    expect(checks.subgraph_errors([("a", "r", "b")] * 2, planted, 2, 0, 20), "repeated triplet accepted")


def test_metrics_check():
    gold = {"q1": {"g"}, "q2": {"g", "h"}}
    rankings = {"q1": ["x", "g"], "q2": ["g", "x", "y", "h"]}
    lit_map, lit_recall = checks.literal_metrics(rankings, gold, k=2)
    expect(abs(lit_map - (0.5 + (1.0 + 0.5) / 2) / 2) < 1e-15, f"literal map {lit_map}")
    expect(abs(lit_recall - (1.0 + 0.5) / 2) < 1e-15, f"literal recall {lit_recall}")
    expect(checks.metric_errors("map", lit_map, lit_map) == [], "equal map rejected")
    expect(checks.metric_errors("map", lit_map + 1e-9, lit_map), "map off by 1e-9 accepted")


def test_graph_check():
    inputs = gen.generate(3, gen.Sizes(entities=20, triplets=30, repeat_share=0.5, queries=3))
    records = [
        {"head": h, "relation": r, "tail": t, "ttr": checks.ttr_sentence((h, r, t)),
         "source_doc_id": inputs.first_source[(h, r, t)]}
        for h, r, t in inputs.facts
    ]
    ok = checks.graph_errors(records, inputs.facts, inputs.first_source)
    expect(ok == [], f"right graph rejected: {ok}")
    expect(checks.graph_errors(records[1:], inputs.facts, inputs.first_source), "dropped triplet accepted")
    foreign = records + [{"head": "A", "relation": "r", "tail": "B", "ttr": "A r B.", "source_doc_id": "doc00"}]
    expect(checks.graph_errors(foreign, inputs.facts, inputs.first_source), "foreign triplet accepted")
    bad_ttr = [dict(records[0], ttr="something else")] + records[1:]
    expect(checks.graph_errors(bad_ttr, inputs.facts, inputs.first_source), "wrong ttr accepted")
    repeat = next(f for d, fs in inputs.doc_facts.items() for f in fs if inputs.first_source[f] != d)
    later = next(d for d, fs in inputs.doc_facts.items() if repeat in fs and d != inputs.first_source[repeat])
    bad_src = [dict(r, source_doc_id=later) if (r["head"], r["relation"], r["tail"]) == repeat else r for r in records]
    expect(checks.graph_errors(bad_src, inputs.facts, inputs.first_source), "wrong source document accepted")


def test_index_reader_and_check():
    from kgcqr.providers import EmbeddingVector
    from kgcqr.vindex import VectorIndex

    embed = checks.embedder(64, wire=False)
    texts = {"d1": "alpha beta", "d2": "gamma delta", "dé": "epsilon"}
    ix = VectorIndex(64)
    for key, text in texts.items():
        ix.add(key, EmbeddingVector(embed(text)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.idx"
        ix.save(path)
        dim, keys, rows = checks.read_index(path)
    expect(dim == 64 and keys == list(texts), "index reader misread keys")
    expect(checks.index_errors(keys, rows, texts, embed) == [], "right index rejected")
    expect(checks.index_errors(keys, rows, dict(texts, d4="x"), embed), "missing key accepted")
    bad = rows.copy()
    bad[1, 0] += 1e-4
    expect(checks.index_errors(keys, bad, texts, embed), "row off by 1e-4 accepted")


def test_reply_and_accounting_checks():
    payload = {"ranking": [{"doc_id": "a", "score": 0.9}, {"doc_id": "b", "score": 0.5}]}
    expect(checks.reply_errors(200, payload, 2, 10) == [], "right reply rejected")
    expect(checks.reply_errors(503, payload, 2, 10), "503 accepted")
    expect(checks.reply_errors(200, payload, 3, 10), "short reply accepted")
    rising = {"ranking": [{"doc_id": "a", "score": 0.5}, {"doc_id": "b", "score": 0.9}]}
    expect(checks.reply_errors(200, rising, 2, 10), "rising scores accepted")
    twice = {"ranking": [{"doc_id": "a", "score": 0.9}, {"doc_id": "a", "score": 0.5}]}
    expect(checks.reply_errors(200, twice, 2, 10), "repeated doc accepted")
    traces = [
        {"context": "c", "subgraph": [1], "stages": {"extract": {"triplets": 3}}},
        {"context": "", "subgraph": [], "stages": {"extract": {"triplets": 0}}},
    ]
    right = {"embed": 3, "judge": 3, "generate": 1}
    expect(checks.accounting_errors(right, traces) == [], "right call counts rejected")
    expect(checks.accounting_errors(dict(right, judge=4), traces), "extra judge call accepted")
    expect(checks.accounting_errors(dict(right, generate=2), traces), "extra generate call accepted")
    expect(checks.accounting_errors(dict(right, embed=2), traces), "missing embed call accepted")


def test_http_ranking_check():
    """A wrong HTTP ranking (order or score) fails the brute-force check."""
    inputs, embed, rows = _docs()
    vec = embed(inputs.queries[1][1]).astype(np.float64)
    good = _top(rows, vec, 5)
    payload = {"ranking": [{"doc_id": d, "score": s} for d, s in reversed(good)]}
    got = [(r["doc_id"], r["score"]) for r in payload["ranking"]]
    expect(checks.reply_errors(200, payload, 5, 60) or rows.check(vec, got, 5), "reversed HTTP ranking accepted")


def test_standin_recovers_templates():
    from kgcqr.templates import TemplateSet

    templates = TemplateSet.load(Path.cwd() / "templates")
    patterns = standin.template_patterns(Path.cwd() / "templates")
    values = {"query": "q? {x}", "triplet": "a | r | b", "triplets": "a | r | b | a r b.\nc | s | d", "document": "doc\nline"}
    for tid, _ in patterns:
        tpl = templates.get(tid)
        req = tpl.request(**{k: values[k] for k in tpl.placeholders()})
        found = [(t, p.match(req.user_prompt)) for t, p in patterns if p.match(req.user_prompt)]
        expect(len(found) == 1 and found[0][0] == tid, f"template {tid} not recovered uniquely")
        expect(found[0][1].groupdict() == {k: values[k] for k in tpl.placeholders()}, f"placeholders of {tid}")
    expect(not any(p.match("free text") for _, p in patterns), "free text matched a template")


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {name}: {exc}")
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
