"""Child-process entry points, so that the CPU time and peak memory of a
measurement belong to kgcqr alone.

``worker.py cli [--trace-out F] -- ARGS`` runs ``kgcqr ARGS`` (the CLI),
optionally under the tracer.

``worker.py queries SPEC OUT [--trace-out F]`` loads a ``Runtime`` several
times, then sends a fixed, ordered query list through ``Runtime.retrieve``
in a closed loop, and writes per-query timings and outputs to OUT.
"""

from __future__ import annotations

import argparse
import gc
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _tracer(path: str | None):
    if not path:
        return None
    sys.path.insert(0, str(HERE))
    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer)
    return tracer


def _interrupt(*_) -> None:
    raise KeyboardInterrupt


def run_cli(args: argparse.Namespace) -> int:
    tracer = _tracer(args.trace_out)
    from kgcqr.cli import main

    # `kgcqr serve` stops cleanly on KeyboardInterrupt; SIGTERM is how the
    # benchmark stops it, and the trace is written after it returns.
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return main(args.rest)
    finally:
        if tracer:
            tracer.dump(args.trace_out)


def run_queries(args: argparse.Namespace) -> int:
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    tracer = _tracer(args.trace_out)
    from kgcqr.config import load_config
    from kgcqr.metrics import EvalRecord, evaluate
    from kgcqr.runtime import Runtime

    cfg = load_config(spec["config"])
    setup_s = []
    for _ in range(spec["loads"]):
        runtime = None
        gc.collect()
        t0 = time.perf_counter()
        runtime = Runtime.load(cfg, spec["mock"])
        setup_s.append(time.perf_counter() - t0)
    top_n = spec["top_n"] or len(runtime.doc_index)
    for query in spec["warmup"]:
        runtime.retrieve(query, top_n, retriever="dense")
    rows = []
    lag_ms = []
    cpu0 = time.process_time()
    wall0 = due = time.perf_counter()
    for qid, query in spec["queries"]:
        t0 = time.perf_counter()
        lag_ms.append((t0 - due) * 1000.0)
        result, ctx = runtime.retrieve(query, top_n, retriever="dense", query_id=qid)
        due = time.perf_counter()
        rows.append((qid, (due - t0) * 1000.0, result, ctx))
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    gold = {qid: set(docs) for qid, docs in spec["gold"].items()}
    report = evaluate(
        [r for _, _, r, _ in rows],
        [EvalRecord(qid, query, gold[qid]) for qid, query in spec["queries"]],
        ks=(25,),
    )
    out = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "lag_ms": lag_ms,
        "map": report.map,
        "recall_at_25": report.recall_at[25],
        "queries": [
            {
                "query_id": qid,
                "latency_ms": ms,
                "ranking": result.ranking,
                "context": ctx.context_text,
                "fused": ctx.fused_vector.tolist(),
                "subgraph": [e.triplet.bare() for e in ctx.subgraph],
                "extracted": ctx.trace["extract"]["triplets"],
                "added": ctx.trace["complete"]["added"],
                "stage_ms": sum(s["wall_ms"] for s in ctx.trace.values()),
            }
            for qid, ms, result, ctx in rows
        ],
    }
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")
    if tracer:
        tracer.dump(args.trace_out)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--trace-out")
    p.add_argument("rest", nargs=argparse.REMAINDER)
    p.set_defaults(func=run_cli)
    p = sub.add_parser("queries")
    p.add_argument("spec")
    p.add_argument("out")
    p.add_argument("--trace-out")
    p.set_defaults(func=run_queries)
    args = ap.parse_args()
    if getattr(args, "rest", None) and args.rest[0] == "--":
        args.rest = args.rest[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
