#!/usr/bin/env python3
"""kgcqr benchmark: three workloads, end-to-end metrics and a traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload query-20k --seed 1 --seconds 20 --trace 0

Workloads (each a fresh process tree; see README.md for the make-up):

* ``query-20k``: one caller, closed loop, ``Runtime.retrieve`` top-25 over a
  20k-triplet graph with the mock providers in-process. CPU-bound.
* ``serve-llm``: ``kgcqr serve`` against the provider stand-in, dense
  ``POST /retrieve`` at fixed offered rates (open loop), then a closed-loop
  burst. Provider-wait-bound.
* ``build-index``: ``kgcqr build-kg``, ``index`` and ``eval`` against the
  stand-in, then full rankings of the built artifacts in-process.

Every workload builds its artifacts with ``build-kg`` and ``index`` (each
REPEATS times), loads them LOADS times or more, runs a fixed, ordered query
list (``--seconds`` scales the count, never a time limit), runs ``kgcqr
eval`` and checks every output
against a computation made apart from the program. The last line of stdout
is one JSON object: end-to-end metrics with ``--trace 0``; with
``--trace 1`` the workload runs once untraced and once traced, and the
per-layer metrics come from the traced pass.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import standin  # noqa: E402

# Per untraced pass; the traced pass does each once, since its per-layer
# figures need no repeats and the run should not take twice as long.
REPEATS = 3  # runs of each CLI command; build_s, index_s and eval_s are their median
LOADS = 4  # Runtime loads (or server spawns); setup_s is their median
WARMUP = 5
TAIL_MIN = 11  # samples needed for a tail with ten beyond it
# Closed-loop queries per unit of --seconds (serve-llm: serve_counts).
QUERIES_PER_SECOND = {"query-20k": 4, "build-index": 3}
CONNECTIONS = os.cpu_count() or 2


class BenchError(Exception):
    """The run could not complete; no result is printed."""


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; needs at least TAIL_MIN samples, which ``main``
    ensures through ``samples``."""
    s = sorted(xs)
    assert len(s) >= TAIL_MIN, len(s)
    return s[len(s) - 11], 100.0 * (len(s) - 10) / len(s)


class Run:
    """One pass of a workload: its directory, its child processes, its tally."""

    def __init__(self, root: Path, work: Path, seed: int, seconds: int, traced: bool):
        self.root, self.work, self.seed, self.seconds, self.traced = root, work, seed, seconds, traced
        work.mkdir(parents=True, exist_ok=True)
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        self.env = dict(os.environ, PYTHONPATH=path)
        self.procs: list[subprocess.Popen] = []
        self.trace_files: list[Path] = []
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.notes: list[str] = []  # extra lines for the human-readable report
        self.layer: dict[str, float] = {}  # per-layer values measured outside kgcqr
        self.repeats = 1 if traced else REPEATS
        self.loads = 1 if traced else LOADS

    def check(self, label: str, errors: list[str]) -> None:
        self.errors.extend(f"{label}: {e}" for e in errors)

    def _argv(self, kgcqr_args: list[str], label: str) -> list[str]:
        if not self.traced:
            return [sys.executable, "-m", "kgcqr.cli", *kgcqr_args]
        out = self.work / f"trace-{label}.json"
        self.trace_files.append(out)
        return [sys.executable, str(HERE / "worker.py"), "cli", "--trace-out", str(out), "--", *kgcqr_args]

    def timed(self, argv: list[str], label: str) -> tuple[float, str]:
        """Run a child to completion; return its wall time and stdout."""
        self.attempted += 1
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, env=self.env, cwd=self.root, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.procs.append(p)
        try:
            out, err = p.communicate(timeout=170)
        except subprocess.TimeoutExpired:
            self.failed += 1
            raise BenchError(f"{label} did not finish within 170 s") from None
        wall = time.perf_counter() - t0
        self.procs.remove(p)
        if p.returncode != 0:
            self.failed += 1
            raise BenchError(f"{label} exited {p.returncode}: {err.decode(errors='replace')[-2000:]}")
        return wall, out.decode()

    def kgcqr(self, args: list[str], label: str) -> float:
        """Wall time of one run of a CLI command."""
        return self.timed(self._argv(args, label), label)[0]

    def spawn(self, argv: list[str]) -> subprocess.Popen:
        p = subprocess.Popen(argv, env=self.env, cwd=self.root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        self.procs.append(p)
        return p

    def stop(self, p: subprocess.Popen) -> None:
        if p.poll() is None:
            p.terminate()
            try:
                p.wait(timeout=15)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        if p.stdout:
            p.stdout.close()
        if p in self.procs:
            self.procs.remove(p)

    def close(self) -> None:
        for p in list(self.procs):
            self.stop(p)


def read_line(p: subprocess.Popen, timeout: float) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        ready, _, _ = select.select([p.stdout], [], [], 0.5)
        if ready:
            line = p.stdout.readline().decode()
            if not line:
                break
            return line
        if p.poll() is not None:
            break
    raise BenchError(f"process {p.args[:4]} printed no start line")


def http_json(port: int, method: str, path: str, body: dict | None = None, timeout: float = 60.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        data = None if body is None else json.dumps(body).encode()
        conn.request(method, path, body=data, headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        raw = resp.read()
        try:
            return resp.status, json.loads(raw)
        except ValueError:
            return resp.status, None
    finally:
        conn.close()


def proc_cpu_s(pid: int) -> float:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def children_rss_mb() -> float:
    """Peak RSS of the largest child waited for so far: every kgcqr process
    of the pass is waited for before this is read, the stand-in is not."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class StandInProcess:
    """The stand-in running as a child process, and its statistics."""

    def __init__(self, run: Run, latency: str):
        argv = [sys.executable, str(HERE / "standin.py"), "--root", str(run.root), "--latency", latency]
        self.proc = run.spawn(argv)
        fields = read_line(self.proc, 30).split()  # "port N priority raised|default"
        self.port = int(fields[1])
        self.url = f"http://127.0.0.1:{self.port}/v1"
        run.notes.append(f"stand-in scheduling priority: {fields[3]}")

    def stats(self) -> dict:
        return http_json(self.port, "GET", "/stats")[1]

    def reset(self) -> None:
        http_json(self.port, "POST", "/stats/reset", {})


# -- shared phases ------------------------------------------------------------


class Commands:
    """A workload's ``build-kg``, ``index`` and ``eval`` commands on its
    generated inputs. ``round`` runs each once, until ``run.repeats``
    rounds are done; build_s, index_s and eval_s are medians over the
    rounds. Workloads spread the rounds over the run instead of running
    them back to back, because the machine's speed drifts over tens of
    seconds: sixteen back-to-back runs of query-20k's ``index`` went from
    2.1 to 3.6 s within a minute. Every round writes the same artifacts,
    and the config points at them."""

    def __init__(self, run: Run, inputs: gen.Inputs, eval_queries: list, base_url: str | None,
                 mock_build: bool, mock_eval: bool):
        self.run = run
        corpus = gen.write_corpus(inputs, run.work / "corpus.jsonl")
        self.art = run.work / "artifacts"
        self.cfg = gen.write_config(run.work / "run.cfg", run.root, self.art, corpus, base_url)
        subset = gen.write_eval(eval_queries, run.work / "eval.jsonl")
        self.metrics_file = run.work / "metrics.json"
        common = ["--corpus", str(corpus), "--config", str(self.cfg)] + (["--mock"] if mock_build else [])
        self.args = {
            "build": ["build-kg", "--out", str(self.art), *common],
            "index": ["index", "--kg", str(self.art), "--out", str(self.art), *common],
            "eval": ["eval", "--dataset", str(subset), "--config", str(self.cfg), "--retriever", "dense",
                     "--per-query", "--out", str(self.metrics_file)] + (["--mock"] if mock_eval else []),
        }
        self.times: dict[str, list[float]] = {name: [] for name in self.args}

    def round(self) -> None:
        done = len(self.times["build"])
        if done < self.run.repeats:
            for name, args in self.args.items():
                self.times[name].append(self.run.kgcqr(args, f"{name}{done}"))

    def eval_report(self) -> dict:
        return json.loads(self.metrics_file.read_text(encoding="utf-8"))

    def medians(self) -> dict:
        assert len(self.times["build"]) == self.run.repeats
        self.run.notes.append("command rounds: " + "; ".join(
            f"{name} " + " ".join(f"{t:.3f}" for t in times) + " s" for name, times in self.times.items()))
        return {f"{name}_s": median(times) for name, times in self.times.items()}


def check_eval(run: Run, report: dict, rankings: dict, gold: dict) -> None:
    """Eval's per-query AP equals the literal AP of the measured ranking of
    the same query whenever that ranking holds the gold document; else it
    must be below what the first rank past that ranking could give."""
    errors = []
    for row in report["per_query"]:
        ranking = rankings[row["query_id"]]
        relevant = gold[row["query_id"]]
        literal, _ = checks.literal_metrics({"q": ranking}, {"q": relevant})
        if relevant & set(ranking):
            errors += checks.metric_errors(f"eval ap {row['query_id']}", row["ap"], literal)
        elif row["ap"] > 1.0 / (len(ranking) + 1) + checks.METRIC_TOL:
            errors.append(f"eval ap {row['ap']} for {row['query_id']} though gold is past rank {len(ranking)}")
    run.check("eval", errors)


def query_worker(run: Run, cfg: Path, queries: list, warmup: list, top_n: int, mock: bool, loads: int) -> dict:
    spec = run.work / "spec.json"
    out = run.work / "queries.json"
    spec.write_text(json.dumps({
        "config": str(cfg), "mock": mock, "loads": loads, "top_n": top_n,
        "warmup": [q for _, q, _ in warmup],
        "queries": [[qid, q] for qid, q, _ in queries],
        "gold": {qid: [g] for qid, _, g in queries},
    }), encoding="utf-8")
    argv = [sys.executable, str(HERE / "worker.py"), "queries", str(spec), str(out)]
    if run.traced:
        trace = run.work / "trace-queries.json"
        run.trace_files.append(trace)
        argv += ["--trace-out", str(trace)]
    run.timed(argv, "queries")
    run.attempted += loads + len(queries) - 1  # timed() counted the process once
    return json.loads(out.read_text(encoding="utf-8"))


def check_queries(run, res, inputs, cfg, embed_q, doc_rows, top_n) -> dict:
    """Checks on in-process query results; returns rankings by query id."""
    from kgcqr.config import load_config

    params = load_config(cfg).params
    planted = set(inputs.facts)
    texts = {qid: q for qid, q, _ in inputs.queries}
    rankings = {}
    for row in res["queries"]:
        qid = row["query_id"]
        rankings[qid] = [d for d, _ in row["ranking"]]
        run.check(qid, doc_rows.check(row["fused"], row["ranking"], top_n or len(doc_rows.ids)))
        run.check(qid, checks.fused_errors(row["fused"], texts[qid], row["context"], params.alpha, embed_q))
        run.check(qid, checks.subgraph_errors(row["subgraph"], planted, row["extracted"], row["added"], params.k_complete))
    gold = {qid: {g} for qid, _, g in inputs.queries if qid in rankings}
    lit_map, lit_recall = checks.literal_metrics(rankings, gold)
    run.check("metrics", checks.metric_errors("map", res["map"], lit_map))
    run.check("metrics", checks.metric_errors("recall_at_25", res["recall_at_25"], lit_recall))
    return rankings


def closed_loop_metrics(res: dict) -> dict:
    lat = [q["latency_ms"] for q in res["queries"]]
    n = len(lat)
    run_tail, pct = tail(lat)
    return {
        "setup_s": median(res["setup_s"]),
        "latency_p50_ms": median(lat),
        "latency_tail_ms": run_tail,
        "tail_pct": pct,
        "samples": n,
        "throughput_qps": n / res["wall_s"],
        "cpu_ms_per_query": 1000.0 * res["cpu_s"] / n,
        "map": res["map"],
        "recall_at_25": res["recall_at_25"],
    }


def doc_rows_for(inputs: gen.Inputs, embed) -> checks.DocRows:
    return checks.DocRows([d for d, _ in inputs.docs], np.stack([embed(t) for _, t in inputs.docs]))


def check_index(run: Run, art: Path, inputs: gen.Inputs, embed, sample: int | None) -> None:
    _, keys, rows = checks.read_index(art / "doc.idx")
    expected = dict(inputs.docs)
    pick = None if sample is None else random.Random(run.seed).sample(sorted(expected), sample)
    run.check("doc.idx", checks.index_errors(keys, rows, expected, embed, pick))
    _, keys, rows = checks.read_index(art / "ttr.idx")
    expected = {"\t".join(f): checks.ttr_sentence(f) for f in inputs.facts}
    pick = None if sample is None else random.Random(run.seed).sample(sorted(expected), sample)
    run.check("ttr.idx", checks.index_errors(keys, rows, expected, embed, pick))


# -- workloads ----------------------------------------------------------------


def query_20k(run: Run) -> dict:
    n = QUERIES_PER_SECOND["query-20k"] * run.seconds
    sizes = gen.Sizes(entities=2000, triplets=20000, repeat_share=0.2, queries=n + WARMUP)
    inputs = gen.generate(run.seed, sizes)
    queries, warmup = inputs.queries[:n], inputs.queries[n:]
    cmds = Commands(run, inputs, queries[:3], None, mock_build=True, mock_eval=True)
    cfg, art = cmds.cfg, cmds.art
    cmds.round()
    res = query_worker(run, cfg, queries, warmup, top_n=25, mock=True, loads=run.loads)
    cmds.round()
    embed = checks.embedder(gen.DIM, wire=False)
    rankings = check_queries(run, res, inputs, cfg, embed, doc_rows_for(inputs, embed), 25)
    cmds.round()
    run.check("graph", checks.graph_errors(checks.read_triplets(art / "triplets.jsonl"), inputs.facts, inputs.first_source))
    check_index(run, art, inputs, embed, sample=300)
    check_eval(run, cmds.eval_report(), rankings, inputs.gold())
    run.layer["loadgen.lag_ms_max"] = max(res["lag_ms"])
    run.layer["outside_stages.ms_p50"] = median([q["latency_ms"] - q["stage_ms"] for q in res["queries"]])
    m = closed_loop_metrics(res)
    m.update(peak_rss_mb=children_rss_mb(), **cmds.medians())
    return m


def build_index(run: Run) -> dict:
    n = QUERIES_PER_SECOND["build-index"] * run.seconds
    sizes = gen.Sizes(entities=240, triplets=300, repeat_share=0.3, queries=n + 3)
    standin = StandInProcess(run, "judge=3,generate=3,extraction=3,ttr=3,hyde=3,embed=3")
    inputs = gen.generate(run.seed, sizes)
    queries, warmup = inputs.queries[:n], inputs.queries[n:]
    cmds = Commands(run, inputs, queries[:10], standin.url, mock_build=False, mock_eval=False)
    cfg, art = cmds.cfg, cmds.art
    cmds.round()
    # A load of these 300 triplets takes about 15 ms and moves by 20% from
    # one load to the next, so setup_s here is the median of more loads.
    res = query_worker(run, cfg, queries, warmup, top_n=0, mock=False, loads=5 * run.loads)
    cmds.round()
    embed = checks.embedder(gen.DIM, wire=True)
    rankings = check_queries(run, res, inputs, cfg, embed, doc_rows_for(inputs, embed), 0)
    cmds.round()
    built = standin.stats()
    run.layer["providers.max_inflight"] = built["peak_inflight"]
    run.check("stand-in", [f"{u} prompts matched no template" for u in [built["unmatched"]] if u])
    if built["calls"]["extraction"] != run.repeats * len(inputs.docs) or built["calls"]["ttr"] != run.repeats * len(inputs.facts):
        run.check("build", [f"stand-in saw {built['calls']}, expected one extraction per chunk and one ttr per fact"])
    run.check("graph", checks.graph_errors(checks.read_triplets(art / "triplets.jsonl"), inputs.facts, inputs.first_source))
    check_index(run, art, inputs, embed, sample=None)
    report = cmds.eval_report()
    check_eval(run, report, rankings, inputs.gold())
    gold = {row["query_id"]: inputs.gold()[row["query_id"]] for row in report["per_query"]}
    run.check("eval map", checks.metric_errors("eval map", report["map"], checks.literal_metrics(rankings, gold)[0]))
    run.layer["loadgen.lag_ms_max"] = max(res["lag_ms"])
    run.layer["outside_stages.ms_p50"] = median([q["latency_ms"] - q["stage_ms"] for q in res["queries"]])
    m = closed_loop_metrics(res)
    m.update(peak_rss_mb=children_rss_mb(), **cmds.medians())
    return m


# Provider latency injected at the stand-in for serve-llm, ms per call.
# These are set, not measured from a hosted provider: long enough that the
# serial waits (about 20 judge calls, one generate and two embeds a
# request) make up most of a request's latency, which each run prints,
# and short enough that a run sends a few dozen requests.
SERVE_LATENCY_MS = {"judge": 20, "generate": 50, "embed": 20}
# Offered requests per second, open loop, evenly paced. At the highest,
# each of two connections gets a request every second, against about
# 0.65 s of service: at 2.5/s a slow spell of the machine pushed service
# past the 0.8 s interval, requests queued and the run's tail doubled.
SERVE_RATES = (1.25, 1.75, 2.0)
# Seconds of offered load per rate, per unit of --seconds: at 20, the three
# rates give 40 requests, enough for a tail with ten samples beyond it to
# sit at the 75th percentile.
SERVE_PHASE = 0.4
SERVE_TOP_N = 25
SLO_MS = 1000.0  # on the p90 of each rate


def serve_counts(seconds: int) -> tuple[list[int], int]:
    """Requests per offered rate (open loop), and in the closed-loop burst."""
    return [round(rate * SERVE_PHASE * seconds) for rate in SERVE_RATES], round(0.5 * seconds)


def send_all(port: int, bodies: list[dict], dues: list[float] | None, conns: int, raised: list[bool]) -> list[dict]:
    """Send ``bodies`` over at most ``conns`` connections. With ``dues``
    (seconds from start) it is an open loop timed from each due time; with
    None each connection sends back to back (closed loop). Whether each
    sending thread got a raised priority is appended to ``raised``."""
    results: list = [None] * len(bodies)
    nxt = [0]
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def worker() -> None:
        raised.append(standin.raise_priority())
        while True:
            with lock:
                i = nxt[0]
                nxt[0] += 1
            if i >= len(bodies):
                return
            picked = time.perf_counter()
            due = start + dues[i] if dues is not None else picked
            if due > picked:
                time.sleep(due - picked)
            sent = time.perf_counter()
            try:
                status, payload = http_json(port, "POST", "/retrieve", bodies[i])
            except OSError as exc:
                status, payload = 0, {"error": str(exc)}
            done = time.perf_counter()
            results[i] = {"due": due, "sent": sent, "done": done, "lag": sent - max(due, picked),
                          "status": status, "payload": payload}

    threads = [threading.Thread(target=worker) for _ in range(conns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def serve_llm(run: Run) -> dict:
    counts, burst = serve_counts(run.seconds)
    n = sum(counts) + burst
    # 5k triplets rather than fewer: at 2k, build-kg and index took half a
    # second, mostly interpreter start-up, and moved by 25% between runs.
    sizes = gen.Sizes(entities=2500, triplets=5000, repeat_share=0.2, queries=n + LOADS)
    standin = StandInProcess(run, ",".join(f"{k}={v}" for k, v in SERVE_LATENCY_MS.items()))
    inputs = gen.generate(run.seed, sizes)
    queries, probes = inputs.queries[:n], inputs.queries[n:]
    cmds = Commands(run, inputs, queries[:3], standin.url, mock_build=True, mock_eval=False)
    cfg = cmds.cfg
    cmds.round()

    setup_s = []
    server = None
    for i in range(run.loads):
        if server is not None:
            run.stop(server)
        t0 = time.perf_counter()
        server = run.spawn(run._argv(["serve", "--config", str(cfg)], f"serve{i}"))
        port = int(read_line(server, 60).rstrip().rsplit(":", 1)[1])
        probe = {"query": probes[i][1], "top_n": SERVE_TOP_N}
        while http_json(port, "POST", "/retrieve", probe)[0] != 200:
            if server.poll() is not None or time.perf_counter() - t0 > 60:
                raise BenchError("server never answered 200")
            time.sleep(0.005)
        setup_s.append(time.perf_counter() - t0)
    run.attempted += run.loads
    cmds.round()  # the server idles meanwhile

    standin.reset()
    cpu0 = proc_cpu_s(server.pid)
    bodies = [{"query": q, "top_n": SERVE_TOP_N, "retriever": "dense"} for _, q, _ in queries]
    sweep, first, raised = [], 0, []
    for rate, count in zip(SERVE_RATES, counts):
        dues = [i / rate for i in range(count)]
        sweep.append(send_all(port, bodies[first : first + count], dues, CONNECTIONS, raised))
        first += count
    t0 = time.perf_counter()
    closed = send_all(port, bodies[-burst:], None, CONNECTIONS, raised)
    burst_s = time.perf_counter() - t0
    cpu_s = proc_cpu_s(server.pid) - cpu0
    calls = standin.stats()
    run.stop(server)
    run.layer["providers.max_inflight"] = calls["peak_inflight"]

    replies = [x for phase in sweep for x in phase] + closed
    run.attempted += len(replies)
    run.failed += sum(1 for x in replies if x["status"] != 200)
    ok = [x for x in replies if x["status"] == 200]
    if len(ok) != len(replies):
        raise BenchError(f"{len(replies) - len(ok)} requests failed, e.g. {next(x for x in replies if x['status'] != 200)}")

    from kgcqr.config import load_config
    from kgcqr.metrics import EvalRecord, evaluate
    from kgcqr.retrieval import RankedResult

    params = load_config(cfg).params
    planted = set(inputs.facts)
    embed_q = checks.embedder(gen.DIM, wire=True)
    doc_rows = doc_rows_for(inputs, checks.embedder(gen.DIM, wire=False))
    rankings = {}
    for (qid, query, _), x in zip(queries, replies):
        run.check(qid, checks.reply_errors(x["status"], x["payload"], SERVE_TOP_N, len(inputs.docs)))
        trace = x["payload"]["trace"]
        ranking = [(r["doc_id"], r["score"]) for r in x["payload"]["ranking"]]
        rankings[qid] = [d for d, _ in ranking]
        fused = checks.expected_fused(query, trace["context"], params.alpha, embed_q)
        run.check(qid, doc_rows.check(fused, ranking, SERVE_TOP_N))
        sub = [(s["head"], s["relation"], s["tail"]) for s in trace["subgraph"]]
        stages = trace["stages"]
        run.check(qid, checks.subgraph_errors(sub, planted, stages["extract"]["triplets"], stages["complete"]["added"], params.k_complete))
    run.check("stand-in", checks.accounting_errors(calls["calls"], [x["payload"]["trace"] for x in replies]))
    run.check("stand-in", [f"{calls['unmatched']} prompts matched no template"] if calls["unmatched"] else [])
    gold = {q: g for q, g in inputs.gold().items() if q in rankings}
    lit_map, lit_recall = checks.literal_metrics(rankings, gold)
    records = [EvalRecord(q, t, {g}) for q, t, g in queries]
    prog = evaluate([RankedResult(q, [(d, 0.0) for d in rankings[q]]) for q, _, _ in queries], records, ks=(25,))
    run.check("metrics", checks.metric_errors("map", prog.map, lit_map))
    run.check("metrics", checks.metric_errors("recall_at_25", prog.recall_at[25], lit_recall))
    cmds.round()
    check_eval(run, cmds.eval_report(), rankings, inputs.gold())
    check_in_process(run, cfg, queries[:5], replies[:5], embed_q, params)

    lat = [1000.0 * (x["done"] - x["due"]) for phase in sweep for x in phase]
    lat_tail, pct = tail(lat)
    run.layer["loadgen.lag_ms_max"] = 1000.0 * max(x["lag"] for phase in sweep for x in phase)
    run.layer["outside_stages.ms_p50"] = median([
        1000.0 * (x["done"] - x["sent"]) - sum(s["wall_ms"] for s in x["payload"]["trace"]["stages"].values())
        for x in replies
    ])
    meeting = []
    for rate, phase in zip(SERVE_RATES, sweep):
        ms = sorted(1000.0 * (x["done"] - x["due"]) for x in phase)
        p90 = ms[-(-9 * len(ms) // 10) - 1]
        late = [x["sent"] - x["due"] for x in phase]
        q = max(1, len(late) // 4)
        growing = statistics.mean(late[-q:]) > statistics.mean(late[:q]) + 2.0 / rate
        if p90 <= SLO_MS and not growing:
            meeting.append(rate)
        run.notes.append(f"rate {rate:g}/s: p50 {median(ms):.1f} ms, p90 {p90:.1f} ms over {len(ms)}, "
                         f"backlog {'growing' if growing else 'steady'}")
    run.notes.append(f"max_rate_at_slo_qps {max(meeting, default=0):g} 1/s (p90 <= {SLO_MS:g} ms)")
    wait_ms = sum(SERVE_LATENCY_MS.get(k, 0) * c for k, c in calls["calls"].items()) / len(replies)
    run.notes.append(f"injected provider wait {wait_ms:.1f} ms a request, "
                     f"{100 * wait_ms / median(lat):.0f}% of latency_p50_ms")
    run.notes.append(f"load generator scheduling priority: {'raised' if all(raised) else 'default'}")
    return {
        "setup_s": median(setup_s),
        "latency_p50_ms": median(lat),
        "latency_tail_ms": lat_tail,
        "tail_pct": pct,
        "samples": len(lat),
        "throughput_qps": burst / burst_s,
        "cpu_ms_per_query": 1000.0 * cpu_s / len(replies),
        "peak_rss_mb": children_rss_mb(),
        "map": lit_map,
        "recall_at_25": lit_recall,
        **cmds.medians(),
    }


def check_in_process(run: Run, cfg: Path, queries: list, replies: list, embed_q, params) -> None:
    """A sample of HTTP rankings must equal in-process Runtime.retrieve
    against the same stand-in."""
    from kgcqr.config import load_config
    from kgcqr.runtime import Runtime

    runtime = Runtime.load(load_config(cfg), False)
    # Side by side, as the server runs requests; each mostly waits on the stand-in.
    with ThreadPoolExecutor(len(queries)) as pool:
        results = list(pool.map(lambda q: runtime.retrieve(q[1], SERVE_TOP_N, retriever="dense"), queries))
    for (qid, query, _), x, (result, ctx) in zip(queries, replies, results):
        http_ranking = [(r["doc_id"], r["score"]) for r in x["payload"]["ranking"]]
        if result.ranking != http_ranking:
            run.check(qid, ["HTTP ranking differs from in-process Runtime.retrieve"])
        run.check(qid, checks.fused_errors(ctx.fused_vector, query, ctx.context_text, params.alpha, embed_q))


WORKLOADS = {"query-20k": query_20k, "serve-llm": serve_llm, "build-index": build_index}


def samples(workload: str, seconds: int) -> int:
    """Latency samples a run of ``workload`` measures at ``--seconds``."""
    if workload == "serve-llm":
        return sum(serve_counts(seconds)[0])
    return QUERIES_PER_SECOND[workload] * seconds


# -- per-layer summary ----------------------------------------------------------


def layer_metrics(run: Run, plain: dict, traced: dict) -> dict:
    spans = []  # (name, seconds, in_query, parent_name, attrs)
    peaks = []
    for path in run.trace_files:
        data = json.loads(path.read_text(encoding="utf-8"))
        peaks.append(data["provider_peak"])
        raw = data["spans"]
        in_query = [False] * len(raw)
        for i, s in enumerate(raw):
            if s is None:
                continue
            name, t0, t1, parent, attrs = s
            in_query[i] = name == "runtime.retrieve" or (parent >= 0 and in_query[parent])
            pname = raw[parent][0] if parent >= 0 and raw[parent] else ""
            spans.append((name, t1 - t0, in_query[i], pname, attrs))

    def durations(name, cond=lambda s: True):
        return [s[1] for s in spans if s[0] == name and cond(s)]

    ctx = [s[4] for s in spans if s[0] == "pipeline.contextualize" and "stages" in s[4]]
    nq = max(1, len(durations("runtime.retrieve")))
    builds = max(1, len(durations("construction.build_kg")))
    chats = [s for s in spans if s[0] == "providers.chat"]
    embeds = [s for s in spans if s[0] == "providers.embed"]
    out = {
        "runtime.load_s": median(durations("runtime.load")),
        "graph.load_s": median(durations("graph.load")),
        "vindex.load_s": median(durations("vindex.load")),
        "retrieval.bm25_build_s": median(durations("retrieval.bm25_build")),
        "pipeline.complete.expansions_p50": median([c["expansions"] for c in ctx]),
        "pipeline.complete.paths_p50": median([c["paths"] for c in ctx]),
        "vindex.search_ttr.ms_p50": 1000 * median(durations("vindex.search", lambda s: s[3] == "pipeline.extract_subgraph")),
        "vindex.search_doc.ms_p50": 1000 * median(durations("vindex.search", lambda s: s[3] != "pipeline.extract_subgraph")),
        "providers.chat.calls_per_query": sum(1 for s in chats if s[2]) / nq,
        "providers.embed.calls_per_query": sum(1 for s in embeds if s[2]) / nq,
        "providers.chat.ms_p50": 1000 * median([s[1] for s in chats if s[2]]),
        "providers.wait_ms_per_query": 1000 * sum(s[1] for s in chats + embeds if s[2]) / nq,
        "providers.embed.texts_per_call": statistics.mean([s[4].get("texts", 0) for s in embeds]) if embeds else 0.0,
        "providers.max_inflight": max(peaks, default=0),
        "construction.extract.calls": sum(1 for s in chats if s[4].get("template") == "kg_extract") / builds,
        "construction.ttr.calls": sum(1 for s in chats if s[4].get("template") == "ttr") / builds,
        "graph.save_s": median(durations("graph.save")),
        "vindex.save_s": median(durations("vindex.save")),
        "metrics.evaluate_s": median(durations("metrics.evaluate")),
        "trace.overhead_pct": 100.0 * (traced["latency_p50_ms"] - plain["latency_p50_ms"]) / plain["latency_p50_ms"],
    }
    for stage in ("extract", "filter", "complete", "generate", "fuse"):
        out[f"pipeline.{stage}.ms_p50"] = median([c["stages"][stage] for c in ctx])
    out.update(run.layer)
    return out


# -- entry point ----------------------------------------------------------------


def one_pass(workload: str, root: Path, work: Path, seed: int, seconds: int, traced: bool):
    run = Run(root, work, seed, seconds, traced)
    try:
        metrics = WORKLOADS[workload](run)
    finally:
        run.close()
    return run, metrics


def report(spec: dict, workload: str, run: Run, metrics: dict, traced_run: Run | None, traced_metrics: dict | None) -> dict:
    """Print every metric named in BENCHMARK.json (``spec``) and return the
    result object."""
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print(f"workload {workload}: attempted {run.attempted}, failed {run.failed}")
    for name, unit in end_to_end.items():
        print(f"  {name:<22} {metrics[name]:12.4f} {unit}")
    print(f"  tail percentile p{metrics['tail_pct']:.1f} over {metrics['samples']} samples")
    for note in run.notes:
        print(f"  {note}")
    errors = run.errors + (traced_run.errors if traced_run else [])
    for e in errors[:20]:
        print(f"  CHECK FAILED {e}")
    if traced_run is None:
        values = {k: {"value": metrics[k], "unit": u} for k, u in end_to_end.items()}
    else:
        layer = layer_metrics(traced_run, metrics, traced_metrics)
        print("per-layer (traced pass):")
        for name, unit in per_layer.items():
            print(f"  {name:<34} {layer[name]:12.4f} {unit}")
        values = {k: {"value": layer[k], "unit": u} for k, u in per_layer.items()}
    return {"correct": not errors, "attempted": run.attempted, "failed": run.failed, "metrics": values}


def main() -> int:
    ap = argparse.ArgumentParser(description="kgcqr benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20, help="scales the fixed operation counts")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1 or samples(args.workload, args.seconds) < TAIL_MIN:
        least = next(s for s in range(1, 1000) if samples(args.workload, s) >= TAIL_MIN)
        ap.error(f"--seconds must be at least {least} for {args.workload}, "
                 f"so that the tail latency has {TAIL_MIN} samples")
    # A SIGTERM still runs the finally blocks below, so every child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "kgcqr" / "cli.py").is_file() or not (root / "templates").is_dir():
        print("error: run from the root of a kgcqr checkout (src/kgcqr and templates/ not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run, metrics = one_pass(args.workload, root, work / "plain", args.seed, args.seconds, False)
        traced_run = traced_metrics = None
        if args.trace:
            traced_run, traced_metrics = one_pass(args.workload, root, work / "traced", args.seed, args.seconds, True)
        result = report(spec, args.workload, run, metrics, traced_run, traced_metrics)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
